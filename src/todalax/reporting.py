"""Machine-readable verification reports with deterministic serialization.

Floats are rendered as shortest round-trip decimal strings so that byte
comparison of two reports is meaningful; wall-clock times live in a
separate timing block that determinism checks can ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import numpy as np

__all__ = [
    "float_str",
    "vector_strs",
    "CheckRecord",
    "VerificationReport",
]


def float_str(x: float) -> str:
    """Shortest decimal string that round-trips the 64-bit value."""
    return repr(float(x))


def vector_strs(v) -> list[str]:
    return [float_str(x) for x in np.asarray(v, dtype=float).ravel()]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one verification check.

    ``statement`` is a self-describing mathematical summary of what was
    checked ("plumbing" for infrastructure-only checks).  ``status`` is
    pass, fail or inconclusive.  ``detail`` keeps the reason of a check
    whose computation raised; it is serialized only when non-empty.
    """

    check_id: str
    statement: str
    residual: float
    tolerance: float
    status: str
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "statement": self.statement,
            "residual": float_str(self.residual),
            "tolerance": float_str(self.tolerance),
            "status": self.status,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    """Collected check records plus per-check wall time."""

    records: list[CheckRecord] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def add(self, record: CheckRecord, seconds: float | None = None) -> None:
        self.records.append(record)
        if seconds is not None:
            self.timing[record.check_id] = seconds

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def inconclusive(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "inconclusive"]

    def to_json(self, include_timing: bool = True) -> str:
        payload = {
            "config": self.config,
            "results": [r.to_json_dict() for r in self.records],
        }
        if include_timing:
            payload["timing"] = {k: f"{v:.3f}" for k, v in self.timing.items()}
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            lines.append(
                f"[{r.status.upper():^12}] {r.check_id}: residual {r.residual:.3e} "
                f"(tol {r.tolerance:.1e}) - {r.statement}"
            )
        npass = sum(r.status == "pass" for r in self.records)
        lines.append(
            f"{npass}/{len(self.records)} checks passed, "
            f"{len(self.failures)} failed, {len(self.inconclusive)} inconclusive"
        )
        return lines
