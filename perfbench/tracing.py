"""Per-layer tracing of todalax, installed from outside the library.

``Tracer.install`` replaces every public function of the eight library
modules (and a few named methods) with a wrapper that records one span per
call: name, start, end and parent span.  Because the modules import each
other's functions by name, every module namespace that binds an original
function gets the wrapper, so calls between layers are seen too.  Counts are
taken at the same boundaries: numpy linear-algebra calls made while a library
span is open, phase-point constructions, curve evaluations, right-hand-side
evaluations at the ``solve_ivp`` boundary and Gauss-Newton iterations.

Spans are kept in flat arrays in memory and written out once, when the run
ends.  A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("lax", "spectral", "dynamics", "singularity", "maslov", "verify", "reporting", "cli")
LINALG = ("eigh", "eigvalsh", "svd", "matrix_power")
WALKERS = ("maslov.maslov_index", "maslov.transport_eigenvectors")

# Per-layer metrics: name -> (unit, better).  Their meaning is in README.md.
PER_LAYER = {
    "lax.build_lax.calls": ("count", "lower"),
    "lax.build_lax.self_ms": ("ms", "lower"),
    "lax.phase_point.constructions": ("count", "lower"),
    "lax.structure_checks.self_ms": ("ms", "lower"),
    "spectral.decompose.calls": ("count", "lower"),
    "spectral.decompose.self_ms": ("ms", "lower"),
    "spectral.interlacing_check.self_ms": ("ms", "lower"),
    "linalg.eigh.calls": ("count", "lower"),
    "linalg.eigvalsh.calls": ("count", "lower"),
    "linalg.svd.calls": ("count", "lower"),
    "linalg.matrix_power.calls": ("count", "lower"),
    "dynamics.rhs.evals": ("count", "lower"),
    "dynamics.rhs.us_per_eval": ("us", "lower"),
    "dynamics.integrate_flow.self_ms": ("ms", "lower"),
    "dynamics.trajectory_to_csv.self_ms": ("ms", "lower"),
    "dynamics.grad_F.calls": ("count", "lower"),
    "dynamics.grad_F.self_ms": ("ms", "lower"),
    "dynamics.lax_residual.self_ms": ("ms", "lower"),
    "singularity.corank.self_ms": ("ms", "lower"),
    "singularity.find_singular.self_ms": ("ms", "lower"),
    "singularity.find_singular.iterations": ("count", "lower"),
    "singularity.structure_checks.self_ms": ("ms", "lower"),
    "maslov.curve.evals": ("count", "lower"),
    "maslov.walk.accept_ratio": ("ratio", "higher"),
    "maslov.transport_eigenvectors.self_ms": ("ms", "lower"),
    "maslov.maslov_index.self_ms": ("ms", "lower"),
    "maslov.enclosure_count_check.self_ms": ("ms", "lower"),
    "maslov.toda_frame.calls": ("count", "lower"),
    "verify.run_suite.self_ms": ("ms", "lower"),
    "verify.check.isospectral_flows_s": ("s", "lower"),
    "verify.check.maslov_theorem_s": ("s", "lower"),
    "verify.check.random_points_s": ("s", "lower"),
    "reporting.to_json.self_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Self-time groups: metric -> span names whose self time it sums.
SELF_GROUPS = {
    "lax.build_lax.self_ms": ("lax.build_lax",),
    "lax.structure_checks.self_ms": (
        "lax.off_band_check", "lax.trace_relation_check", "lax.char_poly_offset",
    ),
    "spectral.decompose.self_ms": ("spectral.decompose",),
    "spectral.interlacing_check.self_ms": ("spectral.interlacing_check",),
    "dynamics.integrate_flow.self_ms": ("dynamics.integrate_flow",),
    "dynamics.trajectory_to_csv.self_ms": ("dynamics.trajectory_to_csv",),
    "dynamics.grad_F.self_ms": ("dynamics.grad_F",),
    "dynamics.lax_residual.self_ms": ("dynamics.lax_residual",),
    "singularity.corank.self_ms": ("singularity.corank",),
    "singularity.find_singular.self_ms": ("singularity.find_singular",),
    "singularity.structure_checks.self_ms": (
        "singularity.hessian_structure_check", "singularity.bracket_relations_check",
        "singularity.tangent_symplectic_check",
    ),
    "maslov.transport_eigenvectors.self_ms": ("maslov.transport_eigenvectors",),
    "maslov.maslov_index.self_ms": ("maslov.maslov_index",),
    "maslov.enclosure_count_check.self_ms": ("maslov.enclosure_count_check",),
    "reporting.to_json.self_ms": ("reporting.to_json",),
}
CALL_COUNTS = {
    "lax.build_lax.calls": "lax.build_lax",
    "spectral.decompose.calls": "spectral.decompose",
    "dynamics.grad_F.calls": "dynamics.grad_F",
    "maslov.toda_frame.calls": "maslov.toda_frame",
}
# Whole-layer self time: the orchestration layers are split over several
# public functions (cli.main dispatches to the cmd_* functions, run_suite to
# pool_map), and the metric is the time spent in the layer's own code.
LAYER_SELF = {"verify.run_suite.self_ms": "verify.", "cli.main.self_ms": "cli."}


class _Walk:
    """Accepted-step bookkeeping of one walker call.

    A walker evaluates the curve at t = 0 to start a loop, then at
    increasing t; after a rejected step it evaluates the midpoint, which is
    smaller than the rejected t.  So an evaluation was an accepted step
    exactly when the next one of the same loop lies further on, or when it
    is the last one of the loop.
    """

    __slots__ = ("prev", "accepted", "evals")

    def __init__(self):
        self.prev = None
        self.accepted = 0
        self.evals = 0

    def see(self, t: float) -> None:
        self.evals += 1
        if self.prev is not None and (t == 0.0 or t > self.prev):
            self.accepted += 1
        self.prev = None if t == 0.0 else t

    def close(self) -> None:
        if self.prev is not None:
            self.accepted += 1
        self.prev = None


class Tracer:
    """Spans and counts of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.observed: Counter = Counter()
        self.recording = False
        self._undo: list[tuple[object, str, object]] = []
        self._walks: list[_Walk] = []
        self._in_curve = False

    # -- recording -----------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_return=None, walker: bool = False):
        """A wrapper around ``fn`` that records a span named ``name``."""
        nid = self._name(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if walker:
                self._walks.append(_Walk())
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if walker:
                    walk = self._walks.pop()
                    walk.close()
                    self.counts["walk.accepted"] += walk.accepted
                    self.counts["walk.evals"] += walk.evals
            if on_return is not None:
                on_return(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_inside(self, key: str, fn):
        def counted(*args, **kwargs):
            if self.recording and self.stack:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    @contextmanager
    def region(self, name: str):
        """Record one span around a block (used around each op)."""
        if not self.recording:
            yield
            return
        idx = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks an output."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the library's public functions in every namespace that binds them."""
        modules = [sys.modules["todalax"]] + [sys.modules[f"todalax.{m}"] for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"todalax.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    hook = self._on_find if name == "singularity.find_singular" else None
                    wrappers[fn] = self.wrap(name, fn, hook, walker=name in WALKERS)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])

        from todalax.lax import PhasePoint
        from todalax.maslov import ClosedCurve
        from todalax.reporting import VerificationReport
        import todalax.dynamics as dynamics

        self._patch(VerificationReport, "to_json",
                    self.wrap("reporting.to_json", VerificationReport.to_json))
        self._patch(PhasePoint, "__post_init__",
                    self._count_inside("phase_point", PhasePoint.__post_init__))
        self._patch(ClosedCurve, "__post_init__", self._curve_init(ClosedCurve.__post_init__))
        self._patch(dynamics, "solve_ivp", self._solve_ivp(dynamics.solve_ivp))
        for fn in LINALG:
            self._patch(np.linalg, fn, self._count_inside(f"linalg.{fn}", getattr(np.linalg, fn)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _on_find(self, point) -> None:
        self.counts["find_singular.iterations"] += point.iterations

    def _solve_ivp(self, solve_ivp):
        rhs_name = "dynamics.rhs"

        def traced_solve_ivp(fun, *args, **kwargs):
            return solve_ivp(self.wrap(rhs_name, fun), *args, **kwargs)

        return traced_solve_ivp

    def _curve_init(self, post_init):
        tracer = self

        def init(curve):
            post_init(curve)
            point_at = curve.point_at

            def counted_point_at(t):
                if not tracer.recording or tracer._in_curve:
                    return point_at(t)
                tracer.counts["curve.evals"] += 1
                if tracer._walks:
                    tracer._walks[-1].see(float(t))
                tracer._in_curve = True
                try:
                    return point_at(t)
                finally:
                    tracer._in_curve = False

            object.__setattr__(curve, "point_at", counted_point_at)

        return init

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span name: call count, total span time and total self time (s)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        size = len(self.names)
        return (
            np.bincount(nid, minlength=size),
            np.bincount(nid, weights=dur, minlength=size),
            np.bincount(nid, weights=dur - covered, minlength=size),
        )

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, per op where it is a total."""
        calls, total, own = self.self_times()
        by = {name: i for i, name in enumerate(self.names)}

        def pick(arr, name):
            return float(arr[by[name]]) if name in by else 0.0

        out = {}
        for metric, names in SELF_GROUPS.items():
            out[metric] = 1e3 * sum(pick(own, n) for n in names) / ops
        for metric, name in CALL_COUNTS.items():
            out[metric] = pick(calls, name) / ops
        for metric, prefix in LAYER_SELF.items():
            out[metric] = 1e3 * sum(
                float(own[i]) for name, i in by.items() if name.startswith(prefix)
            ) / ops
        evals = pick(calls, "dynamics.rhs")
        out["dynamics.rhs.evals"] = evals / ops
        out["dynamics.rhs.us_per_eval"] = 1e6 * pick(total, "dynamics.rhs") / evals if evals else 0.0
        out["lax.phase_point.constructions"] = self.counts["phase_point"] / ops
        for fn in LINALG:
            out[f"linalg.{fn}.calls"] = self.counts[f"linalg.{fn}"] / ops
        out["singularity.find_singular.iterations"] = self.counts["find_singular.iterations"] / ops
        out["maslov.curve.evals"] = self.counts["curve.evals"] / ops
        walk_evals = self.counts["walk.evals"]
        out["maslov.walk.accept_ratio"] = (
            self.counts["walk.accepted"] / walk_evals if walk_evals else 0.0
        )
        for key in ("isospectral_flows_s", "maslov_theorem_s", "random_points_s"):
            out[f"verify.check.{key}"] = self.observed[key] / ops
        return out

    def save(self, path) -> None:
        """Write the spans: names, then one row per span (name, parent, start, end)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
