"""The full verification suite run by the command-line front end.

Each check exercises one exact statement about the chain (structure of the
Lax powers, conserved-trace identities, rank of the energy-momentum map,
local canonical structure at singular points, holonomy and winding
identities) over deterministic seeded samples, and reduces to a single
residual compared against its pinned tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
import numpy as np

from .lax import (
    PhasePoint,
    SignVector,
    build_lax,
    char_poly_offset,
    off_band_check,
    trace_relation_check,
)
from .dynamics import grad_F, integrate_flow, lax_residual, poisson
from .spectral import interlacing_check
from .singularity import (
    ConvergenceError,
    PairTarget,
    SingularPoint,
    StratumCollapseError,
    all_pair_targets,
    bracket_relations_check,
    corank,
    find_singular,
    hessian_structure_check,
    omega_point,
    perturbed_seed,
    tangent_symplectic_check,
)
from .maslov import (
    ClosedCurve,
    DiskSpec,
    LagrangianFrameError,
    RegularityError,
    TransportError,
    check_holonomy_theorem,
    enclosure_count_check,
    maslov_index,
    oscillator_angle_loop,
    oscillator_frame,
)
from .reporting import CheckRecord, VerificationReport

__all__ = ["RunConfig", "run_suite"]

# Failures of the finder and the loop walkers: a check that meets one is
# recorded as failed with the message, the rest of the suite still runs.
FINDER_ERRORS = (ConvergenceError, StratumCollapseError)
LOOP_ERRORS = FINDER_ERRORS + (RegularityError, TransportError, LagrangianFrameError)


@dataclass
class RunConfig:
    """Suite configuration: sizes, seed, tolerances and output paths."""

    n_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5])
    seed: int = 42
    num_points: int = 200
    flow_t_final: float = 50.0
    degeneracy_tol: float = 1e-8
    rank_tol: float = 1e-7
    bracket_tol: float = 1e-7
    ode_rtol: float = 1e-10
    suite: str = "full"
    out: str | None = None

    def __post_init__(self):
        for name in ("degeneracy_tol", "rank_tol", "bracket_tol", "ode_rtol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")
        if any(n < 2 for n in self.n_values):
            raise ValueError("all n values must be at least 2")
        if self.num_points < 1:
            raise ValueError("num_points must be positive")
        if self.suite not in ("full", "quick"):
            raise ValueError(f"unknown suite {self.suite!r}")

    @property
    def points(self) -> int:
        return max(10, self.num_points // 4) if self.suite == "quick" else self.num_points

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        known = {
            "n_values", "seed", "num_points", "flow_t_final", "degeneracy_tol",
            "rank_tol", "bracket_tol", "ode_rtol", "suite", "out",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


DESK_SCALE = 0.35  # keeps absolute tolerances meaningful up to n = 8


def _random_points(rng: np.random.Generator, n: int, count: int, scale: float = DESK_SCALE):
    return [
        PhasePoint(scale * rng.standard_normal(n), scale * rng.standard_normal(n))
        for _ in range(count)
    ]


def _status(residual: float, tol: float) -> str:
    return "pass" if residual < tol else "fail"


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_suite(config: RunConfig) -> VerificationReport:
    """Run every check of the suite and collect one record per check."""
    report = VerificationReport(config={
        "n_values": config.n_values,
        "seed": config.seed,
        "num_points": config.points,
        "suite": config.suite,
    })
    rng = np.random.default_rng(config.seed)

    def record(check_id, statement, residual, tol, status=None, seconds=None, detail=""):
        report.add(
            CheckRecord(check_id, statement, float(residual), tol,
                        status or _status(residual, tol), detail),
            seconds,
        )

    for n in config.n_values:
        points = _random_points(rng, n, config.points)

        t0 = time.perf_counter()
        worst = 0.0
        for z in points:
            for j in range(1, n + 1):
                rep = off_band_check(z, j)
                worst = max(worst, rep.zero_residual, rep.diagonal_residual)
        record(
            f"off_band[n={n}]",
            "powers L^j - Lbar^j are j-off-banded; first diagonal 2 b_{r-1}..b_{r-j}, 4 at j=n",
            worst, 1e-10, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        worst = max(float(np.max(trace_relation_check(z).residuals)) for z in points)
        record(
            f"trace_gap[n={n}]",
            "Tr L^j = Tr Lbar^j for j < n and Tr L^n - Tr Lbar^n = 4n",
            worst, 1e-9, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        constants = []
        deviation = 0.0
        for z in points:
            rep = char_poly_offset(z)
            constants.append(rep.constant)
            deviation = max(rep.max_deviation, deviation)
        constants = np.array(constants)
        worst = max(
            deviation,
            float(np.max(np.abs(np.abs(constants) - 4.0))),
            float(np.max(constants) - np.min(constants)),
        )
        record(
            f"char_poly_offset[n={n}]",
            "det(xI - L) - det(xI - Lbar) is constant in x and z with magnitude 4",
            worst, 1e-8, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        worst = 0.0
        for z in points:
            grads = [grad_F(z, j) for j in range(1, n + 1)]
            for i in range(n):
                for j in range(i + 1, n):
                    worst = max(worst, abs(poisson(grads[i], grads[j])))
        record(
            f"involution[n={n}]",
            "all pairwise brackets of the conserved traces vanish",
            worst, 1e-9, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        lax_points = points[: max(10, config.points // 4)]
        worst = max(
            lax_residual(z, j, odd)
            for z in lax_points for j in range(1, n + 1) for odd in (False, True)
        )
        record(
            f"lax_equations[n={n}]",
            "bracket of L with each trace equals the commutator with its generator, both classes",
            worst, 1e-8, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        violations = 0
        for z in points:
            violations += len(interlacing_check(z).violations)
        record(
            f"interlacing[n={n}]",
            "merged spectra alternate strictly between classes, weakly inside",
            float(violations), 1.0, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        p0 = float(rng.uniform(-1, 1))
        om = omega_point(n, q0=float(rng.uniform(-1, 1)), p0=p0)
        lam = np.sort(np.linalg.eigvalsh(build_lax(om.z).entries))[::-1]
        bar = np.sort(np.linalg.eigvalsh(build_lax(om.z, SignVector.odd(n)).entries))[::-1]
        worst = max(
            float(np.max(np.abs(lam - om.even_values))),
            float(np.max(np.abs(bar - om.odd_values))),
        )
        record(
            f"omega_spectra[n={n}]",
            "relative-equilibrium spectra match p0 + 2cos(pi k / n) closed forms",
            worst, 1e-12, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        rep = corank(om.z, config.rank_tol, config.degeneracy_tol)
        ok = rep.corank == n - 1 and rep.theorem_holds and not rep.inconclusive
        record(
            f"corank_omega[n={n}]",
            "corank of the trace Jacobian equals nu + nubar = n - 1 at relative equilibria",
            0.0 if ok else 1.0, 0.5,
            status="pass" if ok else ("inconclusive" if rep.inconclusive else "fail"),
            seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        bad = 0
        inconclusive = 0
        for z in points:
            rep = corank(z, config.rank_tol, config.degeneracy_tol)
            if rep.inconclusive:
                inconclusive += 1
            elif rep.corank != 0 or not rep.theorem_holds:
                bad += 1
        status = "pass" if bad == 0 else "fail"
        if bad == 0 and inconclusive > 0:
            status = "inconclusive"
        record(
            f"corank_random[n={n}]",
            "generic points are regular: corank 0 and no degenerate pairs",
            float(bad), 1.0, status=status, seconds=time.perf_counter() - t0,
        )

        t0 = time.perf_counter()
        brep = bracket_relations_check(om.z, config.bracket_tol, degeneracy_tol=config.degeneracy_tol)
        worst = max(
            brep.zero_max,
            float(np.max(np.abs(brep.ratio_errors))) * config.bracket_tol / 1e-6,
            brep.mixed_parity_max,
            brep.conjugate_formula_residual,
            brep.m_independence_max * config.bracket_tol / 1e-9,
        )
        record(
            f"bracket_relations_omega[n={n}]",
            "block coordinates are canonical: only same-pair {xi, eta} brackets survive, "
            "value = pairing / n, pairing m-independent",
            worst, config.bracket_tol, seconds=time.perf_counter() - t0,
        )

    # singular-point structure for n = 3 and 4
    for n in (3, 4):
        if n not in config.n_values:
            continue
        om = omega_point(n)
        targets = all_pair_targets(n)
        found: list[SingularPoint] = []
        t0 = time.perf_counter()
        detail = ""
        try:
            for target in targets:
                rest = [t for t in targets if t != target]
                seed = perturbed_seed(om, rest, eps=1e-2)
                found.append(find_singular(seed, [target]))
        except FINDER_ERRORS as exc:
            detail = _reason(exc)
        record(
            f"sigma1_components[n={n}]",
            "every allowed single-pair degeneracy is realized near the relative equilibrium",
            1.0 if detail else 0.0, 0.5, seconds=time.perf_counter() - t0, detail=detail,
        )
        # the two checks below run on the found points: a missing one fails them
        missing = [t.label for t in targets[len(found):]]
        missing_detail = (
            f"no sigma1_components[n={n}] point for {', '.join(missing)}" if missing else ""
        )

        t0 = time.perf_counter()
        worst = 1.0 if missing else 0.0
        for sp in found:
            rep = corank(sp.z, config.rank_tol, config.degeneracy_tol)
            if rep.corank != 1 or not rep.theorem_holds or rep.inconclusive:
                worst = 1.0
        record(
            f"corank_sigma1[n={n}]",
            "corank 1 = nu + nubar at every refined single-pair point",
            worst, 0.5, seconds=time.perf_counter() - t0, detail=missing_detail,
        )

        t0 = time.perf_counter()
        worst = 1.0 if missing else 0.0
        for sp in found:
            hrep = hessian_structure_check(sp, sp.targets[0], degeneracy_tol=config.degeneracy_tol)
            worst = max(
                worst,
                hrep.residual_full,
                hrep.omega_relative_error,
                0.0 if hrep.trace_K_squared < 0 else 1.0,
            )
            brep = bracket_relations_check(sp, config.bracket_tol,
                                           degeneracy_tol=config.degeneracy_tol)
            worst = max(worst, brep.zero_max * 1e-6 / config.bracket_tol,
                        float(np.max(np.abs(brep.ratio_errors))))
            worst = max(worst, 0.0 if tangent_symplectic_check(sp) > 1e-6 else 1.0)
        record(
            f"transverse_structure[n={n}]",
            "Hessian of the annihilating combination is the spectral dyad sum; "
            "linearized flow elliptic with the closed-form frequency",
            worst, 1e-6, seconds=time.perf_counter() - t0, detail=missing_detail,
        )

    # holonomy and winding checks
    t0 = time.perf_counter()
    mu_osc = maslov_index(oscillator_angle_loop(3), frame_fn=oscillator_frame).mu
    record(
        "maslov_calibration",
        "plumbing: harmonic-oscillator angle loop scores +2 with the stored orientation",
        0.0 if mu_osc == 2 else 1.0, 0.5, seconds=time.perf_counter() - t0,
    )

    if 2 in config.n_values:
        t0 = time.perf_counter()
        detail = ""
        try:
            sp2 = find_singular(omega_point(2).z, [PairTarget(True, 1)])
            curve = ClosedCurve.around_pair(sp2, PairTarget(True, 1), radius=5e-2)
            rep = check_holonomy_theorem(curve)
            ok = (
                rep.agree
                and abs(rep.mu) == 2
                and rep.lhs == -1
                and np.array_equal(rep.holonomy.gammabar, [-1.0, -1.0])
                and np.array_equal(rep.holonomy.gamma, [1.0, 1.0])
            )
        except LOOP_ERRORS as exc:
            ok, detail = False, _reason(exc)
        record(
            "holonomy_omega_line[n=2]",
            "loop around the relative-equilibrium line: odd pair flips, |mu| = 2, "
            "(-1)^(mu/2) = even-index product = -1",
            0.0 if ok else 1.0, 0.5, seconds=time.perf_counter() - t0, detail=detail,
        )

    if 3 in config.n_values:
        t0 = time.perf_counter()
        detail = ""
        try:
            om3 = omega_point(3)
            sp3 = find_singular(
                perturbed_seed(om3, [PairTarget(False, 1)], eps=1e-2), [PairTarget(True, 1)]
            )
            curve = ClosedCurve.around_pair(sp3, PairTarget(True, 1), radius=2e-3)
            rep = check_holonomy_theorem(curve)
            ok = rep.agree and abs(rep.mu) == 2

            z_reg = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
            v1 = np.eye(6)[0]
            v2 = np.eye(6)[4]
            rep_reg = check_holonomy_theorem(ClosedCurve.circle(z_reg, v1, v2, 0.05))
            ok = ok and rep_reg.mu == 0 and rep_reg.agree

            sp3b = find_singular(PhasePoint(sp3.z.q, sp3.z.p + 0.25), [PairTarget(True, 1)])
            enc = enclosure_count_check(
                [DiskSpec(sp3, radius=2e-3), DiskSpec(sp3b, radius=2e-3)]
            )
            ok = ok and enc.passed
        except LOOP_ERRORS as exc:
            ok, detail = False, _reason(exc)
        record(
            "maslov_theorem[n=3]",
            "(-1)^(mu/2) equals the even-indexed holonomy product; boundary winding "
            "counts enclosed singular points as -2 sum sigma",
            0.0 if ok else 1.0, 0.5, seconds=time.perf_counter() - t0, detail=detail,
        )

    if 3 in config.n_values:
        t0 = time.perf_counter()
        z0 = PhasePoint(np.array([0.4, -0.3, -0.1]), np.array([0.2, -0.5, 0.3]))
        drift = 0.0
        for flow_j in (2, 3):
            c = np.zeros(3)
            c[flow_j - 1] = 1.0
            traj = integrate_flow(z0, c, config.flow_t_final,
                                  t_eval=np.linspace(0, config.flow_t_final, 51),
                                  rtol=config.ode_rtol)
            ref = np.sort(np.linalg.eigvalsh(build_lax(z0).entries))
            scale = max(1.0, float(np.max(np.abs(ref))))
            for pt in traj.phase_points():
                vals = np.sort(np.linalg.eigvalsh(build_lax(pt).entries))
                drift = max(drift, float(np.max(np.abs(vals - ref))) / scale)
        record(
            "isospectral_flows[n=3]",
            "eigenvalues of L are constant along the second and third trace flows",
            drift, 1e-8, seconds=time.perf_counter() - t0,
        )

    return report
