"""The verification suite: one ordered registry of checks, ``CHECKS``, run by ``run_suite``.

Each check tests one exact statement about the chain (Lax-power structure, trace
identities, rank of the energy-momentum map, canonical structure at singular
points, holonomy and winding) on a sample, as one residual against its tolerance.
The library's structure checks return residuals; their bounds are defined here, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import groupby
import time
from typing import Callable, NamedTuple
import numpy as np

from .lax import (
    PhasePoint,
    _Powers,
    _char_poly,
    _couplings,
    _is_int,
    _lax,
    _off_band,
    _trace_gaps,
)
from .dynamics import _brackets, _lax_residuals, integrate_flow
from .spectral import (
    EigensolverError,
    TripleDegeneracyError,
    _interlacing_stack,
    _spectra_stack,
)
from .singularity import (
    ConvergenceError,
    OmegaPoint,
    PairTarget,
    SingularPoint,
    StratumCollapseError,
    VanishingPairingError,
    _corank_stack,
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
    calibration_index,
    check_holonomy_theorem,
    enclosure_count_check,
)
from .reporting import CheckRecord, VerificationReport

__all__ = ["RunConfig", "Sample", "Outcome", "Check", "CHECKS", "run_suite"]

# Failures of the finder, the pairing of a pair basis, the loop walk and
# the eigen-decomposition: a check that meets one is recorded as failed
# with the message, the rest of the suite still runs.
COMPUTATION_ERRORS = (ConvergenceError, StratumCollapseError, VanishingPairingError,
                      RegularityError, TransportError, LagrangianFrameError,
                      TripleDegeneracyError, EigensolverError)

# Bounds of the canonical-structure checks: the brackets that vanish,
# |n {xi, eta} / pairing - 1| of every degenerate pair, the spread of the
# pairing's coupling form over m, and the smallest singular value of the
# symplectic form on the stratum tangent.
BRACKET_TOL = 1e-7
RATIO_TOL = 1e-6
M_INDEPENDENCE_TOL = 1e-9
TANGENT_TOL = 1e-6
# Time over which isospectral_flows integrates each trace flow.
FLOW_T_FINAL = 50.0


@dataclass
class RunConfig:
    """Suite configuration: sizes, seed, sample count, suite size and output path."""

    n_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5])
    seed: int = 42
    num_points: int = 200
    suite: str = "full"
    out: str | None = None

    def __post_init__(self):
        for name in ("seed", "num_points"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(_is_int(n) for n in self.n_values):
            raise ValueError(f"n_values must be integers, got {self.n_values}")
        if not self.n_values:
            raise ValueError("n_values must list at least one size")
        if any(n < 2 for n in self.n_values) or len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"n values must be distinct and at least 2, got {self.n_values}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.num_points < 1:
            raise ValueError("num_points must be positive")
        if self.suite not in ("full", "quick"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path string or null, got {self.out!r}")

    @property
    def points(self) -> int:
        return max(10, self.num_points // 4) if self.suite == "quick" else self.num_points

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


DESK_SCALE = 0.35  # keeps absolute tolerances meaningful up to n = 8


def random_points(rng: np.random.Generator, n: int, count: int,
                  scale: float = DESK_SCALE) -> tuple[np.ndarray, np.ndarray]:
    """q and p of ``count`` points, each of shape (count, n), drawn as scale * N(0, 1).

    The draws run point by point, q before p, as ``count`` pairs of calls
    ``scale * rng.standard_normal(n)`` would make them.
    """
    q, p = (scale * rng.standard_normal((count, 2, n))).transpose(1, 0, 2).copy()
    return q, p


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(eq=False)
class Sample:
    """What the checks run on at one size n, None for a check that does not depend on n.

    Random points as stacked rows q, p of shape (N, n), a relative
    equilibrium, centres of contractible loops (any size).  Every
    random-point check reads the stacked rows at once, through one Lax
    power table and one decomposition of both classes.
    """

    n: int | None
    q: np.ndarray | None = None
    p: np.ndarray | None = None
    equilibrium: OmegaPoint | None = None
    centres: tuple[PhasePoint, ...] = ()

    @cached_property
    def powers(self) -> _Powers:
        """Lax power table of the random points, the random-point checks' input.

        A point outside the phase-space domain raises PhasePoint's PhaseDomainError.
        """
        return _Powers(_couplings(self.q, self.p), self.p)

    @cached_property
    def _spectra(self) -> tuple[tuple | None, Exception | None]:
        try:
            return _spectra_stack(self.powers), None
        except COMPUTATION_ERRORS as exc:
            return None, exc

    @property
    def spectra(self) -> tuple[tuple[np.ndarray, list], tuple[np.ndarray, list]]:
        """``spectral._spectra_stack`` of the random points, decomposed once per sample.

        Every read raises the error the decomposition raised, if it did.
        """
        specs, error = self._spectra
        if error is not None:
            raise error
        return specs

    @cached_property
    def sigma1(self) -> tuple[list[SingularPoint], str, str]:
        """Single-pair points near omega_point(n), the missing targets, the finder's reason."""
        om = omega_point(self.n)
        targets = all_pair_targets(self.n)
        found: list[SingularPoint] = []
        try:
            for target in targets:
                rest = [t for t in targets if t != target]
                found.append(find_singular(perturbed_seed(om, rest, eps=1e-2), [target]))
        except COMPUTATION_ERRORS as exc:
            missing = ", ".join(t.label for t in targets[len(found):])
            return found, f"no sigma1_components[n={self.n}] point for {missing}", _reason(exc)
        return found, "", ""


class Outcome(NamedTuple):
    """A check's result on one sample; a status of None is decided by the tolerance."""

    residual: float
    status: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One registry entry: an exact statement, its bound and how to test it on a sample.

    ``sizes`` are the n the suite runs it at: None for every configured n,
    else those of the tuple that are configured; a size None is one run that
    does not depend on n, and its id carries no n.
    """

    name: str
    statement: str
    tolerance: float
    fn: Callable[[Sample], Outcome]
    sizes: tuple[int | None, ...] | None = None

    def run(self, sample: Sample) -> CheckRecord:
        try:
            residual, status, detail = self.fn(sample)
        except COMPUTATION_ERRORS as exc:
            residual, status, detail = 1.0, "fail", _reason(exc)
        check_id = self.name if sample.n is None else f"{self.name}[n={sample.n}]"
        return CheckRecord(check_id, self.statement, float(residual), self.tolerance,
                           status or ("pass" if residual < self.tolerance else "fail"), detail)


# Each entry below is its function made a Check: @partial(Check, name, statement, tolerance).

# -- every configured n: random points and a relative equilibrium ---------

@partial(Check, "off_band", "powers L^j - Lbar^j are j-off-banded; first diagonal "
         "2 b_{r-1}..b_{r-j}, 4 at j=n", 1e-10)
def _off_band_check(s: Sample) -> Outcome:
    return Outcome(float(np.max(_off_band(s.powers, range(1, s.n + 1)))))


@partial(Check, "trace_gap", "Tr L^j = Tr Lbar^j for j < n and Tr L^n - Tr Lbar^n = 4n", 1e-9)
def _trace_gap(s: Sample) -> Outcome:
    return Outcome(float(np.max(_trace_gaps(s.powers))))


@partial(Check, "char_poly_offset",
         "det(xI - L) - det(xI - Lbar) is constant in x and z with magnitude 4", 1e-8)
def _char_poly_offset(s: Sample) -> Outcome:
    constants, deviations = _char_poly(s.powers)
    return Outcome(max(float(np.max(deviations)),
                       float(np.max(np.abs(np.abs(constants) - 4.0))),
                       float(np.max(constants) - np.min(constants))))


@partial(Check, "involution", "all pairwise brackets of the conserved traces vanish", 1e-9)
def _involution(s: Sample) -> Outcome:
    return Outcome(float(np.max(np.abs(_brackets(s.powers)))))


@partial(Check, "lax_equations", "bracket of L with each trace equals the commutator with "
         "its generator, both classes", 1e-8)
def _lax_equations(s: Sample) -> Outcome:
    # the first quarter of the points, at least ten
    head = s.powers.head(max(10, len(s.q) // 4))
    return Outcome(max(float(np.max(_lax_residuals(head, j, odd)))
                       for j in range(1, s.n + 1) for odd in (False, True)))


@partial(Check, "interlacing",
         "merged spectra alternate strictly between classes, weakly inside", 1.0)
def _interlacing(s: Sample) -> Outcome:
    (lam, _), (bar, _) = s.spectra
    return Outcome(float(np.count_nonzero(_interlacing_stack(lam, bar)[1])))


@partial(Check, "omega_spectra",
         "relative-equilibrium spectra match p0 + 2cos(pi k / n) closed forms", 1e-12)
def _omega_spectra(s: Sample) -> Outcome:
    om = s.equilibrium
    lam, bar = np.linalg.eigvalsh(om.z._powers.pair[0])[:, ::-1]
    return Outcome(max(float(np.max(np.abs(lam - om.even_values))),
                       float(np.max(np.abs(bar - om.odd_values)))))


@partial(Check, "corank_omega", "corank of the trace Jacobian equals nu + nubar = n - 1 at "
         "relative equilibria", 0.5)
def _corank_omega(s: Sample) -> Outcome:
    rep = corank(s.equilibrium.z)
    ok = (rep.corank == s.n - 1 and rep.nu == (s.n - 1) // 2 and rep.nubar == s.n // 2
          and rep.theorem_holds and not rep.inconclusive)
    return Outcome(0.0 if ok else 1.0,
                   "pass" if ok else ("inconclusive" if rep.inconclusive else "fail"))


@partial(Check, "corank_random",
         "generic points are regular: corank 0 and no degenerate pairs", 1.0)
def _corank_random(s: Sample) -> Outcome:
    _, k, band, nu, nubar = _corank_stack(s.powers, s.spectra)
    bad = np.count_nonzero(~band & ((k != 0) | (k != nu + nubar)))
    return Outcome(float(bad), "fail" if bad else ("inconclusive" if band.any() else "pass"))


@partial(Check, "bracket_relations_omega", "block coordinates are canonical: only same-pair "
         "{xi, eta} brackets survive, value = pairing / n, pairing m-independent", BRACKET_TOL)
def _bracket_relations_omega(s: Sample) -> Outcome:
    brep = bracket_relations_check(s.equilibrium.z)
    return Outcome(max(
        brep.zero_max,
        float(np.max(np.abs(brep.ratio_errors))) * BRACKET_TOL / RATIO_TOL,
        brep.mixed_parity_max,
        brep.conjugate_formula_residual,
        brep.m_independence_max * BRACKET_TOL / M_INDEPENDENCE_TOL,
    ))


# -- n = 3, 4: singular points near the relative equilibrium ---------------

@partial(Check, "sigma1_components", "every allowed single-pair degeneracy is realized near "
         "the relative equilibrium", 0.5, sizes=(3, 4))
def _sigma1_components(s: Sample) -> Outcome:
    reason = s.sigma1[2]
    return Outcome(1.0 if reason else 0.0, detail=reason)


@partial(Check, "corank_sigma1", "corank 1 = nu + nubar at every refined single-pair point",
         0.5, sizes=(3, 4))
def _corank_sigma1(s: Sample) -> Outcome:
    found, missing, _ = s.sigma1
    reasons = [missing] if missing else []
    for sp in found:
        rep = corank(sp)
        label = sp.targets[0].label
        if rep.inconclusive:
            reasons.append(f"{label}: inconclusive rank decision")
        if rep.corank != 1:
            reasons.append(f"{label}: corank {rep.corank} != 1")
        if not rep.theorem_holds:
            reasons.append(f"{label}: corank {rep.corank} != nu + nubar = {rep.nu + rep.nubar}")
    return Outcome(1.0 if reasons else 0.0, detail="; ".join(reasons))


# The residual is in units of RATIO_TOL, the bound of the ratio errors and of
# the Hessian's relative residuals; the bracket zeros are rescaled to it.
@partial(Check, "transverse_structure", "Hessian of the annihilating combination is the "
         "spectral dyad sum; linearized flow elliptic with the closed-form frequency",
         RATIO_TOL, sizes=(3, 4))
def _transverse_structure(s: Sample) -> Outcome:
    found, missing, _ = s.sigma1
    worst = 1.0 if missing else 0.0
    reasons = [missing] if missing else []
    for sp in found:
        target = sp.targets[0]
        hrep = hessian_structure_check(sp, target)
        brep = bracket_relations_check(sp)
        tangent = tangent_symplectic_check(sp)
        ratio = float(np.max(np.abs(brep.ratio_errors)))
        # (term of the residual, the statement it breaks at RATIO_TOL and above)
        terms = (
            (hrep.residual_full, f"Hessian dyad residual {hrep.residual_full:.3e}"),
            (hrep.omega_relative_error,
             f"omega relative error {hrep.omega_relative_error:.3e}"),
            (0.0 if hrep.trace_K_squared < 0 else 1.0, "trace K^2 >= 0"),
            (brep.zero_max * RATIO_TOL / BRACKET_TOL,
             f"vanishing bracket {brep.zero_max:.3e}"),
            (brep.mixed_parity_max * RATIO_TOL / BRACKET_TOL,
             f"mixed-parity bracket {brep.mixed_parity_max:.3e}"),
            (ratio, f"bracket ratio error {ratio:.3e}"),
            (0.0 if brep.m_independence_max < M_INDEPENDENCE_TOL else 1.0,
             f"pairing m-dependence {brep.m_independence_max:.3e}"),
            (0.0 if tangent > TANGENT_TOL else 1.0,
             f"stratum tangent symplectic form {tangent:.3e} <= {TANGENT_TOL:.0e}"),
        )
        worst = max(worst, *(term for term, _ in terms))
        reasons += [f"{target.label}: {why}" for term, why in terms if term >= RATIO_TOL]
    return Outcome(worst, detail="; ".join(reasons))


# -- holonomy, winding and flows -------------------------------------------

@partial(Check, "maslov_calibration", "plumbing: harmonic-oscillator angle loop scores +2 "
         "with the stored orientation", 0.5, sizes=(None,))
def _maslov_calibration(s: Sample) -> Outcome:
    return Outcome(0.0 if calibration_index(3).mu == 2 else 1.0)


def _loop_faults(loop: str, rep, abs_mu: int, signs: tuple[float, ...] = ()) -> list[str]:
    """The statements a loop's holonomy report breaks: the identity and |mu|, then
    each class's holonomy signs against ``signs`` (gamma, gammabar), if given."""
    faults = [] if rep.agree and abs(rep.mu) == abs_mu else [
        f"{loop}: agree {rep.agree}, mu {rep.mu}"]
    for name, got, expected in zip(("gamma", "gammabar"),
                                   (rep.holonomy.gamma, rep.holonomy.gammabar), signs):
        if not np.all(got == expected):
            faults.append(f"{loop}: {name} != {expected:+.0f}")
    return faults


@partial(Check, "holonomy_omega_line", "loop around the relative-equilibrium line: odd pair "
         "flips, |mu| = 2, (-1)^(mu/2) = even-index product = -1", 0.5, sizes=(2,))
def _holonomy_omega_line(s: Sample) -> Outcome:
    target = PairTarget(True, 1)
    sp = next((sp for sp in s.sigma1[0] if sp.targets[0] == target), None)
    if sp is None:  # sigma1 missed it: what is missing and the finder's reason
        return Outcome(1.0, detail="; ".join(s.sigma1[1:]))
    rep = check_holonomy_theorem(ClosedCurve.around_pair(sp, target, radius=5e-2))
    loop = f"omega-line loop {target.label}"
    faults = _loop_faults(loop, rep, 2, (1.0, -1.0))
    if rep.lhs != -1 or rep.holonomy.even_product != -1:
        faults.append(f"{loop}: (-1)^(mu/2) = {rep.lhs}, even-index product "
                      f"{rep.holonomy.even_product}, not -1")
    return Outcome(1.0 if faults else 0.0, detail="; ".join(faults))


@partial(Check, "maslov_theorem", "(-1)^(mu/2) equals the even-indexed holonomy product; "
         "boundary winding counts enclosed singular points as -2 sum sigma", 0.5, sizes=(3,))
def _maslov_theorem(s: Sample) -> Outcome:
    target = PairTarget(True, 1)
    sp = next((sp for sp in s.sigma1[0] if sp.targets[0] == target), None)
    if sp is None:  # sigma1 missed it: what is missing and the finder's reason
        return Outcome(1.0, detail="; ".join(s.sigma1[1:]))
    rep = check_holonomy_theorem(ClosedCurve.around_pair(sp, target, radius=2e-3))
    faults = _loop_faults(f"pair loop {target.label}", rep, 2)
    for i, z in enumerate(s.centres):  # contractible loops: mu = 0, every holonomy +1
        axes = np.eye(2 * z.n)
        rep = check_holonomy_theorem(ClosedCurve.circle(z, axes[0], axes[z.n + 1], 0.05))
        faults += _loop_faults(f"contractible loop {i}", rep, 0, (1.0, 1.0))
    sp_b = find_singular(PhasePoint(sp.z.q, sp.z.p + 0.25), [target])
    enc = enclosure_count_check([DiskSpec(sp, radius=2e-3), DiskSpec(sp_b, radius=2e-3)])
    if not enc.passed:
        faults.append(f"enclosure: mu {enc.mu} != -2 sum sigma = {enc.expected}")
    return Outcome(1.0 if faults else 0.0, detail="; ".join(faults))


@partial(Check, "isospectral_flows", "eigenvalues of L are constant along the second and "
         "third trace flows", 1e-8, sizes=(3,))
def _isospectral_flows(s: Sample) -> Outcome:
    # the spectra of both classes, drift relative to the even one's size; and the centre
    # of mass, whose sum sum_r q_r moves at the rate sum_j c_j Tr L^(j-1)(z0) exactly,
    # relative to max(1, T |rate|) at the requested times
    z0 = PhasePoint(np.array([0.4, -0.3, -0.1]), np.array([0.2, -0.5, 0.3]))
    refs = np.linalg.eigvalsh(z0._powers.pair[0])
    scale = max(1.0, float(np.max(np.abs(refs[0]))))
    traces = (refs[0] ** np.arange(3)[:, None]).sum(axis=1)  # Tr L^k, k = 0, 1, 2
    ts = np.linspace(0, FLOW_T_FINAL, 51)
    worst = 0.0
    for c in np.eye(3)[1:]:
        traj = integrate_flow(z0, c, FLOW_T_FINAL, t_eval=ts)
        q, p = traj.points[:, :3], traj.points[:, 3:]
        b = _couplings(q, p)
        vals = np.linalg.eigvalsh(_lax(b, p))
        rate = float(c @ traces)
        shift = q.sum(axis=1) - z0.q.sum() - ts * rate
        worst = max(worst, float(np.max(np.abs(vals - refs))) / scale,
                    float(np.max(np.abs(shift))) / max(1.0, FLOW_T_FINAL * abs(rate)))
    return Outcome(worst)


CHECKS = (
    _off_band_check, _trace_gap, _char_poly_offset, _involution, _lax_equations, _interlacing,
    _omega_spectra, _corank_omega, _corank_random, _bracket_relations_omega,
    _sigma1_components, _corank_sigma1, _transverse_structure,
    _maslov_calibration, _holonomy_omega_line, _maslov_theorem, _isospectral_flows,
)


def run_suite(config: RunConfig) -> VerificationReport:
    """Run the registry and collect one timed record per check and size."""
    report = VerificationReport(config={"n_values": config.n_values, "seed": config.seed,
                                        "num_points": config.points, "suite": config.suite})
    rng = np.random.default_rng(config.seed)
    loops = (PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4])),)
    samples = {None: Sample(None)}
    for n in config.n_values:  # random points, then p0, then q0
        q, p = random_points(rng, n, config.points)
        p0 = float(rng.uniform(-1, 1))
        om = omega_point(n, q0=float(rng.uniform(-1, 1)), p0=p0)
        samples[n] = Sample(n, q, p, om, loops)
    # consecutive checks with equal sizes run size by size, at the sizes with a sample
    for sizes, block in groupby(CHECKS, key=lambda check: check.sizes):
        block = list(block)
        for n in config.n_values if sizes is None else [n for n in sizes if n in samples]:
            for check in block:
                t0 = time.perf_counter()
                report.add(check.run(samples[n]), time.perf_counter() - t0)
    return report
