"""Eigenvector holonomies and Maslov indices along closed curves.

On the regular set the Hamiltonian vector fields of the n conserved traces
span a Lagrangian plane with complex frame W = X_q + i X_p.  Its polar
factors W = U P have P = (W^H W)^(1/2) positive definite, so det(W)^2 has
the argument of det(U)^2, and the winding of that argument around a closed
curve is the Maslov index (up to one global orientation constant pinned
by the harmonic-oscillator angle loop).  Independently, each normalized
real eigenvector of either Lax matrix returns to plus or minus itself
after continuation around the curve; the product of the even-indexed
holonomy signs over both matrices reproduces (-1)^(mu/2).

``check_holonomy_theorem`` reads both sides from one walk that observes
each sample once; they share the samples and the solver's eigenvalues, and
the winding reads no eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
import numbers
from typing import Callable, NamedTuple
import numpy as np

from .lax import PhasePoint, _couplings, _first_outside, _is_int, _lax
from .dynamics import _trace_gradients
from .spectral import DEGENERACY_TOL, EigensolverError, _decompose_stack, _solve_rows
from .singularity import (PairTarget, SingularPoint, _at, _plane_duals, pair_plane_duals,
                          pairing_denominator)

__all__ = [
    "CALIBRATION_SIGN",
    "RegularityError",
    "TransportError",
    "LagrangianFrameError",
    "ClosedCurve",
    "HolonomyResult",
    "MaslovResult",
    "toda_frame",
    "oscillator_angle_loop",
    "maslov_index",
    "calibration_index",
    "HolonomyTheoremReport",
    "check_holonomy_theorem",
    "DiskSpec",
    "EnclosureReport",
    "enclosure_count_check",
]

# Orientation of the winding fixed once against the harmonic-oscillator
# angle loop, whose Maslov index is 2 by the semiclassical normalisation.
CALIBRATION_SIGN = -1

# A transport step is accepted while every eigenvector keeps more than this
# overlap with its predecessor.
MIN_OVERLAP = 0.9
# Smallest relative eigenvalue gap a loop sample may have.
REGULARITY_TOL = DEGENERACY_TOL
# A complex frame W with an eigenvalue of W^H W at or below this has lost rank.
FRAME_GRAM_TOL = 1e-10
# Curve evaluations one walk may spend before it gives up.
MAX_EVALUATIONS = 200000
# Steps of a walk's initial grid observed in one stacked call, as the walk
# reaches them; the first stack also holds the start sample, so a 256-step
# grid takes two stacks.  A stack of bisection midpoints holds at most as many.
GRID_CHUNK = 128
# Initial steps of the calibration loop, and of the circles and corridors of
# an enclosure boundary.
CALIBRATION_SAMPLES = 128
CIRCLE_SAMPLES = 256
CORRIDOR_SAMPLES = 32


def _require_orientation(orientation) -> None:
    """Raise ValueError unless ``orientation`` is the integer +1 or -1 (0 has no direction)."""
    if not (_is_int(orientation) and orientation in (1, -1)):
        raise ValueError(f"orientation must be +1 or -1, got {orientation!r}")


class RegularityError(RuntimeError):
    """A curve sample is too close to an eigenvalue degeneracy."""


class TransportError(RuntimeError):
    """Continuation failed to keep eigenvector overlap above threshold."""


class LagrangianFrameError(RuntimeError):
    """The complex frame lost rank; the point cannot be regular."""


@dataclass(frozen=True)
class ClosedCurve:
    """A loop t in [0, 1] in phase space, given as one stacked map.

    ``rows(ts)`` maps parameters ts of shape (m,) to the (q, p) rows of the
    curve at ts, of shape (m, 2n), and the rows at t = 0 and t = 1 agree.
    Transport and winding computations evaluate the map on whole stacks of
    t; they start from ``initial_samples`` equal subintervals, an integer
    of at least 2, and subdivide adaptively.
    """

    rows: Callable[[np.ndarray], np.ndarray]
    initial_samples: int = 256

    def __post_init__(self):
        # a walk of fewer than two steps never leaves its start point
        if not (_is_int(self.initial_samples) and self.initial_samples >= 2):
            raise ValueError(
                f"initial_samples must be an integer of at least 2, got {self.initial_samples!r}"
            )
        ends = self.rows(np.array([0.0, 1.0]))
        if not (isinstance(ends, np.ndarray) and ends.dtype == float and ends.ndim == 2
                and ends.shape[0] == 2 and ends.shape[1] >= 4 and ends.shape[1] % 2 == 0
                and np.isfinite(ends).all()):
            raise ValueError("rows must map ts = [0, 1] to a finite float array of shape "
                             f"(2, 2n) with n >= 2, got {ends!r}")
        n = ends.shape[1] // 2
        _, error = _first_outside(ends[:, :n], ends[:, n:])
        if error is not None:
            raise error
        gap = float(np.max(np.abs(ends[0] - ends[1])))
        if gap > 1e-12:
            raise ValueError(f"curve is not closed: endpoint mismatch {gap:.3e}")

    def point_at(self, t: float) -> PhasePoint:
        """The point at parameter t: the one row of ``rows`` at [t]."""
        return PhasePoint.from_vector(self.rows(np.array([t], float))[0])

    def reversed(self) -> "ClosedCurve":
        rows = self.rows
        return ClosedCurve(lambda ts: rows(1.0 - ts), self.initial_samples)

    @staticmethod
    def from_samples(points: list[PhasePoint]) -> "ClosedCurve":
        """Piecewise-linear loop through the m + 1 points (last equals first); max(2m, 64) steps."""
        if len(points) < 3:
            raise ValueError("need at least three samples")
        sizes = sorted({pt.n for pt in points})
        if len(sizes) > 1:
            raise ValueError(f"sample points must have one size n, got n = {sizes}")
        return _polyline(np.array([pt.as_vector() for pt in points]))

    @staticmethod
    def circle(
        center: PhasePoint,
        v1: np.ndarray,
        v2: np.ndarray,
        radius: float,
        initial_samples: int = 256,
    ) -> "ClosedCurve":
        """The loop center + radius (cos(2 pi t) v1 + sin(2 pi t) v2), from v1 towards v2;
        ``reversed()`` walks it the other way."""
        return ClosedCurve(_circle(center.as_vector(), v1, v2, radius), initial_samples)

    @staticmethod
    def around_pair(
        point: SingularPoint | PhasePoint,
        target: PairTarget,
        radius: float = 1e-2,
        initial_samples: int = 256,
    ) -> "ClosedCurve":
        """Circle in the dual plane of the (xi, eta) coordinates of one pair."""
        z, specs = _at(point)
        return ClosedCurve.circle(z, *_plane_duals(z, specs, target), radius, initial_samples)


def _circle(zc: np.ndarray, v1, v2, radius: float):
    """The stacked map ts -> rows zc + radius (cos(a) v1 + sin(a) v2), a = 2 pi t."""
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)

    def rows(ts: np.ndarray) -> np.ndarray:
        a = (2.0 * np.pi * ts)[:, None]
        return zc + radius * (np.cos(a) * v1 + np.sin(a) * v2)

    return rows


def _polyline(Z: np.ndarray) -> ClosedCurve:
    """The piecewise-linear loop through the rows of Z (m + 1, 2n), the last equal to the first."""
    m = len(Z) - 1

    def rows(ts: np.ndarray) -> np.ndarray:
        s = np.minimum(np.maximum(ts, 0.0), 1.0) * m
        k = np.minimum(np.floor(s).astype(int), m - 1)
        w = (s - k)[:, None]
        return (1.0 - w) * Z[k] + w * Z[k + 1]

    return ClosedCurve(rows, max(2 * m, 64))


class _Samples(NamedTuple):
    """Observations of a stack of m samples, as a walk reads them.

    ``phases`` (m,) are the arguments of det(W)^2 of the samples' frames,
    ``vectors`` (classes, m, n, n) the eigenvectors of each Lax class, even
    then odd (no class for a phase-only walk), and ``error`` the exception
    of sample ``stop``, the first that fails (m and None when none does).
    The entries of a failing sample and of those after it are meaningless.
    """

    phases: np.ndarray
    vectors: np.ndarray
    stop: int
    error: Exception | None

    def phase_only(self) -> "_Samples":
        """The same observation without eigenvectors, for a walk that transports none."""
        return self._replace(vectors=self.vectors[:0])


_Observe = Callable[[np.ndarray, np.ndarray, np.ndarray], _Samples]


def _observe(curve: ClosedCurve, ts: np.ndarray, observe: _Observe) -> _Samples:
    """``observe`` at the samples of ts.

    A sample off the phase space fails with its PhaseDomainError unless an
    earlier one fails, and the walk raises it when it reaches that t, as it
    would have raised it there alone.
    """
    rows = curve.rows(ts)
    n = rows.shape[1] // 2
    q, p = rows[:, :n], rows[:, n:]
    k, error = _first_outside(q, p)
    if k == 0:
        return _Samples(np.empty(0), np.empty((0, 0, n, n)), 0, error)
    obs = observe(ts[:k], q[:k], p[:k])
    return obs if error is None or obs.error is not None else obs._replace(error=error)


def _first_failure(m: int, checks: list) -> tuple[int, Exception | None]:
    """The first of m samples that any check fails, and its error from the first check that
    fails it; ``checks`` are pairs (the samples it fails, their error by sample) in priority
    order.  (m, None) when no sample fails."""
    stop = min((int(min(failed)) for failed, _ in checks if len(failed)), default=m)
    if stop == m:
        return m, None
    return next((stop, error(stop)) for failed, error in checks if stop in failed)


def _lax_classes(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (m, n) of stacked rows q, p (m, n), and their Lax matrices (2m, n, n).

    The m even-class matrices come first, then the m odd-class ones.
    """
    b = _couplings(q, p)
    return b, _lax(b, p).swapaxes(0, 1).reshape(-1, b.shape[1], b.shape[1])


@dataclass(frozen=True, eq=False)
class HolonomyResult:
    """Holonomy signs of all eigenvector bundles around one loop.

    ``even_product`` multiplies the signs at even 1-indexed descending
    positions over both classes, ``odd_product`` the odd positions; the two
    agree because the full products are the trivial determinant holonomy.
    """

    gamma: np.ndarray
    gammabar: np.ndarray

    @property
    def even_product(self) -> int:
        return int(np.prod(self.gamma[1::2]) * np.prod(self.gammabar[1::2]))

    @property
    def odd_product(self) -> int:
        return int(np.prod(self.gamma[0::2]) * np.prod(self.gammabar[0::2]))

    @property
    def full_products(self) -> tuple[int, int]:
        return int(np.prod(self.gamma)), int(np.prod(self.gammabar))


def _toda_frames(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``toda_frame`` of stacked rows b, p (m, n): frames (m, 2n, n)."""
    n = b.shape[-1]
    grads = np.swapaxes(_trace_gradients(b, p), 1, 2)
    return np.concatenate([grads[:, n:], -grads[:, :n]], axis=1)


def toda_frame(z: PhasePoint) -> np.ndarray:
    """Columns are the Hamiltonian vector fields of the n conserved traces.

    All n gradients come from one power recurrence L^0 .. L^(n-1).
    """
    return _toda_frames(z.couplings()[None], z.p[None])[0]


def _oscillator_frames(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Frames (m, 2n, n) of n uncoupled unit harmonic oscillators (the calibration system)
    at stacked rows q, p (m, n): column j has p_j in row j and -q_j in row n + j."""
    eye = np.eye(q.shape[1])
    return np.concatenate([eye * p[:, None, :], eye * -q[:, None, :]], axis=1)


def oscillator_angle_loop(n: int) -> ClosedCurve:
    """One period of the first oscillator's flow, the others held at (1, 0)."""

    def rows(ts: np.ndarray) -> np.ndarray:
        z = np.zeros((len(ts), 2 * n))
        z[:, :n] = 1.0
        a = 2.0 * np.pi * ts
        z[:, 0] = np.cos(a)
        z[:, n] = -np.sin(a)
        return z

    return ClosedCurve(rows, CALIBRATION_SAMPLES)


@dataclass(frozen=True, eq=False)
class MaslovResult:
    """Winding number of the Lagrangian plane of the integral flows."""

    mu: int
    winding_trace: np.ndarray  # rows (t, accumulated argument)


def _gram_clears_tol(gram: np.ndarray) -> bool:
    """Whether the smallest eigenvalue ``eigvalsh`` computes for every Hermitian matrix G of a
    stack (m, n, n) is provably above FRAME_GRAM_TOL: G - s I has a Cholesky factor for
    s = FRAME_GRAM_TOL + (n + 1)^3 u d, u the unit roundoff and d the largest diagonal entry
    of the stack.

    A computed factor R of G - s I satisfies R^H R = G - s I + E with
    ||E||_2 <= n (n + 1) u d to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3; the rounding of the shift adds
    u d), so the least eigenvalue of G exceeds FRAME_GRAM_TOL + (n + 1)^3 u d
    - ||E||_2.  The Hermitian eigensolver is backward stable, with error at
    most a modest multiple of n u ||G||_2 <= n^2 u d (||G||_2 <= trace G),
    which the rest of the margin covers, as it covers the small factors
    complex arithmetic adds to both bounds.  False when a factor fails or d
    is not finite, and then only the eigenvalues decide.
    """
    n = gram.shape[-1]
    d = float(gram.diagonal(axis1=-2, axis2=-1).real.max(initial=0.0))
    if not d < np.inf:  # an overflowing or NaN Gram matrix
        return False
    try:
        np.linalg.cholesky(gram - (FRAME_GRAM_TOL + (n + 1) ** 3 * np.finfo(float).eps * d)
                           * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _frame_phase(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Argument of det(W)^2, taken as 2 arg det(W), for each complex frame W = X_q + i X_p of
    a stack (m, 2n, n).

    Also returns each frame's smallest Gram eigenvalue, of W^H W, and the
    EigensolverError of each frame whose Gram matrix the solver fails on
    (``_solve_rows``).  At or below FRAME_GRAM_TOL the frame has lost rank.
    The rank guard is a yes/no question, so a stack whose Gram matrices all
    clear FRAME_GRAM_TOL by a shifted Cholesky factor (``_gram_clears_tol``,
    a fraction of the eigensolver's cost) reads +inf for every frame; only
    a stack it does not clear has its Gram eigenvalues computed, and they
    decide as on every stack before.
    """
    n = frames.shape[-1]
    W = frames[..., :n, :] + 1j * frames[..., n:, :]
    gram = np.conj(np.swapaxes(W, -1, -2)) @ W
    # 2 arg det(W), not arg det(W)^2: the square overflows long before det(W) does
    phases = 2.0 * np.angle(np.linalg.det(W))
    if _gram_clears_tol(gram):
        return phases, np.full(gram.shape[:-2], np.inf), {}
    values, _, errors = _solve_rows(np.linalg.eigvalsh, gram)
    return phases, values[..., 0], errors


def _principal(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _frame_rows(ts: np.ndarray, frames: np.ndarray) -> _Samples:
    """The phases of a stack of frames (m, 2n, n) at ts, no eigenvectors, and the first failing
    frame: EigensolverError if its Gram matrix overflowed, LagrangianFrameError if it lost
    rank."""
    phases, low, failed = _frame_phase(frames)
    n = frames.shape[-1]
    return _Samples(phases, np.empty((0, len(ts), n, n)), *_first_failure(len(ts), [
        (failed, lambda r: EigensolverError(
            f"sample at t = {ts[r]:.6f}: frame Gram matrix: {failed[r]}")),
        (np.flatnonzero(low <= FRAME_GRAM_TOL), lambda r: LagrangianFrameError(
            f"frame Gram matrix smallest eigenvalue {low[r]:.3e} <= {FRAME_GRAM_TOL:.0e}")),
    ]))


def _lax_samples(ts: np.ndarray, q: np.ndarray, p: np.ndarray) -> _Samples:
    """A stack's observation: the phase of each sample's ``toda_frame``, the eigenvectors of
    both Lax classes (V, then Vbar: (2, m, n, n)), and the first failing sample with its
    first error: even class, odd class, eigenvalue gap, then frame.

    The gap is the smaller of the two classes' smallest relative eigenvalue
    gaps; below REGULARITY_TOL the sample is a RegularityError.
    """
    b, entries = _lax_classes(q, p)
    values, vectors, gaps, _, errors = _decompose_stack(entries)
    m = len(q)
    # a frame that overflows gets its typed error, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        frame = _frame_rows(ts, _toda_frames(b, p))
    relative = gaps / np.maximum(1.0, values[:, 0] - values[:, -1])[:, None]
    gap = relative.min(axis=1).reshape(2, m).min(axis=0)
    return _Samples(frame.phases, vectors.reshape(2, m, *vectors.shape[1:]), *_first_failure(m, [
        ({r % m for r in errors}, lambda r: errors.get(r, errors.get(r + m))),
        (np.flatnonzero(gap < REGULARITY_TOL), lambda r: RegularityError(
            f"sample at t = {ts[r]:.6f} has eigenvalue gap {gap[r]:.3e} below "
            f"{REGULARITY_TOL:.1e}; the curve passes too close to a singular point")),
        ([frame.stop] if frame.error is not None else [], lambda r: frame.error),
    ]))


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlaps (classes, ..., n) of the matching columns of two eigenvector stacks
    (classes, ..., n, n)."""
    return np.einsum("c...ij,c...ij->c...j", a, b)


def _test_steps(phases: np.ndarray, vectors: np.ndarray) -> tuple:
    """The phase steps (..., m - 1), overlaps (classes, ..., m - 1, n) and verdicts of the steps
    between consecutive samples of stacked sequences, phases (..., m) and eigenvectors
    (classes, ..., m, n, n).  A step fails when the smallest overlap of a class is at most
    MIN_OVERLAP (a NaN one passes) or the phase moves by pi/2 or more; with no class the phase
    alone decides and no overlap is computed."""
    steps = _principal(phases[..., 1:] - phases[..., :-1])
    fails = np.abs(steps) >= 0.5 * np.pi
    overlaps = vectors[..., 1:, 0, :]  # no class: an empty stack of the right shape
    if len(vectors):
        overlaps = _overlaps(vectors[..., :-1, :, :], vectors[..., 1:, :, :])
        fails |= (np.abs(overlaps).min(axis=-1) <= MIN_OVERLAP).any(axis=0)
    return steps, overlaps, fails


@dataclass(eq=False)
class _Step:
    """A tested step of a walk from sample a to sample b, each (t, phase, eigenvectors
    (classes, n, n)), with its phase step, overlaps (classes, n) and verdict.  A failing step
    gets ``halves`` once its midpoint is observed: its two tested halves, or the midpoint's
    error alone."""

    a: tuple
    b: tuple
    step: float
    overlaps: np.ndarray
    fails: bool
    halves: list | None = None

    def reason(self) -> str:
        """Why the step fails: its first class whose smallest overlap is at most MIN_OVERLAP,
        else its phase jump."""
        for cls, ov in zip(("even", "odd"), np.abs(self.overlaps)):
            r = int(np.argmin(ov))
            if ov[r] <= MIN_OVERLAP:
                return f"{cls} eigenvector {r} overlap {ov[r]:.3f} <= {MIN_OVERLAP}"
        return f"phase jump {self.step:.3f}"


def _refine(curve: ClosedCurve, observe: _Observe, frontier: list) -> None:
    """Halve the first GRID_CHUNK steps of ``frontier``, a walk's failing steps whose midpoints
    it has not observed, in walk order: their midpoints in one stack, both halves of each tested
    at once on the rows (a, midpoint, b), and the failing halves in their place.  A step whose
    midpoint fails gets that error as its halves; the steps after it, which the walk cannot
    reach, leave the frontier."""
    batch = frontier[:GRID_CHUNK]
    mids_t = np.array([0.5 * (s.a[0] + s.b[0]) for s in batch])
    mids = _observe(curve, mids_t, observe)
    k, failing = mids.stop, []
    if k < len(batch):  # the walk raises at this midpoint and reaches no step after it
        batch[k].halves = [mids.error]
        frontier.clear()
    if k:
        ends = batch[:k]
        phases = np.column_stack(([s.a[1] for s in ends], mids.phases[:k], [s.b[1] for s in ends]))
        vectors = np.stack([np.stack([s.a[2] for s in ends], axis=1), mids.vectors[:, :k],
                            np.stack([s.b[2] for s in ends], axis=1)], axis=2)
        steps, overlaps, fails = _test_steps(phases, vectors)
        for r, s in enumerate(ends):
            m = (mids_t[r], mids.phases[r], mids.vectors[:, r])
            s.halves = [_Step(a, b, steps[r, h], overlaps[:, r, h], fails[r, h])
                        for h, (a, b) in enumerate(((s.a, m), (m, s.b)))]
            failing += [half for half in s.halves if half.fails]
    frontier[:len(batch)] = failing


def _winding(curve: ClosedCurve, observe: _Observe) -> tuple[MaslovResult, np.ndarray, np.ndarray]:
    """Winding number of det(W)^2 for the complex frames W = X_q + i X_p along the curve,
    with the eigenvectors (classes, n, n) at t = 0 and, continued by the same walk, at t = 1.

    The walk goes from t = 0 to t = 1 in ``curve.initial_samples`` equal
    steps.  ``observe(ts, q, p)`` reads a stack of samples, q and p (m, n)
    the coordinates of the curve at ts, into one ``_Samples``.  A step is
    accepted when every eigenvector keeps more than MIN_OVERLAP overlap with
    its predecessor, whose sign it takes, and the phase moves by less than
    pi/2; a phase-only walk, whose observations have no class, steers by
    the phase alone and computes no overlap, sign or frame.  The grid is
    observed GRID_CHUNK steps at a time, as the walk reaches them, the
    first stack also holding the start sample, and a chunk's steps are
    tested at once (``_test_steps``): all phase steps, all overlaps in one
    stacked einsum, all verdicts.  A failing step is halved, down to a
    1e-10 parameter step, level by level: when the walk reaches the first
    failing step whose midpoint it has not observed, the midpoints of the
    chunk's such steps, up to GRID_CHUNK of them, are observed in one stack
    and their halves tested at once (``_refine``).  A step's verdict
    depends only on the samples at its ends, so the walk goes through the
    steps in walk order, depth first, as if it had tested each alone: a run
    of passing steps is accepted at once, its trace summed in walk order
    and its signs the product of its overlap signs (a sign flip changes no
    bit of an overlap but its sign), and each t is observed once.  An error
    is raised when the walk reaches its sample, so errors come in walk
    order.  Every step tried costs one of MAX_EVALUATIONS evaluations.
    det P > 0 for the positive definite polar factor P of W = U P, so the
    argument is that of det(U)^2.  CALIBRATION_SIGN converts the winding to
    the Maslov index normalisation in which the harmonic-oscillator angle
    loop scores +2.
    """
    budget = f"loop walk exceeded the budget of {MAX_EVALUATIONS} evaluations"
    # every initial step costs an evaluation
    if curve.initial_samples > MAX_EVALUATIONS:
        raise TransportError(budget)
    evaluations = 0

    def spend(steps: int) -> None:
        nonlocal evaluations
        evaluations += steps
        if evaluations > MAX_EVALUATIONS:
            raise TransportError(budget)

    grid = np.linspace(0.0, 1.0, curve.initial_samples + 1)
    first = _observe(curve, grid[:GRID_CHUNK + 1], observe)
    if first.stop == 0:
        raise first.error
    phi, frames, t_curr = first.phases[0], first.vectors[:, 0], 0.0
    # a phase-only walk has no class: no overlap, sign or frame to carry
    transport = len(frames) > 0
    # the winding trace: parameters and accumulated arguments
    angle, times, angles = 0.0, [0.0], [0.0]
    for start in range(0, curve.initial_samples, GRID_CHUNK):
        # the chunk of steps to grid samples start + 1 .. start + GRID_CHUNK; the first
        # chunk's stack also holds the sample at t = 0, its row i - 1
        i = int(start == 0)
        ts = grid[start + 1 - i:start + GRID_CHUNK + 1]
        obs = first if i else _observe(curve, ts, observe)
        if obs.stop == 0:  # the walk reaches a chunk whose first sample fails
            spend(1)
            raise obs.error
        # the walk's sample, then the chunk's observed ones, and the first try of each step
        bounds = np.append(t_curr, ts[i:obs.stop])
        phases = np.append(phi, obs.phases[i:obs.stop])
        vectors = np.concatenate([frames[:, None], obs.vectors[:, i:obs.stop]], axis=1)
        steps, overlaps, fails = _test_steps(phases, vectors)
        failing = np.flatnonzero(fails).tolist()
        # the failing steps not yet halved, in walk order
        frontier = [_Step(*((bounds[s], phases[s], vectors[:, s]) for s in (f, f + 1)),
                          steps[f], overlaps[:, f], True) for f in failing]
        # frames: the eigenvectors of the walk's sample times signs
        signs, j = 1.0, 0
        for f, pending in zip([*failing, len(steps)], [[s] for s in frontier] + [[]]):
            if f > j:  # steps j .. f - 1 pass
                spend(f - j)
                k = i + f - 1
                times += ts[i + j:k + 1].tolist()
                angles += np.cumsum(np.append(angle, steps[j:f]))[1:].tolist()
                phi, angle, t_curr = obs.phases[k], angles[-1], ts[k]
                if transport:
                    signs = signs * np.sign(overlaps[:, j:f]).prod(axis=1)
                    frames = obs.vectors[:, k] * signs[:, None, :]
            while pending:  # step f failed its first try: walk its halves depth first
                s = pending.pop()
                spend(1)
                if isinstance(s, Exception):  # the walk reaches a midpoint that fails
                    raise s
                if not s.fails:
                    angle = angle + s.step
                    t_curr, phi = s.b[:2]
                    times.append(t_curr)
                    angles.append(angle)
                    if transport:
                        signs = signs * np.sign(s.overlaps)
                        frames = s.b[2] * signs[:, None, :]
                    continue
                if s.b[0] - t_curr < 1e-10:
                    raise TransportError(f"{s.reason()} at t = {s.b[0]:.8f} despite maximal "
                                         "refinement")
                if s.halves is None:
                    _refine(curve, observe, frontier)
                pending += s.halves[::-1]
            j = f + 1
        if obs.stop < len(ts):  # the walk reaches a sample that fails
            spend(1)
            raise obs.error
    winding = angle / (2.0 * np.pi)
    nearest = int(np.rint(winding))
    if abs(winding - nearest) > 1e-3:
        raise TransportError(f"winding {winding:.6f} is not close to an integer")
    mu = CALIBRATION_SIGN * nearest
    if mu % 2 != 0:
        raise TransportError(
            f"odd winding {mu}; the Lagrangian plane field should be orientable"
        )
    return MaslovResult(mu, np.column_stack((times, angles))), first.vectors[:, 0], frames


def maslov_index(curve: ClosedCurve) -> MaslovResult:
    """Maslov index of the curve: the winding of the ``toda_frame`` planes along it.

    The samples must be regular, and are observed in stacks as in
    ``check_holonomy_theorem``, but the walk drops the eigenvector stacks and
    steers by the phase alone, so it cannot see a step that
    wraps a full turn.  The walk's domain is narrower than the phase space:
    column j of a frame grows like b^(j-1) with the largest coupling
    b = exp(g/2), g = max |q_r - q_{r+1}|, and the Gram matrix W^H W squares
    that spread.  On 16-sample radius-1e-3 circles in a random plane at nine
    gap profiles (one gap, a ramp, alternating gaps, six random), the walk
    returned at every profile up to g = 354 at n = 3, and g = 7.8, 6.9,
    3.8, 4.5, 2.7 at n = 4..8.  Beyond, it raises EigensolverError (n = 3:
    the Gram matrix overflows) or LagrangianFrameError (n >= 4: the
    computed smallest Gram eigenvalue falls below FRAME_GRAM_TOL).
    """
    return _winding(curve, lambda *stack: _lax_samples(*stack).phase_only())[0]


def calibration_index(n: int) -> MaslovResult:
    """Maslov index of n uncoupled oscillators around ``oscillator_angle_loop(n)``: the
    winding of their frames, which CALIBRATION_SIGN makes +2."""
    return _winding(oscillator_angle_loop(n),
                    lambda ts, q, p: _frame_rows(ts, _oscillator_frames(q, p)))[0]


@dataclass(frozen=True)
class HolonomyTheoremReport:
    """Both sides of the holonomy identity (-1)^(mu/2) = product of even holonomies."""

    maslov: MaslovResult
    holonomy: HolonomyResult
    lhs: int

    @property
    def mu(self) -> int:
        return self.maslov.mu

    @property
    def agree(self) -> bool:
        return (
            self.lhs == self.holonomy.even_product
            and self.holonomy.even_product == self.holonomy.odd_product
            and self.holonomy.full_products == (1, 1)
        )


def check_holonomy_theorem(curve: ClosedCurve) -> HolonomyTheoremReport:
    """Compute the Maslov index and the holonomies along one walk and compare.

    Each sample is observed once: both Lax classes decomposed in one stack,
    the Toda frame built from the same couplings.  The sides share the
    samples and the eigenvalues the regularity guard reads, not
    eigenvectors.  A step is accepted only when the eigenvector overlaps
    and the frame phase both pass, so the winding also takes the steps that
    transport bisects.
    """
    mas, first, last = _winding(curve, _lax_samples)
    signs = []
    for V0, V in zip(first, last):
        final = np.einsum("ij,ij->j", V0, V)
        if np.min(np.abs(final)) < 0.99:
            raise TransportError(
                f"loop closure overlap {np.min(np.abs(final)):.3f} too weak; "
                "transport did not return to the initial eigenspaces"
            )
        signs.append(np.sign(final))
    return HolonomyTheoremReport(mas, HolonomyResult(*signs), int((-1) ** (mas.mu // 2)))


@dataclass(frozen=True)
class DiskSpec:
    """A small oriented disk around one corank-one singular point.

    The disk is the image of (a, b) -> z* + a v1 + (orientation) b v2 over
    a**2 + b**2 <= radius**2 with (v1, v2) the dual directions of the
    (xi, eta) plane of the centre's first target pair.
    """

    center: SingularPoint
    radius: float = 1e-2
    orientation: int = 1

    def __post_init__(self):
        if not isinstance(self.center, SingularPoint):
            raise ValueError(f"center must be a SingularPoint, got {type(self.center).__name__}")
        # a radius of 0 or below would switch off the boundary's distance guard
        if isinstance(self.radius, bool) or not (isinstance(self.radius, numbers.Real)
                                                  and 0.0 < self.radius < np.inf):
            raise ValueError(f"radius must be a finite real > 0, got {self.radius!r}")
        _require_orientation(self.orientation)

    def pair(self) -> PairTarget:
        return self.center.targets[0]


class DiskGeometryError(ValueError):
    """A singular point lies too close to the assembled boundary."""


@dataclass(frozen=True)
class EnclosureReport:
    """Maslov index of a disk boundary against the enclosed transversal signs."""

    mu: int
    sigmas: tuple[int, ...]
    expected: int

    @property
    def passed(self) -> bool:
        return self.mu == self.expected


def _disk_sigma(disk: DiskSpec) -> int:
    """Orientation sign of the projected differential on the (xi, eta) plane.

    The disk map sends the oriented basis of the parameter plane to
    (v1, +-v2), whose (dxi, deta) projection has determinant +-1, and the
    symplectic orientation of the transverse plane is the sign of
    {xi, eta} at the singular point.  The pair is flagged there: drawing
    the disk's circle with ``pair_plane_duals`` checked it.
    """
    z, specs = _at(disk.center)
    target = disk.pair()
    u1, u2 = specs[target.odd_class].pair_vectors(target.positions(z.n))
    return int(disk.orientation * np.sign(pairing_denominator(z, target.odd_class, u1, u2)))


def enclosure_count_check(disks: list[DiskSpec]) -> EnclosureReport:
    """Check that the boundary winding counts the enclosed singular points.

    For several disks the boundary is the chain composition
    C_1 k_1 C_2 k_2 ... reversed corridors, whose corridor contributions
    cancel, so the total index is the sum of the individual disks'.
    Expected value: mu = -2 sum_j sigma_j.
    """
    if not disks:
        raise ValueError("need at least one disk")
    sizes = sorted({d.center.z.n for d in disks})
    if len(sizes) > 1:
        raise ValueError(f"disk centres must have one size n, got n = {sizes}")
    grid = np.linspace(0.0, 1.0, CIRCLE_SAMPLES + 1)
    # a disk of orientation -1 has its circle walked backwards
    circles = np.array([_circle(d.center.z.as_vector(), *pair_plane_duals(d.center, d.pair()),
                                d.radius)(grid if d.orientation == 1 else 1.0 - grid)
                        for d in disks])
    n = circles.shape[-1] // 2
    _couplings(circles[..., :n], circles[..., n:])  # each sample a valid phase point

    # distance of each circle (rows) to each centre (columns)
    centers = np.array([d.center.z.as_vector() for d in disks])
    dist = np.linalg.norm(circles[:, None] - centers[None, :, None], axis=-1).min(axis=-1)
    close = np.argwhere(dist < 0.3 * np.array([d.radius for d in disks]))
    if close.size:
        i, j = close[0]
        raise DiskGeometryError(f"singular point {j} lies within {dist[i, j]:.3e} of the boundary")

    def corridor(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
        s = np.linspace(0.0, 1.0, CORRIDOR_SAMPLES + 1)[1:, None]
        return za + s * (zb - za)

    path = [circles[0]]
    for circle in circles[1:]:
        path += [corridor(path[-1][-1], circle[0]), circle[1:]]
        path.append(corridor(circle[-1], circles[0][0]))
    curve = _polyline(np.concatenate(path))

    mu = maslov_index(curve).mu
    sigmas = tuple(_disk_sigma(d) for d in disks)
    return EnclosureReport(mu, sigmas, -2 * int(np.sum(sigmas)))
