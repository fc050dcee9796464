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
"""

from __future__ import annotations

from dataclasses import dataclass
import numbers
from typing import Callable
import numpy as np

from .lax import PhaseDomainError, PhasePoint, _couplings, _inside, _is_int, _lax
from .dynamics import _trace_gradients
from .spectral import (DEGENERACY_TOL, EigensolverError, _decompose_stack, _flag_gaps,
                       _solve_rows, spectra)
from .singularity import (
    PairTarget,
    SingularPoint,
    pair_plane_duals,
    pairing_denominator,
)

__all__ = [
    "CALIBRATION_SIGN",
    "RegularityError",
    "TransportError",
    "LagrangianFrameError",
    "ClosedCurve",
    "HolonomyResult",
    "transport_eigenvectors",
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
# Samples of a walk's initial grid observed in one stacked call; a longer
# grid is observed this many samples at a time, as the walk reaches them.
GRID_CHUNK = 128
# Initial steps of the calibration loop, and of the circles and corridors of
# an enclosure boundary.
CALIBRATION_SAMPLES = 128
CIRCLE_SAMPLES = 256
CORRIDOR_SAMPLES = 32


def _require_orientation(orientation) -> None:
    """Raise ValueError unless ``orientation`` is the integer +1 or -1 (0 walks a constant loop)."""
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
        _, error = _in_domain(ends)
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
        orientation: int = 1,
    ) -> "ClosedCurve":
        """The loop center + radius (cos(2 pi t) v1 + sin(2 pi t) v2), t -> orientation * t."""
        _require_orientation(orientation)
        return ClosedCurve(_circle(center.as_vector(), v1, v2, radius, orientation),
                           initial_samples)

    @staticmethod
    def around_pair(
        point: SingularPoint | PhasePoint,
        target: PairTarget,
        radius: float = 1e-2,
        initial_samples: int = 256,
        orientation: int = 1,
    ) -> "ClosedCurve":
        """Circle in the dual plane of the (xi, eta) coordinates of one pair."""
        v1, v2 = pair_plane_duals(point, target)
        z = point.z if isinstance(point, SingularPoint) else point
        return ClosedCurve.circle(z, v1, v2, radius, initial_samples, orientation)


def _circle(zc: np.ndarray, v1, v2, radius: float, orientation: int):
    """The stacked map ts -> rows zc + radius (cos(a) v1 + sin(a) v2), a = 2 pi orientation t."""
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)

    def rows(ts: np.ndarray) -> np.ndarray:
        a = (2.0 * np.pi * ts * orientation)[:, None]
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


_Observe = Callable[[np.ndarray, np.ndarray, np.ndarray], list]


def _in_domain(rows: np.ndarray) -> tuple[np.ndarray, PhaseDomainError | None]:
    """The rows (m, 2n) of (q, p) up to the first one off the phase space, and its error.

    Every row is tested at once, as PhasePoint would test it; only the first
    failing row is built as a PhasePoint, for its PhaseDomainError.  The
    error is None when every row is in.
    """
    n = rows.shape[1] // 2
    inside = _inside(rows[:, :n], rows[:, n:])
    if not inside.all():
        k = int(np.argmin(inside))
        try:
            PhasePoint.from_vector(rows[k])
        except PhaseDomainError as exc:
            return rows[:k], exc
    return rows, None


def _observe(curve: ClosedCurve, ts: np.ndarray, observe: _Observe) -> list:
    """``observe`` at the samples of ts: per t, the observation or its error.

    A sample off the phase space ends the list with its PhaseDomainError,
    and the walk raises it when it reaches that t, as it would have raised
    it there alone.
    """
    rows, error = _in_domain(curve.rows(ts))
    obs = []
    if len(rows):
        n = rows.shape[1] // 2
        obs = observe(ts[:len(rows)], rows[:, :n], rows[:, n:])
    return obs if error is None else obs + [error]


def _grid(curve: ClosedCurve, observe: _Observe):
    """(t, observation or error) of the initial grid, observed GRID_CHUNK samples at a time."""
    grid = np.linspace(0.0, 1.0, curve.initial_samples + 1)
    for start in range(0, grid.size, GRID_CHUNK):
        ts = grid[start:start + GRID_CHUNK]
        yield from zip(ts, _observe(curve, ts, observe))


def _walk(
    curve: ClosedCurve,
    observe: _Observe,
    advance: Callable[[object, object, float], tuple[object, str | None]],
):
    """Walk a closed curve from t = 0 to t = 1, bisecting rejected steps.

    The walk starts from ``curve.initial_samples`` equal steps.
    ``observe(ts, q, p)`` reads the walked quantity at a stack of samples,
    q and p (m, n) the coordinates of the curve at ts: per sample, the
    observation, or the exception it raises.  The grid of initial steps is
    observed in stacks of GRID_CHUNK samples, a bisection midpoint as a
    stack of one; an error comes out when the walk reaches its sample.
    ``advance(state, obs, t)`` returns ``(new_state, None)`` to accept the
    step to t or ``(None, reason)`` to reject it.  A rejected step is
    halved, down to a 1e-10 parameter step, and its observation is held
    until the walk comes back to t, so each t is observed once.  Returns
    the first and the last accepted state.
    """
    budget = f"loop walk exceeded the budget of {MAX_EVALUATIONS} evaluations"
    # every initial step costs an evaluation
    if curve.initial_samples > MAX_EVALUATIONS:
        raise TransportError(budget)
    grid = _grid(curve, observe)
    _, first = next(grid)
    if isinstance(first, Exception):
        raise first
    state, t_curr, evaluations = first, 0.0, 0
    for t_grid, obs_grid in grid:
        # (t, held observation or None), next t last
        pending = [(t_grid, obs_grid)]
        while pending:
            t_next, obs = pending[-1]
            evaluations += 1
            if evaluations > MAX_EVALUATIONS:
                raise TransportError(budget)
            if obs is None:
                obs = _observe(curve, np.array([t_next]), observe)[0]
            if isinstance(obs, Exception):
                raise obs
            accepted, reason = advance(state, obs, t_next)
            if accepted is None:
                if t_next - t_curr < 1e-10:
                    raise TransportError(f"{reason} at t = {t_next:.8f} despite maximal refinement")
                pending[-1] = (t_next, obs)
                pending.append((0.5 * (t_curr + t_next), None))
                continue
            state, t_curr = accepted, t_next
            pending.pop()
    return first, state


def _lax_classes(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (m, n) of stacked rows q, p (m, n), and their Lax matrices (2m, n, n).

    The m even-class matrices come first, then the m odd-class ones.
    """
    b = _couplings(q, p)
    return b, np.moveaxis(_lax(b, p), -3, 0).reshape(-1, b.shape[1], b.shape[1])


def _sample_errors(rows: list, ts, values: np.ndarray, gaps: np.ndarray,
                   errors: dict[int, Exception]) -> None:
    """Put in ``rows`` each sample's first error: of its even class, its odd class, or its gap.

    ``values``, ``gaps`` and ``errors`` are of the stack of both classes,
    even first.  The gap is the smallest relative eigenvalue gap of both;
    below REGULARITY_TOL the sample is a RegularityError.
    """
    m = len(rows)
    relative = gaps / np.maximum(1.0, values[:, 0] - values[:, -1])[:, None]
    gap = np.minimum(relative[:m].min(axis=1), relative[m:].min(axis=1))
    for r in np.flatnonzero(gap < REGULARITY_TOL):
        rows[r] = RegularityError(
            f"sample at t = {ts[r]:.6f} has eigenvalue gap {gap[r]:.3e} below "
            f"{REGULARITY_TOL:.1e}; the curve passes too close to a singular point"
        )
    for r in sorted(errors, reverse=True):  # the odd class first, so the even one wins
        rows[r % m] = errors[r]


@dataclass(frozen=True)
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


def transport_eigenvectors(curve: ClosedCurve) -> HolonomyResult:
    """Continue the eigenvectors of both Lax matrices around the loop.

    At every step the new eigenvector signs maximise overlap with the
    previous ones; the sampling is bisected wherever the smallest overlap
    over both classes drops to MIN_OVERLAP or below.
    """

    def advance(frames, new, _t):
        overlaps = [np.einsum("ij,ij->j", V, W) for V, W in zip(frames, new)]
        for cls, ov in zip(("even", "odd"), overlaps):
            r = int(np.argmin(np.abs(ov)))
            if abs(ov[r]) <= MIN_OVERLAP:
                return None, f"{cls} eigenvector {r} overlap {abs(ov[r]):.3f} <= {MIN_OVERLAP}"
        return tuple(W * np.sign(ov) for W, ov in zip(new, overlaps)), None

    def observe(ts, q, p):
        _, entries = _lax_classes(q, p)
        values, vectors, gaps, _, errors = _decompose_stack(entries)
        m = len(q)
        rows = list(zip(vectors[:m], vectors[m:]))
        _sample_errors(rows, ts, values, gaps, errors)
        return rows

    first, last = _walk(curve, observe, advance)
    signs = []
    for V0, V in zip(first, last):
        final = np.einsum("ij,ij->j", V0, V)
        if np.min(np.abs(final)) < 0.99:
            raise TransportError(
                f"loop closure overlap {np.min(np.abs(final)):.3f} too weak; "
                "transport did not return to the initial eigenspaces"
            )
        signs.append(np.sign(final))
    return HolonomyResult(*signs)


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


@dataclass(frozen=True)
class MaslovResult:
    """Winding number of the Lagrangian plane of the integral flows."""

    mu: int
    winding_trace: np.ndarray  # rows (t, accumulated argument)


def _frame_phase(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Argument of det(W)^2 for each complex frame W = X_q + i X_p of a stack (m, 2n, n).

    Also returns each frame's smallest Gram eigenvalue, of W^H W, and the
    EigensolverError of each frame whose Gram matrix the solver fails on
    (``_solve_rows``).  At or below FRAME_GRAM_TOL the frame has lost rank.
    """
    n = frames.shape[-1]
    W = frames[..., :n, :] + 1j * frames[..., n:, :]
    gram, _, errors = _solve_rows(np.linalg.eigvalsh, np.conj(np.swapaxes(W, -1, -2)) @ W)
    det = np.linalg.det(W)
    return np.angle(det * det), gram[..., 0], errors


def _principal(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _frame_rows(ts: np.ndarray, frames: np.ndarray) -> list:
    """Per sample at ts, the phase of its frame in the stack (m, 2n, n), or the frame's error:
    LagrangianFrameError if it lost rank, EigensolverError if it overflowed."""
    phases, low, failed = _frame_phase(frames)
    rows = list(phases)
    for r in np.flatnonzero(low <= FRAME_GRAM_TOL):
        rows[r] = LagrangianFrameError(f"frame Gram matrix smallest eigenvalue "
                                       f"{low[r]:.3e} <= {FRAME_GRAM_TOL:.0e}")
    for r, exc in failed.items():
        rows[r] = EigensolverError(f"sample at t = {ts[r]:.6f}: frame Gram matrix: {exc}")
    return rows


def _winding(curve: ClosedCurve, observe: _Observe) -> MaslovResult:
    """Winding number of det(W)^2 for the complex frames W = X_q + i X_p along the curve.

    ``observe`` gives per sample the phase of its frame or an error
    (``_frame_rows``).  det P > 0 for the positive definite polar factor P
    of W = U P, so the argument is that of det(U)^2.  It is accumulated
    with per-step jumps kept below pi/2 by bisection, so the integer
    winding is unambiguous; CALIBRATION_SIGN converts it to the Maslov
    index normalisation in which the harmonic-oscillator angle loop scores +2.
    """
    trace = [(0.0, 0.0)]

    def advance(phi, phi_next, t):
        step = _principal(phi_next - phi)
        if abs(step) >= 0.5 * np.pi:
            return None, f"phase jump {step:.3f}"
        trace.append((t, trace[-1][1] + step))
        return phi_next, None

    _walk(curve, observe, advance)
    total = trace[-1][1]
    winding = total / (2.0 * np.pi)
    nearest = int(np.rint(winding))
    if abs(winding - nearest) > 1e-3:
        raise TransportError(f"winding {winding:.6f} is not close to an integer")
    mu = CALIBRATION_SIGN * nearest
    if mu % 2 != 0:
        raise TransportError(
            f"odd winding {mu}; the Lagrangian plane field should be orientable"
        )
    return MaslovResult(mu, np.array(trace))


def maslov_index(curve: ClosedCurve) -> MaslovResult:
    """Maslov index of the curve: the winding of the ``toda_frame`` planes along it.

    The samples must be regular; each reads both Lax spectra, from
    eigenvalues only.  The walk's domain is narrower than the phase space:
    column j of a frame grows like b^(j-1) with the largest coupling
    b = exp(g/2), g = max |q_r - q_{r+1}|, and the Gram matrix W^H W squares
    that spread.  On radius-1e-3 circles at nine gap profiles (one gap, a
    ramp, alternating gaps, six random), the walk returned at every profile
    up to g = 236 at n = 3, and g = 7.8, 7.5, 4.6, 4.4, 2.7 at n = 4..8.
    Beyond, it raises LagrangianFrameError (n >= 4: the computed smallest
    Gram eigenvalue falls below FRAME_GRAM_TOL), TransportError (n = 3:
    det(W)^2 overflows) or EigensolverError (the Gram matrix overflows,
    from g = 354 at n = 3).
    """

    def observe(ts, q, p):
        b, entries = _lax_classes(q, p)
        values, _, errors = _solve_rows(np.linalg.eigvalsh, entries)
        values = values[:, ::-1]
        gaps, _ = _flag_gaps(values, errors)
        # a frame that overflows gets its typed error in its row, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _frame_rows(ts, _toda_frames(b, p))
        _sample_errors(rows, ts, values, gaps, errors)
        return rows

    return _winding(curve, observe)


def calibration_index(n: int) -> MaslovResult:
    """Maslov index of n uncoupled oscillators around ``oscillator_angle_loop(n)``: the
    winding of their frames, which CALIBRATION_SIGN makes +2."""
    return _winding(oscillator_angle_loop(n),
                    lambda ts, q, p: _frame_rows(ts, _oscillator_frames(q, p)))


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
    """Compute the Maslov index and the holonomies independently and compare.

    Each walk observes its own samples: the transport walk decomposes both
    Lax classes, the winding walk reads their eigenvalues only.
    """
    hol = transport_eigenvectors(curve)
    mas = maslov_index(curve)
    lhs = int((-1) ** (mas.mu // 2))
    return HolonomyTheoremReport(mas, hol, lhs)


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
    z = disk.center.z
    target = disk.pair()
    u1, u2 = spectra(z)[target.odd_class].pair_vectors(target.positions(z.n))
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
    grid = np.linspace(0.0, 1.0, CIRCLE_SAMPLES + 1)
    circles = np.array([_circle(d.center.z.as_vector(), *pair_plane_duals(d.center, d.pair()),
                                d.radius, d.orientation)(grid) for d in disks])
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
