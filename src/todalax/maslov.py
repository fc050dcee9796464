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
from typing import Callable
import numpy as np

from .lax import PhasePoint, _couplings, _is_int, _lax
from .dynamics import _trace_gradients
from .spectral import DEGENERACY_TOL, _decompose_stack, _flag_gaps, _solve_rows, spectra
from .singularity import (
    PairTarget,
    SingularPoint,
    pair_bracket,
    pair_plane_duals,
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
    "oscillator_frame",
    "oscillator_angle_loop",
    "maslov_index",
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
    """A parameterized loop t in [0, 1] in phase space.

    ``point_at`` must satisfy point_at(0) = point_at(1).  Transport and
    winding computations start from ``initial_samples`` equal subintervals,
    an integer of at least 2, and subdivide adaptively.
    """

    point_at: Callable[[float], PhasePoint]
    initial_samples: int = 256

    def __post_init__(self):
        # a walk of fewer than two steps never leaves its start point
        if not (_is_int(self.initial_samples) and self.initial_samples >= 2):
            raise ValueError(
                f"initial_samples must be an integer of at least 2, got {self.initial_samples!r}"
            )
        z0, z1 = self.point_at(0.0), self.point_at(1.0)
        gap = float(np.max(np.abs(z0.as_vector() - z1.as_vector())))
        if gap > 1e-12:
            raise ValueError(f"curve is not closed: endpoint mismatch {gap:.3e}")

    def reversed(self) -> "ClosedCurve":
        inner = self.point_at
        return ClosedCurve(lambda t: inner(1.0 - t), self.initial_samples)

    @staticmethod
    def from_samples(points: list[PhasePoint], initial_samples: int | None = None) -> "ClosedCurve":
        """Piecewise-linear loop through the given points (last equals first)."""
        if len(points) < 3:
            raise ValueError("need at least three samples")
        return _polyline(np.array([pt.as_vector() for pt in points]), initial_samples)

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
        zc = center.as_vector()
        v1 = np.asarray(v1, float)
        v2 = np.asarray(v2, float)

        def at(t: float) -> PhasePoint:
            a = 2.0 * np.pi * t * orientation
            return PhasePoint.from_vector(zc + radius * (np.cos(a) * v1 + np.sin(a) * v2))

        return ClosedCurve(at, initial_samples)

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


def _polyline(Z: np.ndarray, initial_samples: int | None = None) -> ClosedCurve:
    """The piecewise-linear loop through the rows of Z (m + 1, 2n), the last equal to the first."""
    closure = float(np.max(np.abs(Z[0] - Z[-1])))
    if closure > 1e-12:
        raise ValueError(f"sample list does not close: gap {closure:.3e}")
    m = len(Z) - 1

    def at(t: float) -> PhasePoint:
        s = min(max(t, 0.0), 1.0) * m
        k = min(int(np.floor(s)), m - 1)
        w = s - k
        return PhasePoint.from_vector((1.0 - w) * Z[k] + w * Z[k + 1])

    return ClosedCurve(at, max(2 * m, 64) if initial_samples is None else initial_samples)


_Observe = Callable[[np.ndarray, list[PhasePoint]], list]


def _observe(curve: ClosedCurve, ts: np.ndarray, observe: _Observe) -> list:
    """``observe`` at the samples point_at(t), t in ts: per t, the observation or its error.

    A point_at that raises a ValueError (a PhaseDomainError off the phase
    space) ends the list with it, and the walk raises it when it reaches
    that t, as it would have raised it there alone.
    """
    points = []
    for t in ts:
        try:
            points.append(curve.point_at(t))
        except ValueError as exc:
            return (observe(ts[:len(points)], points) if points else []) + [exc]
    return observe(ts, points)


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
    ``observe(ts, zs)`` reads the walked quantity at a stack of samples, zs
    the points ``curve.point_at(t)`` of ts: per sample, the observation, or
    the exception it raises.  The grid of initial steps is observed in
    stacks of GRID_CHUNK samples, a bisection midpoint as a stack of one;
    an error comes out when the walk reaches its sample.
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
                obs = observe([t_next], [curve.point_at(t_next)])[0]
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


def _lax_classes(points: list[PhasePoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Couplings and momenta (m, n) of the points, and their Lax matrices (2m, n, n).

    The m even-class matrices come first, then the m odd-class ones.
    """
    q, p = np.array([z.q for z in points]), np.array([z.p for z in points])
    b = _couplings(q, p)
    return b, p, np.moveaxis(_lax(b, p), -3, 0).reshape(-1, b.shape[1], b.shape[1])


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

    def observe(ts, points):
        _, _, entries = _lax_classes(points)
        values, vectors, gaps, _, errors = _decompose_stack(entries)
        m = len(points)
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


def oscillator_frame(z: PhasePoint) -> np.ndarray:
    """Frame of n uncoupled unit harmonic oscillators (calibration system)."""
    n = z.n
    X = np.zeros((2 * n, n))
    for j in range(n):
        X[j, j] = z.p[j]
        X[n + j, j] = -z.q[j]
    return X


def oscillator_angle_loop(n: int) -> ClosedCurve:
    """One period of the first oscillator's flow, the others held at (1, 0)."""

    def at(t: float) -> PhasePoint:
        q = np.ones(n)
        p = np.zeros(n)
        a = 2.0 * np.pi * t
        q[0] = np.cos(a)
        p[0] = -np.sin(a)
        return PhasePoint(q, p)

    return ClosedCurve(at, CALIBRATION_SAMPLES)


@dataclass(frozen=True)
class MaslovResult:
    """Winding number of the Lagrangian plane of the integral flows."""

    mu: int
    winding_trace: np.ndarray  # rows (t, accumulated argument)
    calibration_sign: int


def _frame_phase(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argument of det(W)^2 for each complex frame W = X_q + i X_p of a stack (..., 2n, n).

    Also returns each frame's smallest Gram eigenvalue, of W^H W.  At or
    below FRAME_GRAM_TOL the frame has lost rank: its phase means nothing,
    and the winding walk raises LagrangianFrameError there.
    """
    n = frames.shape[-1]
    W = frames[..., :n, :] + 1j * frames[..., n:, :]
    low = np.linalg.eigvalsh(np.conj(np.swapaxes(W, -1, -2)) @ W)[..., 0]
    det = np.linalg.det(W)
    return np.angle(det * det), low


def _principal(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def maslov_index(
    curve: ClosedCurve, frame_fn: Callable[[PhasePoint], np.ndarray] | None = None
) -> MaslovResult:
    """Winding number of det(W)^2 for the complex frames W = X_q + i X_p along the curve.

    det P > 0 for the positive definite polar factor P of W = U P, so the
    argument is that of det(U)^2.  It is accumulated with per-step jumps
    kept below pi/2 by bisection, so the integer winding is unambiguous; the
    stored calibration sign converts it to the Maslov index normalisation in
    which the harmonic-oscillator angle loop scores +2.  ``frame_fn``
    defaults to ``toda_frame``, whose samples must be regular.
    """
    if frame_fn is None:
        frame_fn = toda_frame

    trace = [(0.0, 0.0)]

    def advance(phi, phi_next, t):
        step = _principal(phi_next - phi)
        if abs(step) >= 0.5 * np.pi:
            return None, f"phase jump {step:.3f}"
        trace.append((t, trace[-1][1] + step))
        return phi_next, None

    def observe(ts, points):
        if frame_fn is not toda_frame:
            phases, low = _frame_phase(np.array([frame_fn(z) for z in points]))
            rows = list(phases)
        else:  # the samples must be regular: both spectra, from eigenvalues only
            b, p, entries = _lax_classes(points)
            values, _, errors = _solve_rows(np.linalg.eigvalsh, entries)
            values = values[:, ::-1]
            gaps, _ = _flag_gaps(values, errors)
            phases, low = _frame_phase(_toda_frames(b, p))
            rows = list(phases)
            _sample_errors(rows, ts, values, gaps, errors)
        for r in np.flatnonzero(low <= FRAME_GRAM_TOL):
            if not isinstance(rows[r], Exception):
                rows[r] = LagrangianFrameError(f"frame Gram matrix smallest eigenvalue "
                                               f"{low[r]:.3e} <= {FRAME_GRAM_TOL:.0e}")
        return rows

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
    return MaslovResult(mu, np.array(trace), CALIBRATION_SIGN)


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
    return int(disk.orientation * np.sign(pair_bracket(z, target.odd_class, u1, u2)))


def enclosure_count_check(disks: list[DiskSpec]) -> EnclosureReport:
    """Check that the boundary winding counts the enclosed singular points.

    For several disks the boundary is the chain composition
    C_1 k_1 C_2 k_2 ... reversed corridors, whose corridor contributions
    cancel, so the total index is the sum of the individual disks'.
    Expected value: mu = -2 sum_j sigma_j.
    """
    if not disks:
        raise ValueError("need at least one disk")
    circles = []
    for d in disks:
        v1, v2 = pair_plane_duals(d.center, d.pair())
        a = 2.0 * np.pi * np.linspace(0.0, 1.0, CIRCLE_SAMPLES + 1)[:, None] * d.orientation
        circles.append(d.center.z.as_vector() + d.radius * (np.cos(a) * v1 + np.sin(a) * v2))
    circles = np.array(circles)
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
