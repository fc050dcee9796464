"""Eigenvector holonomies and Maslov indices along closed curves.

On the regular set the Hamiltonian vector fields of the n conserved traces
span a Lagrangian plane; identifying the plane with the unitary part of
its complex frame makes the squared determinant well defined, and the
winding of its argument around a closed curve is the Maslov index (up to
one global orientation constant pinned by the harmonic-oscillator angle
loop).  Independently, each normalized real eigenvector of either Lax
matrix returns to plus or minus itself after continuation around the
curve; the product of the even-indexed holonomy signs over both matrices
reproduces (-1)^(mu/2).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable
import numpy as np

from .lax import PhasePoint, _is_int
from .dynamics import _trace_gradients
from .spectral import DEGENERACY_TOL, SpectralData, spectra
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
# Curve evaluations one walk may spend before it gives up.
MAX_EVALUATIONS = 200000
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
    # t -> smallest relative eigenvalue gap of both Lax classes, on the copy
    # check_holonomy_theorem walks; None on every other curve.
    _gaps: dict[float, float] | None = field(default=None, init=False, repr=False, compare=False)

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

    def refined(self, factor: int = 2) -> "ClosedCurve":
        return ClosedCurve(self.point_at, self.initial_samples * factor)

    @staticmethod
    def from_samples(points: list[PhasePoint], initial_samples: int | None = None) -> "ClosedCurve":
        """Piecewise-linear loop through the given points (last equals first)."""
        if len(points) < 3:
            raise ValueError("need at least three samples")
        closure = float(
            np.max(np.abs(points[0].as_vector() - points[-1].as_vector()))
        )
        if closure > 1e-12:
            raise ValueError(f"sample list does not close: gap {closure:.3e}")
        Z = np.array([pt.as_vector() for pt in points])
        m = len(points) - 1

        def at(t: float) -> PhasePoint:
            s = min(max(t, 0.0), 1.0) * m
            k = min(int(np.floor(s)), m - 1)
            w = s - k
            return PhasePoint.from_vector((1.0 - w) * Z[k] + w * Z[k + 1])

        return ClosedCurve(at, max(2 * m, 64) if initial_samples is None else initial_samples)

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


def _walk(
    curve: ClosedCurve,
    observe: Callable[[float, PhasePoint], object],
    advance: Callable[[object, object, float], tuple[object, str | None]],
):
    """Walk a closed curve from t = 0 to t = 1, bisecting rejected steps.

    The walk starts from ``curve.initial_samples`` equal steps.
    ``observe(t, z)`` reads the walked quantity at the sample z =
    ``curve.point_at(t)``; ``advance(state, obs, t)`` returns
    ``(new_state, None)`` to accept the step to t or ``(None, reason)`` to
    reject it.  A rejected step is halved, down to a 1e-10 parameter step,
    and its observation is held until the walk comes back to t, so each t
    is observed once.  Returns the first and the last accepted state.
    """
    first = state = observe(0.0, curve.point_at(0.0))
    t_curr = 0.0
    # (t, held observation or None), next t last
    pending = [(t, None) for t in np.linspace(0.0, 1.0, curve.initial_samples + 1)[:0:-1]]
    evaluations = 0
    while pending:
        t_next, obs = pending[-1]
        evaluations += 1
        if evaluations > MAX_EVALUATIONS:
            raise TransportError(
                f"loop walk exceeded the budget of {MAX_EVALUATIONS} evaluations"
            )
        if obs is None:
            obs = observe(t_next, curve.point_at(t_next))
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


def _require_regular(curve: ClosedCurve, t: float, z: PhasePoint,
                     specs: tuple[SpectralData, SpectralData] | None = None) -> None:
    """Raise RegularityError if the sample at t has a relative eigenvalue gap below REGULARITY_TOL.

    The gap is the smallest relative gap over both Lax classes, taken from
    ``specs`` when given; otherwise from the gap an earlier walk of the same
    ``check_holonomy_theorem`` call recorded at t, or from ``spectra(z)``.
    Such a call's curve records every gap it computes.
    """
    gaps = curve._gaps
    if specs is None and gaps is not None and t in gaps:
        gap = gaps[t]
    else:
        if specs is None:
            specs = spectra(z)
        gap = min(float(np.min(s.relative_gaps)) for s in specs)
        if gaps is not None:
            gaps[t] = gap
    if gap < REGULARITY_TOL:
        raise RegularityError(
            f"sample at t = {t:.6f} has eigenvalue gap {gap:.3e} below "
            f"{REGULARITY_TOL:.1e}; the curve passes too close to a singular point"
        )


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

    def observe(t, z):
        specs = spectra(z)
        _require_regular(curve, t, z, specs)
        return tuple(s.vectors for s in specs)

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


def toda_frame(z: PhasePoint) -> np.ndarray:
    """Columns are the Hamiltonian vector fields of the n conserved traces.

    All n gradients come from one power recurrence L^0 .. L^(n-1).
    """
    n = z.n
    grads = _trace_gradients(z)
    return np.concatenate([grads[:, n:].T, -grads[:, :n].T])


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


def _unitary_phase(frame: np.ndarray) -> float:
    """Argument of det(U)^2 for the unitary part U of the complex frame."""
    n = frame.shape[1]
    W = frame[:n, :] + 1j * frame[n:, :]
    gram = W.conj().T @ W
    w, Q = np.linalg.eigh(gram)
    if w[0] <= 1e-10:
        raise LagrangianFrameError(
            f"frame Gram matrix smallest eigenvalue {w[0]:.3e} <= 1e-10"
        )
    U = W @ (Q * (w ** -0.5)) @ Q.conj().T
    det = np.linalg.det(U)
    return float(np.angle(det * det))


def _principal(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def maslov_index(
    curve: ClosedCurve, frame_fn: Callable[[PhasePoint], np.ndarray] | None = None
) -> MaslovResult:
    """Winding number of the squared determinant of the unitarised frame.

    The continuous argument is accumulated with per-step jumps kept below
    pi/2 by bisection, so the integer winding is unambiguous; the stored
    calibration sign converts it to the Maslov index normalisation in
    which the harmonic-oscillator angle loop scores +2.  ``frame_fn``
    defaults to ``toda_frame``, whose samples must be regular.
    """
    if frame_fn is None:
        frame_fn = toda_frame
    check_regularity = frame_fn is toda_frame

    trace = [(0.0, 0.0)]

    def advance(phi, phi_next, t):
        step = _principal(phi_next - phi)
        if abs(step) >= 0.5 * np.pi:
            return None, f"phase jump {step:.3f}"
        trace.append((t, trace[-1][1] + step))
        return phi_next, None

    def observe(t, z):
        if check_regularity:
            _require_regular(curve, t, z)
        return _unitary_phase(frame_fn(z))

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

    Both walks run on a copy of the curve that records the smallest relative
    eigenvalue gap of each sample, so the winding walk decomposes only the
    samples the transport walk did not visit.
    """
    shared = copy.copy(curve)
    object.__setattr__(shared, "_gaps", {})
    hol = transport_eigenvectors(shared)
    mas = maslov_index(shared)
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
        zc = d.center.z.as_vector()
        angles = 2.0 * np.pi * np.linspace(0.0, 1.0, CIRCLE_SAMPLES + 1) * d.orientation
        pts = [
            PhasePoint.from_vector(zc + d.radius * (np.cos(a) * v1 + np.sin(a) * v2))
            for a in angles
        ]
        circles.append(pts)

    centers = [d.center.z.as_vector() for d in disks]
    for pts in circles:
        for j, c in enumerate(centers):
            dist = min(float(np.linalg.norm(p.as_vector() - c)) for p in pts)
            if dist < 0.3 * disks[j].radius:
                raise DiskGeometryError(
                    f"singular point {j} lies within {dist:.3e} of the boundary"
                )

    def corridor(a: PhasePoint, b: PhasePoint):
        za, zb = a.as_vector(), b.as_vector()
        return [
            PhasePoint.from_vector(za + s * (zb - za))
            for s in np.linspace(0.0, 1.0, CORRIDOR_SAMPLES + 1)[1:]
        ]

    path = list(circles[0])
    for k in range(1, len(circles)):
        out = corridor(path[-1], circles[k][0])
        path += out
        path += circles[k][1:]
        path += corridor(path[-1], circles[0][0])
    curve = ClosedCurve.from_samples(path)

    mu = maslov_index(curve).mu
    sigmas = tuple(_disk_sigma(d) for d in disks)
    return EnclosureReport(mu, sigmas, -2 * int(np.sum(sigmas)))
