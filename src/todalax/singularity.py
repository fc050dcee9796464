"""Singular points of the energy-momentum map and their local structure.

A point is singular exactly when the differentials of the n conserved
traces admit linear relations, and the number of relations (the corank of
the Jacobian) equals the number of doubly degenerate eigenvalues of the
two Lax representatives.  The deepest stratum consists of the relative
equilibria, where both spectra are known in closed form.  Near such
points, selected eigenvalue pairs are driven back together by a
Gauss-Newton iteration on the 2x2 block coordinates of each pair, and the
local canonical structure (Poisson brackets of the block coordinates,
second derivative of the annihilating combination of the traces, and the
transverse oscillation frequency) is verified against analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
import numpy as np

from .lax import PhasePoint, SignVector, _Powers, _class_signs, build_generator, conjugating_signs
from .dynamics import (_component_forms, _gradients, coordinate_form, grad_combination, grad_F,
                       poisson)
from .spectral import (SpectralData, _canonical_pair_basis, _decompose_stack, _flag_gaps, _norm,
                       annihilator, spectra)

__all__ = [
    "PairTarget",
    "pair_slots",
    "all_pair_targets",
    "CorankReport",
    "corank",
    "OmegaPoint",
    "omega_point",
    "SingularPoint",
    "ConvergenceError",
    "StratumCollapseError",
    "VanishingPairingError",
    "find_singular",
    "perturbed_seed",
    "pair_plane_duals",
    "pairing_denominator",
    "transverse_frequency",
    "HessianReport",
    "hessian_structure_check",
    "BracketReport",
    "bracket_relations_check",
    "tangent_symplectic_check",
]

RANK_TOL = 1e-7
# Gauss-Newton limits of the finder: iterations, the relative target gap
# that counts as closed, and the overlap a damped step keeps with the
# frozen pair bases.
MAX_ITER = 50
GAP_TOL = 1e-10
FRAME_OVERLAP = 0.9
# Central-difference step of the Hessian, relative to max(1, |z|).
HESSIAN_STEP = 1e-5


class ConvergenceError(RuntimeError):
    """Gauss-Newton failed to close the target gaps."""


class StratumCollapseError(RuntimeError):
    """Extra eigenvalue pairs degenerated alongside the requested ones."""


class VanishingPairingError(RuntimeError):
    """The pairing 2 u1 . M . u2 of a degenerate pair basis vanished; it cannot for an
    orthonormal eigenpair basis of its class."""


@dataclass(frozen=True)
class PairTarget:
    """One allowed degeneracy slot: a class and a 1-based pair ordinal.

    In the descending order the even-class pairs sit at 1-indexed positions
    (2r, 2r+1) and the odd-class pairs at (2s-1, 2s).
    """

    odd_class: bool
    ordinal: int

    def positions(self, n: int) -> tuple[int, int]:
        """0-indexed eigenvalue positions of this pair."""
        ne, no = pair_slots(n)
        limit = no if self.odd_class else ne
        if not 1 <= self.ordinal <= limit:
            raise ValueError(
                f"{'odd' if self.odd_class else 'even'} pair ordinal {self.ordinal} "
                f"out of range 1..{limit} for n = {n}"
            )
        if self.odd_class:
            return (2 * self.ordinal - 2, 2 * self.ordinal - 1)
        return (2 * self.ordinal - 1, 2 * self.ordinal)

    @property
    def label(self) -> str:
        return f"{'odd' if self.odd_class else 'even'}:{self.ordinal}"

    @staticmethod
    def parse(text: str) -> "PairTarget":
        cls, _, num = text.partition(":") if isinstance(text, str) else ("", "", "")
        if cls not in ("even", "odd") or not num.isdigit():
            raise ValueError(f"cannot parse pair target {text!r}; expected 'even:R' or 'odd:S'")
        return PairTarget(cls == "odd", int(num))


def pair_slots(n: int) -> tuple[int, int]:
    """Counts of allowed degeneracy slots: ((n-1)//2 even-class, n//2 odd-class)."""
    return (n - 1) // 2, n // 2


def all_pair_targets(n: int) -> list[PairTarget]:
    ne, no = pair_slots(n)
    return [PairTarget(False, r) for r in range(1, ne + 1)] + [
        PairTarget(True, s) for s in range(1, no + 1)
    ]


@dataclass(frozen=True, eq=False)
class CorankReport:
    """Both sides of the rank identity at one point.

    ``corank`` counts singular values of the n x 2n Jacobian of the traces
    below RANK_TOL times the largest one; ``nu`` and ``nubar`` count the
    degenerate eigenvalue pairs of the two Lax representatives.  Singular
    values inside [0.1, 10] x RANK_TOL times the largest are flagged
    inconclusive and excluded from identity assertions.
    """

    z: PhasePoint
    singular_values: np.ndarray
    corank: int
    nu: int
    nubar: int
    null_basis: np.ndarray
    inconclusive: bool

    @property
    def theorem_holds(self) -> bool:
        return self.corank == self.nu + self.nubar


def _rank_decision(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corank and inconclusive flag of rows (N, n) of descending singular values.

    The corank counts the values below RANK_TOL times the row's largest; a
    value inside [0.1, 10] x RANK_TOL times it makes the row inconclusive.
    """
    smax = s[:, :1]
    band = (s >= 0.1 * RANK_TOL * smax) & (s <= 10.0 * RANK_TOL * smax)
    return (s < RANK_TOL * smax).sum(axis=1), band.any(axis=1)


def corank(point: PhasePoint | SingularPoint) -> CorankReport:
    """Rank-decide the Jacobian of the traces and count Lax degeneracies."""
    z, (even, odd) = _at(point)
    n = z.n
    dF = np.array([grad_F(z, j).as_vector() for j in range(1, n + 1)])
    U, s, _ = np.linalg.svd(dF)
    k, band = _rank_decision(s[None])
    k = int(k[0])
    null_basis = U[:, n - k:].T.copy() if k else np.empty((0, n))
    nu, nubar = len(even.degenerate_pairs), len(odd.degenerate_pairs)
    return CorankReport(z, s, k, nu, nubar, null_basis, bool(band[0]))


def _corank_stack(t: _Powers, specs: tuple[tuple[np.ndarray, list], tuple[np.ndarray, list]]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``corank`` of a Lax power table's rows: singular values, corank, inconclusive, nu, nubar.

    ``specs`` is ``spectral._spectra_stack(t)``, whose flagged pairs give nu
    and nubar.  Row r of each equals the field of ``corank`` at row r's
    point.
    """
    m, n = t.b.shape
    jac = np.empty((m, n, 2 * n))
    for j in range(1, n + 1):
        jac[:, j - 1, :n], jac[:, j - 1, n:] = _gradients(t, j)
    s = np.linalg.svd(jac)[1]
    k, band = _rank_decision(s)
    (_, even), (_, odd) = specs
    return s, k, band, np.array([len(r) for r in even]), np.array([len(r) for r in odd])


@dataclass(frozen=True, eq=False)
class OmegaPoint:
    """A relative equilibrium with its closed-form spectra.

    All positions equal q0 and all momenta p0; the even spectrum is
    p0 + 2cos(2 pi k / n) and the odd one p0 + 2cos(pi (2k+1) / n),
    k = 0..n-1, both returned descending.
    """

    z: PhasePoint
    even_values: np.ndarray
    odd_values: np.ndarray

    @cached_property
    def spectra(self) -> tuple[SpectralData, SpectralData]:
        """Both classes' SpectralData at z in closed form; nothing writes into it.

        The values are ``even_values`` and ``odd_values``, flagged as ``decompose``
        flags them; the vectors are the Fourier modes of ``_fourier_modes``, which
        every equilibrium of size n shares.  Equals ``spectra(z)`` up to rounding.
        """
        n = self.z.n
        errors = {}
        gaps, pairs = _flag_gaps(np.stack([self.even_values, self.odd_values]), errors)
        if errors:
            raise errors[min(errors)]
        modes = _fourier_modes(n)
        return tuple(SpectralData(values, modes[c], gaps[c], pairs[c], sign) for c, values, sign
                     in ((0, self.even_values, SignVector.even(n)),
                         (1, self.odd_values, SignVector.odd(n))))


@lru_cache(maxsize=None)
def _fourier_modes(n: int) -> np.ndarray:
    """Read-only eigenvectors (2, n, n) of both Lax classes at a relative equilibrium.

    There each class is p0 I plus its n-cycle, periodic (even class, 0) or
    antiperiodic (odd, 1), whatever q0 and p0.  Class c has the modes
    cos(theta r) and sin(theta r), r = 0..n-1, of theta = pi (2m + c) / n in
    [0, pi], in descending order of 2cos(theta): each 0 < theta < pi a
    degenerate pair, its normalised columns in the orientation of
    ``spectral._canonical_pair_basis``, and theta = 0 or pi one column of
    equal entries or alternating signs, first entry positive.
    """
    r = np.arange(n)
    out = np.empty((2, n, n))
    for c in (0, 1):
        col = 0
        for k in range(c, n + 1, 2):  # k = 2m + c
            cos = np.cos(np.pi * k / n * r)
            if 0 < k < n:
                sin = np.sin(np.pi * k / n * r)
                out[c, :, col], out[c, :, col + 1] = _canonical_pair_basis(
                    cos / _norm(cos), sin / _norm(sin))
                col += 2
            else:
                out[c, :, col] = cos / _norm(cos)
                col += 1
    out.setflags(write=False)
    return out


def omega_point(n: int, q0: float = 0.0, p0: float = 0.0) -> OmegaPoint:
    """The relative equilibrium with common position q0 and momentum p0."""
    if n < 2:
        raise ValueError("need at least two particles")
    k = np.arange(n)
    even = np.sort(p0 + 2.0 * np.cos(2.0 * np.pi * k / n))[::-1]
    odd = np.sort(p0 + 2.0 * np.cos(np.pi * (2.0 * k + 1.0) / n))[::-1]
    return OmegaPoint(PhasePoint(np.full(n, q0), np.full(n, p0)), even, odd)


def _target_gaps(specs, targets: list[PairTarget]) -> np.ndarray:
    """Eigenvalue gap of every target pair, relative to max(1, spectral range).

    ``specs[odd_class]`` is the SpectralData of a target's class.
    """
    return np.array([specs[t.odd_class].relative_gaps[t.positions(specs[t.odd_class].n)[0]]
                     for t in targets])


def _block_coordinates(z: PhasePoint, odd_class: bool, u1: np.ndarray, u2: np.ndarray):
    """Block coordinates (xi, eta) of one Lax class at z in a fixed pair basis.

    xi is half the diagonal difference and eta the off-diagonal element of
    the 2x2 block of the matrix in the basis (u1, u2); both vanish where the
    basis spans a degenerate eigenspace, and their differentials at the
    basis point are the (dxi, deta) of ``_pair_forms``.
    """
    entries = z._powers.pair[0, int(odd_class)]
    a = float(u1 @ entries @ u1)
    d = float(u2 @ entries @ u2)
    return 0.5 * (d - a), float(u1 @ entries @ u2)


@dataclass(frozen=True, eq=False)
class SingularPoint:
    """A refined point where exactly the target pairs are degenerate.

    ``spectra`` holds both classes' SpectralData at z, (even, odd), from which the finder
    read the gaps and frequencies.  The structure checks and pair planes read it instead of
    decomposing z again; they share its arrays, so none of them writes into them.
    """

    z: PhasePoint
    targets: tuple[PairTarget, ...]
    residual_gaps: np.ndarray
    frequencies: np.ndarray
    iterations: int
    spectra: tuple[SpectralData, SpectralData] = field(repr=False)

    def to_json_dict(self) -> dict:
        from .reporting import vector_strs

        return {
            "q": vector_strs(self.z.q),
            "p": vector_strs(self.z.p),
            "target_pairs": [t.label for t in self.targets],
            "residual_gaps": vector_strs(self.residual_gaps),
            "frequencies": vector_strs(self.frequencies),
            "iterations": self.iterations,
        }


def perturbed_seed(
    omega: OmegaPoint, open_targets: list[PairTarget], eps: float = 1e-2
) -> PhasePoint:
    """Displace a relative equilibrium so the given pairs open by about 2*eps.

    The minimum-norm displacement with first-order block coordinates
    (xi, eta) = (eps, 0) on every listed pair leaves the remaining pairs
    closed to second order; they are then re-closed by the finder.  With
    no pair to open the displacement is zero and the seed is omega.z.  The
    block coordinates are those of the equilibrium's pair vectors, the
    canonical pair bases, read from ``_fourier_modes`` as
    ``OmegaPoint.spectra`` hands them out.
    """
    z = omega.z
    if not open_targets:
        return z
    modes = _fourier_modes(z.n)
    A = _pair_rows(z, [(t.odd_class, *modes[int(t.odd_class)][:, t.positions(z.n)].T)
                       for t in open_targets])
    delta = np.linalg.lstsq(A, np.tile([eps, 0.0], len(open_targets)), rcond=None)[0]
    return z.displaced(delta)


def find_singular(seed: PhasePoint, targets: list[PairTarget]) -> SingularPoint:
    """Drive the target eigenvalue pairs degenerate by Gauss-Newton.

    Each iteration freezes the canonical basis of every target pair, takes
    the minimum-norm step on the stacked (xi, eta) residuals computed from
    their exact gradients in that basis, and halves the step until the new
    pair eigenspaces keep overlap of at least FRAME_OVERLAP with the frozen
    ones; the accepted trial's bases are the next iteration's frozen ones.
    Convergence within MAX_ITER iterations means every target gap is below
    GAP_TOL relative to the spectral range; a degenerate non-target pair at
    the solution raises StratumCollapseError.  Every point visited, the
    seed and each trial, is decomposed once, both classes in one stack: a
    target class's error is raised there, a class without a target raises
    its error only if it still has one at the solution.
    """
    if not targets:
        raise ValueError("need at least one target pair")
    n = seed.n
    targets = list(targets)
    for t in targets:
        t.positions(n)  # validate ordinals early
    signs = (SignVector.even(n), SignVector.odd(n))
    own = sorted({int(t.odd_class) for t in targets})  # the classes the targets live in

    def decomposed(z: PhasePoint) -> tuple[tuple[SpectralData, SpectralData], dict]:
        """Both classes' SpectralData at z and each failing class's error, the error of an
        own class raised: one ``_decompose_stack`` of the pair of z's Lax power table."""
        vals, vecs, gaps, pairs, errors = _decompose_stack(z._powers.pair[0])
        for c in own:
            if c in errors:
                raise errors[c]
        return tuple(SpectralData(vals[c], vecs[c], gaps[c], pairs[c], signs[c])
                     for c in (0, 1)), errors

    z = seed
    specs, errors = decomposed(z)
    # the frozen target bases: the seed's, then each accepted trial's
    bases = [specs[t.odd_class].pair_basis(t.positions(n)) for t in targets]
    for it in range(MAX_ITER + 1):
        gaps = _target_gaps(specs, targets)
        if float(np.max(gaps)) < GAP_TOL:
            break
        if it == MAX_ITER:
            raise ConvergenceError(
                f"gaps {gaps} still above {GAP_TOL} after {MAX_ITER} iterations"
            )
        frozen = [(t.odd_class, *b) for t, b in zip(targets, bases)]
        r = np.array([x for basis in frozen for x in _block_coordinates(z, *basis)])
        J = _pair_rows(z, frozen)
        delta = np.linalg.lstsq(J, -r, rcond=None)[0]

        for _ in range(30):
            z_new = z.displaced(delta)
            specs_new, errors_new = decomposed(z_new)
            bases_new = []
            for t, b in zip(targets, bases):
                bases_new.append(specs_new[t.odd_class].pair_basis(t.positions(n)))
                if not _subspace_overlap(b, bases_new[-1]) >= FRAME_OVERLAP:
                    break
            else:
                break
            delta = 0.5 * delta
        else:
            raise ConvergenceError("step damping failed to keep the frame overlap")
        z, specs, errors, bases = z_new, specs_new, errors_new, bases_new
    if errors:  # the class without a target fails at the solution
        raise errors[min(errors)]

    # the only degenerate pairs at the solution must be the targets
    want = {(t.odd_class, t.positions(n)) for t in targets}
    have = {(odd, p) for odd in (False, True) for p in specs[odd].degenerate_pairs}
    extra = have - want
    missing = want - have
    if missing:
        raise ConvergenceError(f"target pairs {sorted(missing)} not degenerate at the solution")
    if extra:
        raise StratumCollapseError(
            f"collapsed onto a higher stratum: extra degenerate pairs {sorted(extra)}"
        )

    freqs = np.array([_frequency(z, specs[t.odd_class], t)[0] for t in targets])
    return SingularPoint(z, tuple(targets), _target_gaps(specs, targets), freqs, it, specs)


def _at(point: PhasePoint | SingularPoint) -> tuple[PhasePoint, tuple[SpectralData, SpectralData]]:
    """The phase point and both classes' spectra: a SingularPoint's own, else decomposed once."""
    if isinstance(point, SingularPoint):
        return point.z, point.spectra
    return point, spectra(point)


def _subspace_overlap(basis, other) -> float:
    """Smallest principal cosine between the spans of two orthonormal pairs."""
    M = np.column_stack(basis).T @ np.column_stack(other)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def _flagged_pair(spec: SpectralData, target: PairTarget):
    """Index in ``spec.degenerate_pairs`` and basis of a target pair flagged there."""
    positions = target.positions(spec.n)
    try:
        idx = spec.degenerate_pairs.index(positions)
    except ValueError:
        raise ValueError(
            f"pair {target.label} (positions {positions}) is not degenerate at this point; "
            f"flagged pairs: {spec.degenerate_pairs}"
        ) from None
    u1, u2 = spec.pair_vectors(positions)
    return idx, u1, u2


def _pair_forms(z: PhasePoint, odd_class, u1: np.ndarray, u2: np.ndarray):
    """Gradient 1-forms (dxi, deta, dtau) of the block of a fixed pair basis, as 2n vectors.

    Stacks u1, u2 (k, n) of k bases, with their classes odd_class (k,), give
    stacks (k, 2n) of forms; each row rounds as the one-basis call does.
    """
    b = z.couplings() * _class_signs(z.n)[np.asarray(odd_class, dtype=int)]
    # the components (u1, u1), (u2, u2), (u1, u2) in one stack along a new first axis
    f11, f22, f12 = np.concatenate(_component_forms(b, np.array([u1, u2, u1]),
                                                    np.array([u1, u2, u2])), axis=-1)
    return 0.5 * (f22 - f11), f12, 0.5 * (f22 + f11)


def _pair_rows(z: PhasePoint, bases: list) -> np.ndarray:
    """Rows (2k, 2n) dxi_1, deta_1, ..., dxi_k, deta_k of k (odd_class, u1, u2) pair bases."""
    odd, u1, u2 = (np.array(x) for x in zip(*bases))
    dxi, deta, _ = _pair_forms(z, odd, u1, u2)
    return np.concatenate((dxi, deta), axis=-1).reshape(-1, 2 * z.n)


def _flagged_bases(specs: tuple[SpectralData, SpectralData]) -> list:
    """(odd_class, pair, u1, u2) of every flagged pair, even class first."""
    return [(odd, pair, *spec.pair_vectors(pair))
            for odd, spec in zip((False, True), specs) for pair in spec.degenerate_pairs]


def pair_plane_duals(
    point: PhasePoint | SingularPoint, target: PairTarget
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm directions v1, v2 with dxi(v1) = deta(v2) = 1 and zero cross terms."""
    return _plane_duals(*_at(point), target)


def _plane_duals(z: PhasePoint, specs: tuple[SpectralData, SpectralData], target: PairTarget):
    _, u1, u2 = _flagged_pair(specs[target.odd_class], target)
    A = _pair_rows(z, [(target.odd_class, u1, u2)])
    duals = A.T @ np.linalg.inv(A @ A.T)
    return duals[:, 0], duals[:, 1]


def pairing_denominator(z: PhasePoint, odd_class: bool, u1: np.ndarray, u2: np.ndarray) -> float:
    """The antisymmetric pairing 2 u1 . M(z) . u2 of a degenerate pair basis.

    Equals -n b_m eps_m (u1_{m+1} u2_m - u1_m u2_{m+1}) independently of m,
    and n times the Poisson bracket {xi, eta}; it cannot vanish for an
    orthonormal pair.
    """
    M = build_generator(z, 2, odd_class=odd_class).entries
    return 2.0 * float(u1 @ M @ u2)


def _pairing(z: PhasePoint, odd_class: bool, u1: np.ndarray, u2: np.ndarray) -> float:
    """``pairing_denominator``; VanishingPairingError where it is below 1e-10 in size."""
    denom = pairing_denominator(z, odd_class, u1, u2)
    if abs(denom) < 1e-10:
        raise VanishingPairingError(
            f"vanishing pair pairing {denom:.3e}; the eigenpair basis lost orthonormality")
    return denom


def transverse_frequency(point: PhasePoint | SingularPoint, target: PairTarget) -> float:
    """Frequency of the elliptic transverse oscillation fixing the stratum.

    omega = 2 T'(lambda*) {xi, eta}* for the pair's annihilating polynomial;
    the sign follows the deterministic pair basis (swapping the basis flips
    it), the magnitude is basis independent.
    """
    z, specs = _at(point)
    return _frequency(z, specs[target.odd_class], target)[0]


def _frequency(z: PhasePoint, spec: SpectralData, target: PairTarget):
    """The frequency of a flagged target pair and the annihilator T it is read from."""
    idx, u1, u2 = _flagged_pair(spec, target)
    ann = annihilator(spec, idx)
    denom = _pairing(z, target.odd_class, u1, u2)
    return 2.0 * ann.derivative_at_root * denom / z.n, ann


def _symplectic_matrix(n: int) -> np.ndarray:
    return np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n))


@dataclass(frozen=True)
class HessianReport:
    """Structure of the second derivative of the annihilating combination.

    The Hessian of G = sum_j c_j F_j at the singular point is the spectral
    dyad sum  sum_a T'(lambda_a) Q_a  over the distinct eigenvalues of the
    degenerate matrix: each degenerate pair a contributes
    2 T'(lambda_a)(dxi dxi + deta deta + dtau dtau), which vanishes for
    every pair but the target, and each simple eigenvalue its squared
    differential.  The linearised flow K = J G'' is elliptic with frequency
    omega: its minimal polynomial is x^2 (x^2 + omega^2), and
    Tr K^2 = -2 omega^2.
    """

    target: PairTarget
    residual_full: float
    omega_formula: float
    minimal_polynomial_residual: float
    trace_K_squared: float

    @property
    def omega_relative_error(self) -> float:
        """| |omega_formula| - sqrt(-Tr K^2 / 2) | / |omega_formula|; 1.0 unless Tr K^2 < 0."""
        if not self.trace_K_squared < 0.0:
            return 1.0
        omega = abs(self.omega_formula)
        return abs(omega - float(np.sqrt(-0.5 * self.trace_K_squared))) / omega


def hessian_structure_check(point: PhasePoint | SingularPoint, target: PairTarget) -> HessianReport:
    """Measure the dyadic Hessian structure and the invariants of the linearised flow.

    The Hessian is built by central differences of the analytic gradient of
    G, with step HESSIAN_STEP, keeping it independent of the dyadic formula
    under test.  With K = J G'' and omega the closed form (``_frequency``),
    the residuals are the full spectral dyad identity and
    ||K^4 + omega^2 K^2|| / (omega^2 ||K^2||); Tr K^2 carries ellipticity
    and the trace route to |omega|.
    """
    z, specs = _at(point)
    n = z.n
    spec = specs[target.odd_class]
    omega, ann = _frequency(z, spec, target)

    h = HESSIAN_STEP * max(1.0, float(np.max(np.abs(z.as_vector()))))
    c = ann.coefficients
    H = np.array([(grad_combination(z.displaced(e), c).as_vector()
                   - grad_combination(z.displaced(-e), c).as_vector()) / (2.0 * h)
                  for e in h * np.eye(2 * n)])  # row i: the difference along coordinate i
    H = 0.5 * (H + H.T)

    # the target pair first, then the other degenerate pairs, then the simple eigenvalues
    own = spec.degenerate_pairs[ann.pair_index]
    full = 0.0
    for pair in (own, *(other for other in spec.degenerate_pairs if other != own)):
        dxi, deta, dtau = _pair_forms(z, target.odd_class, *spec.pair_vectors(pair))
        full = full + 2.0 * ann.derivative(spec.pair_value(pair)) * (
            np.outer(dxi, dxi) + np.outer(deta, deta) + np.outer(dtau, dtau))
    paired = {k for pair in spec.degenerate_pairs for k in pair}
    for k in range(n):
        if k not in paired:
            uk = spec.vectors[:, k]
            dlam = coordinate_form(z, spec.sign, uk, uk).as_vector()
            full += ann.derivative(float(spec.values[k])) * np.outer(dlam, dlam)

    K = _symplectic_matrix(n) @ H
    K2 = K @ K
    return HessianReport(
        target=target,
        residual_full=float(np.linalg.norm(H - full)) / float(np.linalg.norm(H)),
        omega_formula=omega,
        minimal_polynomial_residual=float(np.linalg.norm(K2 @ K2 + omega**2 * K2))
        / (omega**2 * float(np.linalg.norm(K2))),
        trace_K_squared=float(np.trace(K2)),
    )


@dataclass(frozen=True, eq=False)
class BracketReport:
    """Poisson-bracket table of the block coordinates of all degenerate pairs at one point."""

    labels: tuple[str, ...]
    table: np.ndarray
    zero_max: float
    ratio_errors: np.ndarray
    m_independence_max: float
    mixed_parity_max: float
    conjugate_formula_residual: float


def _conjugate_spot_check(
    z: PhasePoint, spec: SpectralData, pair: tuple[int, int]
) -> float:
    """Residual of the same-eigenvalue bracket formula for a conjugate sign vector.

    With sigma obtained from the class signs by two interior flips, the
    components u.L^eps.v and w.L^sigma.x built on a degenerate pair obey
    {f, g}* = -(2/n) [(v.D.x)(u.Meps.D.w) + (u.D.w)(v.Meps.D.x)]
    where D is the diagonal of accumulated sign products.
    """
    n = z.n
    eps = spec.sign
    flipped = eps.eps.copy()
    flipped[0] *= -1.0
    flipped[1 % n] *= -1.0
    sigma = SignVector(flipped)
    D = np.diag(conjugating_signs(eps, sigma))
    u1, u2 = spec.pair_vectors(pair)
    w1, w2 = D @ u1, D @ u2

    Meps = build_generator(z, 2, odd_class=(eps.parity() == -1)).entries
    worst = 0.0
    for (u, v, w, x) in [(u1, u2, w1, w1), (u1, u2, w1, w2), (u1, u1, w1, w2)]:
        numeric = poisson(coordinate_form(z, eps, u, v), coordinate_form(z, sigma, w, x))
        predicted = -(2.0 / n) * (
            float(v @ D @ x) * float(u @ Meps @ D @ w)
            + float(u @ D @ w) * float(v @ Meps @ D @ x)
        )
        worst = max(worst, abs(numeric - predicted))
    return worst


def bracket_relations_check(point: PhasePoint | SingularPoint) -> BracketReport:
    """Measure the canonical structure of the block coordinates at a singular point.

    All brackets among {xi_r, eta_r, tau_r} of both classes vanish except
    the same-pair {xi, eta}, whose value times n over the pairing
    2 u1 . M . u2 equals one.  The pairing itself is compared with its
    m-independent coupling form, mixed-parity spectral components bracket
    to zero, and the conjugate-class bracket formula is spot checked.
    """
    z, specs = _at(point)
    n = z.n
    b = z.couplings()
    labels: list[str] = []
    forms: list[np.ndarray] = []
    denoms = []
    m_indep = conj_res = 0.0
    for odd_class, pair, u1, u2 in _flagged_bases(specs):
        cls = "bar" if odd_class else ""
        labels += [f"{name}{cls}[{pair[0]}]" for name in ("xi", "eta", "tau")]
        forms += _pair_forms(z, odd_class, u1, u2)
        denoms.append(_pairing(z, odd_class, u1, u2))
        eps = specs[odd_class].sign.eps
        via_m = -n * b * eps * (np.roll(u1, -1) * u2 - u1 * np.roll(u2, -1))
        m_indep = max(m_indep, float(np.max(np.abs(denoms[-1] - via_m))))
        if pair == specs[odd_class].degenerate_pairs[0]:
            conj_res = max(conj_res, _conjugate_spot_check(z, specs[odd_class], pair))

    # mixed-parity spectral components: same or different eigenvalues, always zero
    mixed_parity = 0.0
    if specs[False].degenerate_pairs and specs[True].degenerate_pairs:
        ue1, ue2 = specs[False].pair_vectors(specs[False].degenerate_pairs[0])
        uo1, uo2 = specs[True].pair_vectors(specs[True].degenerate_pairs[0])
        for (u, v) in [(ue1, ue2), (ue1, ue1)]:
            for (w, x) in [(uo1, uo2), (uo2, uo2)]:
                mixed_parity = max(mixed_parity, abs(poisson(
                    coordinate_form(z, SignVector.even(n), u, v),
                    coordinate_form(z, SignVector.odd(n), w, x))))

    m = len(labels)
    table = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            table[i, j] = float(np.dot(forms[i][:n], forms[j][n:])
                                - np.dot(forms[i][n:], forms[j][:n]))
            table[j, i] = -table[i, j]
    # the same-pair {xi, eta} entries are the only nonzero ones
    xi = np.arange(0, m, 3)
    zero_mask = np.triu(np.ones((m, m), dtype=bool), k=1)
    zero_mask[xi, xi + 1] = False
    zero_max = float(np.max(np.abs(table[zero_mask]))) if zero_mask.any() else 0.0

    return BracketReport(
        labels=tuple(labels),
        table=table,
        zero_max=zero_max,
        ratio_errors=table[xi, xi + 1] * n / np.array(denoms) - 1.0,
        m_independence_max=m_indep,
        mixed_parity_max=float(mixed_parity),
        conjugate_formula_residual=float(conj_res),
    )


def tangent_symplectic_check(point: PhasePoint | SingularPoint) -> float:
    """Smallest singular value of the symplectic form restricted to the stratum tangent.

    The tangent space is the joint kernel of the dxi and deta covectors of
    every degenerate pair; a positive return value witnesses that the
    stratum is a symplectic submanifold at this point.
    """
    z, specs = _at(point)
    bases = [(odd, u1, u2) for odd, _, u1, u2 in _flagged_bases(specs)]
    if not bases:
        raise ValueError("no degenerate pairs; the point is regular")
    A = _pair_rows(z, bases)
    _, _, Vt = np.linalg.svd(A)
    T = Vt[len(A):].T  # orthonormal basis of the tangent space
    B = T.T @ _symplectic_matrix(z.n) @ T
    return float(np.linalg.svd(B, compute_uv=False)[-1])
