"""Eigen-decomposition of Lax matrices with degeneracy bookkeeping.

Eigenvalues are kept in descending order throughout.  Degeneracies of the
periodic Toda Lax matrices are at most two-fold, so a flagged triple is
treated as evidence of a tolerance or input fault rather than mathematics.
``spectra`` gives the spectral data of both Lax classes at a phase point;
the loop walk and the suite's random-point checks run the same
bookkeeping, ``_decompose_stack``, on stacks of Lax matrices, and
``decompose`` is its one-row case.  The
annihilating polynomial of a degenerate matrix supplies the coefficient
vector that fixes the singularity under the integrable flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .lax import LaxMatrix, PhasePoint, SignVector, _Powers

__all__ = [
    "TripleDegeneracyError",
    "EigensolverError",
    "SpectralData",
    "decompose",
    "spectra",
    "interlacing_chain",
    "interlacing_check",
    "AnnihilatorPolynomial",
    "annihilator",
]

DEGENERACY_TOL = 1e-8
# Weak and strict interlacing inequalities hold to this fraction of the
# spectral range.
INTERLACING_TOL = 1e-12


class TripleDegeneracyError(RuntimeError):
    """Three eigenvalues inside one degeneracy window; impossible for valid input."""


class EigensolverError(RuntimeError):
    """Eigen-decomposition failed its residual or orthonormality bound."""


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Descending spectrum of a Lax matrix with orthonormal eigenvectors.

    ``degenerate_pairs`` lists 0-indexed position pairs (i, i+1) whose gap
    fell below the degeneracy threshold; within each such pair the two
    columns of ``vectors`` are deterministically rotated inside their
    2-dimensional eigenspace.
    """

    values: np.ndarray
    vectors: np.ndarray
    gaps: np.ndarray
    degenerate_pairs: tuple[tuple[int, int], ...]
    sign: SignVector

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def spectral_range(self) -> float:
        return float(self.values[0] - self.values[-1])

    @property
    def relative_gaps(self) -> np.ndarray:
        """Consecutive gaps divided by max(1, spectral range)."""
        return self.gaps / max(1.0, self.spectral_range)

    def pair_vectors(self, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        i, j = pair
        return self.vectors[:, i], self.vectors[:, j]

    def pair_value(self, pair: tuple[int, int]) -> float:
        i, j = pair
        return float(0.5 * (self.values[i] + self.values[j]))

    def pair_basis(self, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Canonical basis of the 2-space at positions ``pair``, flagged or not.

        A flagged pair's columns already hold it; an open pair (one the
        singularity finder is still closing) is canonicalised the same way.
        Both come back as contiguous arrays, so that products with them
        round alike whether or not the pair is flagged.
        """
        if pair in self.degenerate_pairs:
            return tuple(v.copy() for v in self.pair_vectors(pair))
        return _canonical_pair_basis(*self.pair_vectors(pair))


def _canonical_pair_basis(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of span{v1, v2}.

    The first vector maximises (and makes nonnegative) the first coordinate
    with a non-negligible projection onto the span; the second is the
    remaining direction with a fixed sign.  The columns that fix them are
    chosen by ``_leading``, so that columns of equal norm up to rounding
    pick the same one.  The norms are computed as ``np.linalg.norm``
    computes them, without its dispatch.
    """
    P = v1[:, None] * v1 + v2[:, None] * v2  # np.outer's products, without its dispatch
    k, norm = 0, _norm(P[:, 0])
    if norm < 1e-8:
        k = _leading(_column_norms(P))
        norm = _norm(P[:, k])
    w1 = P[:, k] / norm
    Q = P - w1[:, None] * w1
    j = _leading(_column_norms(Q))
    w2 = Q[:, j] / _norm(Q[:, j])
    if w2[j] < 0:
        w2 = -w2
    return w1, w2


def _leading(norms: np.ndarray) -> int:
    """The lowest index whose norm is within a relative 1e-8 of the largest."""
    return int(np.argmax(norms >= (1.0 - 1e-8) * norms.max()))


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a real vector: the root of the dot of a contiguous copy."""
    x = np.ascontiguousarray(x)
    return np.sqrt(x.dot(x))


def _column_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=0)`` of a real matrix."""
    return np.sqrt(np.add.reduce(a * a, axis=0))


def _solve_rows(solve, entries: np.ndarray) -> tuple[object, np.ndarray, dict[int, Exception]]:
    """``solve`` (np.linalg.eigh or eigvalsh) on a stack (m, n, n): result, stack solved, failures.

    A row the solver fails on gets an EigensolverError and is solved as the
    zero matrix, so the rest of the stack keeps its results.
    """
    try:
        return solve(entries), entries, {}
    except np.linalg.LinAlgError:
        pass
    errors = {}
    for r, a in enumerate(entries):
        try:
            solve(a)
        except np.linalg.LinAlgError as exc:
            errors[r] = EigensolverError(str(exc))
    failed = np.zeros(len(entries), dtype=bool)
    failed[list(errors)] = True
    entries = np.where(failed[:, None, None], 0.0, entries)
    return solve(entries), entries, errors


def _flag_gaps(values: np.ndarray, errors: dict[int, Exception]) -> tuple[np.ndarray, list]:
    """Gaps (m, n - 1) of descending rows of eigenvalues (m, n), and each row's flagged pairs.

    A gap below DEGENERACY_TOL * max(1, spectral range) flags its pair; a
    row with two consecutive flagged gaps gets a TripleDegeneracyError in
    ``errors``, for its lowest such gaps, unless it has an error already.
    One pass over the flagged gaps, row by row and lowest first.
    """
    gaps = values[:, :-1] - values[:, 1:]
    threshold = DEGENERACY_TOL * np.maximum(1.0, values[:, 0] - values[:, -1])
    small = gaps < threshold[:, None]
    pairs = [()] * len(values)
    if np.count_nonzero(small):
        last = None
        for r, i in zip(*(a.tolist() for a in np.nonzero(small))):
            if last == (r, i - 1):
                errors.setdefault(r, TripleDegeneracyError(
                    f"eigenvalues {i - 1}..{i + 1} all within {threshold[r]:.3e}; "
                    "check the degeneracy tolerance and the input matrix"
                ))
            pairs[r] += ((i, i + 1),)
            last = (r, i)
    return gaps, pairs


def _decompose_stack(entries: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, list, dict[int, Exception]]:
    """``decompose`` of a stack of symmetric matrices (m, n, n), row by row alike.

    Returns descending values (m, n), vectors (m, n, n), gaps (m, n - 1),
    each row's flagged pairs, and the error each failing row raises in
    ``decompose``: the solver's, a triple, then the residual or
    orthonormality bound.  The results of a failing row are meaningless.
    """
    (vals, vecs), entries, errors = _solve_rows(np.linalg.eigh, entries)
    m, n = vals.shape
    # residual of the solver's own eigenpairs: rotating a flagged pair inside
    # its 2-space moves each vector off its eigenvalue by up to the pair's
    # gap, which the degeneracy threshold allows but this bound does not
    residual = np.abs(entries @ vecs - vecs * vals[:, None, :])
    # unpaired columns get a deterministic sign: largest entry positive, of entries whose
    # size ties within a relative 1e-8 the lowest, as ``_leading`` picks
    size = np.abs(vecs)
    lead = (size >= (1.0 - 1e-8) * size.max(axis=1, keepdims=True)).argmax(axis=1)
    sign = np.sign(vecs[np.arange(m)[:, None], lead, np.arange(n)])

    vals = vals[:, ::-1]
    gaps, pairs = _flag_gaps(vals, errors)
    sign = sign[:, ::-1]
    flagged = [(r, i) for r, row in enumerate(pairs) if r not in errors for i, _ in row]
    for r, i in flagged:
        sign[r, i:i + 2] = 1.0
    vecs = vecs[:, :, ::-1] * sign[:, None, :]
    for r, i in flagged:
        vecs[r, :, i], vecs[r, :, i + 1] = _canonical_pair_basis(vecs[r, :, i], vecs[r, :, i + 1])

    ortho = np.abs(np.swapaxes(vecs, 1, 2) @ vecs - np.eye(n))
    # each row's bound is 1e-10 times at least 1: below it on the whole stack, no row fails
    if residual.max() > 1e-10 or ortho.max() > 1e-10:
        residual = residual.max(axis=(1, 2))
        ortho = ortho.max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(vals).max(axis=1))
        for r in np.flatnonzero((residual > 1e-10 * scale) | (ortho > 1e-10)):
            errors.setdefault(int(r), EigensolverError(
                f"eigen residual {residual[r]:.3e} or orthonormality defect {ortho[r]:.3e} "
                "exceeds the 1e-10 bound"
            ))
    return vals, vecs, gaps, pairs, errors


def decompose(L: LaxMatrix | np.ndarray) -> SpectralData:
    """Descending eigen-decomposition with degenerate-pair detection.

    A gap below DEGENERACY_TOL * max(1, spectral range) flags the pair;
    two consecutive flagged gaps abort with TripleDegeneracyError.  Inside
    each flagged pair the basis is rotated deterministically.  A bare
    array is taken as an even-class matrix.  This is the one-row case of
    ``_decompose_stack``.
    """
    if isinstance(L, LaxMatrix):
        entries, sgn = L.entries, L.sign
    else:
        entries = np.asarray(L, dtype=float)
        sgn = SignVector.even(entries.shape[0])
    # gathered Lax matrices (build_lax's, a power table's pair) are exactly symmetric and skip
    # the tolerance test
    if not (
        np.array_equal(entries, entries.T)
        or np.allclose(entries, entries.T, atol=1e-12 * max(1.0, np.abs(entries).max()))
    ):
        raise ValueError("matrix is not symmetric")
    vals, vecs, gaps, pairs, errors = _decompose_stack(entries[None])
    if errors:
        raise errors[0]
    return SpectralData(vals[0], vecs[0], gaps[0], pairs[0], sgn)


def spectra(z: PhasePoint) -> tuple[SpectralData, SpectralData]:
    """Spectral data of both Lax classes at z: (even L, odd Lbar).

    Each is ``decompose`` of its class in the pair of z's Lax power table,
    which equals ``decompose(build_lax(z, sign))`` for its class, so
    ``spectra(z)[odd_class]`` selects one class.
    """
    pair = z._powers.pair[0]
    return tuple(decompose(LaxMatrix(entries, sign))
                 for entries, sign in zip(pair, (SignVector.even(z.n), SignVector.odd(z.n))))


def interlacing_chain(n: int) -> list[tuple[str, int]]:
    """Merged descending order of the two spectra.

    Entries are ("L", i) or ("B", i) with 0-indexed positions; consecutive
    same-matrix entries may be equal (the allowed degeneracies), entries of
    different matrices are strictly ordered.
    """
    chain: list[tuple[str, int]] = [("L", 0)]
    i_lam, i_bar = 1, 0
    take_bar = True
    while i_lam < n or i_bar < n:
        if take_bar:
            for _ in range(2):
                if i_bar < n:
                    chain.append(("B", i_bar))
                    i_bar += 1
        else:
            for _ in range(2):
                if i_lam < n:
                    chain.append(("L", i_lam))
                    i_lam += 1
        take_bar = not take_bar
    return chain


@dataclass(frozen=True)
class InterlacingReport:
    n: int
    violations: tuple[str, ...]
    min_strict_margin: float
    max_weak_overshoot: float

    @property
    def passed(self) -> bool:
        return not self.violations


@lru_cache(maxsize=None)
def _chain_links(n: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """``interlacing_chain(n)`` and its links as positions in a row (L values, Lbar values).

    Returns the chain, each link's upper and lower position, and its sign:
    -1 for a link inside one matrix (weak), +1 for one between them (strict).
    """
    chain = tuple(interlacing_chain(n))
    pos = np.array([i if t == "L" else n + i for t, i in chain])
    sign = np.where((pos[:-1] < n) == (pos[1:] < n), -1.0, 1.0)
    for a in (pos, sign):
        a.setflags(write=False)
    return chain, pos[:-1], pos[1:], sign


def _interlacing_stack(lam: np.ndarray, bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each link's drop and violation of descending rows lam, bar (N, n) of both classes.

    A link's drop is its upper minus its lower entry: a strict link's
    margin, a weak link's overshoot negated.  A margin below, or an
    overshoot above, INTERLACING_TOL * max(1, range of lam) violates the
    link.  Both arrays are (N, 2n - 1).
    """
    _, upper, lower, sign = _chain_links(lam.shape[1])
    merged = np.concatenate((lam, bar), axis=1)
    drop = merged.take(upper, axis=1) - merged.take(lower, axis=1)
    tol = INTERLACING_TOL * np.maximum(1.0, lam[:, :1] - lam[:, -1:])
    # a weak link violates where -drop > tol, that is drop < -tol
    return drop, drop < tol * sign


def _spectra_stack(t: _Powers) -> tuple[tuple[np.ndarray, list], tuple[np.ndarray, list]]:
    """``spectra`` of a Lax power table's rows: each class's descending values and flagged pairs.

    Both classes are decomposed in one call, over the class-major stack
    (2N, n, n) of the table's pair.  A failing row raises the error
    ``spectra`` raises at its point, the lowest row first and the even
    class before the odd.
    """
    m, n = t.b.shape
    vals, _, _, pairs, errors = _decompose_stack(np.swapaxes(t.pair, 0, 1).reshape(2 * m, n, n))
    if errors:
        raise errors[min(errors, key=lambda r: (r % m, r // m))]
    return (vals[:m], pairs[:m]), (vals[m:], pairs[m:])


def interlacing_check(z: PhasePoint) -> InterlacingReport:
    """Verify the alternating eigenvalue chain of L and Lbar.

    The merged descending sequence interleaves strictly between the two
    matrices and weakly inside them, so that the only possible degeneracies
    are within same-matrix adjacent pairs.  The one-row case of
    ``_interlacing_stack``.
    """
    n = z.n
    (lam, _), (bar, _) = _spectra_stack(z._powers)
    drop, bad = _interlacing_stack(lam, bar)
    chain = _chain_links(n)[0]
    violations, margins, overshoots = [], [], [0.0]
    for (ta, ia), (tb, ib), d, v in zip(chain[:-1], chain[1:], drop[0].tolist(), bad[0].tolist()):
        if ta == tb:
            overshoots.append(-d)
            if v:
                violations.append(f"{ta}[{ia}] >= {tb}[{ib}] violated by {-d:.3e}")
        else:
            margins.append(d)
            if v:
                violations.append(f"{ta}[{ia}] > {tb}[{ib}] violated, margin {d:.3e}")
    return InterlacingReport(n, tuple(violations), min(margins), max(overshoots))


@dataclass(frozen=True, eq=False)
class AnnihilatorPolynomial:
    """det(L* - xI)/(lambda_r - x) expanded in powers of x.

    ``coefficients[k]`` multiplies x^k.  The polynomial vanishes on the whole
    spectrum of L*, its derivative vanishes at every other degenerate
    eigenvalue, and the derivative at lambda_r itself is nonzero.
    """

    coefficients: np.ndarray
    pair_index: int
    root: float
    derivative_at_root: float

    def __call__(self, x: float) -> float:
        return float(np.polyval(self.coefficients[::-1], x))

    def derivative(self, x: float) -> float:
        return float(np.polyval(np.polyder(self.coefficients[::-1]), x))


def annihilator(spec: SpectralData, pair_index: int) -> AnnihilatorPolynomial:
    """Annihilating polynomial of the matrix for one degenerate pair.

    Built from the eigenvalue multiset with one copy of the pair's value
    removed, so the pair eigenvalue stays a simple root.
    """
    if not 0 <= pair_index < len(spec.degenerate_pairs):
        raise ValueError(
            f"pair index {pair_index} not among {len(spec.degenerate_pairs)} degenerate pairs"
        )
    pair = spec.degenerate_pairs[pair_index]
    root = spec.pair_value(pair)
    values = list(spec.values)
    values.pop(pair[0])
    n = spec.n
    monic = np.poly(values)  # highest power first
    coeffs = ((-1.0) ** (n + 1)) * monic
    deriv = float(np.polyval(np.polyder(coeffs), root))
    return AnnihilatorPolynomial(coeffs[::-1].copy(), pair_index, root, deriv)
