"""Lax matrices of the periodic Toda chain and their algebraic structure.

The chain couples n particles on a line, particle n back to particle 1,
through the exponential couplings b_j = exp((q_j - q_{j+1})/2).  Two
inequivalent symmetric Lax families exist, distinguished by the parity of
the number of negative couplings: the even representative L and the odd
representative Lbar (b_n replaced by -b_n).  This module builds both, the
antisymmetric generators of the higher flows, the conserved traces
F_j = Tr(L^j)/j, and the structural identities that relate L and Lbar
(off-banded powers, trace gap, constant characteristic-polynomial offset).

All indices are periodic with period n; the n = 2 corner case, where the
superdiagonal and the periodic corner coincide, is handled by accumulating
the index-form sums mod n instead of special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math
from typing import NamedTuple
import numpy as np

__all__ = [
    "PhaseDomainError",
    "PhasePoint",
    "SignVector",
    "LaxMatrix",
    "GeneratorMatrix",
    "build_lax",
    "build_generator",
    "integrals",
    "hamiltonian",
    "conjugating_signs",
    "off_band_check",
    "trace_relation_check",
    "char_poly_offset",
]

# |q_j - q_{j+1}| beyond this would push b_j = exp(gap/2) out of double range.
Q_GAP_LIMIT = 600.0


class PhaseDomainError(ValueError):
    """Raised when a phase-space point cannot produce finite couplings."""


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) of the 2n-dimensional phase space, n >= 2."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if q.size < 2:
            raise ValueError("need at least two particles")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise PhaseDomainError("non-finite phase-space coordinates")
        gaps = q - np.roll(q, -1)
        bad = np.nonzero(np.abs(gaps) > Q_GAP_LIMIT)[0]
        if bad.size:
            j = int(bad[0])
            raise PhaseDomainError(
                f"coupling b_{j + 1} overflows: |q_{j + 1} - q_{j + 2}| = "
                f"{abs(gaps[j]):.3g} exceeds {Q_GAP_LIMIT}"
            )

    @property
    def n(self) -> int:
        return self.q.size

    def couplings(self) -> np.ndarray:
        """The n couplings b_j = exp((q_j - q_{j+1})/2), q_{n+1} = q_1."""
        return np.exp(0.5 * (self.q - np.roll(self.q, -1)))

    def displaced(self, dz: np.ndarray) -> "PhasePoint":
        """The point shifted by a 2n-vector (dq, dp)."""
        dz = np.asarray(dz, dtype=float)
        n = self.n
        return PhasePoint(self.q + dz[:n], self.p + dz[n:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_vector(z: np.ndarray) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        n = z.size // 2
        return PhasePoint(z[:n], z[n:])


@dataclass(frozen=True)
class SignVector:
    """An n-tuple of signs selecting one member of the Lax family."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", eps)
        if eps.ndim != 1 or eps.size < 2:
            raise ValueError("sign vector must be 1-d with length >= 2")
        if not np.all(np.abs(eps) == 1.0):
            raise ValueError("sign vector entries must be exactly +1 or -1")

    @property
    def n(self) -> int:
        return self.eps.size

    def parity(self) -> int:
        """+1 for the even class (conjugate to L), -1 for the odd (Lbar)."""
        return int(np.prod(self.eps))

    @staticmethod
    def even(n: int) -> "SignVector":
        return SignVector(np.ones(n))

    @staticmethod
    def odd(n: int) -> "SignVector":
        eps = np.ones(n)
        eps[-1] = -1.0
        return SignVector(eps)


@dataclass(frozen=True)
class LaxMatrix:
    """A periodic-tridiagonal symmetric Lax matrix together with its signs."""

    entries: np.ndarray
    sign: SignVector

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Antisymmetric generator of the flow of one conserved trace."""

    entries: np.ndarray
    flow_index: int
    odd_class: bool = field(default=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class _Cyclic(NamedTuple):
    """Read-only index arrays of the periodic chain, for r = 0..n-1."""

    nxt: np.ndarray  # r + 1 (mod n)
    prv: np.ndarray  # r - 1 (mod n)
    diag: np.ndarray  # flat position of the entry (r, r) of an n x n matrix
    upper: np.ndarray  # ... of (r, r + 1)
    lower: np.ndarray  # ... of (r + 1, r)


@lru_cache(maxsize=None)
def _cyclic(n: int) -> _Cyclic:
    r = np.arange(n)
    nxt, prv = (r + 1) % n, (r - 1) % n
    out = _Cyclic(nxt, prv, r * (n + 1), r * n + nxt, nxt * n + r)
    for a in out:
        a.setflags(write=False)
    return out


def _couplings(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Couplings b_j of stacked rows q, p of shape (..., n), inside PhasePoint's domain.

    One test over all rows (every gap within Q_GAP_LIMIT, a finite sum of
    the momenta) lets valid input through; otherwise every row is built as
    a PhasePoint, whose own test raises the PhaseDomainError naming the fault.
    """
    n = q.shape[-1]
    gaps = q - q[..., _cyclic(n).nxt]
    if not (np.abs(gaps).max(initial=0.0) <= Q_GAP_LIMIT and math.isfinite(p.sum())):
        for qr, pr in zip(q.reshape(-1, n), p.reshape(-1, n)):
            PhasePoint(qr, pr)
    return np.exp(0.5 * gaps)


def _lax_entries(b: np.ndarray, p: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Lax matrices of stacked rows b, p of shape (..., n): shape (..., n, n).

    The entry (r, r + 1) and its mirror accumulate eps_r b_r; for n = 2
    they coincide and hold eps_1 b_1 + eps_2 b_2.
    """
    n = b.shape[-1]
    ix = _cyclic(n)
    w = eps * b
    m = np.zeros(b.shape[:-1] + (n * n,))
    m[..., ix.diag] = p
    m[..., ix.upper] = w
    m[..., ix.lower] += w
    return m.reshape(b.shape + (n,))


def build_lax(z: PhasePoint, eps: SignVector | None = None) -> LaxMatrix:
    """Build the Lax matrix with diagonal p and cyclic off-diagonal eps_r b_r.

    With all signs +1 this is the even representative L; with
    eps = (1, ..., 1, -1) the odd representative Lbar.  Opposite cyclic
    neighbours are accumulated mod n, so for n = 2 the (1,2) entry carries
    b_1 + eps_2 b_2.
    """
    if eps is None:
        eps = SignVector.even(z.n)
    if eps.n != z.n:
        raise ValueError(f"sign vector length {eps.n} != particle count {z.n}")
    return LaxMatrix(_lax_entries(z.couplings(), z.p, eps.eps), eps)


def _strict_upper(a: np.ndarray) -> np.ndarray:
    return np.triu(a, k=1)


def build_generator(z: PhasePoint, j: int, odd_class: bool = False) -> GeneratorMatrix:
    """Antisymmetric generator of the j-th flow, 1 <= j <= n.

    The even-class generator acting on L is built from the strict upper
    triangle of Lbar^(j-1)/2 (and the odd-class one from L^(j-1)/2); both
    vanish for j = 1, and the even-class j = 2 matrix is the familiar
    nearest-neighbour antisymmetric coupling matrix.
    """
    n = z.n
    if not 1 <= j <= n:
        raise ValueError(f"flow index {j} out of range 1..{n}")
    source = build_lax(z, SignVector.even(n) if odd_class else SignVector.odd(n))
    power = np.linalg.matrix_power(source.entries, j - 1)
    upper = 0.5 * _strict_upper(power)
    return GeneratorMatrix(upper - upper.T, j, odd_class)


def _traces(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F_j = Tr(L^j)/j, j = 1..n, of stacked rows q, p of shape (..., n)."""
    n = q.shape[-1]
    L = _lax_entries(_couplings(q, p), p, np.ones(n))
    out = np.empty(q.shape)
    power = np.eye(n)
    for j in range(1, n + 1):
        power = power @ L
        out[..., j - 1] = np.trace(power, axis1=-2, axis2=-1) / j
    return out


def integrals(z: PhasePoint) -> np.ndarray:
    """The n conserved quantities F_j = Tr(L^j)/j, j = 1..n.

    F_1 is the centre-of-mass momentum and F_2 the Hamiltonian
    sum(p_r^2)/2 + sum(b_r^2).
    """
    return _traces(z.q, z.p)


def hamiltonian(z: PhasePoint) -> float:
    """Chain energy sum(p_r^2)/2 + sum(b_r^2).

    Equals the second trace F_2 for n >= 3; for n = 2 the collapsed corner
    entry adds the constant 2 b_1 b_2 = 2 to F_2, which generates the same
    flow.
    """
    b = z.couplings()
    return float(0.5 * np.dot(z.p, z.p) + np.dot(b, b))


def conjugating_signs(eps: SignVector, sigma: SignVector) -> np.ndarray:
    """Diagonal of the +-1 matrix S with L^sigma = S L^eps S^(-1).

    Exists exactly when the two sign vectors have equal parity.
    """
    if eps.n != sigma.n:
        raise ValueError("sign vectors must have equal length")
    prod = eps.eps * sigma.eps
    if int(np.prod(prod)) != 1:
        raise ValueError("sign vectors of opposite parity are not conjugate")
    d = np.ones(eps.n)
    for m in range(1, eps.n):
        d[m] = d[m - 1] * prod[m - 1]
    return d


def _matrix_powers(a: np.ndarray, jmax: int) -> list[np.ndarray]:
    """[a^1, ..., a^jmax] by repeated multiplication."""
    powers = [a]
    for _ in range(jmax - 1):
        powers.append(powers[-1] @ a)
    return powers


@dataclass(frozen=True)
class OffBandReport:
    """Residuals of the zero pattern and first nonzero diagonal of L^j - Lbar^j."""

    n: int
    j: int
    zero_residual: float
    diagonal_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.zero_residual < self.tol and self.diagonal_residual < self.tol


def off_band_check(z: PhasePoint, j: int, tol: float = 1e-10) -> OffBandReport:
    """Verify the banded structure of D = L^j - Lbar^j.

    Entries with plain (non-cyclic) distance |r - s| < n - j vanish, and the
    first nonzero diagonal sits at distance n - j above the main one: its
    entries at rows r = 1..j equal twice the descending coupling product
    b_{r-1} b_{r-2} ... b_{r-j} for j < n, and equal 4 for j = n.  Residuals
    are scaled by ||L||^j (zero pattern) and relatively (diagonal values).
    """
    n = z.n
    if not 1 <= j <= n:
        raise ValueError(f"power {j} out of range 1..{n}")
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    D = np.linalg.matrix_power(L, j) - np.linalg.matrix_power(Lbar, j)

    scale = max(np.linalg.norm(L, 2), 1.0) ** j
    rows, cols = np.indices((n, n))
    zero_mask = np.abs(rows - cols) < n - j
    zero_residual = float(np.max(np.abs(D[zero_mask])) / scale) if zero_mask.any() else 0.0

    b = z.couplings()
    diag_residual = 0.0
    for i in range(j):
        value = D[i, i + n - j]
        if j == n:
            expected = 4.0
        else:
            # product b_{r-1}...b_{r-j} for 1-indexed row r = i+1, indices mod n
            idx = (i - 1 - np.arange(j)) % n
            expected = 2.0 * float(np.prod(b[idx]))
        diag_residual = max(diag_residual, abs(value - expected) / max(abs(expected), 1e-300))
    return OffBandReport(n, j, zero_residual, float(diag_residual), tol)


@dataclass(frozen=True)
class TraceReport:
    """Deviations of Tr L^j - Tr Lbar^j from 0 (j < n) and 4n (j = n)."""

    n: int
    residuals: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return float(np.max(self.residuals)) < self.tol


def trace_relation_check(z: PhasePoint, tol: float = 1e-9) -> TraceReport:
    """Check that the traces of L^j and Lbar^j agree for j < n and differ by 4n at j = n."""
    n = z.n
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    residuals = np.empty(n)
    for j, (PL, PB) in enumerate(zip(_matrix_powers(L, n), _matrix_powers(Lbar, n)), start=1):
        gap = np.trace(PL) - np.trace(PB)
        target = 4.0 * n if j == n else 0.0
        scale = max(1.0, abs(np.trace(PL)), abs(np.trace(PB)), target)
        residuals[j - 1] = abs(gap - target) / scale
    return TraceReport(n, residuals, tol)


@dataclass(frozen=True)
class CharPolyReport:
    """Constancy data for det(xI - L) - det(xI - Lbar) over a sample grid."""

    constant: float
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tol and abs(abs(self.constant) - 4.0) < self.tol


def char_poly_offset(
    z: PhasePoint, x_grid: np.ndarray | None = None, tol: float = 1e-8
) -> CharPolyReport:
    """Measure the constant by which the two characteristic polynomials differ.

    det(xI - L) - det(xI - Lbar) is independent of x and of the phase-space
    point; its magnitude is 4 and, in this determinant orientation, its sign
    is negative for every n.  The constant is determined empirically: the
    reported value is the grid mean, the deviation the worst distance to it.
    """
    n = z.n
    if x_grid is None:
        x_grid = np.linspace(-3.0, 3.0, 21)
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    eye = np.eye(n)
    diffs = np.array(
        [np.linalg.det(x * eye - L) - np.linalg.det(x * eye - Lbar) for x in x_grid]
    )
    constant = float(np.mean(diffs))
    return CharPolyReport(constant, float(np.max(np.abs(diffs - constant))), tol)
