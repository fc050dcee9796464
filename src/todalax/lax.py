"""Lax matrices of the periodic Toda chain and their algebraic structure.

The chain couples n particles on a line, particle n back to particle 1,
through the exponential couplings b_j = exp((q_j - q_{j+1})/2).  Two
inequivalent symmetric Lax families exist, distinguished by the parity of
the number of negative couplings: the even representative L and the odd
representative Lbar (b_n replaced by -b_n).  This module builds both, the
antisymmetric generators of the higher flows, the conserved traces
F_j = Tr(L^j)/j, and the structural identities that relate L and Lbar
(off-banded powers, trace gap, constant characteristic-polynomial offset).

All indices are periodic with period n.  Every Lax matrix comes from one
gather: a cached index map takes each entry from the row (0, p, eps b of
each class), so both classes of a stack of points are built in one call.
For n = 2, where the superdiagonal and the periodic corner coincide, the
two couplings of each class are summed before the gather.  The powers of
the pair come from one table per point or stack (``_Powers``), which the
checks of one point share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (q, p) of the 2n-dimensional phase space, n >= 2.

    q and p are read-only copies of the arrays given, as SignVector's eps
    is.  The point's Lax power table (its couplings, the pair of both Lax
    classes and the powers and norm the checks ask for) is built the first
    time a check reads it and kept on the point; it is not a field, so it
    takes no part in the point's repr or construction.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        p = np.array(self.p, dtype=float)
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if q.size < 2:
            raise ValueError("need at least two particles")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise PhaseDomainError("non-finite phase-space coordinates")
        gaps = q - q[_cyclic(q.size).nxt]
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

    @cached_property
    def _powers(self) -> "_Powers":
        """The point's Lax power table, a stack of one row."""
        b = np.exp(0.5 * (self.q - self.q[_cyclic(self.n).nxt]))
        return _Powers(b[None], self.p[None])

    def couplings(self) -> np.ndarray:
        """The n couplings b_j = exp((q_j - q_{j+1})/2), q_{n+1} = q_1; read-only."""
        return self._powers.b[0]

    def displaced(self, dz: np.ndarray) -> "PhasePoint":
        """The point shifted by a 2n-vector (dq, dp); ValueError for any other shape."""
        dz = np.asarray(dz, dtype=float)
        n = self.n
        if dz.shape != (2 * n,):
            raise ValueError(f"displacement must have shape ({2 * n},), got {dz.shape}")
        return PhasePoint(self.q + dz[:n], self.p + dz[n:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_vector(z: np.ndarray) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        n = z.size // 2
        return PhasePoint(z[:n], z[n:])


@dataclass(frozen=True, eq=False)
class SignVector:
    """An n-tuple of signs selecting one member of the Lax family; eps is a read-only copy."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        eps.setflags(write=False)
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
    @lru_cache(maxsize=None)
    def even(n: int) -> "SignVector":
        return SignVector(np.ones(n))

    @staticmethod
    @lru_cache(maxsize=None)
    def odd(n: int) -> "SignVector":
        eps = np.ones(n)
        eps[-1] = -1.0
        return SignVector(eps)


@dataclass(frozen=True, eq=False)
class LaxMatrix:
    """A periodic-tridiagonal symmetric Lax matrix together with its signs."""

    entries: np.ndarray
    sign: SignVector

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Antisymmetric generator of the flow of one conserved trace."""

    entries: np.ndarray
    flow_index: int
    odd_class: bool

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


def _first_outside(q: np.ndarray, p: np.ndarray) -> tuple[int, PhaseDomainError | None]:
    """The first of the stacked rows q, p (m, n) that PhasePoint rejects, and its error.

    Every row is tested at once, as PhasePoint would test it; only the first
    failing row is built as a PhasePoint, for its PhaseDomainError.  Returns
    (m, None) when every row is in.
    """
    gaps = q - q.take(_cyclic(q.shape[-1]).nxt, axis=-1)
    inside = (np.isfinite(q).all(axis=-1) & np.isfinite(p).all(axis=-1)
              & (np.abs(gaps) <= Q_GAP_LIMIT).all(axis=-1))
    if not inside.all():
        k = int(np.argmin(inside))
        try:
            PhasePoint(q[k], p[k])
        except PhaseDomainError as exc:
            return k, exc
    return len(q), None


def _couplings(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Couplings b_j of stacked rows q, p of shape (..., n), inside PhasePoint's domain.

    One test over all rows (every gap within Q_GAP_LIMIT, a finite sum of
    the momenta) lets valid input through; otherwise the PhaseDomainError
    of the first row off the phase space is raised (``_first_outside``).
    """
    n = q.shape[-1]
    gaps = q - q.take(_cyclic(n).nxt, axis=-1)
    if not (np.abs(gaps).max(initial=0.0) <= Q_GAP_LIMIT and math.isfinite(p.sum())):
        _, error = _first_outside(q.reshape(-1, n), p.reshape(-1, n))
        if error is not None:
            raise error
    return np.exp(0.5 * gaps)


@lru_cache(maxsize=None)
def _class_signs(n: int) -> np.ndarray:
    """Read-only sign rows (2, n) of the two classes, even then odd."""
    out = np.stack([SignVector.even(n).eps, SignVector.odd(n).eps])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _gather(n: int, classes: tuple[int, ...]) -> np.ndarray:
    """Read-only index map of _lax, of shape classes + (n, n).

    classes is () for one sign row and (k,) for k of them.  Entry (r, r)
    reads p_r at 1 + r of the row (0, p, w_1, ..., w_k), entries (r, r + 1)
    and (r + 1, r) of class c read w_c[r], every other entry the leading 0.
    """
    k = math.prod(classes)
    r, nxt = np.arange(n), _cyclic(n).nxt
    w = 1 + n * (1 + np.arange(k)[:, None]) + r
    out = np.zeros((k, n, n), dtype=np.intp)
    out[:, r, r] = 1 + r
    out[:, r, nxt] = w
    out[:, nxt, r] = w
    out = out.reshape(classes + (n, n))
    out.setflags(write=False)
    return out


def _lax(b: np.ndarray, p: np.ndarray, eps: np.ndarray | None = None) -> np.ndarray:
    """Lax matrices of stacked rows b, p of shape (..., n), one per sign row of eps.

    eps of shape (n,) gives (..., n, n), eps of shape (k, n) gives
    (..., k, n, n); without eps both classes, even then odd: (..., 2, n, n).
    One take gathers every entry through _gather's map.  For n = 2 the
    entries (1, 2) and (2, 1) both hold eps_1 b_1 + eps_2 b_2, summed
    before the gather.
    """
    n = b.shape[-1]
    if eps is None:
        eps = _class_signs(n)
    w = b[..., None, :] * eps
    if n == 2:
        w = w + w[..., ::-1]
    lead = b.shape[:-1]
    row = np.concatenate((np.zeros(lead + (1,)), p, w.reshape(lead + (-1,))), axis=-1)
    return row.take(_gather(n, eps.shape[:-1]), axis=-1)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


class _Powers:
    """Lax power table of stacked rows (N, n), the one place a matrix_power of L or Lbar is taken.

    Holds the couplings b and momenta p of N points, the pair of both
    classes ``_lax(b, p)`` (N, 2, n, n), ``power(j)`` =
    ``np.linalg.matrix_power(pair, j)``, taken the first time j is asked
    for, and ``norm``, ||L||_2 of each row from one svd taken when first
    read.  The couplings, the pair, the powers and the norm are read-only,
    and every result built from them is an array of its own.  A
    PhasePoint keeps its table (a stack of one) and verify.Sample one per
    size.  (The trace chains of _trace_gaps, _traces and the flow kernel
    multiply by L step by step, a rounding their results keep.)
    """

    def __init__(self, b: np.ndarray, p: np.ndarray):
        self.b, self.p = _frozen(b.view()), p
        self._power: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.b.shape[-1]

    @cached_property
    def pair(self) -> np.ndarray:
        return _frozen(_lax(self.b, self.p))

    @cached_property
    def norm(self) -> np.ndarray:
        """||L||_2 of each row, shape (N,): the largest singular value, the first svd lists."""
        return _frozen(np.linalg.svd(self.pair[:, 0], compute_uv=False)[:, 0])

    def power(self, j: int) -> np.ndarray:
        """matrix_power(pair, j), shape (N, 2, n, n): row r, class c is that class's own power."""
        out = self._power.get(j)
        if out is None:
            out = self._power[j] = _frozen(np.linalg.matrix_power(self.pair, j))
        return out

    def head(self, k: int) -> "_Powers":
        """The table of the first k rows, holding views of what this one has computed."""
        out = _Powers(self.b[:k], self.p[:k])
        for name in ("pair", "norm"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name][:k]
        out._power = {j: a[:k] for j, a in self._power.items()}
        return out


def _is_int(value) -> bool:
    """An int or numpy integer; bool, an int subclass, does not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_index(what: str, j, n: int) -> int:
    """``j`` as an int; ValueError unless it is an integer, not a bool, in 1..n."""
    if not (_is_int(j) and 1 <= j <= n):
        raise ValueError(f"{what} must be an integer in 1..{n}, got {j!r}")
    return int(j)


def build_lax(z: PhasePoint, eps: SignVector | None = None) -> LaxMatrix:
    """Build the Lax matrix with diagonal p and cyclic off-diagonal eps_r b_r.

    With all signs +1 this is the even representative L; with
    eps = (1, ..., 1, -1) the odd representative Lbar.  The entries are
    gathered from the row (0, p, eps b); for n = 2, where the superdiagonal
    and the periodic corner coincide, the (1,2) and (2,1) entries carry
    b_1 + eps_2 b_2.
    """
    if eps is None:
        eps = SignVector.even(z.n)
    if eps.n != z.n:
        raise ValueError(f"sign vector length {eps.n} != particle count {z.n}")
    return LaxMatrix(_lax(z.couplings(), z.p, eps.eps), eps)


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the entries (r, s), r < s, of an n x n matrix."""
    out = np.triu(np.ones((n, n), dtype=bool), k=1)
    out.setflags(write=False)
    return out


def _generator(power: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix from the strict upper triangle of power / 2; stacks too."""
    upper = np.where(_strict_upper(power.shape[-1]), 0.5 * power, 0.0)
    return upper - np.swapaxes(upper, -1, -2)


def build_generator(z: PhasePoint, j: int, odd_class: bool = False) -> GeneratorMatrix:
    """Antisymmetric generator of the j-th flow, 1 <= j <= n.

    The even-class generator acting on L is built from the strict upper
    triangle of Lbar^(j-1)/2 (and the odd-class one from L^(j-1)/2); both
    vanish for j = 1, and the even-class j = 2 matrix is the familiar
    nearest-neighbour antisymmetric coupling matrix.
    """
    j = _require_index("flow index", j, z.n)
    source = z._powers.power(j - 1)[0, int(not odd_class)]
    return GeneratorMatrix(_generator(source), j, odd_class)


def _traces(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F_j = Tr(L^j)/j, j = 1..n, of stacked rows q, p of shape (..., n)."""
    n = q.shape[-1]
    L = _lax(_couplings(q, p), p, SignVector.even(n).eps)
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


@lru_cache(maxsize=None)
def _band(n: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of L^j - Lbar^j (n x n, flattened) for off_band_check.

    The flat positions of the entries with plain distance |r - s| < n - j;
    the flat positions (i, i + n - j), i < j, of the first nonzero diagonal;
    the (j, j) coupling indices r - 1 - k (mod n) of its descending products.
    """
    r, s = np.indices((n, n))
    i = np.arange(j)
    out = (np.flatnonzero(np.abs(r - s) < n - j), i * n + i + n - j,
           (i[:, None] - 1 - np.arange(j)) % n)
    for a in out:
        a.setflags(write=False)
    return out


# The stacked kernels below take the Lax power table of N points: that of
# verify.Sample's random points (built from _couplings, which checks the
# phase-space domain) or a PhasePoint's own.  The scalar checks are their
# N = 1 rows.

def _off_band(t: _Powers, exponents) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pattern and first-diagonal residuals of L^j - Lbar^j for each j of ``exponents``.

    Two arrays of shape (len(exponents), N); see off_band_check for their
    definitions.  ||L||_2 does not depend on j: the table's one svd serves
    every power.
    """
    n, b = t.n, t.b
    norm = np.maximum(t.norm, 1.0)
    zero_residual, diagonal = np.empty((2, len(exponents), len(b)))
    for k, j in enumerate(exponents):
        powers = t.power(j)
        D = (powers[:, 0] - powers[:, 1]).reshape(-1, n * n)
        zeros, first, products = _band(n, j)
        zero_residual[k] = np.max(np.abs(D[:, zeros]), axis=-1, initial=0.0) / norm ** j
        expected = 4.0 if j == n else 2.0 * np.prod(b[:, products], axis=-1)
        diagonal[k] = np.max(np.abs(D[:, first] - expected) / np.maximum(np.abs(expected), 1e-300),
                             axis=-1)
    return zero_residual, diagonal


def _trace_gaps(t: _Powers) -> np.ndarray:
    """|Tr L^j - Tr Lbar^j - target| / scale, j = 1..n: shape (N, n).

    The target is 0 for j < n and 4n at j = n; the scale is the largest of
    1, |Tr L^j|, |Tr Lbar^j| and the target.  The powers are the chain
    pair, pair @ pair, ... of the table's pair, whose rounding the
    reported residuals keep (matrix_power squares from exponent 4 on).
    """
    n, pair = t.n, t.pair
    out = np.empty(t.b.shape)
    power = pair
    for j in range(1, n + 1):
        if j > 1:
            power = power @ pair
        tl, tb = np.trace(power, axis1=-2, axis2=-1).T
        target = 4.0 * n if j == n else 0.0
        scale = np.maximum(np.maximum(np.abs(tl), np.abs(tb)), max(1.0, target))
        out[:, j - 1] = np.abs(tl - tb - target) / scale
    return out


_CHAR_POLY_GRID = np.linspace(-3.0, 3.0, 21)
_CHAR_POLY_GRID.setflags(write=False)


def _char_poly(t: _Powers) -> tuple[np.ndarray, np.ndarray]:
    """Mean over _CHAR_POLY_GRID and worst deviation from it of det(xI - L) - det(xI - Lbar).

    Two arrays of shape (N,), from one det call over all rows, both
    classes and every grid value.
    """
    xI = _CHAR_POLY_GRID[:, None, None] * np.eye(t.n)
    dets = np.linalg.det(xI - t.pair[:, :, None])
    diffs = dets[:, 0] - dets[:, 1]
    constant = np.mean(diffs, axis=-1)
    return constant, np.max(np.abs(diffs - constant[:, None]), axis=-1)


# The reports below hold residuals only; verify.CHECKS holds the bounds
# that turn them into pass or fail.

@dataclass(frozen=True)
class OffBandReport:
    """Residuals of the zero pattern and first nonzero diagonal of L^j - Lbar^j."""

    n: int
    j: int
    zero_residual: float
    diagonal_residual: float


def off_band_check(z: PhasePoint, j: int) -> OffBandReport:
    """Measure the banded structure of D = L^j - Lbar^j.

    Entries with plain (non-cyclic) distance |r - s| < n - j vanish, and the
    first nonzero diagonal sits at distance n - j above the main one: its
    entries at rows r = 1..j equal twice the descending coupling product
    b_{r-1} b_{r-2} ... b_{r-j} for j < n, and equal 4 for j = n.  Residuals
    are scaled by ||L||^j (zero pattern) and relatively (diagonal values).
    """
    j = _require_index("power", j, z.n)
    zero, diagonal = _off_band(z._powers, (j,))
    return OffBandReport(z.n, j, float(zero[0, 0]), float(diagonal[0, 0]))


@dataclass(frozen=True, eq=False)
class TraceReport:
    """Deviations of Tr L^j - Tr Lbar^j from 0 (j < n) and 4n (j = n)."""

    n: int
    residuals: np.ndarray


def trace_relation_check(z: PhasePoint) -> TraceReport:
    """Measure how far Tr L^j - Tr Lbar^j is from 0 for j < n and from 4n at j = n."""
    return TraceReport(z.n, _trace_gaps(z._powers)[0])


@dataclass(frozen=True)
class CharPolyReport:
    """Constancy data for det(xI - L) - det(xI - Lbar) over a sample grid."""

    constant: float
    max_deviation: float


def char_poly_offset(z: PhasePoint) -> CharPolyReport:
    """Measure the constant by which the two characteristic polynomials differ.

    det(xI - L) - det(xI - Lbar) is independent of x and of the phase-space
    point; its magnitude is 4 and, in this determinant orientation, its sign
    is negative for every n.  The constant is determined empirically: the
    reported value is its mean over 21 points x on [-3, 3], the deviation
    the worst distance to it.
    """
    constant, deviation = _char_poly(z._powers)
    return CharPolyReport(float(constant[0]), float(deviation[0]))
