"""Gradients of the conserved traces, Poisson brackets and Hamiltonian flows.

The gradient of F_j = Tr(L^j)/j follows from dF_j = Tr(L^(j-1) dL) with
db_r = b_r (dq_r - dq_{r+1})/2: the momentum part is the diagonal of
L^(j-1) and the position part a difference of weighted off-diagonal
elements.  Lax equations are verified entrywise from these analytic
gradients, keeping the test independent of any integrator, and the flows
generated by arbitrary combinations of the traces are integrated with
adaptive error control.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math
import numbers
from operator import sub

import numpy as np

from . import _dop853_tableau as _dop853
from .lax import (
    Q_GAP_LIMIT,
    PhasePoint,
    SignVector,
    _class_signs,
    _cyclic,
    _generator,
    _lax,
    _Powers,
    _require_index,
    _traces,
)

__all__ = [
    "DEFAULT_RTOL",
    "RTOL_FLOOR",
    "ATOL",
    "Gradient",
    "grad_F",
    "grad_combination",
    "coordinate_form",
    "poisson",
    "lax_residual",
    "FlowError",
    "Trajectory",
    "integrate_flow",
    "trajectory_to_csv",
]


@dataclass(frozen=True, eq=False)
class Gradient:
    """Phase-space gradient split into position and momentum parts."""

    dq: np.ndarray
    dp: np.ndarray

    @property
    def n(self) -> int:
        return self.dq.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp])


def _grad_from_power(power: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dq, dp) of Tr(L^j)/j given L^(j-1) and the couplings; dp is a read-only view.

    Powers (..., n, n) and couplings broadcastable to (..., n) give rows
    (..., n): one point, a stack of points, or a stack of powers of one point.
    """
    n = b.shape[-1]
    ix = _cyclic(n)
    off = b * power.reshape(power.shape[:-2] + (n * n,)).take(ix.upper, axis=-1)
    return off - off.take(ix.prv, axis=-1), power.diagonal(0, -2, -1)


def _gradients(t: _Powers, j: int) -> tuple[np.ndarray, np.ndarray]:
    """dF_j/dq and dF_j/dp of a Lax power table (see lax._off_band), from L^(j - 1).

    Both are contiguous arrays of their own: _brackets' matmuls of strided
    rows would not round as np.dot does.
    """
    dq, dp = _grad_from_power(t.power(j - 1)[:, 0], t.b)
    return dq, dp.copy()


def grad_F(z: PhasePoint, j: int) -> Gradient:
    """Analytic gradient of the j-th conserved trace, 1 <= j <= n."""
    j = _require_index("flow index", j, z.n)
    dq, dp = _gradients(z._powers, j)
    return Gradient(dq[0], dp[0])


def _trace_gradients(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows (dF_j/dq, dF_j/dp) of F_1..F_n at stacked rows b, p (m, n): shape (m, n, 2n).

    All n come from one power recurrence L^0 .. L^(n-1).  Row j of a point
    equals grad_F(z, j + 1).as_vector() bit for bit up to n = 4; beyond,
    matrix_power's binary decomposition of exponents >= 4 rounds differently.
    """
    m, n = b.shape
    L = _lax(b, p, SignVector.even(n).eps)
    powers = np.empty((m, n, n, n))
    powers[:, 0] = np.eye(n)
    for k in range(1, n):
        np.matmul(powers[:, k - 1], L, out=powers[:, k])
    return np.concatenate(_grad_from_power(powers, b[:, None, :]), axis=-1)


def _gradient_field(n: int, c: np.ndarray):
    """(t, z) -> (dG/dp, -dG/dq) of G = sum_j c_j F_j at z = (q, p): the one-point vector field.

    Built once: the coefficients of the chain L, L^2, ... up to the highest
    nonzero c_j, dG/dp = c_1 of F_1, L's flat indices and a buffer for L.
    Each evaluation reads z as Python floats and takes the gaps and
    _couplings' domain test there.  Only the couplings' exp and the powers
    L^2, L^3, ... are numpy's (OpenBLAS matmul does not round as Python sums
    do), so F_1 and F_2 alone build no matrix: L's entries (r, r + 1) and
    diagonal are the couplings and the momenta.  The entries (r, r + 1) and
    the diagonal of each power with a nonzero coefficient are summed onto
    zeros in increasing j on Python floats, as _grad_from_power's rows would
    be, bit for bit.  t is not read.  Every evaluation returns a fresh array
    (solve_ivp keeps the last one).  A non-finite c raises ValueError;
    points outside the phase-space domain raise PhasePoint's PhaseDomainError.
    """
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coefficient vector c must be finite, got {c}")
    nonzero = np.flatnonzero(c)
    chain = c[1:nonzero[-1] + 1].tolist() if nonzero.size else []
    dp_first = [0.0 + float(c[0])] * n
    if not chain:
        constant = np.array(dp_first + [-0.0] * n)
    ix = _cyclic(n)
    upper_then_diag = np.concatenate([ix.upper, ix.diag])
    flat_L = np.zeros(n * n)  # the field's own L: every evaluation rewrites its band
    L = flat_L.reshape(n, n)
    last = len(chain) - 1

    def field(_t, z: np.ndarray) -> np.ndarray:
        zs = z.tolist()
        q, p = zs[:n], zs[n:]
        gaps = list(map(sub, q, q[1:] + q[:1]))
        # _couplings' test on Python floats: with every coordinate finite, no gap is NaN
        if not (math.isfinite(sum(zs)) and -Q_GAP_LIMIT <= min(gaps) and max(gaps) <= Q_GAP_LIMIT):
            PhasePoint(z[:n], z[n:])
        if not chain:
            return constant.copy()
        couplings = np.exp(np.multiply(0.5, gaps))
        b = couplings.tolist()
        # the entries (r, r + 1) and the diagonal of L; at n = 2 both couplings meet in one entry
        upper = b if n > 2 else [b[0] + b[1], b[1] + b[0]]
        diag = p
        dq, dp = [0.0] * n, dp_first
        power = None
        for k, cj in enumerate(chain):
            if k:
                if power is None:
                    flat_L[ix.diag] = z[n:]
                    flat_L[ix.upper] = couplings if n > 2 else upper
                    if n > 2:
                        flat_L[ix.lower] = couplings
                    power = L
                power = power @ L
            if cj:
                if k:
                    read = power.take(upper_then_diag).tolist()
                    upper, diag = read[:n], read[n:]
                off = [x * u for x, u in zip(b, upper)]
                dp = [d + cj * x for d, x in zip(dp, diag)]
                if k == last:  # the chain ends at the highest nonzero c_j: -dG/dq joins dp
                    return np.array(dp + [-(d + cj * (o - o_prv))
                                          for d, o, o_prv in zip(dq, off, [off[-1]] + off)])
                dq = [d + cj * (o - o_prv) for d, o, o_prv in zip(dq, off, [off[-1]] + off)]

    return field


def grad_combination(z: PhasePoint, c: np.ndarray) -> Gradient:
    """Gradient of sum_j c_j F_j in one pass over the powers of L."""
    c = np.asarray(c, dtype=float)
    n = z.n
    if c.size != n:
        raise ValueError(f"coefficient vector length {c.size} != {n}")
    v = _gradient_field(n, c)(0.0, z.as_vector())
    return Gradient(-v[n:], v[:n])


def _component_forms(b: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dq, dp) of the component v . L . w for signed couplings b; rows (..., n) broadcast."""
    ix = _cyclic(v.shape[-1])
    half = 0.5 * b * (v * w.take(ix.nxt, axis=-1) + v.take(ix.nxt, axis=-1) * w)
    return half - half.take(ix.prv, axis=-1), v * w


def coordinate_form(z: PhasePoint, eps: SignVector, v: np.ndarray, w: np.ndarray) -> Gradient:
    """Exact gradient of the spectral component v . L^eps(z) . w for fixed v, w."""
    return Gradient(*_component_forms(z.couplings() * eps.eps, v, w))


def poisson(f: Gradient, g: Gradient) -> float:
    """Canonical bracket sum_r (df/dq_r dg/dp_r - df/dp_r dg/dq_r)."""
    if f.n != g.n:
        raise ValueError("gradients live on different phase spaces")
    return float(np.dot(f.dq, g.dp) - np.dot(f.dp, g.dq))


def _brackets(t: _Powers) -> np.ndarray:
    """{F_i, F_j} for 1 <= i < j <= n of a Lax power table (see lax._off_band).

    Shape (N, n(n-1)/2), the pairs (i, j) in lexicographic order.  Each sum
    is a stacked matmul of a contiguous row by a contiguous column, which
    rounds as poisson's np.dot does.
    """
    n = t.n
    grads = [_gradients(t, j) for j in range(1, n + 1)]
    out = np.empty((len(t.b), n * (n - 1) // 2))
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        (fq, fp), (gq, gp) = grads[i], grads[j]
        out[:, k] = (fq[:, None, :] @ gp[:, :, None] - fp[:, None, :] @ gq[:, :, None])[:, 0, 0]
    return out


def _lax_residuals(t: _Powers, j: int, odd_class: bool) -> np.ndarray:
    """lax_residual of a Lax power table (see lax._off_band): shape (N,).

    The gradient of F_j comes from L^(j-1); the even class's generator from
    Lbar^(j-1), the odd class's from L^(j-1), all of the table's power j - 1.
    """
    n, b = t.n, t.b
    powers = t.power(j - 1)
    dq, dp = _grad_from_power(powers[:, 0], b)
    M = _generator(powers[:, int(not odd_class)])
    L, eps = t.pair[:, int(odd_class)], _class_signs(n)[int(odd_class)]
    weight = 0.5 * (b * eps) * (dp - dp.take(_cyclic(n).nxt, axis=-1))
    bracket = _lax(weight, -dq, SignVector.even(n).eps)
    return np.max(np.abs(bracket - (L @ M - M @ L)), axis=(-2, -1))


def lax_residual(z: PhasePoint, j: int, odd_class: bool = False) -> float:
    """Max-abs entry of {L, F_j} - [L, M_(j)] (or the odd-class analogue).

    {L, F_j}, from the analytic gradient, has L's periodic tridiagonal pattern:
    -dF/dq on the diagonal, b_m (dF/dp_m - dF/dp_(m+1))/2 at coupling m.
    """
    j = _require_index("flow index", j, z.n)
    return float(_lax_residuals(z._powers, j, odd_class)[0])


# DOP853's relative tolerance unless a caller sets one; integrate_flow says why not 1e-10.
DEFAULT_RTOL = 1e-11
# The smallest rtol: DOP853's error control cannot resolve less than 100 machine epsilons.
RTOL_FLOOR = 100 * float(np.finfo(float).eps)
# DOP853's absolute tolerance.
ATOL = 1e-12


def _require_rtol(value) -> None:
    """Raise ValueError unless ``value`` is a finite real (bool is not) of at least RTOL_FLOOR."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise ValueError(f"rtol must be a finite positive real, got {value!r}")
    if value < RTOL_FLOOR:
        raise ValueError(f"rtol must be at least the floor 100 eps = {RTOL_FLOOR:.3g}, "
                         f"got {value!r}")


class FlowError(RuntimeError):
    """Integration failed (step-size underflow or solver breakdown)."""


# DOP853's step-size control: a safety factor on the asymptotic step and the
# limits of one step's shrinking and growth.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
# the exponent -1/(q + 1) of the error estimator's order q = 7
_ERROR_EXPONENT = -1 / 8
# (s, A[s, :s], C[s]) of the stages after the first, then of the three dense-output stages
_STAGES = tuple((s, _dop853.A[s, :s], float(_dop853.C[s])) for s in range(1, _dop853.N_STAGES))
_EXTRA_STAGES = tuple((s, _dop853.A[s, :s], float(_dop853.C[s]))
                      for s in range(_dop853.N_STAGES + 1, _dop853.N_STAGES_EXTENDED))
_B = _dop853.A[_dop853.N_STAGES, :_dop853.N_STAGES]


def _norm(x: np.ndarray):
    """np.linalg.norm of a vector, as numpy computes it."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    return _norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer, Norsett & Wanner's starting step for an error estimator of order 7 (Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """Dormand-Prince 8(5,3) from y0 over t_span, read at t_eval: (times, points, nfev).

    ``fun(t, y)`` returns dy/dt as a fresh float array (the last one is kept
    between steps).  A port of scipy 1.17's ``solve_ivp(fun, t_span, y0,
    method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)`` that performs
    the same numpy operations in the same order, so times, points (one row
    per time) and the count of ``fun`` evaluations are byte-identical to
    scipy's: the same starting step, stage sums ``np.dot(K[:s].T, a) * h``,
    error norm from the fifth- and third-order estimates, step control
    (growth capped at 1 after a rejection, a floor of 10 spacings of t) and
    dense output with three extra stages, evaluated on the times each step
    passes, in either direction.  The integration always runs to the end of
    t_span, which must have nonzero length; t_eval must be a 1-d array of
    times inside t_span, strictly ordered from its start to its end (what
    integrate_flow checks).  A step size below the floor raises FlowError.
    Coefficients: ``_dop853_tableau``.
    """
    t0, tf = map(float, t_span)
    direction = 1.0 if tf > t0 else -1.0
    if direction > 0:
        t_eval_i = 0
    else:  # decreasing order for np.searchsorted; t_eval_i bounds the slices from above
        t_eval = t_eval[::-1]
        t_eval_i = t_eval.shape[0]
    # the next time to read, once a step reaches it
    t_next = t_eval.tolist() + [math.inf] if direction > 0 else [-math.inf] + t_eval.tolist()

    y = np.asarray(y0, dtype=float)
    t = t0
    f = fun(t, y)
    abs_y = np.abs(y)
    h_abs = _initial_step(fun, t, y, tf, f, direction, rtol, atol)
    nfev = 2
    K = np.empty((_dop853.N_STAGES_EXTENDED, y.size))
    # the stage sums read K[:s].T; K[:13] holds the step's stages and its end
    K_T = [K[:s].T for s in range(_dop853.N_STAGES_EXTENDED)]
    K_step_T = K[:_dop853.N_STAGES + 1].T
    times, points = [], []
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise FlowError(f"integration stopped at t = {float(t)!r}: the step size fell below "
                                f"the spacing of floating-point numbers")
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, a, c in _STAGES:
                # y + np.dot(K[:s].T, a) * h, in place
                dy = K_T[s].dot(a)
                dy *= h
                dy += y
                K[s] = fun(t + c * h, dy)
            y_new = y + h * K_T[_dop853.N_STAGES].dot(_B)
            f_new = fun(t + h, y_new)
            K[_dop853.N_STAGES] = f_new
            nfev += _dop853.N_STAGES

            abs_y_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_y_new) * rtol
            err5 = K_step_T.dot(_dop853.E5) / scale
            err3 = K_step_T.dot(_dop853.E3) / scale
            err5_norm_2 = _norm(err5)**2
            err3_norm_2 = _norm(err3)**2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True

        t_old, y_old = t, y
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        # the times this step passed, a time equal to t included
        if direction * (t - t_next[t_eval_i]) >= 0:
            if direction > 0:
                t_eval_i_new = np.searchsorted(t_eval, t, side='right')
                t_eval_step = t_eval[t_eval_i:t_eval_i_new]
            else:
                t_eval_i_new = np.searchsorted(t_eval, t, side='left')
                t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
            for s, a, c in _EXTRA_STAGES:
                dy = K_T[s].dot(a)
                dy *= h
                dy += y_old
                K[s] = fun(t_old + c * h, dy)
            nfev += len(_EXTRA_STAGES)
            F = np.empty((_dop853.INTERPOLATOR_POWER, y.size))
            f_start = K[0]
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * f_start - delta_y
            F[2] = 2 * delta_y - h * (f + f_start)
            F[3:] = h * _dop853.D.dot(K)
            # the interpolant in the alternating Horner scheme of Dop853DenseOutput
            x = ((t_eval_step - t_old) / (t - t_old))[:, None]
            factors = (x, 1 - x)
            dense = np.zeros((len(x), y.size))
            for i, row in enumerate(F[::-1]):
                dense += row
                dense *= factors[i % 2]
            dense += y_old
            times.append(t_eval_step)
            points.append(dense)
            t_eval_i = t_eval_i_new
        if direction * (t - tf) >= 0:
            return np.concatenate(times), np.concatenate(points), nfev


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one Hamiltonian flow at the requested times.

    ``nfev`` counts the right-hand side evaluations of the adaptive scheme,
    or the force evaluations of the leapfrog, that produced the samples.
    """

    times: np.ndarray
    points: np.ndarray  # shape (len(times), 2n)
    c: np.ndarray
    nfev: int

    @property
    def n(self) -> int:
        return self.points.shape[1] // 2

    def phase_points(self) -> list[PhasePoint]:
        return [PhasePoint.from_vector(row) for row in self.points]

    def integrals_along(self) -> np.ndarray:
        """integrals() of every sample, computed for all rows at once."""
        n = self.n
        return _traces(self.points[:, :n], self.points[:, n:])


def _verlet(z0: PhasePoint, t_final: float, dt: float,
            t_eval: np.ndarray) -> tuple[np.ndarray, int]:
    """Fixed-step leapfrog for the physical Hamiltonian flow F_2: samples and force evaluations.

    The force at the end of one step is the force at the start of the next.
    """
    n = z0.n
    ix = _cyclic(n)

    def force(q):
        b2 = np.exp(q - q[ix.nxt])
        return -(b2 - b2[ix.prv])

    steps = int(np.ceil(t_final / dt))
    dt = t_final / steps
    half = 0.5 * dt
    record = np.empty((steps + 1, 2 * n))
    q, p = record[:, :n], record[:, n:]
    q[0], p[0] = z0.q, z0.p
    f = force(q[0])
    for k in range(steps):
        p_half = p[k] + half * f
        np.add(q[k], dt * p_half, out=q[k + 1])
        f = force(q[k + 1])
        np.add(p_half, half * f, out=p[k + 1])
    grid = np.linspace(0.0, t_final, steps + 1)
    out = np.empty((t_eval.size, 2 * n))
    for i in range(2 * n):
        out[:, i] = np.interp(t_eval, grid, record[:, i])
    return out, steps + 1


def integrate_flow(
    z0: PhasePoint,
    c: np.ndarray,
    t_final: float,
    t_eval: np.ndarray | None = None,
    rtol: float = DEFAULT_RTOL,
    method: str = "dop853",
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate the flow of G = sum_j c_j F_j from z0 up to t_final.

    The default integrator is the library's Dormand-Prince 8(5,3)
    (``solve_ivp``, a port of scipy's DOP853 with byte-identical results)
    with error control at ``rtol``, 1e-11 by default, and ATOL; its dense
    output is evaluated at the requested times.  At rtol = 1e-10 some
    n = 8 flows of F_3 drifted by up to 1.7e-8 over t = 1, above the
    suite's 1e-8 bound.  ``method="verlet"`` is available only for the pure physical
    flow c = e_2, whose kinetic plus potential splitting supports a
    fixed-step leapfrog.  The adaptive right-hand side is _gradient_field's
    one-point vector field.  A non-finite coefficient, a requested time
    outside the span from 0 to t_final, or an rtol that is not a finite
    positive real or is below RTOL_FLOOR raises ValueError, and so do
    requested times that the adaptive integrator would not meet in order.
    """
    c = np.asarray(c, dtype=float)
    n = z0.n
    if c.size != n:
        raise ValueError(f"coefficient vector length {c.size} != {n}")
    if not np.isfinite(t_final):
        raise ValueError("t_final must be finite")
    if t_final == 0.0:
        raise ValueError("t_final must be nonzero")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, 101)
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size == 0:
        raise ValueError("t_eval must hold at least one time")
    if not np.all((min(0.0, t_final) <= t_eval) & (t_eval <= max(0.0, t_final))):
        raise ValueError(f"t_eval must be finite and lie between 0 and t_final = {t_final}")
    _require_rtol(rtol)
    field = _gradient_field(n, c)  # checks c for the leapfrog too

    if method == "verlet":
        e2 = np.zeros(n)
        e2[1] = 1.0
        if not np.array_equal(c, e2):
            raise ValueError("the leapfrog option applies only to the pure F_2 flow")
        if t_final < 0.0:
            raise ValueError(f"the leapfrog integrates forward only: t_final = {t_final} < 0")
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        points, nfev = _verlet(z0, t_final, dt, t_eval)
        return Trajectory(t_eval, points, c, nfev)
    if method != "dop853":
        raise ValueError(f"unknown integrator {method!r}")
    steps = np.diff(t_eval)
    if t_eval.ndim != 1 or not np.all(steps > 0.0 if t_final > 0.0 else steps < 0.0):
        raise ValueError(f"t_eval must be a 1-d array of times strictly ordered from 0 "
                         f"toward t_final = {t_final}")

    times, points, nfev = solve_ivp(field, (0.0, t_final), z0.as_vector(), t_eval, rtol, ATOL)
    return Trajectory(times, points, c, nfev)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write t, q_1..q_n, p_1..p_n, F_1..F_n rows with '.' decimals."""
    n = traj.n
    header = (
        ["t"]
        + [f"q_{i}" for i in range(1, n + 1)]
        + [f"p_{i}" for i in range(1, n + 1)]
        + [f"F_{i}" for i in range(1, n + 1)]
    )
    rows = np.column_stack([traj.times, traj.points, traj.integrals_along()])
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows.tolist())
