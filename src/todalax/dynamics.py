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

import numpy as np

from .lax import (
    Q_GAP_LIMIT,
    PhasePoint,
    SignVector,
    _class_signs,
    _cyclic,
    _generator,
    _lax,
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


@dataclass(frozen=True)
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


def _gradients(b: np.ndarray, p: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """dF_j/dq and dF_j/dp of stacked rows (see lax._off_band), from matrix_power(L, j - 1).

    Both are contiguous arrays of their own: _brackets' matmuls of strided
    rows would not round as np.dot does.
    """
    L = _lax(b, p, SignVector.even(b.shape[-1]).eps)
    dq, dp = _grad_from_power(np.linalg.matrix_power(L, j - 1), b)
    return dq, dp.copy()


def grad_F(z: PhasePoint, j: int) -> Gradient:
    """Analytic gradient of the j-th conserved trace, 1 <= j <= n."""
    j = _require_index("flow index", j, z.n)
    dq, dp = _gradients(z.couplings()[None], z.p[None], j)
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
    """(q, p) -> (dG/dq, dG/dp) of G = sum_j c_j F_j on raw coordinate arrays: the one-point kernel.

    Built once: the cyclic index arrays, the coefficients of the chain L,
    L^2, ... up to the highest nonzero c_j, and the constant gradient (0, 1)
    of F_1, scaled by c_1.  Each evaluation takes one gap vector, _couplings'
    domain test, one exp, one flat Lax build and the power chain, reading the
    upper entries and the diagonal of each power with a nonzero coefficient.
    The values equal _grad_from_power's summed onto zeros in increasing j,
    bit for bit, and every evaluation returns arrays of its own (solve_ivp
    keeps the last one).  A non-finite c raises ValueError; points outside
    the phase-space domain raise PhasePoint's PhaseDomainError.
    """
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coefficient vector c must be finite, got {c}")
    nxt, prv, diag, upper, lower = _cyclic(n)
    nonzero = np.flatnonzero(c)
    chain = c[1:nonzero[-1] + 1].tolist() if nonzero.size else []
    dp_first = np.zeros(n) + c[0]

    def gradient(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gaps = q - q[nxt]
        # _couplings' test on Python floats, where a NaN fails every comparison
        if not (math.isfinite(sum(p.tolist()))
                and all([-Q_GAP_LIMIT <= g <= Q_GAP_LIMIT for g in gaps.tolist()])):
            PhasePoint(q, p)
        b = np.exp(0.5 * gaps)
        m = np.zeros(n * n)
        m[diag] = p
        m[upper] = b
        m[lower] += b  # n = 2: both couplings meet in one entry
        L = m.reshape(n, n)
        dq, dp = np.zeros(n), dp_first.copy()
        power = L
        for k, cj in enumerate(chain):
            if k:
                power = power @ L
            if cj:
                flat = power.ravel()
                off = b * flat[upper]
                dq += cj * (off - off[prv])
                dp += cj * flat[diag]
        return dq, dp

    return gradient


def grad_combination(z: PhasePoint, c: np.ndarray) -> Gradient:
    """Gradient of sum_j c_j F_j in one pass over the powers of L."""
    c = np.asarray(c, dtype=float)
    n = z.n
    if c.size != n:
        raise ValueError(f"coefficient vector length {c.size} != {n}")
    return Gradient(*_gradient_field(n, c)(z.q, z.p))


def _component_forms(b: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dq, dp) of the component v . L . w for signed couplings b; rows (..., n) broadcast."""
    ix = _cyclic(v.shape[-1])
    half = 0.5 * b * (v * w[..., ix.nxt] + v[..., ix.nxt] * w)
    return half - half[..., ix.prv], v * w


def coordinate_form(z: PhasePoint, eps: SignVector, v: np.ndarray, w: np.ndarray) -> Gradient:
    """Exact gradient of the spectral component v . L^eps(z) . w for fixed v, w."""
    return Gradient(*_component_forms(z.couplings() * eps.eps, v, w))


def poisson(f: Gradient, g: Gradient) -> float:
    """Canonical bracket sum_r (df/dq_r dg/dp_r - df/dp_r dg/dq_r)."""
    if f.n != g.n:
        raise ValueError("gradients live on different phase spaces")
    return float(np.dot(f.dq, g.dp) - np.dot(f.dp, g.dq))


def _brackets(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """{F_i, F_j} for 1 <= i < j <= n of stacked rows (see lax._off_band).

    Shape (N, n(n-1)/2), the pairs (i, j) in lexicographic order.  Each sum
    is a stacked matmul of a contiguous row by a contiguous column, which
    rounds as poisson's np.dot does.
    """
    n = b.shape[-1]
    grads = [_gradients(b, p, j) for j in range(1, n + 1)]
    out = np.empty((len(b), n * (n - 1) // 2))
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        (fq, fp), (gq, gp) = grads[i], grads[j]
        out[:, k] = (fq[:, None, :] @ gp[:, :, None] - fp[:, None, :] @ gq[:, :, None])[:, 0, 0]
    return out


def _lax_residuals(b: np.ndarray, p: np.ndarray, j: int, odd_class: bool) -> np.ndarray:
    """lax_residual of stacked rows (see lax._off_band): shape (N,).

    The gradient of F_j comes from L^(j-1); the even class's generator from
    Lbar^(j-1), the odd class's from L^(j-1).  Both classes are built at
    once, and the even class raises both to the power j - 1 in one call.
    """
    n = b.shape[-1]
    pair = _lax(b, p)
    if odd_class:
        grad_power = np.linalg.matrix_power(pair[:, 0], j - 1)
        M = _generator(grad_power)
    else:
        powers = np.linalg.matrix_power(pair, j - 1)
        grad_power, M = powers[:, 0], _generator(powers[:, 1])
    dq, dp = _grad_from_power(grad_power, b)
    L, eps = pair[:, int(odd_class)], _class_signs(n)[int(odd_class)]
    weight = 0.5 * (b * eps) * (dp - dp.take(_cyclic(n).nxt, axis=-1))
    bracket = _lax(weight, -dq, SignVector.even(n).eps)
    return np.max(np.abs(bracket - (L @ M - M @ L)), axis=(-2, -1))


def lax_residual(z: PhasePoint, j: int, odd_class: bool = False) -> float:
    """Max-abs entry of {L, F_j} - [L, M_(j)] (or the odd-class analogue).

    {L, F_j}, from the analytic gradient, has L's periodic tridiagonal pattern:
    -dF/dq on the diagonal, b_m (dF/dp_m - dF/dp_(m+1))/2 at coupling m.
    """
    j = _require_index("flow index", j, z.n)
    return float(_lax_residuals(z.couplings()[None], z.p[None], j, odd_class)[0])


# DOP853's relative tolerance unless a caller sets one; integrate_flow says why not 1e-10.
DEFAULT_RTOL = 1e-11
# solve_ivp raises a smaller rtol to 100 machine epsilons, with only a warning.
RTOL_FLOOR = 100 * float(np.finfo(float).eps)
# DOP853's absolute tolerance.
ATOL = 1e-12


def _require_rtol(value) -> None:
    """Raise ValueError unless ``value`` is a finite real (bool is not) of at least RTOL_FLOOR."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise ValueError(f"rtol must be a finite positive real, got {value!r}")
    if value < RTOL_FLOOR:
        raise ValueError(f"rtol must be at least scipy's floor 100 eps = {RTOL_FLOOR:.3g}, "
                         f"got {value!r}")


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.

    Importing scipy.integrate costs about 0.7 s, which only integrate_flow
    needs; the name stays a module attribute that tracers can replace.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class FlowError(RuntimeError):
    """Integration failed (step-size underflow or solver breakdown)."""


@dataclass(frozen=True)
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

    The default integrator is Dormand-Prince 8(5,3) (scipy's DOP853) with
    error control at ``rtol``, 1e-11 by default, and ATOL; its dense
    output is evaluated at the requested times.  At rtol = 1e-10 some
    n = 8 flows of F_3 drifted by up to 1.7e-8 over t = 1, above the
    suite's 1e-8 bound.  ``method="verlet"`` is available only for the pure physical
    flow c = e_2, whose kinetic plus potential splitting supports a
    fixed-step leapfrog.  The adaptive right-hand side is one call of
    _gradient_field's one-point kernel, and scipy.integrate is imported at
    the first adaptive run (see solve_ivp).  A non-finite coefficient or
    requested time, or an rtol that is not a finite positive real or is
    below RTOL_FLOOR, which solve_ivp would not honour, raises ValueError.
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
    if not np.all(np.isfinite(t_eval)):
        raise ValueError("t_eval must be finite")
    _require_rtol(rtol)
    gradient = _gradient_field(n, c)  # checks c for the leapfrog too

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

    def rhs(_t, z):
        dq, dp = gradient(z[:n], z[n:])
        return np.concatenate([dp, -dq])

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        z0.as_vector(),
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=ATOL,
        dense_output=False,
    )
    if not sol.success:
        raise FlowError(f"integration stopped at t = {sol.t[-1] if sol.t.size else 0.0}: {sol.message}")
    return Trajectory(sol.t, sol.y.T.copy(), c, sol.nfev)


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
