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
import numpy as np
from scipy.integrate import solve_ivp

from .lax import (
    PhasePoint,
    SignVector,
    _couplings,
    _cyclic,
    _lax_entries,
    _traces,
    build_generator,
    build_lax,
)

__all__ = [
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
    """(dq, dp) of Tr(L^j)/j given L^(j-1) and the couplings; dp is a read-only view."""
    ix = _cyclic(b.size)
    off = b * power.take(ix.upper)
    return off - off[ix.prv], power.diagonal()


def grad_F(z: PhasePoint, j: int) -> Gradient:
    """Analytic gradient of the j-th conserved trace, 1 <= j <= n."""
    n = z.n
    if not 1 <= j <= n:
        raise ValueError(f"flow index {j} out of range 1..{n}")
    L = build_lax(z).entries
    dq, dp = _grad_from_power(np.linalg.matrix_power(L, j - 1), z.couplings())
    return Gradient(dq, dp.copy())


def _gradient_field(n: int, c: np.ndarray):
    """(q, p) -> (dG/dq, dG/dp) of G = sum_j c_j F_j on raw coordinate arrays.

    One power recurrence up to the highest nonzero c_j serves every term.
    Points outside the phase-space domain raise PhasePoint's
    PhaseDomainError.
    """
    nonzero = np.flatnonzero(c)
    top = int(nonzero[-1]) + 1 if nonzero.size else 0
    even = np.ones(n)
    eye = np.eye(n)

    def gradient(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = _couplings(q, p)
        L = _lax_entries(b, p, even)
        dq, dp = np.zeros(n), np.zeros(n)
        power = eye
        for j in range(top):
            if c[j] != 0.0:
                gq, gp = _grad_from_power(power, b)
                dq = dq + c[j] * gq
                dp = dp + c[j] * gp
            if j + 1 < top:
                power = power @ L
        return dq, dp

    return gradient


def grad_combination(z: PhasePoint, c: np.ndarray) -> Gradient:
    """Gradient of sum_j c_j F_j in one pass over the powers of L."""
    c = np.asarray(c, dtype=float)
    n = z.n
    if c.size != n:
        raise ValueError(f"coefficient vector length {c.size} != {n}")
    return Gradient(*_gradient_field(n, c)(z.q, z.p))


def coordinate_form(z: PhasePoint, eps: SignVector, v: np.ndarray, w: np.ndarray) -> Gradient:
    """Exact gradient of the spectral component v . L^eps(z) . w for fixed v, w."""
    n = z.n
    b = z.couplings() * eps.eps
    idx = np.arange(n)
    nxt = (idx + 1) % n
    cross = v[idx] * w[nxt] + v[nxt] * w[idx]
    half = 0.5 * b * cross
    dq = half - np.roll(half, 1)
    dp = v * w
    return Gradient(dq, dp)


def poisson(f: Gradient, g: Gradient) -> float:
    """Canonical bracket sum_r (df/dq_r dg/dp_r - df/dp_r dg/dq_r)."""
    if f.n != g.n:
        raise ValueError("gradients live on different phase spaces")
    return float(np.dot(f.dq, g.dp) - np.dot(f.dp, g.dq))


def _entrywise_bracket_with_F(z: PhasePoint, eps: SignVector, gF: Gradient) -> np.ndarray:
    """Matrix of brackets {L^eps_rs, F} from the analytic gradient of F."""
    n = z.n
    b = z.couplings() * eps.eps
    # sum_t dL/dq_t gF.dp_t: coupling m contributes b_m (gFdp_m - gFdp_{m+1})/2
    weight = 0.5 * b * (gF.dp - np.roll(gF.dp, -1))
    out = np.zeros((n, n))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    for m in range(n):
        out[m, nxt[m]] += weight[m]
        out[nxt[m], m] += weight[m]
    out[idx, idx] -= gF.dq
    return out


def lax_residual(z: PhasePoint, j: int, odd_class: bool = False) -> float:
    """Max-abs entry of {L, F_j} - [L, M_(j)] (or the odd-class analogue)."""
    n = z.n
    sign = SignVector.odd(n) if odd_class else SignVector.even(n)
    L = build_lax(z, sign).entries
    M = build_generator(z, j, odd_class=odd_class).entries
    bracket = _entrywise_bracket_with_F(z, sign, grad_F(z, j))
    return float(np.max(np.abs(bracket - (L @ M - M @ L))))


class FlowError(RuntimeError):
    """Integration failed (step-size underflow or solver breakdown)."""


@dataclass(frozen=True)
class Trajectory:
    """Dense-output samples of one Hamiltonian flow."""

    times: np.ndarray
    points: np.ndarray  # shape (len(times), 2n)
    c: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[1] // 2

    def phase_points(self) -> list[PhasePoint]:
        return [PhasePoint.from_vector(row) for row in self.points]

    def integrals_along(self) -> np.ndarray:
        """integrals() of every sample, computed for all rows at once."""
        n = self.n
        return _traces(self.points[:, :n], self.points[:, n:])


def _verlet(z0: PhasePoint, t_final: float, dt: float, t_eval: np.ndarray) -> np.ndarray:
    """Fixed-step leapfrog for the physical Hamiltonian flow F_2.

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
    return out


def integrate_flow(
    z0: PhasePoint,
    c: np.ndarray,
    t_final: float,
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "rk45",
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate the flow of G = sum_j c_j F_j from z0 up to t_final.

    The default integrator is an adaptive embedded Runge-Kutta pair with
    dense output evaluated at the requested times.  ``method="verlet"`` is
    available only for the pure physical flow c = e_2, whose kinetic plus
    potential splitting supports a fixed-step leapfrog.
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

    if method == "verlet":
        e2 = np.zeros(n)
        e2[1] = 1.0
        if not np.array_equal(c, e2):
            raise ValueError("the leapfrog option applies only to the pure F_2 flow")
        if t_final < 0.0:
            raise ValueError(f"the leapfrog integrates forward only: t_final = {t_final} < 0")
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        return Trajectory(t_eval, _verlet(z0, t_final, dt, t_eval), c)
    if method != "rk45":
        raise ValueError(f"unknown integrator {method!r}")

    gradient = _gradient_field(n, c)

    def rhs(_t, z):
        dq, dp = gradient(z[:n], z[n:])
        return np.concatenate([dp, -dq])

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        z0.as_vector(),
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise FlowError(f"integration stopped at t = {sol.t[-1] if sol.t.size else 0.0}: {sol.message}")
    return Trajectory(sol.t, sol.y.T.copy(), c)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write t, q_1..q_n, p_1..p_n, F_1..F_n rows with '.' decimals."""
    n = traj.n
    header = (
        ["t"]
        + [f"q_{i}" for i in range(1, n + 1)]
        + [f"p_{i}" for i in range(1, n + 1)]
        + [f"F_{i}" for i in range(1, n + 1)]
    )
    F = traj.integrals_along()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(traj.times.size):
            row = [traj.times[k], *traj.points[k], *F[k]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
