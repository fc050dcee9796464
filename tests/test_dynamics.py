import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp

import todalax.dynamics as dynamics
from todalax.lax import PhaseDomainError, PhasePoint, SignVector, build_lax, integrals
from todalax.dynamics import (
    FlowError,
    Gradient,
    Trajectory,
    coordinate_form,
    grad_F,
    grad_combination,
    integrate_flow,
    lax_residual,
    poisson,
    trajectory_to_csv,
)


def random_point(rng, n, scale=1.0):
    return PhasePoint(scale * rng.standard_normal(n), scale * rng.standard_normal(n))


def finite_difference_gradient(f, z, h=1e-6):
    z0 = z.as_vector()
    out = np.empty(z0.size)
    for i in range(z0.size):
        e = np.zeros(z0.size)
        e[i] = h
        out[i] = (f(PhasePoint.from_vector(z0 + e)) - f(PhasePoint.from_vector(z0 - e))) / (2 * h)
    return out


class TestGradients:
    def test_first_trace_gradient_exact(self):
        rng = np.random.default_rng(0)
        z = random_point(rng, 4)
        g = grad_F(z, 1)
        npt.assert_array_equal(g.dq, np.zeros(4))
        npt.assert_array_equal(g.dp, np.ones(4))

    def test_hamiltonian_gradient_closed_form(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 6):
            z = random_point(rng, n)
            g = grad_F(z, 2)
            b2 = z.couplings() ** 2
            npt.assert_allclose(g.dp, z.p, rtol=1e-14)
            npt.assert_allclose(g.dq, b2 - np.roll(b2, 1), rtol=1e-13)

    def test_matches_finite_differences(self):
        # desk-scale points keep the finite-difference oracle itself at 1e-7
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            z = random_point(rng, n, scale=0.35)
            for j in range(1, n + 1):
                fd = finite_difference_gradient(lambda pt, j=j: integrals(pt)[j - 1], z)
                npt.assert_allclose(grad_F(z, j).as_vector(), fd, atol=1e-7)

    def test_combination_matches_sum(self):
        rng = np.random.default_rng(3)
        z = random_point(rng, 5)
        c = rng.standard_normal(5)
        total = grad_combination(z, c).as_vector()
        parts = sum(c[j - 1] * grad_F(z, j).as_vector() for j in range(1, 6))
        npt.assert_allclose(total, parts, rtol=1e-13)

    def test_flow_index_validated(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            grad_F(z, 0)

    def test_coordinate_form_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n = 4
        z = random_point(rng, n)
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        for eps in (SignVector.even(n), SignVector.odd(n)):
            fd = finite_difference_gradient(
                lambda pt: float(v @ build_lax(pt, eps).entries @ w), z
            )
            npt.assert_allclose(coordinate_form(z, eps, v, w).as_vector(), fd, atol=1e-8)


class TestPoisson:
    def test_canonical_pair(self):
        n = 3
        dq1 = Gradient(np.eye(n)[0], np.zeros(n))  # the coordinate q_1
        dp1 = Gradient(np.zeros(n), np.eye(n)[0])  # the coordinate p_1
        assert poisson(dq1, dp1) == 1.0
        assert poisson(dp1, dq1) == -1.0
        assert poisson(dq1, dq1) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        z = random_point(rng, 4)
        assert abs(poisson(grad_F(z, 1), grad_F(z, 2))) < 1e-15

    def test_involution_sweep(self):
        rng = np.random.default_rng(6)
        for n in range(2, 9):
            for _ in range(20):
                z = random_point(rng, n, scale=0.35)
                grads = [grad_F(z, j) for j in range(1, n + 1)]
                worst = max(
                    abs(poisson(grads[i], grads[j]))
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                assert worst < 1e-9

    def test_involution_relative_at_wide_scale(self):
        # at wide sampling the brackets still vanish relative to the gradient sizes
        rng = np.random.default_rng(7)
        for n in (6, 8):
            for _ in range(20):
                z = random_point(rng, n)
                grads = [grad_F(z, j) for j in range(1, n + 1)]
                norms = [np.linalg.norm(g.as_vector()) for g in grads]
                for i in range(n):
                    for j in range(i + 1, n):
                        assert abs(poisson(grads[i], grads[j])) < 1e-13 * norms[i] * norms[j]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poisson(Gradient(np.zeros(2), np.zeros(2)), Gradient(np.zeros(3), np.zeros(3)))


class TestLaxResidual:
    def test_first_flow_trivial(self):
        rng = np.random.default_rng(7)
        z = random_point(rng, 4)
        assert lax_residual(z, 1) == 0.0
        assert lax_residual(z, 1, odd_class=True) == 0.0

    def test_all_flows_both_classes(self):
        rng = np.random.default_rng(8)
        for n in range(2, 7):
            for _ in range(10):
                z = random_point(rng, n)
                for j in range(1, n + 1):
                    assert lax_residual(z, j) < 1e-9
                    assert lax_residual(z, j, odd_class=True) < 1e-9


class TestFlows:
    def test_translation_flow(self):
        z0 = PhasePoint(np.array([0.1, -0.4, 0.3]), np.array([0.2, 0.0, -0.2]))
        c = np.array([1.0, 0.0, 0.0])
        traj = integrate_flow(z0, c, 5.0, t_eval=np.array([0.0, 2.5, 5.0]))
        final = traj.phase_points()[-1]
        npt.assert_allclose(final.q, z0.q + 5.0, atol=1e-9)
        npt.assert_allclose(final.p, z0.p, atol=1e-12)

    def test_energy_conservation_near_equilibrium(self):
        z0 = PhasePoint(np.array([0.05, -0.05]), np.zeros(2))
        c = np.array([0.0, 1.0])
        traj = integrate_flow(z0, c, 50.0, t_eval=np.linspace(0, 50, 101))
        F = traj.integrals_along()
        drift = np.max(np.abs(F - F[0]), axis=0)
        assert drift[1] < 1e-9
        rel = np.array([pt.q[0] - pt.q[1] for pt in traj.phase_points()])
        assert np.max(np.abs(rel)) < 0.5  # bounded oscillation

    def test_all_integrals_conserved_under_mixed_flow(self):
        rng = np.random.default_rng(9)
        z0 = random_point(rng, 4, scale=0.4)
        c = rng.standard_normal(4)
        traj = integrate_flow(z0, c, 10.0, t_eval=np.linspace(0, 10, 21))
        F = traj.integrals_along()
        assert np.max(np.abs(F - F[0])) < 1e-8

    def test_isospectral_along_flow(self):
        z0 = PhasePoint(np.array([0.4, -0.3, -0.1]), np.array([0.2, -0.5, 0.3]))
        ref = np.sort(np.linalg.eigvalsh(build_lax(z0).entries))
        for j in (2, 3):
            c = np.zeros(3)
            c[j - 1] = 1.0
            traj = integrate_flow(z0, c, 50.0, t_eval=np.linspace(0, 50, 26))
            for pt in traj.phase_points():
                vals = np.sort(np.linalg.eigvalsh(build_lax(pt).entries))
                assert np.max(np.abs(vals - ref)) < 1e-8

    def test_verlet_matches_adaptive(self):
        z0 = PhasePoint(np.array([0.3, -0.3]), np.array([0.1, -0.1]))
        c = np.array([0.0, 1.0])
        t_eval = np.linspace(0.0, 5.0, 11)
        a = integrate_flow(z0, c, 5.0, t_eval=t_eval)
        v = integrate_flow(z0, c, 5.0, t_eval=t_eval, method="verlet", dt=1e-4)
        npt.assert_allclose(a.points, v.points, atol=1e-6)

    def test_verlet_requires_pure_hamiltonian_flow(self):
        z0 = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            integrate_flow(z0, np.array([0.0, 0.0, 1.0]), 1.0, method="verlet")

    def test_nonfinite_time_rejected(self):
        z0 = PhasePoint(np.zeros(2), np.zeros(2))
        c = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            integrate_flow(z0, c, np.inf)
        for method in ("rk45", "verlet"):
            with pytest.raises(ValueError, match="t_final"):
                integrate_flow(z0, c, 0.0, method=method)
        with pytest.raises(ValueError, match="t_final"):
            integrate_flow(z0, c, -1.0, method="verlet")
        for dt in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError, match="dt"):
                integrate_flow(z0, c, 1.0, method="verlet", dt=dt)
        for method in ("rk45", "verlet"):
            with pytest.raises(ValueError, match="t_eval"):
                integrate_flow(z0, c, 1.0, t_eval=np.array([]), method=method)

    def test_backward_adaptive_flow(self):
        z0 = PhasePoint(np.array([0.1, -0.4, 0.3]), np.array([0.2, 0.0, -0.2]))
        c = np.array([0.0, 1.0, 0.0])
        back = integrate_flow(z0, c, -2.0, t_eval=np.array([0.0, -2.0]))
        there = back.phase_points()[-1]
        ahead = integrate_flow(there, c, 2.0, t_eval=np.array([0.0, 2.0]))
        npt.assert_allclose(ahead.points[-1], z0.as_vector(), atol=1e-8)

    def test_csv_export_schema(self, tmp_path):
        z0 = PhasePoint(np.array([0.1, -0.1]), np.array([0.0, 0.0]))
        traj = integrate_flow(z0, np.array([0.0, 1.0]), 1.0, t_eval=np.linspace(0, 1, 5))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q_1,q_2,p_1,p_2,F_1,F_2"
        assert len(lines) == 6
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0
        npt.assert_allclose(first[1:3], z0.q)


# A frozen copy of the flow layers as they were before the vectorised kernel:
# the right-hand side through PhasePoint, np.roll and a looped Lax fill, and
# the leapfrog with two force evaluations per step.  The kernel must match it
# bit for bit.

def _reference_lax(z):
    n = z.n
    b = np.exp(0.5 * (z.q - np.roll(z.q, -1)))
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = z.p
    for r in range(n):
        s = (r + 1) % n
        m[r, s] += 1.0 * b[r]
        m[s, r] += 1.0 * b[r]
    return m, b


def _reference_grad_from_power(power, b):
    n = b.size
    idx = np.arange(n)
    nxt = (idx + 1) % n
    off = power[idx, nxt]
    dp = np.diag(power).copy()
    dq = b * off - np.roll(b * off, 1)
    return dq, dp


def _reference_grad_combination(z, c):
    n = z.n
    L, b = _reference_lax(z)
    power = np.eye(n)
    dq, dp = np.zeros(n), np.zeros(n)
    for j in range(1, n + 1):
        if c[j - 1] != 0.0:
            gq, gp = _reference_grad_from_power(power, b)
            dq, dp = dq + c[j - 1] * gq, dp + c[j - 1] * gp
        if j < n:
            power = power @ L
    return dq, dp


def _reference_rhs(c):
    def rhs(_t, zvec):
        dq, dp = _reference_grad_combination(PhasePoint.from_vector(zvec), c)
        return np.concatenate([dp, -dq])

    return rhs


def _reference_verlet(z0, t_final, dt, t_eval):
    def force(q):
        b2 = np.exp(q - np.roll(q, -1))
        return -(b2 - np.roll(b2, 1))

    steps = int(np.ceil(t_final / dt))
    dt = t_final / steps
    q, p = z0.q.copy(), z0.p.copy()
    record = np.empty((steps + 1, 2 * z0.n))
    record[0] = np.concatenate([q, p])
    for k in range(steps):
        p_half = p + 0.5 * dt * force(q)
        q = q + dt * p_half
        p = p_half + 0.5 * dt * force(q)
        record[k + 1] = np.concatenate([q, p])
    grid = np.linspace(0.0, t_final, steps + 1)
    out = np.empty((t_eval.size, 2 * z0.n))
    for i in range(2 * z0.n):
        out[:, i] = np.interp(t_eval, grid, record[:, i])
    return out


def _reference_integrals(z):
    L, _ = _reference_lax(z)
    out = np.empty(z.n)
    power = np.eye(z.n)
    for j in range(1, z.n + 1):
        power = power @ L
        out[j - 1] = np.trace(power) / j
    return out


def _flow_specs(n):
    eye = np.eye(n)
    mixed = np.zeros(n)
    mixed[:3] = (0.25, 1.0, -0.5)[:n]
    return [eye[j] for j in range(min(n, 3))] + [mixed]


class TestFrozenReference:
    T_FINAL = 1.0
    T_EVAL = np.linspace(0.0, 1.0, 11)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_adaptive_trajectories_bit_identical(self, n):
        rng = np.random.default_rng(20 + n)
        z0 = random_point(rng, n, scale=0.35)
        for c in _flow_specs(n):
            traj = integrate_flow(z0, c, self.T_FINAL, t_eval=self.T_EVAL)
            ref = solve_ivp(_reference_rhs(c), (0.0, self.T_FINAL), z0.as_vector(),
                            method="RK45", t_eval=self.T_EVAL, rtol=1e-10, atol=1e-12)
            assert np.array_equal(traj.times, ref.t)
            assert np.array_equal(traj.points, ref.y.T), c

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_leapfrog_bit_identical(self, n):
        rng = np.random.default_rng(30 + n)
        z0 = random_point(rng, n, scale=0.35)
        traj = integrate_flow(z0, np.eye(n)[1], self.T_FINAL, t_eval=self.T_EVAL,
                              method="verlet", dt=1e-2)
        ref = _reference_verlet(z0, self.T_FINAL, 1e-2, self.T_EVAL)
        assert np.array_equal(traj.points, ref)

    def test_grad_combination_bit_identical(self):
        rng = np.random.default_rng(40)
        for n in (2, 3, 5, 8):
            for _ in range(5):
                z = random_point(rng, n)
                cs = [np.zeros(n), np.eye(n)[0], np.eye(n)[-1], rng.standard_normal(n)]
                sparse = rng.standard_normal(n)
                sparse[::2] = 0.0
                sparse[-1] = 0.0  # a zero top entry
                cs.append(sparse)
                for c in cs:
                    g = grad_combination(z, c)
                    dq, dp = _reference_grad_combination(z, c)
                    assert np.array_equal(g.dq, dq) and np.array_equal(g.dp, dp)

    def test_integrals_along_is_integrals_of_each_row(self):
        rng = np.random.default_rng(50)
        for n in (2, 3, 5, 8):
            z0 = random_point(rng, n, scale=0.35)
            traj = integrate_flow(z0, np.eye(n)[1], 0.5, t_eval=np.linspace(0.0, 0.5, 7))
            along = traj.integrals_along()
            rows = np.array([integrals(pt) for pt in traj.phase_points()])
            assert np.array_equal(along, rows)
            assert np.array_equal(rows, [_reference_integrals(pt) for pt in traj.phase_points()])


class TestDomain:
    def _vector_field(self, monkeypatch, n):
        seen = {}

        def spy(fun, *args, **kwargs):
            seen["rhs"] = fun
            return solve_ivp(fun, *args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        integrate_flow(PhasePoint(np.zeros(n), np.zeros(n)), np.eye(n)[1], 0.1)
        return seen["rhs"]

    BAD = [
        (np.array([0.0, 700.0, 0.0]), np.zeros(3)),
        (np.array([0.0, np.nan, 0.0]), np.zeros(3)),
        (np.zeros(3), np.array([0.0, np.inf, 0.0])),
        (np.array([np.inf, np.inf, np.inf]), np.zeros(3)),
    ]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("q, p", BAD)
    def test_vector_field_raises_phase_point_error(self, monkeypatch, q, p):
        rhs = self._vector_field(monkeypatch, 3)
        with pytest.raises(PhaseDomainError) as want:
            PhasePoint(q, p)
        with pytest.raises(PhaseDomainError, match=re.escape(str(want.value))):
            rhs(0.0, np.concatenate([q, p]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("q, p", BAD)
    def test_integrals_along_raises_phase_point_error(self, q, p):
        good = np.zeros(6)
        traj = Trajectory(np.arange(3.0), np.array([good, np.concatenate([q, p]), good]),
                          np.eye(3)[1])
        with pytest.raises(PhaseDomainError) as want:
            PhasePoint(q, p)
        with pytest.raises(PhaseDomainError, match=re.escape(str(want.value))):
            traj.integrals_along()
