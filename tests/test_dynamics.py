from collections import Counter
import itertools
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp

import todalax.dynamics as dynamics
import todalax.spectral as spectral
from todalax.lax import (PhaseDomainError, PhasePoint, SignVector, _Powers, _couplings,
                         build_generator, build_lax, char_poly_offset, integrals, off_band_check,
                         trace_relation_check)
from todalax.singularity import corank
from todalax.spectral import interlacing_check, spectra
from todalax.maslov import toda_frame
from todalax.dynamics import (
    RTOL_FLOOR,
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

    @pytest.mark.parametrize("bad", [True, False, 2.5, np.float64(2.0), "2", None, 0, 4])
    def test_flow_index_must_be_an_integer_in_range(self, bad):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        for fn in (grad_F, lax_residual):
            with pytest.raises(ValueError, match="flow index must be an integer in 1..3"):
                fn(z, bad)

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


def _scalar_checks(n):
    """The scalar checks of lax and dynamics at one point, as (name, z -> exact result)."""
    out = [("trace_gaps", lambda z: trace_relation_check(z).residuals.tobytes()),
           ("char_poly", lambda z: repr(char_poly_offset(z)))]
    for j in range(1, n + 1):
        out += [(f"off_band {j}", lambda z, j=j: repr(off_band_check(z, j))),
                (f"grad_F {j}", lambda z, j=j: grad_F(z, j).as_vector().tobytes())]
        for odd in (False, True):
            out += [(f"lax_residual {j} {odd}", lambda z, j=j, odd=odd: repr(lax_residual(z, j, odd))),
                    (f"generator {j} {odd}",
                     lambda z, j=j, odd=odd: build_generator(z, j, odd).entries.tobytes())]
    return out


def _point_checks(n):
    """Every per-point check: the scalar ones, both Lax builds, interlacing and corank."""
    return _scalar_checks(n) + [
        ("lax", lambda z: build_lax(z).entries.tobytes()),
        ("lax odd", lambda z: build_lax(z, SignVector.odd(z.n)).entries.tobytes()),
        ("interlacing", lambda z: repr(interlacing_check(z))),
        ("corank", lambda z: corank(z).singular_values.tobytes()),
    ]


class TestPowerTable:
    """A point's Lax power table is shared by its checks and changes none of their results."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_results_do_not_depend_on_warmth_or_order(self, n):
        rng = np.random.default_rng(1300 + n)
        q, p = 0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(n)
        checks = _point_checks(n)
        fresh = {name: check(PhasePoint(q, p)) for name, check in checks}  # a new point each
        z = PhasePoint(q, p)
        for order in (checks, checks[::-1], [checks[k] for k in rng.permutation(len(checks))]):
            assert {name: check(z) for name, check in order} == fresh

    def test_returned_arrays_are_their_own(self):
        z = random_point(np.random.default_rng(1310), 4, scale=0.5)
        checks = _point_checks(4)
        want = {name: check(z) for name, check in checks}
        for out in (build_lax(z).entries, build_lax(z, SignVector.odd(4)).entries,
                    grad_F(z, 3).dq, grad_F(z, 3).dp, grad_F(z, 1).dp,
                    build_generator(z, 3).entries, build_generator(z, 4, odd_class=True).entries):
            out[...] = 7.0
        assert {name: check(z) for name, check in checks} == want

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_a_fresh_point_takes_each_power_once(self, n, monkeypatch):
        calls = Counter()

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((np.linalg, "matrix_power"), (np.linalg, "svd"),
                            (spectral, "decompose")):
            count(owner, name)
        z = random_point(np.random.default_rng(1320 + n), n, scale=0.35)
        for _, check in _scalar_checks(n):
            check(z)
        # the powers 0..n, each once, and the one svd of ||L||_2
        assert calls["matrix_power"] <= n + 1 and calls["svd"] == 1
        for _, check in _scalar_checks(n):
            check(z)
        corank(z)  # the Jacobian's svd; spectra are not memoised
        assert calls["matrix_power"] <= n + 1 and calls["svd"] == 2
        assert calls["decompose"] == 2
        for k in (4, 6):
            spectra(z)
            assert calls["decompose"] == k


def _stack(seed, n, count, scale):
    """Couplings and momenta of ``count`` random points, and the points themselves."""
    rng = np.random.default_rng(seed)
    q, p = scale * rng.standard_normal((count, n)), scale * rng.standard_normal((count, n))
    return _couplings(q, p), p, [PhasePoint(a, c) for a, c in zip(q, p)]


class TestStackedKernels:
    """Rows of the stacked gradient, bracket and Lax-residual kernels equal the scalar calls."""

    @pytest.mark.parametrize("count", [1, 30])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_equal_scalar_calls(self, n, count):
        b, p, points = _stack(600 + n, n, count, scale=1.0)
        grads = [[grad_F(z, j) for j in range(1, n + 1)] for z in points]
        for j in range(1, n + 1):
            dq, dp = dynamics._gradients(_Powers(b, p), j)
            assert np.array_equal(dq, [g[j - 1].dq for g in grads])
            assert np.array_equal(dp, [g[j - 1].dp for g in grads])
            for odd_class in (False, True):
                assert np.array_equal(dynamics._lax_residuals(_Powers(b, p), j, odd_class),
                                      [lax_residual(z, j, odd_class) for z in points])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert np.array_equal(dynamics._brackets(_Powers(b, p)),
                              [[poisson(g[i], g[j]) for i, j in pairs] for g in grads])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_kernels_equal_the_frozen_reference(self, n):
        b, p, points = _stack(700 + n, n, 12, scale=0.35)
        for j in range(1, n + 1):
            for odd_class in (False, True):
                ref = [_reference_lax_residual(z, j, odd_class) for z in points]
                assert np.array_equal(dynamics._lax_residuals(_Powers(b, p), j, odd_class), ref)
        assert np.array_equal(dynamics._brackets(_Powers(b, p)), [_reference_brackets(z) for z in points])


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
        for method in ("dop853", "verlet"):
            with pytest.raises(ValueError, match="t_final"):
                integrate_flow(z0, c, 0.0, method=method)
        with pytest.raises(ValueError, match="t_final"):
            integrate_flow(z0, c, -1.0, method="verlet")
        for dt in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError, match="dt"):
                integrate_flow(z0, c, 1.0, method="verlet", dt=dt)
        for method in ("dop853", "verlet"):
            with pytest.raises(ValueError, match="t_eval"):
                integrate_flow(z0, c, 1.0, t_eval=np.array([]), method=method)
            for bad in ([np.nan], [0.0, np.inf]):  # [nan] used to end in an AttributeError
                with pytest.raises(ValueError, match="t_eval must be finite"):
                    integrate_flow(z0, c, 1.0, t_eval=bad, method=method)

    @pytest.mark.parametrize("method", ["dop853", "verlet"])
    def test_times_outside_the_span_rejected(self, method):
        # the leapfrog used to clamp them: t = 2 got the t = 1 state, t = -1 the initial one
        z0 = PhasePoint(np.array([0.1, -0.4, 0.3]), np.array([0.2, 0.0, -0.2]))
        c = np.array([0.0, 1.0, 0.0])
        for bad in ([0.5, 2.0, -1.0], [0.0, 1.0 + 1e-12], [-1e-12, 0.5]):
            with pytest.raises(ValueError, match="lie between 0 and t_final = 1.0"):
                integrate_flow(z0, c, 1.0, t_eval=bad, method=method)
        with pytest.raises(ValueError, match="t_final = -1.0"):  # a backward span
            integrate_flow(z0, c, -1.0, t_eval=[0.0, 0.5], method=method)
        traj = integrate_flow(z0, c, 1.0, t_eval=[0.0, 0.5, 1.0], method=method)
        assert traj.times.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coefficients_rejected(self, bad):
        # grad_combination returned NaN gradients; integrate_flow warned, then blamed the point
        z = PhasePoint(np.array([0.1, -0.4, 0.3]), np.array([0.2, 0.0, -0.2]))
        c = np.array([bad, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficient vector c must be finite"):
                grad_combination(z, c)
            for method in ("dop853", "verlet"):
                with pytest.raises(ValueError, match="coefficient vector c must be finite"):
                    integrate_flow(z, c, 1.0, method=method)

    @pytest.mark.parametrize("method", ["dop853", "verlet"])
    @pytest.mark.parametrize("name", ["rtol"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf, True, "1e-10", None])
    def test_bad_tolerances_rejected(self, method, name, bad):
        z0 = PhasePoint(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=f"{name} must be a finite positive real"):
            integrate_flow(z0, np.array([0.0, 1.0]), 1.0, method=method, **{name: bad})

    @pytest.mark.parametrize("method", ["dop853", "verlet"])
    @pytest.mark.parametrize("bad", [1e-20, 1e-15, 2.2e-14, np.nextafter(RTOL_FLOOR, 0.0)])
    def test_rtol_below_scipy_floor_rejected(self, method, bad):
        # scipy's solve_ivp ran such an rtol at 100 eps, with only a warning; the floor stays
        z0 = PhasePoint(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="rtol must be at least the floor 100 eps = 2.22e-14"):
            integrate_flow(z0, np.array([0.0, 1.0]), 1.0, method=method, rtol=bad)

    def test_rtol_at_scipy_floor_runs_without_warning(self):
        z0 = PhasePoint(np.array([0.1, -0.1]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_flow(z0, np.array([0.0, 1.0]), 0.1, t_eval=np.array([0.0, 0.1]),
                                  rtol=RTOL_FLOOR)
        assert RTOL_FLOOR == 100 * np.finfo(float).eps and traj.nfev > 0

    def test_rk45_is_not_an_integrator(self):
        z0 = PhasePoint(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="unknown integrator 'rk45'"):
            integrate_flow(z0, np.array([0.0, 1.0]), 1.0, method="rk45")

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

def _reference_lax(z, eps=None):
    n = z.n
    eps = np.ones(n) if eps is None else eps
    b = np.exp(0.5 * (z.q - np.roll(z.q, -1)))
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = z.p
    for r in range(n):
        s = (r + 1) % n
        m[r, s] += eps[r] * b[r]
        m[s, r] += eps[r] * b[r]
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


def _reference_trajectory_to_csv(traj, path):
    # the writer before the one-format-per-row version: one f-string per value
    n = traj.n
    header = (["t"] + [f"q_{i}" for i in range(1, n + 1)] + [f"p_{i}" for i in range(1, n + 1)]
              + [f"F_{i}" for i in range(1, n + 1)])
    F = traj.integrals_along()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(traj.times.size):
            row = [traj.times[k], *traj.points[k], *F[k]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _reference_integrals(z):
    L, _ = _reference_lax(z)
    out = np.empty(z.n)
    power = np.eye(z.n)
    for j in range(1, z.n + 1):
        power = power @ L
        out[j - 1] = np.trace(power) / j
    return out


def _reference_lax_residual(z, j, odd_class):
    # three Lax builds, two matrix powers and a looped bracket fill
    n = z.n
    odd = np.ones(n)
    odd[-1] = -1.0
    eps = odd if odd_class else np.ones(n)
    L, b = _reference_lax(z, eps)
    source, _ = _reference_lax(z, np.ones(n) if odd_class else odd)
    upper = 0.5 * np.triu(np.linalg.matrix_power(source, j - 1), k=1)
    M = upper - upper.T
    dq, dp = _reference_grad_from_power(np.linalg.matrix_power(_reference_lax(z)[0], j - 1), b)
    weight = 0.5 * (b * eps) * (dp - np.roll(dp, -1))
    bracket = np.zeros((n, n))
    for m in range(n):
        bracket[m, (m + 1) % n] += weight[m]
        bracket[(m + 1) % n, m] += weight[m]
    bracket[np.arange(n), np.arange(n)] -= dq
    return float(np.max(np.abs(bracket - (L @ M - M @ L))))


def _reference_brackets(z):
    # {F_i, F_j}, i < j, from contiguous gradients and np.dot, as the suite took them
    L, b = _reference_lax(z)
    grads = [_reference_grad_from_power(np.linalg.matrix_power(L, j), b) for j in range(z.n)]
    return [float(np.dot(fq, gp) - np.dot(fp, gq))
            for (fq, fp), (gq, gp) in itertools.combinations(grads, 2)]


def _reference_toda_frame(z):
    # n gradients, each from its own matrix_power of L
    n = z.n
    L, b = _reference_lax(z)
    X = np.empty((2 * n, n))
    for j in range(1, n + 1):
        dq, dp = _reference_grad_from_power(np.linalg.matrix_power(L, j - 1), b)
        X[:n, j - 1] = dp
        X[n:, j - 1] = -dq
    return X


def _flow_specs(n):
    eye = np.eye(n)
    mixed = np.zeros(n)
    mixed[:3] = (0.25, 1.0, -0.5)[:n]
    return [eye[j] for j in range(min(n, 3))] + [mixed]


def _assert_same_bytes(got, ref):
    times, points, nfev = got
    assert ref.success
    assert times.tobytes() == ref.t.tobytes()
    assert points.tobytes() == ref.y.T.tobytes()
    assert nfev == ref.nfev


def _assert_flow_matches_scipy(z0, c, t_final, t_eval):
    traj = integrate_flow(z0, c, t_final, t_eval=t_eval)
    ref = solve_ivp(_reference_rhs(c), (0.0, t_final), z0.as_vector(), method="DOP853",
                    t_eval=t_eval, rtol=1e-11, atol=1e-12)
    _assert_same_bytes((traj.times, traj.points, traj.nfev), ref)


class TestFrozenReference:
    T_FINAL = 1.0
    T_EVAL = np.linspace(0.0, 1.0, 11)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_adaptive_trajectories_bit_identical(self, n):
        # forward, backward, and sampled only up to 0.6 of the span, which is still integrated
        rng = np.random.default_rng(20 + n)
        z0 = random_point(rng, n, scale=0.35)
        spans = [(self.T_FINAL, self.T_EVAL), (-self.T_FINAL, -self.T_EVAL),
                 (self.T_FINAL, self.T_EVAL[:7])]
        for c in _flow_specs(n):
            for t_final, t_eval in spans:
                _assert_flow_matches_scipy(z0, c, t_final, t_eval)
        if n == 3:  # the isospectral_flows check's two flows
            z0 = PhasePoint(np.array([0.4, -0.3, -0.1]), np.array([0.2, -0.5, 0.3]))
            for c in np.eye(3)[1:]:
                _assert_flow_matches_scipy(z0, c, 50.0, np.linspace(0, 50.0, 51))

    def test_solver_matches_scipy_with_rejected_steps(self):
        # van der Pol at mu = 10: scipy rejects 32 of the forward steps at rtol 1e-8
        def vdp(_t, y):
            return np.array([y[1], 10.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

        for t_final in (20.0, -20.0):
            t_eval = np.linspace(0.0, t_final, 41)
            got = dynamics.solve_ivp(vdp, (0.0, t_final), np.array([2.0, 0.0]), t_eval, 1e-8, 1e-10)
            ref = solve_ivp(vdp, (0.0, t_final), np.array([2.0, 0.0]), method="DOP853",
                            t_eval=t_eval, rtol=1e-8, atol=1e-10)
            _assert_same_bytes(got, ref)
        steps = solve_ivp(vdp, (0.0, 20.0), np.array([2.0, 0.0]), method="DOP853",
                          rtol=1e-8, atol=1e-10)
        assert (steps.nfev - 2) // 12 > len(steps.t) - 1  # some attempts were rejected

    def test_blow_up_stops_where_scipy_stops(self):
        # y' = y^2, y(0) = 1 leaves every float before t = 1
        def square(_t, y):
            return y * y

        ref = solve_ivp(square, (0.0, 2.0), np.array([1.0]), method="DOP853", rtol=1e-11,
                        atol=1e-12)
        assert ref.status == -1 and "step size" in ref.message
        with pytest.raises(FlowError, match=re.escape(f"stopped at t = {float(ref.t[-1])!r}:")):
            dynamics.solve_ivp(square, (0.0, 2.0), np.array([1.0]), np.array([0.0, 2.0]),
                               1e-11, 1e-12)

    @pytest.mark.parametrize("t_final, t_eval", [
        (1.0, [0.0, 1.0, 0.5]), (1.0, [0.5, 0.5]), (-1.0, [0.0, -1.0, -0.5]), (1.0, [[0.0, 1.0]]),
    ])
    def test_unordered_times_rejected(self, t_final, t_eval):
        # scipy's solve_ivp raised on these, and the stepper reads the times in order
        z0 = PhasePoint(np.array([0.1, -0.1]), np.zeros(2))
        with pytest.raises(ValueError, match="strictly ordered from 0 toward t_final"):
            integrate_flow(z0, np.array([0.0, 1.0]), t_final, t_eval=np.array(t_eval))

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        from todalax import _dop853_tableau as ours
        for name in ("A", "B", "C", "E3", "E5", "D"):
            assert getattr(ours, name).tobytes() == getattr(ref, name).tobytes(), name
        for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
            assert getattr(ours, name) == getattr(ref, name)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_leapfrog_bit_identical(self, n):
        rng = np.random.default_rng(30 + n)
        z0 = random_point(rng, n, scale=0.35)
        traj = integrate_flow(z0, np.eye(n)[1], self.T_FINAL, t_eval=self.T_EVAL,
                              method="verlet", dt=1e-2)
        ref = _reference_verlet(z0, self.T_FINAL, 1e-2, self.T_EVAL)
        assert np.array_equal(traj.points, ref)
        assert traj.nfev == 101  # the initial force and one per step

    def test_grad_combination_bit_identical(self):
        # every single trace, the top one included, c = 0, sparse and negative combinations;
        # compared as bytes, so even the sign of a zero must match
        rng = np.random.default_rng(40)
        for n in range(2, 9):
            for k in range(6):
                z = random_point(rng, n)
                if k == 5:  # zero momenta give zero entries, whose sign must match too
                    z = PhasePoint(z.q, np.zeros(n))
                cs = [np.zeros(n), *np.eye(n), *-np.eye(n), rng.standard_normal(n),
                      -np.abs(rng.standard_normal(n))]
                sparse = rng.standard_normal(n)
                sparse[::2] = 0.0
                sparse[-1] = 0.0  # a zero top entry
                cs.append(sparse)
                for c in cs:
                    g = grad_combination(z, c)
                    dq, dp = _reference_grad_combination(z, c)
                    assert g.dq.tobytes() == dq.tobytes() and g.dp.tobytes() == dp.tobytes(), c

    @pytest.mark.parametrize("c", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 1.0, -0.5]])
    def test_field_evaluations_share_no_memory(self, c):
        # solve_ivp keeps the last value of its right-hand side between steps
        field = dynamics._gradient_field(3, np.array(c))
        z1, z2 = np.array([0.4, -0.3, -0.1, 0.2, -0.5, 0.3]), np.array([0.1, 0.2, -0.3, -0.4, 0.1, 0.6])
        first = field(0.0, z1)
        kept = first.copy()
        second = field(0.0, z2)
        assert first.shape == second.shape == (6,)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(v, z) for v in (first, second) for z in (z1, z2))
        assert np.array_equal(first, kept)

    def test_lax_residual_bit_identical(self):
        rng = np.random.default_rng(60)
        for n in (2, 3, 5, 8):
            for _ in range(3):
                z = random_point(rng, n)
                for j in range(1, n + 1):
                    for odd_class in (False, True):
                        assert np.array_equal(lax_residual(z, j, odd_class),
                                              _reference_lax_residual(z, j, odd_class))

    def test_toda_frame_matches_per_gradient_powers(self):
        # exponents up to 3 multiply alike; from 4 on matrix_power squares
        rng = np.random.default_rng(70)
        for n in range(2, 9):
            for _ in range(5):
                z = random_point(rng, n)
                X, ref = toda_frame(z), _reference_toda_frame(z)
                if n <= 4:
                    assert np.array_equal(X, ref)
                else:
                    assert np.max(np.abs(X - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("t_final", [1.0, -1.0])
    def test_csv_bytes_match_per_value_writer(self, tmp_path, n, t_final):
        rng = np.random.default_rng(80 + n)
        z0 = random_point(rng, n, scale=0.35)
        traj = integrate_flow(z0, _flow_specs(n)[-1], t_final)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        trajectory_to_csv(traj, new)
        _reference_trajectory_to_csv(traj, old)
        assert new.read_bytes() == old.read_bytes()

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
        library = dynamics.solve_ivp

        def spy(fun, *args, **kwargs):
            seen["rhs"] = fun
            return library(fun, *args, **kwargs)

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
                          np.eye(3)[1], 0)
        with pytest.raises(PhaseDomainError) as want:
            PhasePoint(q, p)
        with pytest.raises(PhaseDomainError, match=re.escape(str(want.value))):
            traj.integrals_along()
