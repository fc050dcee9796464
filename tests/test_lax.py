import re

import numpy as np
import numpy.testing as npt
import pytest

from todalax.lax import (
    PhaseDomainError,
    PhasePoint,
    SignVector,
    build_generator,
    build_lax,
    char_poly_offset,
    conjugating_signs,
    hamiltonian,
    integrals,
    off_band_check,
    trace_relation_check,
    _char_poly,
    _couplings,
    _gather,
    _generator,
    _first_outside,
    _lax,
    _off_band,
    _Powers,
    _trace_gaps,
)
from todalax.dynamics import lax_residual
from todalax.verify import CHECKS

# the registry's bounds, which decide pass or fail
TOL = {c.name: c.tolerance for c in CHECKS}


def random_point(rng, n, scale=1.0):
    return PhasePoint(scale * rng.standard_normal(n), scale * rng.standard_normal(n))


class TestPhasePoint:
    def test_couplings_at_origin_are_one(self):
        z = PhasePoint(np.zeros(4), np.zeros(4))
        npt.assert_array_equal(z.couplings(), np.ones(4))

    def test_couplings_wrap_periodically(self):
        z = PhasePoint(np.array([2.0, 0.0, 0.0]), np.zeros(3))
        npt.assert_allclose(z.couplings(), [np.e, 1.0, 1.0 / np.e])

    def test_rejects_single_particle(self):
        with pytest.raises(ValueError):
            PhasePoint(np.array([1.0]), np.array([0.0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PhasePoint(np.zeros(3), np.zeros(4))

    def test_overflow_guard_names_index(self):
        q = np.array([0.0, 700.0, 0.0])
        with pytest.raises(PhaseDomainError, match="b_1"):
            PhasePoint(q, np.zeros(3))

    def test_vector_round_trip(self):
        z = PhasePoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        npt.assert_array_equal(PhasePoint.from_vector(z.as_vector()).q, z.q)

    def test_coordinates_are_read_only_copies(self):
        q, p = np.array([0.3, -0.2, 0.4, 0.1]), np.array([0.5, -0.1, 0.2, -0.6])
        z = PhasePoint(q, p)
        want = [off_band_check(z, 2), lax_residual(z, 3), build_lax(z).entries]
        for a in (z.q, z.p, z.couplings()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 9.0
        q[0], p[0] = 9.0, 9.0  # the source arrays are not the point's
        assert z.q[0] == 0.3 and z.p[0] == 0.5
        same = PhasePoint(np.array([0.3, -0.2, 0.4, 0.1]), np.array([0.5, -0.1, 0.2, -0.6]))
        for point in (z, same):
            assert off_band_check(point, 2) == want[0]
            assert lax_residual(point, 3) == want[1]
            assert np.array_equal(build_lax(point).entries, want[2])

    def test_displaced_adds_a_2n_vector(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        moved = z.displaced(np.arange(6.0))
        assert np.array_equal(moved.q, [0.0, 1.0, 2.0]) and np.array_equal(moved.p, [3.0, 4.0, 5.0])

    @pytest.mark.parametrize("dz", [np.arange(4.0), np.arange(7.0), np.zeros((2, 3)), 1.0])
    def test_displaced_rejects_another_shape(self, dz):
        # a length-4 dz once broadcast its last entry onto every momentum: p = (3, 3, 3)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            PhasePoint(np.zeros(3), np.zeros(3)).displaced(dz)


class TestSignVector:
    def test_parity(self):
        assert SignVector.even(5).parity() == 1
        assert SignVector.odd(5).parity() == -1
        assert SignVector(np.array([-1.0, -1.0, 1.0])).parity() == 1

    def test_rejects_non_unit_entries(self):
        with pytest.raises(ValueError):
            SignVector(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            SignVector(np.array([1.0]))
        with pytest.raises(ValueError):
            SignVector(np.ones((2, 2)))

    def test_even_and_odd_are_shared_and_read_only(self):
        for make in (SignVector.even, SignVector.odd):
            sign = make(4)
            assert make(4) is sign
            with pytest.raises(ValueError, match="read-only"):
                sign.eps[0] = -1.0
        npt.assert_array_equal(SignVector.odd(4).eps, [1.0, 1.0, 1.0, -1.0])
        # a caller's array is copied, not frozen in place
        eps = np.array([1.0, -1.0, 1.0])
        sign = SignVector(eps)
        eps[0] = -1.0
        assert sign.eps[0] == 1.0 and not sign.eps.flags.writeable
        with pytest.raises(ValueError):
            SignVector.even(1)


class TestBuildLax:
    def test_origin_even(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        npt.assert_array_equal(build_lax(z).entries, expected)

    def test_origin_odd_flips_corner(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        expected = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)
        npt.assert_array_equal(build_lax(z, SignVector.odd(3)).entries, expected)

    def test_diagonal_and_couplings(self):
        z = PhasePoint(np.array([2.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))
        L = build_lax(z).entries
        npt.assert_array_equal(np.diag(L), [1.0, 2.0, 3.0])
        npt.assert_allclose([L[0, 1], L[1, 2], L[2, 0]], [np.e, 1.0, 1.0 / np.e])

    def test_n2_entries_accumulate(self):
        z = PhasePoint(np.array([0.3, -0.1]), np.array([0.5, -0.5]))
        b = z.couplings()
        L = build_lax(z).entries
        npt.assert_allclose(L[0, 1], b[0] + b[1])
        Lbar = build_lax(z, SignVector.odd(2)).entries
        npt.assert_allclose(Lbar[0, 1], b[0] - b[1])

    def test_symmetry_and_band_pattern(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            z = random_point(rng, n)
            L = build_lax(z).entries
            npt.assert_array_equal(L, L.T)
            if n > 3:
                rows, cols = np.indices((n, n))
                cyc = np.minimum((rows - cols) % n, (cols - rows) % n)
                assert np.all(L[cyc > 1] == 0.0)

    def test_sign_length_mismatch(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            build_lax(z, SignVector.even(4))


class TestGenerators:
    def test_first_flow_generator_vanishes(self):
        rng = np.random.default_rng(0)
        z = random_point(rng, 5)
        assert np.all(build_generator(z, 1).entries == 0.0)
        assert np.all(build_generator(z, 1, odd_class=True).entries == 0.0)

    def test_second_flow_origin(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        expected = 0.5 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=float)
        npt.assert_array_equal(build_generator(z, 2).entries, expected)

    def test_third_flow_odd_origin(self):
        # strict upper triangle of L^2 / 2 at the origin, completed antisymmetrically
        z = PhasePoint(np.zeros(3), np.zeros(3))
        expected = 0.5 * np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], dtype=float)
        npt.assert_array_equal(build_generator(z, 3, odd_class=True).entries, expected)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 7):
            z = random_point(rng, n)
            for j in range(1, n + 1):
                M = build_generator(z, j, odd_class=bool(j % 2)).entries
                npt.assert_array_equal(M, -M.T)

    def test_flow_index_range(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            build_generator(z, 0)
        with pytest.raises(ValueError):
            build_generator(z, 4)

    @pytest.mark.parametrize("bad", [True, False, 2.5, np.float64(2.0), "2", None])
    def test_flow_index_must_be_an_integer(self, bad):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="flow index must be an integer in 1..3"):
            build_generator(z, bad)

    def test_numpy_integer_flow_index_accepted(self):
        z = PhasePoint(np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.0, -0.1]))
        assert np.array_equal(build_generator(z, np.int64(3)).entries,
                              build_generator(z, 3).entries)


class TestIntegrals:
    def test_origin_values(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        npt.assert_allclose(integrals(z), [0.0, 3.0, 2.0], atol=1e-14)

    def test_first_is_total_momentum(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 8):
            z = random_point(rng, n)
            npt.assert_allclose(integrals(z)[0], z.p.sum(), rtol=1e-14)

    def test_second_is_hamiltonian(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 6):
            z = random_point(rng, n)
            npt.assert_allclose(integrals(z)[1], hamiltonian(z), rtol=1e-13)

    def test_second_trace_offset_at_n2(self):
        # the collapsed corner doubles into the constant 2 b_1 b_2 = 2
        rng = np.random.default_rng(3)
        z = random_point(rng, 2)
        npt.assert_allclose(integrals(z)[1], hamiltonian(z) + 2.0, rtol=1e-13)

    def test_parity_invariance(self):
        # any even sign vector is conjugate to L, so all traces agree
        rng = np.random.default_rng(4)
        for n in (3, 5, 6):
            z = random_point(rng, n)
            eps = SignVector(rng.choice([-1.0, 1.0], n))
            if eps.parity() == -1:
                flipped = eps.eps.copy()
                flipped[0] *= -1
                eps = SignVector(flipped)
            L = build_lax(z, eps).entries
            power = np.eye(n)
            for j in range(1, n + 1):
                power = power @ L
                npt.assert_allclose(np.trace(power) / j, integrals(z)[j - 1], rtol=1e-12)


class TestConjugation:
    def test_explicit_conjugation(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8):
            z = random_point(rng, n)
            for _ in range(5):
                eps = SignVector(rng.choice([-1.0, 1.0], n))
                sigma_entries = eps.eps * rng.choice([-1.0, 1.0], n)
                if np.prod(eps.eps * sigma_entries) < 0:
                    sigma_entries[0] *= -1
                sigma = SignVector(sigma_entries)
                d = conjugating_signs(eps, sigma)
                S = np.diag(d)
                npt.assert_allclose(
                    S @ build_lax(z, eps).entries @ S,
                    build_lax(z, sigma).entries,
                    atol=1e-14,
                )

    def test_equal_parity_spectra_agree(self):
        rng = np.random.default_rng(6)
        for n in (3, 6):
            z = random_point(rng, n)
            eps = SignVector.even(n)
            sigma_entries = rng.choice([-1.0, 1.0], n)
            if np.prod(sigma_entries) < 0:
                sigma_entries[-1] *= -1
            sigma = SignVector(sigma_entries)
            e1 = np.sort(np.linalg.eigvalsh(build_lax(z, eps).entries))
            e2 = np.sort(np.linalg.eigvalsh(build_lax(z, sigma).entries))
            npt.assert_allclose(e1, e2, rtol=1e-10, atol=1e-12)

    def test_opposite_parity_rejected(self):
        with pytest.raises(ValueError):
            conjugating_signs(SignVector.even(3), SignVector.odd(3))


class TestOffBand:
    def test_difference_at_origin_j1(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(3)).entries
        expected = np.array([[0, 0, 2], [0, 0, 0], [2, 0, 0]], dtype=float)
        npt.assert_array_equal(L - Lbar, expected)
        rep = off_band_check(z, 1)
        assert rep.zero_residual < TOL["off_band"] and rep.diagonal_residual < TOL["off_band"]

    def test_diagonal_is_four_at_top_power(self):
        # at the origin the cube difference has constant diagonal 4
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(3)).entries
        D = np.linalg.matrix_power(L, 3) - np.linalg.matrix_power(Lbar, 3)
        npt.assert_allclose(np.diag(D), 4.0)
        rep = off_band_check(z, 3)
        assert rep.zero_residual < TOL["off_band"] and rep.diagonal_residual < TOL["off_band"]

    def test_random_points_all_powers(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for _ in range(10):
                z = random_point(rng, n)
                for j in range(1, n + 1):
                    rep = off_band_check(z, j)
                    assert rep.zero_residual < TOL["off_band"], (n, j, rep)
                    assert rep.diagonal_residual < TOL["off_band"], (n, j, rep)

    def test_power_range_validated(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            off_band_check(z, 4)

    @pytest.mark.parametrize("bad", [True, False, 2.5, np.float64(2.0), "2", None, 0, -1])
    def test_power_must_be_an_integer_in_range(self, bad):
        # True used to run as j = 1 and 2.5 died inside matrix_power
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="power must be an integer in 1..3"):
            off_band_check(z, bad)

    def test_numpy_integer_power_accepted(self):
        z = PhasePoint(np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.0, -0.1]))
        rep = off_band_check(z, np.int64(2))
        assert rep == off_band_check(z, 2) and type(rep.j) is int


class TestTraceRelation:
    def test_origin_n3(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(3)).entries
        assert np.trace(np.linalg.matrix_power(L, 3)) == pytest.approx(6.0)
        assert np.trace(np.linalg.matrix_power(Lbar, 3)) == pytest.approx(-6.0)
        assert np.max(trace_relation_check(z).residuals) < TOL["trace_gap"]

    def test_degenerate_corner_n2(self):
        z = PhasePoint(np.zeros(2), np.zeros(2))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(2)).entries
        assert np.trace(L @ L) == pytest.approx(8.0)
        assert np.all(Lbar == 0.0)
        assert np.max(trace_relation_check(z).residuals) < TOL["trace_gap"]

    def test_first_traces_identical(self):
        rng = np.random.default_rng(8)
        z = random_point(rng, 5)
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(5)).entries
        assert np.trace(L) == np.trace(Lbar)

    def test_random_sweep(self):
        rng = np.random.default_rng(9)
        for n in range(2, 9):
            for _ in range(10):
                rep = trace_relation_check(random_point(rng, n))
                assert np.max(rep.residuals) < TOL["trace_gap"], rep


class TestCharPolyOffset:
    def test_origin_constant_minus_four(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        rep = char_poly_offset(z)
        assert rep.constant == pytest.approx(-4.0, abs=1e-12)
        assert rep.max_deviation < 1e-12

    def test_hand_expansion_n3(self):
        # det(xI - L) = x^3 - 3x - 2 and det(xI - Lbar) = x^3 - 3x + 2 at the origin
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        for x in (-1.7, 0.4, 2.2):
            npt.assert_allclose(
                np.linalg.det(x * np.eye(3) - L), x**3 - 3 * x - 2, atol=1e-12
            )

    def test_constant_independent_of_point_and_n(self):
        rng = np.random.default_rng(10)
        for n in range(2, 8):
            constants = []
            for _ in range(20):
                rep = char_poly_offset(random_point(rng, n))
                assert rep.max_deviation < TOL["char_poly_offset"], rep
                assert abs(abs(rep.constant) - 4.0) < TOL["char_poly_offset"], rep
                constants.append(rep.constant)
            npt.assert_allclose(constants, -4.0, atol=1e-9)


class TestDifferencesSpanFullRank:
    def test_flattened_powers_independent(self):
        # no nontrivial combination of the power differences vanishes
        rng = np.random.default_rng(11)
        for n in (3, 5, 8):
            z = random_point(rng, n)
            L = build_lax(z).entries
            Lbar = build_lax(z, SignVector.odd(n)).entries
            cols = []
            PL, PB = np.eye(n), np.eye(n)
            for _ in range(2, n + 1):
                PL, PB = PL @ L, PB @ Lbar
                cols.append((PL - PB).ravel())
            A = np.array(cols).T
            s = np.linalg.svd(A, compute_uv=False)
            assert s[-1] > 1e-10 * s[0]


# -- the stacked kernels ----------------------------------------------------


def _reference_off_band(z, j):
    # the per-point implementation the kernel replaced: a loop over the first diagonal
    n = z.n
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    D = np.linalg.matrix_power(L, j) - np.linalg.matrix_power(Lbar, j)
    scale = max(np.linalg.norm(L, 2), 1.0) ** j
    rows, cols = np.indices((n, n))
    zero_mask = np.abs(rows - cols) < n - j
    zero = float(np.max(np.abs(D[zero_mask])) / scale) if zero_mask.any() else 0.0
    b = z.couplings()
    diagonal = 0.0
    for i in range(j):
        expected = 4.0 if j == n else 2.0 * float(np.prod(b[(i - 1 - np.arange(j)) % n]))
        diagonal = max(diagonal, abs(D[i, i + n - j] - expected) / max(abs(expected), 1e-300))
    return zero, diagonal


def _reference_trace_gaps(z):
    n = z.n
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    out = np.empty(n)
    PL, PB = np.eye(n), np.eye(n)
    for j in range(1, n + 1):
        PL, PB = (L, Lbar) if j == 1 else (PL @ L, PB @ Lbar)
        target = 4.0 * n if j == n else 0.0
        scale = max(1.0, abs(np.trace(PL)), abs(np.trace(PB)), target)
        out[j - 1] = abs(np.trace(PL) - np.trace(PB) - target) / scale
    return out


def _reference_char_poly(z):
    # one det per grid value and class
    n = z.n
    L = build_lax(z).entries
    Lbar = build_lax(z, SignVector.odd(n)).entries
    eye = np.eye(n)
    diffs = np.array([np.linalg.det(x * eye - L) - np.linalg.det(x * eye - Lbar)
                      for x in np.linspace(-3.0, 3.0, 21)])
    constant = float(np.mean(diffs))
    return constant, float(np.max(np.abs(diffs - constant)))


def _stack(seed, n, count, scale):
    """Couplings and momenta of ``count`` random points, and the points themselves."""
    rng = np.random.default_rng(seed)
    q, p = scale * rng.standard_normal((count, n)), scale * rng.standard_normal((count, n))
    return _couplings(q, p), p, [PhasePoint(a, c) for a, c in zip(q, p)]


class TestStackedKernels:
    """Every row of a stacked kernel equals the scalar check on that point, bit for bit.

    The scalar checks are the kernels at N = 1; n = 2 is the collapsed
    corner where the superdiagonal and the periodic corner coincide.
    """

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_equal_scalar_checks(self, n, count):
        b, p, points = _stack(300 + n, n, count, scale=1.0)
        zero, diagonal = _off_band(_Powers(b, p), range(1, n + 1))  # one svd for every power
        for j in range(1, n + 1):
            reps = [off_band_check(z, j) for z in points]
            assert np.array_equal(zero[j - 1], [r.zero_residual for r in reps]), j
            assert np.array_equal(diagonal[j - 1], [r.diagonal_residual for r in reps]), j
        assert np.array_equal(_trace_gaps(_Powers(b, p)), [trace_relation_check(z).residuals
                                                  for z in points])
        constant, deviation = _char_poly(_Powers(b, p))
        reps = [char_poly_offset(z) for z in points]
        assert np.array_equal(constant, [r.constant for r in reps])
        assert np.array_equal(deviation, [r.max_deviation for r in reps])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_kernels_equal_the_per_point_loops(self, n):
        b, p, points = _stack(400 + n, n, 25, scale=0.35)
        for j in range(1, n + 1):
            got = np.stack(_off_band(_Powers(b, p), (j,)), axis=-1)[0]
            assert np.array_equal(got, [_reference_off_band(z, j) for z in points]), j
        assert np.array_equal(_trace_gaps(_Powers(b, p)), [_reference_trace_gaps(z) for z in points])
        got = np.stack(_char_poly(_Powers(b, p)), axis=-1)
        assert np.array_equal(got, [_reference_char_poly(z) for z in points])

    @pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("q_bad, p_bad", [
        ([0.0, 700.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]),
        ([0.0, 0.0, np.inf, 0.0], [0.0, 0.0, 0.0, 0.0]),
        ([1e308, -1e308, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),  # finite, but the gap overflows
    ])
    def test_out_of_domain_row_raises_phase_point_error(self, q_bad, p_bad):
        # the stacks' couplings come from _couplings, which checks every row;
        # _first_outside finds the first row PhasePoint rejects, with its error
        rng = np.random.default_rng(500)
        q, p = 0.35 * rng.standard_normal((6, 4)), 0.35 * rng.standard_normal((6, 4))
        assert _first_outside(q, p) == (6, None)
        q[3], p[3] = q_bad, p_bad
        q[5], p[5] = q_bad, p_bad
        with pytest.raises(PhaseDomainError) as own:
            PhasePoint(q[3], p[3])
        k, error = _first_outside(q, p)
        assert k == 3 and type(error) is PhaseDomainError and str(error) == str(own.value)
        with pytest.raises(PhaseDomainError, match=f"^{re.escape(str(own.value))}$"):
            _couplings(q, p)


# -- the one-gather builder and the kernels on its stacked pair ---------------


def _entry_loop(b, p, eps):
    # one row, entry by entry: the diagonal, then each coupling added to its two places
    n = b.size
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = p
    for r in range(n):
        s = (r + 1) % n
        m[r, s] += eps[r] * b[r]
        m[s, r] += eps[r] * b[r]
    return m


def _class_rows(n):
    return np.stack([SignVector.even(n).eps, SignVector.odd(n).eps])


def _per_class_generator(power):
    upper = 0.5 * np.triu(power, k=1)
    return upper - np.swapaxes(upper, -1, -2)


class TestLaxBuilder:
    """_lax gathers what an entry-by-entry fill computes, bit for bit, at every n and stack shape."""

    @pytest.mark.parametrize("lead", [(), (1,), (7,)], ids=["row", "one-row stack", "stack"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_entry_loop(self, n, lead):
        rng = np.random.default_rng(800 + n)
        b, p = np.exp(rng.standard_normal(lead + (n,))), rng.standard_normal(lead + (n,))
        signs = np.concatenate([_class_rows(n), rng.choice([-1.0, 1.0], size=(3, n))])
        rows_b, rows_p = b.reshape(-1, n), p.reshape(-1, n)
        for eps in signs:
            got = _lax(b, p, eps)
            assert got.shape == lead + (n, n)
            want = [_entry_loop(rb, rp, eps) for rb, rp in zip(rows_b, rows_p)]
            assert np.array_equal(got.reshape(-1, n, n), want)
        several = _lax(b, p, signs)
        assert several.shape == lead + (len(signs), n, n)
        assert np.array_equal(several, np.stack([_lax(b, p, eps) for eps in signs], axis=-3))

    @pytest.mark.parametrize("lead", [(), (1,), (7,)], ids=["row", "one-row stack", "stack"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair_is_two_single_class_builds(self, n, lead):
        rng = np.random.default_rng(900 + n)
        b, p = np.exp(rng.standard_normal(lead + (n,))), rng.standard_normal(lead + (n,))
        pair = _lax(b, p)
        assert pair.shape == lead + (2, n, n)
        assert np.array_equal(pair[..., 0, :, :], _lax(b, p, SignVector.even(n).eps))
        assert np.array_equal(pair[..., 1, :, :], _lax(b, p, SignVector.odd(n).eps))
        z = PhasePoint(rng.standard_normal(n), rng.standard_normal(n))
        assert np.array_equal(_lax(z.couplings(), z.p),
                              [build_lax(z, SignVector.even(n)).entries,
                               build_lax(z, SignVector.odd(n)).entries])

    def test_index_maps_are_cached_and_read_only(self):
        assert _gather(4, (2,)) is _gather(4, (2,))
        assert _gather(4, (2,)).shape == (2, 4, 4) and _gather(4, ()).shape == (4, 4)
        assert not _gather(4, (2,)).flags.writeable

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_is_the_strict_upper_half_minus_its_transpose(self, n):
        rng = np.random.default_rng(1000 + n)
        for shape in [(n, n), (5, n, n), (5, 2, n, n)]:
            power = rng.standard_normal(shape)
            assert np.array_equal(_generator(power), _per_class_generator(power))


def _per_class_off_band(b, p, j):
    # each class raised to the power j on its own
    n = b.size
    L, Lbar = (_entry_loop(b, p, eps) for eps in _class_rows(n))
    D = np.linalg.matrix_power(L, j) - np.linalg.matrix_power(Lbar, j)
    scale = max(np.linalg.svd(L, compute_uv=False)[0], 1.0) ** j
    rows, cols = np.indices((n, n))
    zero_mask = np.abs(rows - cols) < n - j
    zero = float(np.max(np.abs(D[zero_mask])) / scale) if zero_mask.any() else 0.0
    diagonal = 0.0
    for i in range(j):
        expected = 4.0 if j == n else 2.0 * float(np.prod(b[(i - 1 - np.arange(j)) % n]))
        diagonal = max(diagonal, abs(D[i, i + n - j] - expected) / max(abs(expected), 1e-300))
    return zero, diagonal


def _per_class_trace_gaps(b, p):
    # one matmul per class and power
    n = b.size
    L, Lbar = (_entry_loop(b, p, eps) for eps in _class_rows(n))
    out = np.empty(n)
    PL, PB = L, Lbar
    for j in range(1, n + 1):
        if j > 1:
            PL, PB = PL @ L, PB @ Lbar
        target = 4.0 * n if j == n else 0.0
        scale = max(1.0, abs(np.trace(PL)), abs(np.trace(PB)), target)
        out[j - 1] = abs(np.trace(PL) - np.trace(PB) - target) / scale
    return out


def _per_class_lax_residual(b, p, j, odd_class):
    # each class's power L^(j-1) or Lbar^(j-1) taken on its own
    n = b.size
    r = np.arange(n)
    nxt, prv = (r + 1) % n, (r - 1) % n
    even, odd = _class_rows(n)
    L, Lbar = _entry_loop(b, p, even), _entry_loop(b, p, odd)
    PL = np.linalg.matrix_power(L, j - 1)
    M = _per_class_generator(PL if odd_class else np.linalg.matrix_power(Lbar, j - 1))
    off = b * PL[r, nxt]
    dq, dp = off - off[prv], np.diag(PL)
    eps, A = (odd, Lbar) if odd_class else (even, L)
    weight = 0.5 * (b * eps) * (dp - dp[nxt])
    bracket = _entry_loop(weight, -dq, even)
    return float(np.max(np.abs(bracket - (A @ M - M @ A))))


class TestStackedPair:
    """The kernels on the stacked pair equal the per-class formulas, bit for bit.

    Every j up to n is covered, so exponents of 4 and more, where
    matrix_power switches to binary squaring, are too.
    """

    @pytest.mark.parametrize("n", range(2, 9))
    def test_checks_equal_the_per_class_formulas(self, n):
        rng = np.random.default_rng(1100 + n)
        for _ in range(4):
            z = random_point(rng, n, scale=0.5)
            b, p = z.couplings(), z.p
            (L, Lbar) = (_entry_loop(b, p, eps) for eps in _class_rows(n))
            assert np.array_equal(trace_relation_check(z).residuals, _per_class_trace_gaps(b, p))
            for j in range(1, n + 1):
                rep = off_band_check(z, j)
                assert (rep.zero_residual, rep.diagonal_residual) == _per_class_off_band(b, p, j), j
                for odd_class, source in ((False, Lbar), (True, L)):
                    want = _per_class_generator(np.linalg.matrix_power(source, j - 1))
                    assert np.array_equal(build_generator(z, j, odd_class).entries, want), j
                    assert lax_residual(z, j, odd_class) == \
                        _per_class_lax_residual(b, p, j, odd_class), (j, odd_class)
