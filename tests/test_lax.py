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
)


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
        assert off_band_check(z, 1).passed

    def test_diagonal_is_four_at_top_power(self):
        # at the origin the cube difference has constant diagonal 4
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(3)).entries
        D = np.linalg.matrix_power(L, 3) - np.linalg.matrix_power(Lbar, 3)
        npt.assert_allclose(np.diag(D), 4.0)
        assert off_band_check(z, 3).passed

    def test_random_points_all_powers(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for _ in range(10):
                z = random_point(rng, n)
                for j in range(1, n + 1):
                    rep = off_band_check(z, j)
                    assert rep.passed, (n, j, rep)

    def test_power_range_validated(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            off_band_check(z, 4)


class TestTraceRelation:
    def test_origin_n3(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(3)).entries
        assert np.trace(np.linalg.matrix_power(L, 3)) == pytest.approx(6.0)
        assert np.trace(np.linalg.matrix_power(Lbar, 3)) == pytest.approx(-6.0)
        assert trace_relation_check(z).passed

    def test_degenerate_corner_n2(self):
        z = PhasePoint(np.zeros(2), np.zeros(2))
        L = build_lax(z).entries
        Lbar = build_lax(z, SignVector.odd(2)).entries
        assert np.trace(L @ L) == pytest.approx(8.0)
        assert np.all(Lbar == 0.0)
        assert trace_relation_check(z).passed

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
                assert trace_relation_check(random_point(rng, n)).passed


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
                assert rep.passed, rep
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
