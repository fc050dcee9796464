import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from todalax import singularity, spectral
from todalax.lax import PhasePoint, SignVector, _couplings, build_lax
from todalax.spectral import (
    TripleDegeneracyError,
    _chain_links,
    _interlacing_stack,
    _spectra_stack,
    annihilator,
    decompose,
    interlacing_check,
    spectra,
)
from todalax.singularity import (
    RANK_TOL,
    PairTarget,
    StratumCollapseError,
    _corank_stack,
    all_pair_targets,
    bracket_relations_check,
    corank,
    find_singular,
    hessian_structure_check,
    omega_point,
    pair_slots,
    pairing_denominator,
    perturbed_seed,
    tangent_symplectic_check,
    transverse_frequency,
)
from todalax.verify import (
    BRACKET_TOL,
    CHECKS,
    M_INDEPENDENCE_TOL,
    RATIO_TOL,
    TANGENT_TOL,
    Sample,
    random_points,
)

# the registry's bounds, which decide pass or fail
TRANSVERSE_TOL = next(c.tolerance for c in CHECKS if c.name == "transverse_structure")


def random_point(rng, n, scale=1.0):
    return PhasePoint(scale * rng.standard_normal(n), scale * rng.standard_normal(n))


class TestPairBookkeeping:
    def test_slot_counts(self):
        assert pair_slots(2) == (0, 1)
        assert pair_slots(3) == (1, 1)
        assert pair_slots(4) == (1, 2)
        assert pair_slots(8) == (3, 4)

    def test_positions(self):
        assert PairTarget(False, 1).positions(3) == (1, 2)
        assert PairTarget(True, 1).positions(3) == (0, 1)
        assert PairTarget(True, 2).positions(4) == (2, 3)

    def test_ordinal_validation(self):
        with pytest.raises(ValueError):
            PairTarget(False, 1).positions(2)  # no even-class slots at n = 2

    def test_parse_round_trip(self):
        t = PairTarget.parse("odd:2")
        assert t == PairTarget(True, 2)
        assert t.label == "odd:2"
        with pytest.raises(ValueError):
            PairTarget.parse("both:1")


class TestCorank:
    def test_regular_points(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            for _ in range(30):
                rep = corank(random_point(rng, n))
                assert rep.corank == 0
                assert rep.nu == rep.nubar == 0
                assert not rep.inconclusive

    def test_omega_points_full_corank(self):
        for n in range(2, 9):
            rep = corank(omega_point(n).z)
            assert rep.corank == n - 1
            assert rep.nu == (n - 1) // 2
            assert rep.nubar == n // 2
            assert rep.theorem_holds
            assert not rep.inconclusive

    def test_null_basis_annihilates_jacobian(self):
        from todalax.dynamics import grad_F

        om = omega_point(5)
        rep = corank(om.z)
        dF = np.array([grad_F(om.z, j).as_vector() for j in range(1, 6)])
        for c in rep.null_basis:
            assert np.linalg.norm(c @ dF) < 1e-10 * rep.singular_values[0]


def _rows(points):
    """Couplings and momenta of the points as stacked rows (N, n)."""
    q, p = np.array([z.q for z in points]), np.array([z.p for z in points])
    return _couplings(q, p), p


def _mixed_stack(n):
    """Desk-scale random points with relative equilibria and single-pair points among them."""
    q, p = random_points(np.random.default_rng(40 + n), n, 12)
    points = [PhasePoint(qr, pr) for qr, pr in zip(q, p)]
    points.insert(3, omega_point(n).z)
    points.insert(8, omega_point(n, q0=0.3, p0=-0.4).z)
    if n >= 3:
        found, missing, _ = Sample(n).sigma1
        assert not missing
        for k, sp in enumerate(found):
            points.insert(2 * k + 1, sp.z)
    return points


class TestStackedRows:
    """Each row of the stacked kernels equals the one-point call at its point."""

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 0.5])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_corank_rows(self, n, rank_tol, monkeypatch):
        points = _mixed_stack(n)
        monkeypatch.setattr(singularity, "RANK_TOL", rank_tol)
        s, k, band, nu, nubar = _corank_stack(*_rows(points))
        for r, z in enumerate(points):
            ref = corank(z)
            assert np.array_equal(s[r], ref.singular_values)
            assert (k[r], nu[r], nubar[r], band[r]) == (
                ref.corank, ref.nu, ref.nubar, ref.inconclusive)
        # the stack holds singular rows, and at rank_tol 0.5 inconclusive ones
        assert np.any(nu + nubar > 0) and np.any(k > 0)
        assert np.any(band) == (rank_tol == 0.5)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_interlacing_rows(self, n):
        points = _mixed_stack(n)
        (lam, _), (bar, _) = _spectra_stack(*_rows(points))
        drop, bad = _interlacing_stack(lam, bar)
        strict = _chain_links(n)[3] > 0
        for r, z in enumerate(points):
            even, odd = spectra(z)
            assert np.array_equal(lam[r], even.values) and np.array_equal(bar[r], odd.values)
            ref = interlacing_check(z)
            assert np.count_nonzero(bad[r]) == len(ref.violations)
            assert drop[r][strict].min() == ref.min_strict_margin
            assert max(0.0, -drop[r][~strict].min()) == ref.max_weak_overshoot


class TestStackErrors:
    """A failing row raises the error the per-point loop meets first."""

    @staticmethod
    def _failing_stack(monkeypatch, tol):
        # rows of one draw sorted by what corank(z) raises at them at this degeneracy tolerance
        monkeypatch.setattr(spectral, "DEGENERACY_TOL", tol)
        q, p = random_points(np.random.default_rng(4), 3, 40)
        good, bad = [], []
        for qr, pr in zip(q, p):
            z = PhasePoint(qr, pr)
            try:
                corank(z)
                good.append(z)
            except TripleDegeneracyError as exc:
                bad.append((z, str(exc)))
        return good, bad

    @pytest.mark.parametrize("tol", [0.7, 0.9])
    def test_lowest_failing_row_raises(self, tol, monkeypatch):
        good, bad = self._failing_stack(monkeypatch, tol)
        (z3, message3), (z7, message7) = bad[:2]
        assert message3 != message7
        points = good[:3] + [z3] + good[3:6] + [z7] + good[6:9]
        with pytest.raises(TripleDegeneracyError, match=f"^{re.escape(message3)}$"):
            _corank_stack(*_rows(points))
        with pytest.raises(TripleDegeneracyError, match=f"^{re.escape(message3)}$"):
            _spectra_stack(*_rows(points))

    def test_even_class_before_odd(self, monkeypatch):
        # a point whose two classes both hold a triple raises the even one's
        _, bad = self._failing_stack(monkeypatch, 0.9)
        z, message = bad[0]
        signs = (SignVector.even(3), SignVector.odd(3))
        own = []
        for sign in signs:
            with pytest.raises(TripleDegeneracyError) as exc:
                decompose(build_lax(z, sign))
            own.append(str(exc.value))
        assert message == own[0] != own[1]
        with pytest.raises(TripleDegeneracyError, match=f"^{re.escape(own[0])}$"):
            _spectra_stack(*_rows([z]))


class TestOmegaPoint:
    def test_n3_spectra(self):
        om = omega_point(3)
        npt.assert_allclose(om.even_values, [2.0, -1.0, -1.0], atol=1e-15)
        npt.assert_allclose(om.odd_values, [1.0, 1.0, -2.0], atol=1e-15)

    def test_n4_spectra(self):
        om = omega_point(4)
        npt.assert_allclose(om.even_values, [2.0, 0.0, 0.0, -2.0], atol=1e-15)
        s = np.sqrt(2.0)
        npt.assert_allclose(om.odd_values, [s, s, -s, -s], atol=1e-15)

    def test_momentum_shift(self):
        a = omega_point(5, p0=0.0)
        b = omega_point(5, p0=1.3)
        npt.assert_allclose(b.even_values, a.even_values + 1.3)
        npt.assert_allclose(b.odd_values, a.odd_values + 1.3)

    def test_matches_numerical_spectra(self):
        for n in range(2, 9):
            om = omega_point(n, q0=0.7, p0=-0.2)
            lam = np.sort(np.linalg.eigvalsh(build_lax(om.z).entries))[::-1]
            bar = np.sort(np.linalg.eigvalsh(build_lax(om.z, SignVector.odd(n)).entries))[::-1]
            npt.assert_allclose(lam, om.even_values, atol=1e-12)
            npt.assert_allclose(bar, om.odd_values, atol=1e-12)


class TestFindSingular:
    def test_omega_seed_returns_immediately(self):
        om = omega_point(3)
        sp = find_singular(om.z, all_pair_targets(3))
        assert sp.iterations == 0
        npt.assert_array_equal(sp.z.q, om.z.q)

    def test_single_pair_n3(self):
        om = omega_point(3)
        target = PairTarget(True, 1)
        seed = perturbed_seed(om, [PairTarget(False, 1)], eps=1e-2)
        sp = find_singular(seed, [target])
        assert np.max(sp.residual_gaps) < 1e-10
        rep = corank(sp.z)
        assert rep.corank == 1 and rep.nubar == 1 and rep.nu == 0
        # the even-class gap stayed open
        vals = np.sort(np.linalg.eigvalsh(build_lax(sp.z).entries))[::-1]
        assert vals[1] - vals[2] > 1e-3

    def test_all_components_realised_n4(self):
        # every single-pair stratum and every pair of pairs is reachable
        om = omega_point(4)
        targets = all_pair_targets(4)
        assert len(targets) == 3
        for t in targets:
            rest = [u for u in targets if u != t]
            sp = find_singular(perturbed_seed(om, rest), [t])
            assert corank(sp.z).corank == 1
        for i in range(3):
            for j in range(i + 1, 3):
                keep = [targets[i], targets[j]]
                rest = [u for u in targets if u not in keep]
                sp = find_singular(perturbed_seed(om, rest), keep)
                rep = corank(sp.z)
                assert rep.corank == 2 and rep.theorem_holds

    def test_no_pair_to_open_seeds_at_the_equilibrium(self):
        # n = 2 has one target, so Sample.sigma1 opens none; lstsq used to get a (0,) matrix
        om = omega_point(2)
        assert perturbed_seed(om, []) is om.z
        found, missing, reason = Sample(2).sigma1
        assert (missing, reason) == ("", "")
        assert [sp.targets for sp in found] == [(PairTarget(True, 1),)]
        rep = corank(found[0].z)
        assert (rep.corank, rep.nu, rep.nubar) == (1, 0, 1) and rep.theorem_holds

    def test_collapse_detection(self):
        # seeding exactly at the equilibrium and asking for one pair keeps the
        # other pairs degenerate too
        om = omega_point(3)
        with pytest.raises(StratumCollapseError):
            find_singular(om.z, [PairTarget(True, 1)])

    def test_json_fields(self):
        om = omega_point(3)
        sp = find_singular(perturbed_seed(om, [PairTarget(False, 1)]), [PairTarget(True, 1)])
        data = sp.to_json_dict()
        assert data["target_pairs"] == ["odd:1"]
        assert len(data["frequencies"]) == 1


class TestTransverseFrequency:
    def test_n2_equilibrium_value(self):
        # the linearised relative oscillation of the two-particle chain
        om = omega_point(2)
        sp = find_singular(om.z, [PairTarget(True, 1)])
        w = transverse_frequency(sp, PairTarget(True, 1))
        assert abs(w) == pytest.approx(2.0, rel=1e-12)

    def test_n3_omega_values(self):
        om = omega_point(3)
        sp = find_singular(om.z, all_pair_targets(3))
        for t in all_pair_targets(3):
            w = transverse_frequency(sp, t)
            assert abs(w) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-10)

    def test_sign_flips_with_basis_swap_only(self):
        om = omega_point(3)
        sp = find_singular(om.z, all_pair_targets(3))
        t = PairTarget(True, 1)
        spec = decompose(build_lax(sp.z, SignVector.odd(3)))
        u1, u2 = spec.pair_vectors(t.positions(3))
        d12 = pairing_denominator(sp.z, True, u1, u2)
        d21 = pairing_denominator(sp.z, True, u2, u1)
        assert d12 == pytest.approx(-d21)
        assert abs(d12) > 1e-6

    def test_pairing_m_independent(self):
        rng = np.random.default_rng(1)
        om = omega_point(4, p0=float(rng.uniform(-1, 1)))
        for t in all_pair_targets(4):
            sign = SignVector.odd(4) if t.odd_class else SignVector.even(4)
            spec = decompose(build_lax(om.z, sign))
            u1, u2 = spec.pair_vectors(t.positions(4))
            denom = pairing_denominator(om.z, t.odd_class, u1, u2)
            b = om.z.couplings()
            for m in range(4):
                mp = (m + 1) % 4
                via = -4 * b[m] * sign.eps[m] * (u1[mp] * u2[m] - u1[m] * u2[mp])
                assert denom == pytest.approx(via, abs=1e-12)

    def test_requires_degenerate_pair(self):
        rng = np.random.default_rng(2)
        z = random_point(rng, 3)
        with pytest.raises(ValueError):
            transverse_frequency(z, PairTarget(True, 1))


def assert_hessian_within_bounds(rep):
    # the registry does not check the minimal polynomial yet; bound it at the same tolerance
    assert rep.residual_full < TRANSVERSE_TOL, rep
    assert rep.omega_relative_error < TRANSVERSE_TOL, rep
    assert rep.trace_K_squared < 0.0, rep
    assert rep.minimal_polynomial_residual < TRANSVERSE_TOL, rep


def assert_brackets_canonical(rep):
    assert rep.zero_max < BRACKET_TOL, rep
    assert float(np.max(np.abs(rep.ratio_errors))) < RATIO_TOL, rep
    assert rep.m_independence_max < M_INDEPENDENCE_TOL, rep
    assert rep.mixed_parity_max < BRACKET_TOL, rep
    assert rep.conjugate_formula_residual < BRACKET_TOL, rep


class TestHessianStructure:
    def test_found_point_n3(self):
        om = omega_point(3)
        sp = find_singular(perturbed_seed(om, [PairTarget(False, 1)]), [PairTarget(True, 1)])
        rep = hessian_structure_check(sp, PairTarget(True, 1))
        assert rep.residual_full < 1e-8
        assert rep.omega_relative_error < 1e-8
        assert rep.trace_K_squared < 0
        assert rep.minimal_polynomial_residual < 1e-8
        assert_hessian_within_bounds(rep)

    def test_omega_point_rank_three(self):
        # at the n = 3 equilibrium the simple-eigenvalue dyad aligns with dtau,
        # so the Hessian has rank 3 while the tau coefficient shifts
        om = omega_point(3)
        sp = find_singular(om.z, all_pair_targets(3))
        rep = hessian_structure_check(sp, PairTarget(True, 1))
        assert rep.residual_full < 1e-8
        assert rep.minimal_polynomial_residual < 1e-8
        assert_hessian_within_bounds(rep)

    def test_trace_matches_frequency(self):
        om = omega_point(3)
        sp = find_singular(perturbed_seed(om, [PairTarget(True, 1)]), [PairTarget(False, 1)])
        rep = hessian_structure_check(sp, PairTarget(False, 1))
        assert rep.omega_formula == sp.frequencies[0]
        npt.assert_allclose(rep.trace_K_squared, -2.0 * rep.omega_formula**2, rtol=1e-6)
        omega_trace = np.sqrt(-0.5 * rep.trace_K_squared)
        assert rep.omega_relative_error == pytest.approx(
            abs(omega_trace - abs(rep.omega_formula)) / abs(rep.omega_formula), rel=1e-12)
        # no elliptic pair without Tr K^2 < 0
        assert replace(rep, trace_K_squared=0.0).omega_relative_error == 1.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_sigma1_target_is_elliptic(self, n):
        # the n = 8 targets are within bounds too: no eigen-solve of the ill-conditioned K
        found, missing, _ = Sample(n).sigma1
        assert not missing
        for sp in found:
            rep = hessian_structure_check(sp, sp.targets[0])
            assert rep.minimal_polynomial_residual < TRANSVERSE_TOL, rep
            assert rep.omega_relative_error < TRANSVERSE_TOL, rep
            assert rep.trace_K_squared < 0.0, rep


class TestBracketRelations:
    def test_omega_points(self):
        for n in (2, 3, 4, 5):
            rep = bracket_relations_check(omega_point(n, p0=0.3).z)
            assert rep.zero_max < 1e-10
            npt.assert_allclose(rep.ratio_errors, 0.0, atol=1e-12)
            assert rep.m_independence_max < 1e-12
            assert rep.mixed_parity_max < 1e-12
            assert rep.conjugate_formula_residual < 1e-12
            assert_brackets_canonical(rep)

    def test_found_sigma1_points(self):
        om = omega_point(4)
        targets = all_pair_targets(4)
        for t in targets:
            rest = [u for u in targets if u != t]
            sp = find_singular(perturbed_seed(om, rest), [t])
            assert_brackets_canonical(bracket_relations_check(sp))

    def test_table_is_antisymmetric(self):
        rep = bracket_relations_check(omega_point(4).z)
        npt.assert_allclose(rep.table, -rep.table.T, atol=1e-15)


class TestGeometricWitnesses:
    def test_tangent_space_symplectic(self):
        om3 = omega_point(3)
        targets = all_pair_targets(3)
        for t in targets:
            rest = [u for u in targets if u != t]
            sp = find_singular(perturbed_seed(om3, rest), [t])
            assert tangent_symplectic_check(sp) > TANGENT_TOL

    def test_null_vector_parallel_to_annihilator(self):
        om = omega_point(3)
        sp = find_singular(perturbed_seed(om, [PairTarget(False, 1)]), [PairTarget(True, 1)])
        rep = corank(sp.z)
        assert rep.corank == 1
        spec = decompose(build_lax(sp.z, SignVector.odd(3)))
        ann = annihilator(spec, 0)
        c = ann.coefficients / np.linalg.norm(ann.coefficients)
        null = rep.null_basis[0] / np.linalg.norm(rep.null_basis[0])
        angle = min(np.linalg.norm(null - c), np.linalg.norm(null + c))
        assert angle < 1e-6

    def test_regular_point_has_no_tangent_data(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            tangent_symplectic_check(random_point(rng, 3))
