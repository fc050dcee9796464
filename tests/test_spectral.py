import numpy as np
import numpy.testing as npt
import pytest

import todalax.spectral as spectral
from todalax.lax import PhasePoint, SignVector, build_lax
from todalax.spectral import (
    EigensolverError,
    TripleDegeneracyError,
    _canonical_pair_basis,
    _decompose_stack,
    _interlacing_stack,
    annihilator,
    decompose,
    interlacing_chain,
    interlacing_check,
    spectra,
)
from todalax.singularity import (
    PairTarget,
    _block_coordinates,
    _pair_forms,
    all_pair_targets,
    find_singular,
    omega_point,
    pair_plane_duals,
    perturbed_seed,
)


def random_point(rng, n, scale=1.0):
    return PhasePoint(scale * rng.standard_normal(n), scale * rng.standard_normal(n))


class TestDecompose:
    def test_even_origin_pairing(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        spec = decompose(build_lax(z))
        npt.assert_allclose(spec.values, [2.0, -1.0, -1.0], atol=1e-14)
        assert spec.degenerate_pairs == ((1, 2),)

    def test_odd_origin_pairing(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        spec = decompose(build_lax(z, SignVector.odd(3)))
        npt.assert_allclose(spec.values, [1.0, 1.0, -2.0], atol=1e-14)
        assert spec.degenerate_pairs == ((0, 1),)

    def test_generic_point_no_pairs(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            spec = decompose(build_lax(random_point(rng, n)))
            assert spec.degenerate_pairs == ()

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8):
            for _ in range(2500):
                z = random_point(rng, n)
                spec = decompose(build_lax(z))
                L = build_lax(z).entries
                res = np.linalg.norm(L @ spec.vectors - spec.vectors * spec.values, axis=0)
                assert np.all(res <= 1e-10 * (1.0 + np.abs(spec.values)))
                assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 1e-10

    def test_total_degeneracy_bounded(self):
        # nu + nubar never exceeds n - 1, with equality at the equilibria
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            om = omega_point(n)
            nu = len(decompose(build_lax(om.z)).degenerate_pairs)
            nubar = len(decompose(build_lax(om.z, SignVector.odd(n))).degenerate_pairs)
            assert nu + nubar == n - 1
            for _ in range(100):
                z = random_point(rng, n)
                nu = len(decompose(build_lax(z)).degenerate_pairs)
                nubar = len(decompose(build_lax(z, SignVector.odd(n))).degenerate_pairs)
                assert nu + nubar <= n - 1

    def test_pair_positions_follow_parity_rule(self):
        # even-class pairs occupy (even, even+1) 1-indexed slots, odd-class (odd, odd+1)
        for n in range(2, 9):
            om = omega_point(n)
            spec = decompose(build_lax(om.z))
            for (i, _) in spec.degenerate_pairs:
                assert (i + 1) % 2 == 0
            specb = decompose(build_lax(om.z, SignVector.odd(n)))
            for (i, _) in specb.degenerate_pairs:
                assert (i + 1) % 2 == 1

    def test_triple_degeneracy_aborts(self):
        with pytest.raises(TripleDegeneracyError):
            decompose(np.eye(4))

    def test_deterministic_pair_basis(self):
        om = omega_point(5)
        a = decompose(build_lax(om.z))
        b = decompose(build_lax(om.z))
        npt.assert_array_equal(a.vectors, b.vectors)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_near_degenerate_pair_is_flagged_not_rejected(self):
        # a gap below the degeneracy threshold but far above the solver's
        # accuracy: the pair rotation may not trip the eigensolver check
        Q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((4, 4)))
        L = Q @ np.diag([2.0, 1.0 + 2e-9, 1.0, -1.0]) @ Q.T
        spec = decompose(0.5 * (L + L.T))
        assert spec.degenerate_pairs == ((1, 2),)


class TestSpectra:
    def test_matches_decompose_bitwise(self):
        rng = np.random.default_rng(8)
        points = [random_point(rng, n, 0.35) for n in (2, 3, 5, 8)]
        points += [omega_point(n, p0=0.3).z for n in (3, 4, 7)]
        for z in points:
            for spec, sign in zip(spectra(z), (SignVector.even(z.n), SignVector.odd(z.n))):
                ref = decompose(build_lax(z, sign))
                npt.assert_array_equal(spec.values, ref.values)
                npt.assert_array_equal(spec.vectors, ref.vectors)
                npt.assert_array_equal(spec.gaps, ref.gaps)
                assert spec.degenerate_pairs == ref.degenerate_pairs
                npt.assert_array_equal(spec.sign.eps, sign.eps)

    def test_pair_basis_of_open_pair(self):
        # an unflagged pair gets the canonical basis of its raw eigenvectors
        rng = np.random.default_rng(9)
        z = omega_point(5).z.displaced(1e-3 * rng.standard_normal(10))
        for spec, sign in zip(spectra(z), (SignVector.even(5), SignVector.odd(5))):
            assert spec.degenerate_pairs == ()
            _, raw = np.linalg.eigh(build_lax(z, sign).entries)
            raw = raw[:, ::-1]
            for i in range(4):
                got = spec.pair_basis((i, i + 1))
                want = _canonical_pair_basis(raw[:, i], raw[:, i + 1])
                npt.assert_array_equal(got[0], want[0])
                npt.assert_array_equal(got[1], want[1])

    def test_pair_basis_of_flagged_pair(self):
        even, odd = spectra(omega_point(4).z)
        for spec in (even, odd):
            for pair in spec.degenerate_pairs:
                u1, u2 = spec.pair_basis(pair)
                v1, v2 = spec.pair_vectors(pair)
                npt.assert_array_equal(u1, v1)
                npt.assert_array_equal(u2, v2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_canonical_basis_matches_the_norm_version(self, n):
        # pairs that vanish at coordinate 0, exactly or to 1e-10, take the k != 0 branch
        # (||P[:, 0]|| < 1e-8); at n = 2 an orthonormal pair spans the plane, so only the
        # generic pairs, with k = 0, are there
        rng = np.random.default_rng(20 + n)
        pairs = []
        for scale in ([0.0, 1e-10] if n > 2 else []) + [1.0] * 3:
            A = rng.standard_normal((n, 2))
            A[0] *= scale
            pairs.append(np.linalg.qr(A)[0].T)
        for v1, v2 in pairs:
            want = _norm_canonical_pair_basis(v1, v2)
            got = _canonical_pair_basis(v1, v2)
            assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
            W = np.column_stack(got)
            npt.assert_allclose(W.T @ W, np.eye(2), atol=1e-14)
            npt.assert_allclose(W @ W.T, np.outer(v1, v1) + np.outer(v2, v2), atol=1e-14)
        taken = [np.linalg.norm((np.outer(v1, v1) + np.outer(v2, v2))[:, 0]) < 1e-8
                 for v1, v2 in pairs]
        assert taken == ([True, True] if n > 2 else []) + [False] * 3


    def test_canonical_basis_takes_the_lowest_of_tied_columns(self):
        # the span of an n = 8 Fourier pair: the columns of P - w1 w1^T tie in norm at
        # positions 1, 3, 5, 7 with alternating signs, so that any basis of the span, to
        # rounding, fixes the sign by position 1
        r = np.arange(8)
        modes = np.stack([np.cos(np.pi * r / 2), np.sin(np.pi * r / 2)]) / 2.0
        want = _canonical_pair_basis(*modes)
        npt.assert_allclose(want, modes, atol=1e-15)
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.0, 2.0 * np.pi, 10):
            turn = np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
            got = _canonical_pair_basis(*(turn @ modes + 1e-15 * rng.standard_normal((2, 8))))
            npt.assert_allclose(got, want, atol=1e-14)
        # a column off the largest norm by more than the relative 1e-8 is not tied
        v2 = modes[1] * (1.0 + 1e-6 * (r == 3))
        assert _canonical_pair_basis(modes[0], v2 / np.linalg.norm(v2))[1][3] > 0


def _norm_canonical_pair_basis(v1, v2):
    """``spectral._canonical_pair_basis`` with np.linalg.norm for its norms."""
    def leading(norms):
        return int(np.argmax(norms >= (1.0 - 1e-8) * norms.max()))

    P = np.outer(v1, v1) + np.outer(v2, v2)
    k = 0
    if np.linalg.norm(P[:, 0]) < 1e-8:
        k = leading(np.linalg.norm(P, axis=0))
    w1 = P[:, k] / np.linalg.norm(P[:, k])
    Q = P - np.outer(w1, w1)
    j = leading(np.linalg.norm(Q, axis=0))
    w2 = Q[:, j] / np.linalg.norm(Q[:, j])
    if w2[j] < 0:
        w2 = -w2
    return w1, w2


class TestDecomposeStack:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_rows_match_one_row_decompose(self, n):
        # a loop's grid around a sigma_1 point, with the point itself (one
        # flagged pair) in the middle of the stack
        target = PairTarget(True, 1)
        rest = [t for t in all_pair_targets(n) if t != target]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [target])
        v1, v2 = pair_plane_duals(sp, target)
        angles = 2.0 * np.pi * np.linspace(0.0, 1.0, 33)
        points = [sp.z.displaced(2e-3 * (np.cos(a) * v1 + np.sin(a) * v2)) for a in angles]
        points.insert(16, sp.z)
        for sign in (SignVector.even(n), SignVector.odd(n)):
            mats = [build_lax(z, sign) for z in points]
            vals, vecs, gaps, pairs, errors = _decompose_stack(np.array([L.entries for L in mats]))
            assert errors == {}
            for r, L in enumerate(mats):
                ref = decompose(L)
                assert np.array_equal(vals[r], ref.values)
                assert np.array_equal(vecs[r], ref.vectors)
                assert np.array_equal(gaps[r], ref.gaps)
                assert pairs[r] == ref.degenerate_pairs
            assert len(pairs[16]) == (sign.parity() < 0)  # the odd class's pair is flagged

    def test_errors_stay_in_their_rows(self):
        rng = np.random.default_rng(3)
        good = build_lax(random_point(rng, 4)).entries
        triple = np.diag([1.0, 1.0, 1.0, 0.0])
        stack = np.array([good, triple, np.full((4, 4), np.inf), good])
        vals, vecs, _, _, errors = _decompose_stack(stack)
        assert sorted(errors) == [1, 2]
        with pytest.raises(TripleDegeneracyError) as triple_error:
            decompose(triple)
        with pytest.raises(EigensolverError) as solver_error:
            decompose(np.full((4, 4), np.inf))
        assert str(errors[1]) == str(triple_error.value)
        assert str(errors[2]) == str(solver_error.value)
        ref = decompose(good)
        for r in (0, 3):
            assert np.array_equal(vals[r], ref.values) and np.array_equal(vecs[r], ref.vectors)


def _reference_flag_gaps(values, errors):
    """``spectral._flag_gaps`` as it was, with a triple mask and a loop over flagged rows."""
    gaps = values[:, :-1] - values[:, 1:]
    threshold = spectral.DEGENERACY_TOL * np.maximum(1.0, values[:, 0] - values[:, -1])
    small = gaps < threshold[:, None]
    pairs = [()] * len(values)
    if np.count_nonzero(small):
        for r, i in zip(*np.nonzero(small[:, :-1] & small[:, 1:])):
            errors.setdefault(int(r), TripleDegeneracyError(
                f"eigenvalues {i}..{i + 2} all within {threshold[r]:.3e}; "
                "check the degeneracy tolerance and the input matrix"
            ))
        for r in np.flatnonzero(small.any(axis=1)):
            pairs[r] = tuple((int(i), int(i) + 1) for i in np.flatnonzero(small[r]))
    return gaps, pairs


class TestFlagGaps:
    """``_flag_gaps`` against its former masks: gaps, pairs and errors alike."""

    @staticmethod
    def assert_same(values, errors=()):
        got_errors, want_errors = dict(errors), dict(errors)
        got = spectral._flag_gaps(values, got_errors)
        want = _reference_flag_gaps(values, want_errors)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert all(type(a) is int for row in got[1] for pair in row for a in pair)
        assert {r: (type(e), str(e)) for r, e in got_errors.items()} == \
            {r: (type(e), str(e)) for r, e in want_errors.items()}
        return got[1], got_errors

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_rows(self, n):
        # descending rows, about a third of their gaps closed below the threshold, so that
        # rows hold no pair, pairs, triples and longer runs; some rows carry an error already
        rng = np.random.default_rng(n)
        flagged = triples = 0
        for _ in range(20):
            steps = rng.exponential(1.0, (30, n - 1)) * rng.choice(
                [1.0, 1e-10, 0.0], (30, n - 1), p=[0.6, 0.2, 0.2])
            values = rng.uniform(-3, 3, (30, 1)) - np.concatenate(
                (np.zeros((30, 1)), np.cumsum(steps, axis=1)), axis=1)
            pairs, errors = self.assert_same(values, {3: EigensolverError("earlier")})
            flagged += sum(map(bool, pairs))
            triples += len(errors) - 1
        assert flagged > 100 and (n < 3 or triples > 20)

    def test_planted_triples(self):
        values = np.array([
            [3.0, 1.0, 0.0, -1.0, -2.0],  # nothing flagged
            [3.0, 1.0, 1.0, -1.0, -2.0],  # one pair
            [3.0, 3.0, 0.0, -2.0, -2.0],  # two pairs
            [3.0, 1.0, 1.0, 1.0, -2.0],  # a triple
            [1.0, 1.0, 1.0, 1.0, -2.0],  # a quadruple: the lowest triple's message
            [2.0, 2.0, 2.0, 0.0, 0.0],  # a triple and a pair
            [2.0, 2.0, 2.0, 0.0, 0.0],  # ... in a row with an error already
            [1.0, 1.0, 1.0, 1.0, 1.0],  # all equal: range 0, threshold DEGENERACY_TOL
        ])
        pairs, errors = self.assert_same(values, {6: EigensolverError("earlier")})
        assert pairs[:3] == [(), ((1, 2),), ((0, 1), (3, 4))]
        assert sorted(errors) == [3, 4, 5, 6, 7]
        assert str(errors[4]).startswith("eigenvalues 0..2 all within ")
        assert str(errors[6]) == "earlier"


class TestInterlacing:
    def test_chain_layout_small_n(self):
        assert interlacing_chain(2) == [("L", 0), ("B", 0), ("B", 1), ("L", 1)]
        assert interlacing_chain(3) == [
            ("L", 0), ("B", 0), ("B", 1), ("L", 1), ("L", 2), ("B", 2),
        ]

    def test_omega_chain_n3(self):
        # 2 > 1 = 1 > -1 = -1 > -2
        rep = interlacing_check(omega_point(3).z)
        assert rep.passed
        assert rep.max_weak_overshoot <= 1e-14

    def test_momentum_shift_preserves_pattern(self):
        rng = np.random.default_rng(2)
        z = random_point(rng, 5)
        shifted = PhasePoint(z.q, z.p + 3.7)
        assert interlacing_check(z).passed
        assert interlacing_check(shifted).passed

    def test_random_sweep(self):
        rng = np.random.default_rng(3)
        for n in range(3, 9):
            for _ in range(200):
                rep = interlacing_check(random_point(rng, n))
                assert rep.passed, rep.violations


def _reference_interlacing(n, lam, bar):
    """The per-link loop interlacing_check ran before the stacked kernel, kept as the reference."""
    scale = max(1.0, float(lam[0] - lam[-1]))
    chain = interlacing_chain(n)
    by_matrix = {"L": lam, "B": bar}
    violations = []
    min_strict = np.inf
    max_weak = 0.0
    for (ta, ia), (tb, ib) in zip(chain[:-1], chain[1:]):
        a, b = by_matrix[ta][ia], by_matrix[tb][ib]
        if ta == tb:
            overshoot = b - a
            max_weak = max(max_weak, overshoot)
            if overshoot > spectral.INTERLACING_TOL * scale:
                violations.append(f"{ta}[{ia}] >= {tb}[{ib}] violated by {overshoot:.3e}")
        else:
            margin = a - b
            min_strict = min(min_strict, margin)
            if margin < spectral.INTERLACING_TOL * scale:
                violations.append(f"{ta}[{ia}] > {tb}[{ib}] violated, margin {margin:.3e}")
    return tuple(violations), float(min_strict), float(max_weak)


class TestInterlacingStack:
    # rows (lam, bar, violations) at n = 3, chain L0 > B0 >= B1 > L1 >= L2 > B2;
    # every lam has range 4, so the tolerance is 4e-12
    PLANTED = [
        ([3.0, 0.0, -1.0], [2.0, 1.0, -2.0], 0),
        ([3.0, 0.0, -1.0], [3.5, 1.0, -2.0], 1),  # strict L0 > B0
        ([3.0, 0.0, -1.0], [1.0, 1.5, -2.0], 1),  # weak B0 >= B1
        ([3.0, -1.5, -1.0], [2.0, 1.0, -2.0], 1),  # weak L1 >= L2
        ([3.0, 0.0, -1.0], [3.0, 1.0, -1.0], 2),  # equal strict pairs L0, B0 and L2, B2
        ([3.0, 0.0, -1.0], [2.0, 2.0, -2.0], 0),  # an equal weak pair holds
        ([3.0, 0.0, -1.0], [2.0, 2.0 + 5e-12, -2.0], 1),  # weak overshoot above the tolerance
        ([3.0, 0.0, -1.0], [2.0, 2.0 + 3e-12, -2.0], 0),  # ... and below it
    ]

    def test_counts_planted_violations(self):
        lam, bar, counts = (np.array(column) for column in zip(*self.PLANTED))
        _, bad = _interlacing_stack(lam, bar)
        assert bad.sum(axis=1).tolist() == counts.tolist()
        for r in range(len(counts)):
            assert counts[r] == len(_reference_interlacing(3, lam[r], bar[r])[0])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_report_matches_per_link_loop(self, n, monkeypatch):
        # random descending rows, some pushed out of order, through interlacing_check
        rng = np.random.default_rng(n)
        z = omega_point(n).z
        violated = 0
        for k in range(40):
            lam, bar = -np.sort(-rng.standard_normal((2, n)), axis=1)
            if k % 2:
                lam[rng.integers(n)] += rng.choice([1e-13, 0.5])
            fake = ((lam[None], [()]), (bar[None], [()]))
            monkeypatch.setattr(spectral, "_spectra_stack", lambda t, fake=fake: fake)
            rep = interlacing_check(z)
            assert (rep.violations, rep.min_strict_margin, rep.max_weak_overshoot) == \
                _reference_interlacing(n, lam, bar)
            _, bad = _interlacing_stack(lam[None], bar[None])
            assert np.count_nonzero(bad) == len(rep.violations)
            violated += bool(rep.violations)
        assert violated >= 10


class TestBlockCoordinates:
    """The finder's block coordinates (xi, eta) in a pair basis frozen at n = 3's equilibrium."""

    def setup_method(self):
        self.om = omega_point(3)
        even, odd = spectra(self.om.z)
        self.even_pair, self.odd_pair = even.degenerate_pairs[0], odd.degenerate_pairs[0]
        self.specs = (even, odd)
        self.bases = (even.pair_basis(self.even_pair), odd.pair_basis(self.odd_pair))

    def coords(self, z):
        return np.array([
            x for odd in (False, True) for x in _block_coordinates(z, odd, *self.bases[odd])
        ])

    def test_exact_at_base_point(self):
        npt.assert_allclose(self.coords(self.om.z), 0.0, atol=1e-14)
        even, odd = self.specs
        assert even.pair_value(self.even_pair) == pytest.approx(-1.0, abs=1e-14)
        assert odd.pair_value(self.odd_pair) == pytest.approx(1.0, abs=1e-14)

    def test_first_order_accuracy(self):
        # frozen-basis coordinates match their differentials to second order
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)

        def coords(delta):
            return self.coords(self.om.z.displaced(delta * v))

        d1, d2 = 1e-3, 5e-4
        c1, c2 = coords(d1), coords(d2)
        # halving the step must shrink the quadratic defect by about 4
        defect = np.abs(c1 / d1 - c2 / d2)  # = O(delta)
        assert np.all(defect < 5e-3)
        c3 = coords(2.5e-4)
        defect2 = np.abs(c2 / 5e-4 - c3 / 2.5e-4)
        assert np.all(defect2 < 0.6 * defect + 1e-12)
        # and the first-order term is the differential the finder steps with
        slope = np.array([
            form @ v
            for odd in (False, True)
            for form in _pair_forms(self.om.z, odd, *self.bases[odd])[:2]
        ])
        npt.assert_allclose(c3 / 2.5e-4, slope, atol=2e-3)

    def test_gap_matches_block_radius(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        delta = 1e-4
        z = self.om.z.displaced(delta * v)
        xi, eta = _block_coordinates(z, False, *self.bases[False])
        vals = np.sort(np.linalg.eigvalsh(build_lax(z).entries))[::-1]
        gap = vals[1] - vals[2]
        npt.assert_allclose(gap, 2.0 * np.hypot(xi, eta), atol=50 * delta**2)


class TestAnnihilator:
    def test_odd_origin_polynomial(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        spec = decompose(build_lax(z, SignVector.odd(3)))
        ann = annihilator(spec, 0)
        npt.assert_allclose(ann.coefficients, [-2.0, 1.0, 1.0], atol=1e-12)
        assert ann.derivative_at_root == pytest.approx(3.0)

    def test_even_origin_polynomial(self):
        z = PhasePoint(np.zeros(3), np.zeros(3))
        spec = decompose(build_lax(z))
        ann = annihilator(spec, 0)
        npt.assert_allclose(ann.coefficients, [-2.0, -1.0, 1.0], atol=1e-12)
        assert ann.derivative_at_root == pytest.approx(-3.0)

    def test_annihilates_matrix(self):
        for n in range(2, 9):
            om = omega_point(n, p0=0.4)
            for odd in (False, True):
                sign = SignVector.odd(n) if odd else SignVector.even(n)
                lax = build_lax(om.z, sign)
                L = lax.entries
                spec = decompose(lax)
                for k in range(len(spec.degenerate_pairs)):
                    ann = annihilator(spec, k)
                    acc = np.zeros((n, n))
                    power = np.eye(n)
                    for c in ann.coefficients:
                        acc += c * power
                        power = power @ L
                    assert np.max(np.abs(acc)) < 1e-8 * max(
                        1.0, np.max(np.abs(ann.coefficients))
                    )

    def test_derivative_vanishes_at_other_pairs(self):
        om = omega_point(5)
        spec = decompose(build_lax(om.z))
        assert len(spec.degenerate_pairs) == 2
        ann = annihilator(spec, 0)
        other = spec.pair_value(spec.degenerate_pairs[1])
        assert abs(ann.derivative(other)) < 1e-10
        assert abs(ann.derivative_at_root) > 0.1

    def test_rejects_non_degenerate_index(self):
        rng = np.random.default_rng(6)
        spec = decompose(build_lax(random_point(rng, 4)))
        with pytest.raises(ValueError):
            annihilator(spec, 0)
