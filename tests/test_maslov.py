import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest

import todalax.maslov as maslov
from todalax.lax import PhaseDomainError, PhasePoint, _first_outside
from todalax.spectral import EigensolverError, _decompose_stack as decompose_stack
from todalax.verify import Sample
from todalax.singularity import (
    PairTarget,
    all_pair_targets,
    find_singular,
    omega_point,
    pair_plane_duals,
    perturbed_seed,
)
from todalax.maslov import (
    CALIBRATION_SIGN,
    FRAME_GRAM_TOL,
    GRID_CHUNK,
    MAX_EVALUATIONS,
    ClosedCurve,
    DiskGeometryError,
    DiskSpec,
    LagrangianFrameError,
    RegularityError,
    TransportError,
    calibration_index,
    check_holonomy_theorem,
    enclosure_count_check,
    maslov_index,
    oscillator_angle_loop,
    toda_frame,
)


@pytest.fixture(scope="module")
def sigma1_n3():
    om = omega_point(3)
    return find_singular(
        perturbed_seed(om, [PairTarget(False, 1)], eps=1e-2), [PairTarget(True, 1)]
    )


@pytest.fixture(scope="module")
def coarse_loops():
    """Circles around the n = 5 and n = 8 single-pair points: 256 samples, then 4, 5, 6.

    The coarse circles start with steps too long for the walkers, which must
    bisect to reach the fine circle's answer.
    """
    loops = []
    for n, target in [(n, t) for n in (5, 8) for t in all_pair_targets(n)]:
        rest = [t for t in all_pair_targets(n) if t != target]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [target])
        fine = ClosedCurve.around_pair(sp, target, radius=2e-3)
        coarse = [ClosedCurve.around_pair(sp, target, radius=2e-3, initial_samples=s)
                  for s in (4, 5, 6)]
        loops.append((fine, coarse))
    return loops


def _holonomy(curve):
    """The holonomy side of the one walk around the curve."""
    return check_holonomy_theorem(curve).holonomy


def _constant(z: PhasePoint):
    """The stacked map of the loop that stays at z."""
    v = z.as_vector()
    return lambda ts: np.tile(v, (len(ts), 1))


class TestClosedCurve:
    def test_rejects_open_sample_list(self):
        pts = [PhasePoint(np.array([0.1 * k, 0.0]), np.zeros(2)) for k in range(4)]
        with pytest.raises(ValueError):
            ClosedCurve.from_samples(pts)

    def test_sample_interpolation(self):
        pts = [
            PhasePoint(np.array([0.0, 0.0]), np.array([0.0, 0.0])),
            PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            PhasePoint(np.array([0.0, 0.0]), np.array([0.0, 0.0])),
        ]
        curve = ClosedCurve.from_samples(pts)
        mid = curve.point_at(0.25)
        npt.assert_allclose(mid.q, [0.5, 0.0])
        npt.assert_allclose(curve.point_at(1.0).as_vector(), curve.point_at(0.0).as_vector())

    @pytest.mark.parametrize("samples", [0, 1, -4, 2.5, 3.0, True, "4", None])
    def test_rejects_too_few_or_non_integer_samples(self, samples):
        # a walk of fewer than two steps never leaves its start point
        z = PhasePoint(np.array([0.5, -0.1]), np.zeros(2))
        with pytest.raises(ValueError, match="initial_samples must be an integer of at least 2"):
            ClosedCurve(_constant(z), samples)
        with pytest.raises(ValueError, match="at least 2"):
            ClosedCurve.circle(z, np.eye(4)[0], np.eye(4)[2], 0.1, initial_samples=samples)

    def test_accepts_integer_samples_from_two(self):
        z = PhasePoint(np.array([0.5, -0.1]), np.zeros(2))
        for samples in (2, np.int64(3)):
            assert ClosedCurve(_constant(z), samples).initial_samples == samples

    @pytest.mark.parametrize("ends", [
        [[0.5, -0.1, 0.0, 0.0]] * 2,
        np.zeros((2, 4), dtype=int),
        np.zeros((2, 4), dtype=np.float32),
        np.zeros((2, 5)),
        np.zeros((2, 2)),
        np.zeros((3, 4)),
        np.zeros(4),
        np.zeros((2, 4, 1)),
        np.full((2, 4), np.nan),
        np.array([[0.5, -0.1, 0.0, np.inf]] * 2),
    ], ids=["list", "int", "float32", "odd width", "n=1", "three rows", "1-d", "3-d", "nan",
            "inf"])
    def test_rejects_rows_other_than_a_finite_float_pair(self, ends):
        # the map is the caller's: its rows at t = 0 and 1 are checked before any walk
        with pytest.raises(ValueError, match=r"^rows must map ts = \[0, 1\] to a finite float "
                                             r"array of shape \(2, 2n\) with n >= 2, got "):
            ClosedCurve(lambda ts: ends, 8)

    def test_rejects_open_or_off_domain_ends(self):
        z = PhasePoint(np.array([0.5, -0.1]), np.zeros(2))
        with pytest.raises(ValueError, match=r"^curve is not closed: endpoint mismatch 1\.0+e-06$"):
            ClosedCurve(lambda ts: z.as_vector() + 1e-6 * ts[:, None], 8)
        off = np.array([[700.0, 0.0, 0.0, 0.0]] * 2)
        with pytest.raises(PhaseDomainError, match="^coupling b_1 overflows"):
            ClosedCurve(lambda ts: off, 8)

    @pytest.mark.parametrize("orientation", [0, 2, -2, 1.7, 1.0, True, "1", None])
    def test_rejects_orientation_other_than_plus_or_minus_one(self, sigma1_n3, orientation):
        # the disk's orientation is the sign of its sigma; 0 would drop the disk from the count
        with pytest.raises(ValueError, match=r"orientation must be \+1 or -1"):
            DiskSpec(sigma1_n3, orientation=orientation)

    def test_reversed_traversal(self):
        z0 = PhasePoint(np.array([0.4, -0.4]), np.zeros(2))
        v1, v2 = np.eye(4)[0], np.eye(4)[2]
        curve = ClosedCurve.circle(z0, v1, v2, 0.1)
        rev = curve.reversed()
        npt.assert_allclose(
            curve.point_at(0.25).as_vector(), rev.point_at(0.75).as_vector(), atol=1e-15
        )


# The scalar formulas the library's curves evaluated one t at a time,
# before they became stacked maps; the stacked rows must equal them bit for bit.

def _circle_at(zc, v1, v2, radius, orientation, t):
    a = 2.0 * np.pi * t * orientation
    return zc + radius * (np.cos(a) * v1 + np.sin(a) * v2)


def _polyline_at(Z, t):
    m = len(Z) - 1
    s = min(max(t, 0.0), 1.0) * m
    k = min(int(np.floor(s)), m - 1)
    w = s - k
    return (1.0 - w) * Z[k] + w * Z[k + 1]


def _oscillator_at(n, t):
    q = np.ones(n)
    p = np.zeros(n)
    a = 2.0 * np.pi * t
    q[0] = np.cos(a)
    p[0] = -np.sin(a)
    return np.concatenate([q, p])


class TestStackedRows:
    """The library's curves are stacked maps whose rows are the scalar formulas' bit for bit."""

    @staticmethod
    def assert_rows(curve, ts, at):
        expected = np.array([at(t) for t in ts])
        rows = curve.rows(np.asarray(ts, float))
        assert _first_outside(*np.hsplit(rows, 2)) == (len(ts), None)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        for t, row in zip(ts[::7], expected[::7]):
            assert curve.point_at(t).as_vector().tobytes() == row.tobytes()

    @staticmethod
    def times(rng):
        # the grid of 256 steps, its midpoints and random t
        grid = np.linspace(0.0, 1.0, 257)
        return np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), rng.uniform(0.0, 1.0, 64)])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_circle(self, n):
        rng = np.random.default_rng(n)
        zc = 0.35 * rng.standard_normal(2 * n)
        v1, v2 = np.linalg.qr(rng.standard_normal((2 * n, 2)))[0].T
        ts = self.times(rng)
        for radius in (1e-3, 5e-2, 1.0):
            curve = ClosedCurve.circle(PhasePoint.from_vector(zc), v1, v2, radius)
            at = lambda t: _circle_at(zc, v1, v2, radius, 1, t)
            self.assert_rows(curve, ts, at)
            # the one way to walk a circle backwards
            self.assert_rows(curve.reversed(), ts, lambda t: at(1.0 - t))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_polyline(self, n):
        rng = np.random.default_rng(100 + n)
        Z = 0.35 * rng.standard_normal((6, 2 * n))
        Z[-1] = Z[0]
        curve = ClosedCurve.from_samples([PhasePoint.from_vector(z) for z in Z])
        m = len(Z) - 1
        # knots, both ends, clamped t and the walk's samples
        ts = np.concatenate([np.arange(m + 1) / m, [0.0, 1.0, -0.3, -1e-300, 1.0 + 1e-12, 1.7],
                             self.times(rng)])
        self.assert_rows(curve, ts, lambda t: _polyline_at(Z, t))
        self.assert_rows(curve.reversed(), ts, lambda t: _polyline_at(Z, 1.0 - t))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_oscillator_angle_loop(self, n):
        curve = oscillator_angle_loop(n)
        ts = self.times(np.random.default_rng(200 + n))
        self.assert_rows(curve, ts, lambda t: _oscillator_at(n, t))
        self.assert_rows(curve.reversed(), ts, lambda t: _oscillator_at(n, 1.0 - t))

    def test_sizes_must_agree(self):
        z2 = PhasePoint(np.array([0.1, 0.0]), np.zeros(2))
        z3 = PhasePoint(np.array([0.1, 0.0, 0.2]), np.zeros(3))
        with pytest.raises(ValueError, match=r"^sample points must have one size n, got n = \[2, 3\]$"):
            ClosedCurve.from_samples([z2, z3, z2])


class TestTransport:
    def test_constant_curve_trivial_holonomy(self):
        z = PhasePoint(np.array([0.5, -0.1, 0.3]), np.array([0.2, 0.1, -0.4]))
        curve = ClosedCurve(_constant(z), initial_samples=8)
        hol = _holonomy(curve)
        npt.assert_array_equal(hol.gamma, np.ones(3))
        npt.assert_array_equal(hol.gammabar, np.ones(3))

    def test_omega_line_loop_n2(self, ):
        om = omega_point(2)
        sp = find_singular(om.z, [PairTarget(True, 1)])
        curve = ClosedCurve.around_pair(sp, PairTarget(True, 1), radius=5e-2)
        hol = _holonomy(curve)
        npt.assert_array_equal(hol.gammabar, [-1.0, -1.0])
        npt.assert_array_equal(hol.gamma, [1.0, 1.0])
        assert hol.even_product == hol.odd_product == -1
        assert hol.full_products == (1, 1)

    def test_contractible_loop_trivial(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        for radius in (0.05, 0.01):
            curve = ClosedCurve.circle(z, np.eye(6)[0], np.eye(6)[4], radius)
            hol = _holonomy(curve)
            npt.assert_array_equal(hol.gamma, np.ones(3))
            npt.assert_array_equal(hol.gammabar, np.ones(3))

    def test_signs_stable_under_refinement(self, sigma1_n3, coarse_loops):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        a = _holonomy(curve)
        b = _holonomy(
            dataclasses.replace(curve, initial_samples=2 * curve.initial_samples))
        npt.assert_array_equal(a.gamma, b.gamma)
        npt.assert_array_equal(a.gammabar, b.gammabar)
        for fine, coarse in coarse_loops:
            ref = _holonomy(fine)
            for curve in coarse:
                hol = _holonomy(curve)
                npt.assert_array_equal(hol.gamma, ref.gamma)
                npt.assert_array_equal(hol.gammabar, ref.gammabar)

    def test_signs_stable_under_small_perturbation(self, sigma1_n3):
        a = _holonomy(
            ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        )
        b = _holonomy(
            ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=3e-3)
        )
        npt.assert_array_equal(a.gamma, b.gamma)
        npt.assert_array_equal(a.gammabar, b.gammabar)

    def test_holonomies_equal_within_pair_slots(self, sigma1_n3):
        # descending convention: gamma_r = gamma_{r+1} for even 1-indexed r,
        # gammabar_r = gammabar_{r+1} for odd r
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        hol = _holonomy(curve)
        n = hol.gamma.size
        for r in range(2, n, 2):  # 1-indexed even r pairs (r, r+1)
            assert hol.gamma[r - 1] == hol.gamma[r]
        for r in range(1, n, 2):  # 1-indexed odd r
            assert hol.gammabar[r - 1] == hol.gammabar[r]

    def test_degenerate_curve_rejected(self, sigma1_n3):
        # a loop passing through the singular point itself is not regular
        away = sigma1_n3.z.displaced(1e-3 * np.eye(6)[0])
        curve = dataclasses.replace(ClosedCurve.from_samples([away, sigma1_n3.z, away]),
                                    initial_samples=8)
        with pytest.raises(RegularityError):
            _holonomy(curve)


class TestMaslovIndex:
    def test_oscillator_calibration(self):
        res = calibration_index(3)
        assert res.mu == 2
        # the frames wind 2 CALIBRATION_SIGN times; the stored sign makes that +2
        assert np.rint(res.winding_trace[-1, 1] / (2.0 * np.pi)) == 2 * CALIBRATION_SIGN

    def test_oscillator_any_size(self):
        for n in range(2, 9):
            assert calibration_index(n).mu == 2

    def test_regular_loop_zero(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        curve = ClosedCurve.circle(z, np.eye(6)[0], np.eye(6)[4], 0.05)
        assert maslov_index(curve).mu == 0

    def test_loop_around_singular_point(self, sigma1_n3):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        res = maslov_index(curve)
        assert abs(res.mu) == 2
        assert res.mu % 2 == 0

    def test_orientation_reversal_negates(self, sigma1_n3):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        assert maslov_index(curve).mu == -maslov_index(curve.reversed()).mu

    def test_reversed_circle_negates_mu_and_keeps_holonomies(self, sigma1_n3):
        # the n = 3 odd:1 circle walked backwards: each eigenvector comes back with the
        # same sign, and the plane winds the other way
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        fwd, rev = check_holonomy_theorem(curve), check_holonomy_theorem(curve.reversed())
        assert abs(fwd.mu) == 2 and rev.mu == -fwd.mu and rev.agree
        npt.assert_array_equal(rev.holonomy.gamma, fwd.holonomy.gamma)
        npt.assert_array_equal(rev.holonomy.gammabar, fwd.holonomy.gammabar)

    def test_invariant_under_refinement(self, sigma1_n3, coarse_loops):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        assert maslov_index(curve).mu == maslov_index(
            dataclasses.replace(curve, initial_samples=2 * curve.initial_samples)).mu
        for fine, coarse in coarse_loops:
            mu = maslov_index(fine).mu
            assert abs(mu) == 2
            for curve in coarse:
                res = maslov_index(curve)
                assert res.mu == mu
                # more accepted steps than initial ones: the walk bisected
                assert len(res.winding_trace) > curve.initial_samples + 1

    def test_invariant_under_reparameterization(self, sigma1_n3):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        warped = ClosedCurve(lambda ts: curve.rows(ts * ts * (3.0 - 2.0 * ts)),
                             curve.initial_samples)
        assert maslov_index(curve).mu == maslov_index(warped).mu

    def test_winding_trace_monotone_parameter(self, sigma1_n3):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        trace = maslov_index(curve).winding_trace
        assert np.all(np.diff(trace[:, 0]) > 0)
        assert trace[-1, 0] == 1.0


class TestHolonomyTheorem:
    def test_n2_loop(self):
        om = omega_point(2)
        sp = find_singular(om.z, [PairTarget(True, 1)])
        rep = check_holonomy_theorem(
            ClosedCurve.around_pair(sp, PairTarget(True, 1), radius=5e-2)
        )
        assert rep.agree
        assert abs(rep.mu) == 2
        assert rep.lhs == -1

    def test_n3_sigma1_loop(self, sigma1_n3):
        rep = check_holonomy_theorem(
            ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        )
        assert rep.agree
        assert rep.lhs == -1
        npt.assert_array_equal(rep.holonomy.gammabar[:2], [-1.0, -1.0])

    def test_holonomy_check_decomposes_each_sample_once(self, sigma1_n3, monkeypatch):
        # one walk: each observed stack is decomposed once and framed once, the initial
        # grid in stacks of GRID_CHUNK samples and each midpoint as a stack of one
        stacks, frames, seen = [], [], []
        decompose_stack, toda_frames = maslov._decompose_stack, maslov._toda_frames

        def counting_decompose(entries, *args):
            stacks.append(len(entries) // 2)  # both classes of each sample
            return decompose_stack(entries, *args)

        def counting_frames(b, p):
            frames.append(len(b))
            return toda_frames(b, p)

        monkeypatch.setattr(maslov, "_decompose_stack", counting_decompose)
        monkeypatch.setattr(maslov, "_toda_frames", counting_frames)
        fine = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        ref = check_holonomy_theorem(fine)
        full, rest = divmod(257, GRID_CHUNK)
        assert stacks == frames == [GRID_CHUNK] * full + [rest]

        def rows(ts):
            seen.extend(ts)
            return fine.rows(ts)

        coarse = ClosedCurve(rows, initial_samples=4)
        seen.clear()
        stacks.clear()
        frames.clear()
        rep = check_holonomy_theorem(coarse)
        assert stacks == frames and stacks[0] == 5  # the grid, then the midpoints
        assert len(stacks) > 1 and set(stacks[1:]) == {1}
        assert sum(stacks) == len(seen) == len(set(seen))
        assert rep.agree and rep.mu == ref.mu
        npt.assert_array_equal(rep.holonomy.gamma, ref.holonomy.gamma)
        npt.assert_array_equal(rep.holonomy.gammabar, ref.holonomy.gammabar)
        # the phase-only walk bisects only where the phase fails: the one walk's
        # winding trace holds every t of its trace
        mas = maslov_index(coarse)
        assert mas.mu == rep.mu
        assert set(mas.winding_trace[:, 0]) <= set(rep.maslov.winding_trace[:, 0])

    @pytest.mark.parametrize("n, label, samples, mu", [
        (5, "even:1", 2, 2), (6, "odd:2", 3, -2), (8, "even:2", 3, 2),
    ])
    def test_coarse_sigma1_circle_returns_the_fine_index(self, n, label, samples, mu):
        # a step that wraps the phase by a full turn moves the eigenvectors too: the
        # one walk bisects it (the phase-only walk returned mu = 0 from 2 samples and
        # an odd winding from 3)
        target = PairTarget.parse(label)
        rest = [t for t in all_pair_targets(n) if t != target]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [target])
        fine = check_holonomy_theorem(ClosedCurve.around_pair(sp, target, radius=2e-3))
        rep = check_holonomy_theorem(ClosedCurve.around_pair(sp, target, radius=2e-3,
                                                             initial_samples=samples))
        assert fine.mu == rep.mu == mu and rep.agree
        npt.assert_array_equal(rep.holonomy.gamma, fine.holonomy.gamma)
        npt.assert_array_equal(rep.holonomy.gammabar, fine.holonomy.gammabar)

    @pytest.mark.parametrize("k, mu", [(17, 4), (45, 2), (56, 6), (76, 0)])
    def test_random_circle_returns_its_fine_index(self, k, mu):
        # circle k of 90 drawn from default_rng(11): n cycles through 3, 4, 5, then q, p
        # ~ 0.35 N(0, 1), the plane of a QR of a normal (2n, 2) draw, radius ~ U(0.3, 1.5).
        # mu is the 2048-sample walk's.  The phase-only walk raised an odd winding
        # (17, 45, 76) or returned mu = 4 (56) at 64 samples, and failed 45 and 76 at 256.
        rng = np.random.default_rng(11)
        for i in range(k + 1):
            n = (3, 4, 5)[i % 3]
            q, p = 0.35 * rng.standard_normal(n), 0.35 * rng.standard_normal(n)
            plane = np.linalg.qr(rng.standard_normal((2 * n, 2)))[0]
            radius = rng.uniform(0.3, 1.5)
        for samples in (64, 256):
            rep = check_holonomy_theorem(ClosedCurve.circle(PhasePoint(q, p), *plane.T, radius,
                                                            samples))
            assert rep.mu == mu and rep.agree

    def test_regular_loop(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        rep = check_holonomy_theorem(ClosedCurve.circle(z, np.eye(6)[0], np.eye(6)[4], 0.05))
        assert rep.agree and rep.mu == 0 and rep.lhs == 1


class TestEnclosureCount:
    def test_single_disk(self, sigma1_n3):
        rep = enclosure_count_check([DiskSpec(sigma1_n3, radius=2e-3)])
        assert rep.sigmas in ((1,), (-1,))
        assert rep.mu == -2 * rep.sigmas[0]
        assert rep.passed

    def test_reversed_orientation(self, sigma1_n3):
        fwd = enclosure_count_check([DiskSpec(sigma1_n3, radius=2e-3)])
        rev = enclosure_count_check([DiskSpec(sigma1_n3, radius=2e-3, orientation=-1)])
        assert rev.mu == -fwd.mu
        assert rev.passed

    def test_two_point_disk_additive(self, sigma1_n3):
        shifted = find_singular(
            PhasePoint(sigma1_n3.z.q, sigma1_n3.z.p + 0.25), [PairTarget(True, 1)]
        )
        rep = enclosure_count_check(
            [DiskSpec(sigma1_n3, radius=2e-3), DiskSpec(shifted, radius=2e-3)]
        )
        assert rep.sigmas[0] == rep.sigmas[1]
        assert rep.mu == -2 * sum(rep.sigmas)
        assert rep.passed

    def test_needs_at_least_one_disk(self):
        with pytest.raises(ValueError):
            enclosure_count_check([])

    def test_disks_must_have_one_size(self, sigma1_n3):
        # the boundary joined circles of different n and ended in numpy's shape error
        target = PairTarget(True, 1)
        rest = [t for t in all_pair_targets(4) if t != target]
        sp4 = find_singular(perturbed_seed(omega_point(4), rest, eps=1e-2), [target])
        message = r"^disk centres must have one size n, got n = \[3, 4\]$"
        with pytest.raises(ValueError, match=message):
            enclosure_count_check([DiskSpec(sigma1_n3, radius=2e-3), DiskSpec(sp4, radius=2e-3)])

    def test_disk_center_must_be_a_singular_point(self, sigma1_n3):
        # a PhasePoint centre ended in an AttributeError: it has no targets or z
        with pytest.raises(ValueError, match=r"^center must be a SingularPoint, got PhasePoint$"):
            DiskSpec(sigma1_n3.z, radius=2e-3)

    @pytest.mark.parametrize("radius", [0, -1e-2, np.nan, np.inf, True, "0.01"])
    def test_disk_radius_must_be_a_finite_positive_real(self, sigma1_n3, radius):
        # a radius of -1e-2 switched off the guard against a centre near the boundary:
        # disks of radii 1e-3 and -1e-2 on one centre reported mu = -4 and passed
        with pytest.raises(ValueError, match=r"^radius must be a finite real > 0, got "):
            DiskSpec(sigma1_n3, radius=radius)


def _unitary_phase(frames):
    """Reference winding phase: arg det(U)^2 for the unitary part U of each complex frame.

    U comes from the eigendecomposition of the Gram matrix W^H W, a frame at
    or below FRAME_GRAM_TOL patched to eigenvalues 1; also returns the
    smallest Gram eigenvalue.
    """
    n = frames.shape[-1]
    W = frames[..., :n, :] + 1j * frames[..., n:, :]
    w, Q = np.linalg.eigh(np.conj(np.swapaxes(W, -1, -2)) @ W)
    low = w[..., 0]
    w = np.where(low[..., None] > FRAME_GRAM_TOL, w, 1.0)
    U = W @ (Q * w[..., None, :] ** -0.5) @ np.conj(np.swapaxes(Q, -1, -2))
    det = np.linalg.det(U)
    return np.angle(det * det), low


def _oscillator_frame_at(z):
    """The frame of n uncoupled unit oscillators at one row z = (q, p), built column by column."""
    n = len(z) // 2
    X = np.zeros((2 * n, n))
    for j in range(n):
        X[j, j] = z[n + j]
        X[n + j, j] = -z[j]
    return X


class TestFramePhase:
    """arg det(W)^2 is the phase of the unitary part: W = U P with det P > 0."""

    @staticmethod
    def assert_same_phase(frames):
        phase, low, errors = maslov._frame_phase(frames)
        assert errors == {}
        ref_phase, ref_low = _unitary_phase(frames)
        assert np.array_equal(low <= FRAME_GRAM_TOL, ref_low <= FRAME_GRAM_TOL)
        regular = ref_low > FRAME_GRAM_TOL
        step = maslov._principal(phase - ref_phase)  # mod 2 pi, in [-pi, pi)
        assert np.max(np.abs(step[regular]), initial=0.0) <= 1e-11

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_frames(self, n):
        rng = np.random.default_rng(n)
        points = [PhasePoint(*(0.35 * rng.standard_normal((2, n)))) for _ in range(200)]
        frames = np.array([toda_frame(z) for z in points])
        # a frame of two equal columns has lost rank: both guards must say so
        lost = frames[0].copy()
        lost[:, 1] = lost[:, 0]
        frames = np.concatenate([frames, lost[None]])
        self.assert_same_phase(frames)
        assert maslov._frame_phase(frames)[1][-1] <= FRAME_GRAM_TOL

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_loop_samples(self, n):
        for target in all_pair_targets(n):
            rest = [t for t in all_pair_targets(n) if t != target]
            sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [target])
            curve = ClosedCurve.around_pair(sp, target, radius=2e-3)
            points = [curve.point_at(t) for t in np.linspace(0, 1, 257)]
            p = np.array([z.p for z in points])
            b, _ = maslov._lax_classes(np.array([z.q for z in points]), p)
            self.assert_same_phase(maslov._toda_frames(b, p))
        rows = oscillator_angle_loop(3).rows(np.linspace(0, 1, 129))
        frames = maslov._oscillator_frames(rows[:, :3], rows[:, 3:])
        assert np.array_equal(frames, np.array([_oscillator_frame_at(z) for z in rows]))
        self.assert_same_phase(frames)

    def test_frame_of_lost_rank_raises(self, monkeypatch):
        def lost_rank(frames):
            def kernel(*args):
                X = frames(*args)
                X[:, :, 1] = X[:, :, 0]
                return X
            return kernel

        monkeypatch.setattr(maslov, "_toda_frames", lost_rank(maslov._toda_frames))
        monkeypatch.setattr(maslov, "_oscillator_frames", lost_rank(maslov._oscillator_frames))
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        regular = ClosedCurve.circle(z, np.eye(6)[0], np.eye(6)[4], 0.05)
        for walk in (lambda: maslov_index(regular), lambda: calibration_index(3)):
            with pytest.raises(LagrangianFrameError,
                               match=r"^frame Gram matrix smallest eigenvalue \S+ <= 1e-10$"):
                walk()


class TestStackedGrid:
    """The walkers observe their initial grid in stacks; each midpoint is a stack of one."""

    @staticmethod
    def through(point, radius, samples):
        # the circle of this radius through the singular point, at t = 1/2
        target = point.targets[0]
        v1, v2 = pair_plane_duals(point, target)
        return ClosedCurve.circle(point.z.displaced(radius * np.asarray(v1)), v1, v2, radius,
                                  samples)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_stacked_phase_within_four_ulps_of_one_row(self, n):
        target = PairTarget(True, 1)
        rest = [t for t in all_pair_targets(n) if t != target]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [target])
        curve = ClosedCurve.around_pair(sp, target, radius=2e-3)
        points = [curve.point_at(t) for t in np.linspace(0.0, 1.0, 257)]
        p = np.array([z.p for z in points])
        b, _ = maslov._lax_classes(np.array([z.q for z in points]), p)
        frames = maslov._toda_frames(b, p)
        phases, low, _ = maslov._frame_phase(frames)
        for z, frame, phase, smallest in zip(points, frames, phases, low):
            assert np.array_equal(frame, toda_frame(z))
            one_phase, one_low, _ = maslov._frame_phase(toda_frame(z))
            # 1 ulp of pi measured; the stacked products round apart from the 2-d ones
            assert abs(phase - one_phase) <= 4 * np.spacing(np.pi)
            assert smallest == pytest.approx(one_low, rel=1e-12)

    @pytest.mark.parametrize("samples", [4, 5, 64])
    def test_singular_sample_raises_where_the_walk_reaches_it(self, sigma1_n3, samples):
        # the message of the one-sample-at-a-time walk, on the grid (4, 64 samples)
        # and at a midpoint (5)
        message = ("sample at t = 0.500000 has eigenvalue gap 1.034e-12 below 1.0e-08; "
                   "the curve passes too close to a singular point")
        curve = self.through(sigma1_n3, 5e-2, samples)
        for walk in (maslov_index, check_holonomy_theorem):
            with pytest.raises(RegularityError) as err:
                walk(curve)
            assert str(err.value) == message

    def test_errors_of_later_samples_wait_for_the_walk(self, sigma1_n3):
        # the grid sample at t = 0.8 is a NaN row, off the phase space; the walk
        # stops at t = 1/2 first, as it did when it observed one sample at a time
        def holed(curve):
            return ClosedCurve(lambda ts: np.where(((0.75 < ts) & (ts < 0.85))[:, None], np.nan,
                                                   curve.rows(ts)), 10)

        for walk in (check_holonomy_theorem, maslov_index):
            with pytest.raises(RegularityError, match="t = 0.500000"):
                walk(holed(self.through(sigma1_n3, 5e-2, 10)))
        regular = holed(ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3))
        for walk in (check_holonomy_theorem, maslov_index):
            with pytest.raises(PhaseDomainError, match="^non-finite phase-space coordinates$"):
                walk(regular)

    def test_grid_one_past_the_chunk_matches_one_row_walk(self, sigma1_n3, monkeypatch):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3,
                                        initial_samples=GRID_CHUNK)
        stacks, frames = [], []
        decompose_stack, toda_frames = maslov._decompose_stack, maslov._toda_frames

        def counting_decompose(entries, *args):
            stacks.append(len(entries) // 2)
            return decompose_stack(entries, *args)

        def counting_frames(b, p):
            frames.append(len(b))
            return toda_frames(b, p)

        monkeypatch.setattr(maslov, "_decompose_stack", counting_decompose)
        monkeypatch.setattr(maslov, "_toda_frames", counting_frames)
        stacked = check_holonomy_theorem(curve)
        assert stacks == frames == [GRID_CHUNK, 1]
        monkeypatch.setattr(maslov, "GRID_CHUNK", 1)
        one_row = check_holonomy_theorem(curve)
        assert frames[2:] == [1] * (GRID_CHUNK + 1)  # no midpoints: the grid is fine enough
        assert stacked.mu == one_row.mu and abs(stacked.mu) == 2
        npt.assert_array_equal(stacked.holonomy.gamma, one_row.holonomy.gamma)
        npt.assert_array_equal(stacked.holonomy.gammabar, one_row.holonomy.gammabar)
        npt.assert_allclose(stacked.maslov.winding_trace, one_row.maslov.winding_trace,
                            rtol=0, atol=1e-13)

    def test_domain_error_of_a_library_curve_waits_for_the_walk(self, sigma1_n3, monkeypatch):
        # a circle valid at t = 0 whose gap q_1 - q_2 passes Q_GAP_LIMIT near t = 1/4
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        e = np.eye(6)
        curve = ClosedCurve.circle(z, e[3], e[0], 700.0, 64)
        grid = np.linspace(0.0, 1.0, 65)
        bad = [t for t in grid if np.abs(z.q[0] + 700.0 * np.sin(2.0 * np.pi * t) - z.q[1]) > 600]
        assert grid[0] not in bad and 0.15 < bad[0] < 0.25
        with pytest.raises(PhaseDomainError) as expected:
            PhasePoint.from_vector(_circle_at(z.as_vector(), e[3], e[0], 700.0, 1, bad[0]))
        message = str(expected.value)
        assert message == "coupling b_1 overflows: |q_1 - q_2| = 618 exceeds 600.0"
        # a sample at the singular point before the domain error, in the same stack, wins:
        # the circle of radius 1000 that passes through it at t = 1/16
        a0 = np.pi / 8
        centre = sigma1_n3.z.displaced(-1000.0 * (np.cos(a0) * e[3] + np.sin(a0) * e[0]))
        through = ClosedCurve.circle(centre, e[3], e[0], 1000.0, 16)
        with pytest.raises(PhaseDomainError):
            through.point_at(0.25)
        # a frame whose Gram matrix overflows stops the one walk where it lies, with a typed
        # error: t = 0 on the radius-1000 circle, t = 3/32 before the domain error
        overflow = "sample at t = {}: frame Gram matrix: Eigenvalues did not converge"
        for chunk in (GRID_CHUNK, 1):  # stacked, then one row at a time
            monkeypatch.setattr(maslov, "GRID_CHUNK", chunk)
            for walk in (check_holonomy_theorem, maslov_index):
                for c, t in ((curve, "0.093750"), (through, "0.000000")):
                    with pytest.raises(EigensolverError) as err:
                        walk(c)
                    assert str(err.value) == overflow.format(t)
        # with a frame that never fails, the walk meets the domain error where it lies, and
        # the singular sample first
        monkeypatch.setattr(maslov, "_toda_frames",
                            lambda b, p: np.broadcast_to(np.eye(6, 3), (len(b), 6, 3)))
        for chunk in (GRID_CHUNK, 1):
            monkeypatch.setattr(maslov, "GRID_CHUNK", chunk)
            with pytest.raises(PhaseDomainError) as err:
                check_holonomy_theorem(curve)
            assert str(err.value) == message
            with pytest.raises(RegularityError, match=r"^sample at t = 0\.062500 has"):
                check_holonomy_theorem(through)

    def test_holonomy_check_builds_no_point_per_sample(self, sigma1_n3, monkeypatch):
        # the walks read stacked rows: the points they build do not grow with the grid
        counts = []
        post_init = PhasePoint.__post_init__

        def counting(z):
            counts[-1] += 1
            post_init(z)

        for samples in (64, 1024):
            curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3,
                                            initial_samples=samples)
            counts.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(PhasePoint, "__post_init__", counting)
                check_holonomy_theorem(curve)
        assert counts[0] == counts[1]
        counts.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(PhasePoint, "__post_init__", counting)
            calibration_index(3)
        assert counts[-1] == 0

    def test_budget_error_before_any_sample(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        seen = []

        def rows(ts):
            seen.extend(ts)
            return _constant(z)(ts)

        curve = ClosedCurve(rows, MAX_EVALUATIONS + 1)
        seen.clear()
        for walk in (check_holonomy_theorem, maslov_index):
            with pytest.raises(TransportError, match=f"budget of {MAX_EVALUATIONS} evaluations"):
                walk(curve)
        assert seen == []

    def test_boundary_too_close_to_a_centre(self, sigma1_n3):
        # two disks on one centre: the smaller circle is too close to the larger disk's centre
        for radii, j in (((1e-3, 1e-2), 1), ((1e-2, 1e-3), 0)):
            with pytest.raises(DiskGeometryError) as err:
                enclosure_count_check([DiskSpec(sigma1_n3, radius=r) for r in radii])
            assert str(err.value) == f"singular point {j} lies within 1.224e-03 of the boundary"


def _one_step_winding(curve, observe):
    """The walk as it tested every step alone: a frozen copy of its loop before the chunk test.

    The grid is read out of the same stacked observations (GRID_CHUNK samples
    at a time, a midpoint as a stack of one), one sample at a time; each
    step is tested by its own overlaps and phase.  Returns what ``_winding``
    returns, the eigenvectors as one (classes, n, n) array.
    """
    def samples(ts):
        obs = maslov._observe(curve, ts, observe)
        rows = [(obs.phases[r], tuple(obs.vectors[:, r])) for r in range(obs.stop)]
        return rows if obs.error is None else rows + [obs.error]

    budget = f"loop walk exceeded the budget of {maslov.MAX_EVALUATIONS} evaluations"
    if curve.initial_samples > maslov.MAX_EVALUATIONS:
        raise TransportError(budget)
    grid = np.linspace(0.0, 1.0, curve.initial_samples + 1)
    chunk = maslov.GRID_CHUNK
    stream = itertools.chain.from_iterable(
        zip(ts, samples(ts)) for ts in (grid[s:s + chunk] for s in range(0, grid.size, chunk)))
    _, first = next(stream)
    if isinstance(first, Exception):
        raise first
    (phi, frames), t_curr, evaluations, trace = first, 0.0, 0, [(0.0, 0.0)]
    for t_grid, obs_grid in stream:
        pending = [(t_grid, obs_grid)]
        while pending:
            t_next, obs = pending[-1]
            evaluations += 1
            if evaluations > maslov.MAX_EVALUATIONS:
                raise TransportError(budget)
            if obs is None:
                obs = samples(np.array([t_next]))[0]
            if isinstance(obs, Exception):
                raise obs
            phi_next, new = obs
            overlaps = [np.einsum("ij,ij->j", V, W) for V, W in zip(frames, new)]
            step = maslov._principal(phi_next - phi)
            reason = None
            for cls, ov in zip(("even", "odd"), overlaps):
                r = int(np.argmin(np.abs(ov)))
                if reason is None and abs(ov[r]) <= maslov.MIN_OVERLAP:
                    reason = f"{cls} eigenvector {r} overlap {abs(ov[r]):.3f} <= {maslov.MIN_OVERLAP}"
            if reason is None and abs(step) >= 0.5 * np.pi:
                reason = f"phase jump {step:.3f}"
            if reason is not None:
                if t_next - t_curr < 1e-10:
                    raise TransportError(f"{reason} at t = {t_next:.8f} despite maximal refinement")
                pending[-1] = (t_next, obs)
                pending.append((0.5 * (t_curr + t_next), None))
                continue
            trace.append((t_next, trace[-1][1] + step))
            phi, frames = phi_next, tuple(W * np.sign(ov) for W, ov in zip(new, overlaps))
            t_curr = t_next
            pending.pop()
    winding = trace[-1][1] / (2.0 * np.pi)
    nearest = int(np.rint(winding))
    if abs(winding - nearest) > 1e-3:
        raise TransportError(f"winding {winding:.6f} is not close to an integer")
    mu = CALIBRATION_SIGN * nearest
    if mu % 2 != 0:
        raise TransportError(f"odd winding {mu}; the Lagrangian plane field should be orientable")
    return maslov.MaslovResult(mu, np.array(trace)), np.array(first[1]), np.array(frames)


# the one walk, and the phase-only walk of maslov_index
OBSERVERS = {"one walk": maslov._lax_samples,
             "phase only": lambda *stack: maslov._lax_samples(*stack).phase_only()}


def _outcome(walk, curve, observe):
    """mu, the winding trace's bytes and the eigenvectors at t = 0 and 1, or the error."""
    try:
        mas, first, last = walk(curve, observe)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return (mas.mu, mas.winding_trace.shape, mas.winding_trace.tobytes(),
            np.asarray(first).tobytes(), np.asarray(last).tobytes())


def _assert_walks_agree(curve):
    """The chunk-tested walk equals the one-step walk bit for bit, for both observations;
    returns the one walk's outcome."""
    outcomes = {}
    for name, observe in OBSERVERS.items():
        outcomes[name] = _outcome(maslov._winding, curve, observe)
        assert outcomes[name] == _outcome(_one_step_winding, curve, observe), name
    return outcomes["one walk"]


def _random_circle(k, samples):
    """Circle k of the 90 drawn from default_rng(11) (see test_random_circle_returns_its_fine_index)."""
    rng = np.random.default_rng(11)
    for i in range(k + 1):
        n = (3, 4, 5)[i % 3]
        q, p = 0.35 * rng.standard_normal(n), 0.35 * rng.standard_normal(n)
        plane = np.linalg.qr(rng.standard_normal((2 * n, 2)))[0]
        radius = rng.uniform(0.3, 1.5)
    return ClosedCurve.circle(PhasePoint(q, p), *plane.T, radius, samples)


@pytest.fixture(scope="module")
def sigma1_points():
    """Every single-pair point of n = 3, 5, 8 that the suite's sigma1 check finds."""
    points = {n: Sample(n).sigma1[0] for n in (3, 5, 8)}
    assert [len(points[n]) for n in (3, 5, 8)] == [2, 4, 7]
    return points


class TestChunkTest:
    """The walk tests a chunk's steps at once and accepts runs of them; it must equal the walk
    that tested each step alone bit for bit: mu, trace, eigenvectors and errors."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_sigma1_circles_match_the_one_step_walk(self, sigma1_points, n):
        for sp in sigma1_points[n]:
            for samples in (256, 4, 3, 2):
                curve = ClosedCurve.around_pair(sp, sp.targets[0], radius=2e-3,
                                                initial_samples=samples)
                for c in (curve, curve.reversed()):
                    _assert_walks_agree(c)

    @pytest.mark.parametrize("k", [17, 45, 56, 76])
    def test_random_circles_match_the_one_step_walk(self, k):
        for samples in (64, 256):
            _assert_walks_agree(_random_circle(k, samples))

    def test_chunks_of_one_match_the_one_step_walk(self, sigma1_points, monkeypatch):
        monkeypatch.setattr(maslov, "GRID_CHUNK", 1)
        for sp in sigma1_points[3]:
            for samples in (64, 4):
                _assert_walks_agree(ClosedCurve.around_pair(sp, sp.targets[0], radius=2e-3,
                                                            initial_samples=samples))
        _assert_walks_agree(_random_circle(56, 64))

    def test_budget_runs_out_mid_walk(self, sigma1_points, monkeypatch):
        # the fine circle takes 256 evaluations, the coarse one 16 and the random ones 90 and
        # 274: the budget runs out inside a run, in the second chunk, on the last step and
        # inside a bisection, or not at all
        sp = sigma1_points[3][0]
        fine, coarse = (ClosedCurve.around_pair(sp, sp.targets[0], radius=2e-3,
                                                initial_samples=s) for s in (256, 4))
        for limit, curve, runs_out in ((50, fine, True), (200, fine, True), (255, fine, True),
                                       (256, fine, False), (300, fine, False),
                                       (10, coarse, True), (15, coarse, True),
                                       (50, coarse, False), (300, coarse, False),
                                       (80, _random_circle(56, 64), True),
                                       (270, _random_circle(56, 256), True)):
            monkeypatch.setattr(maslov, "MAX_EVALUATIONS", limit)
            outcome = _assert_walks_agree(curve)
            if runs_out:
                assert outcome == (TransportError,
                                   f"loop walk exceeded the budget of {limit} evaluations")
            else:
                assert isinstance(outcome[0], int)

    def test_maximal_refinement_message(self, sigma1_points, monkeypatch):
        # no overlap passes: the first step is halved down to the 1e-10 floor
        monkeypatch.setattr(maslov, "MIN_OVERLAP", 1.5)
        sp = sigma1_points[5][1]
        for samples in (256, 4):
            curve = ClosedCurve.around_pair(sp, sp.targets[0], radius=2e-3,
                                            initial_samples=samples)
            outcome = _assert_walks_agree(curve)
            assert outcome[0] is TransportError
            assert outcome[1].startswith("even eigenvector ")
            assert outcome[1].endswith(" <= 1.5 at t = 0.00000000 despite maximal refinement")
            with pytest.raises(TransportError, match="despite maximal refinement"):
                check_holonomy_theorem(curve)
            # the phase-only walk reads no overlap
            assert abs(maslov_index(curve).mu) == 2

    @pytest.mark.parametrize("hole", [(0.45, 0.55), (0.7, 0.8)])
    def test_error_after_a_failing_grid_step(self, sigma1_n3, monkeypatch, hole):
        # every grid step of the 4-sample circle fails its first try; the sample after one
        # of them is off the phase space: the walk bisects the failing step, then raises
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3,
                                        initial_samples=4)
        lo, hi = hole
        holed = ClosedCurve(lambda ts: np.where(((lo < ts) & (ts < hi))[:, None], np.nan,
                                                curve.rows(ts)), 4)
        stacks = []
        observe = maslov._observe

        def spy(c, ts, obs):
            stacks.append(len(ts))
            return observe(c, ts, obs)

        monkeypatch.setattr(maslov, "_observe", spy)
        assert _assert_walks_agree(holed) == (PhaseDomainError,
                                              "non-finite phase-space coordinates")
        stacks.clear()
        with pytest.raises(PhaseDomainError):
            check_holonomy_theorem(holed)
        # the grid, then the midpoints of the failing steps before the hole
        assert stacks[0] == 5 and len(stacks) > 1 and set(stacks[1:]) == {1}
        # reaching the bad sample costs an evaluation, wherever it lies in its chunk (the
        # hole opens the second chunk of two samples); each budget ends both walks alike
        for chunk in (maslov.GRID_CHUNK, 2):
            monkeypatch.setattr(maslov, "GRID_CHUNK", chunk)
            for limit in range(1, 17):
                monkeypatch.setattr(maslov, "MAX_EVALUATIONS", limit)
                _assert_walks_agree(holed)
