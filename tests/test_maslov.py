import numpy as np
import numpy.testing as npt
import pytest

import todalax.maslov as maslov
from todalax.lax import PhasePoint
from todalax.spectral import _decompose_stack as decompose_stack
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
    check_holonomy_theorem,
    enclosure_count_check,
    maslov_index,
    oscillator_angle_loop,
    oscillator_frame,
    toda_frame,
    transport_eigenvectors,
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
            ClosedCurve(lambda t: z, samples)
        with pytest.raises(ValueError, match="at least 2"):
            ClosedCurve.circle(z, np.eye(4)[0], np.eye(4)[2], 0.1, initial_samples=samples)
        if samples is not None:  # None lets from_samples choose
            with pytest.raises(ValueError, match="at least 2"):
                ClosedCurve.from_samples([z, z.displaced(0.1 * np.eye(4)[0]), z], samples)

    def test_accepts_integer_samples_from_two(self):
        z = PhasePoint(np.array([0.5, -0.1]), np.zeros(2))
        for samples in (2, np.int64(3)):
            assert ClosedCurve(lambda t: z, samples).initial_samples == samples

    @pytest.mark.parametrize("orientation", [0, 2, -2, 1.7, 1.0, True, "1", None])
    def test_rejects_orientation_other_than_plus_or_minus_one(self, sigma1_n3, orientation):
        # 0 walked a constant loop, and any other factor another loop than the circle
        z = PhasePoint(np.array([0.5, -0.1]), np.zeros(2))
        with pytest.raises(ValueError, match=r"orientation must be \+1 or -1"):
            ClosedCurve.circle(z, np.eye(4)[0], np.eye(4)[2], 0.1, orientation=orientation)
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


class TestTransport:
    def test_constant_curve_trivial_holonomy(self):
        z = PhasePoint(np.array([0.5, -0.1, 0.3]), np.array([0.2, 0.1, -0.4]))
        curve = ClosedCurve(lambda t: z, initial_samples=8)
        hol = transport_eigenvectors(curve)
        npt.assert_array_equal(hol.gamma, np.ones(3))
        npt.assert_array_equal(hol.gammabar, np.ones(3))

    def test_omega_line_loop_n2(self, ):
        om = omega_point(2)
        sp = find_singular(om.z, [PairTarget(True, 1)])
        curve = ClosedCurve.around_pair(sp, PairTarget(True, 1), radius=5e-2)
        hol = transport_eigenvectors(curve)
        npt.assert_array_equal(hol.gammabar, [-1.0, -1.0])
        npt.assert_array_equal(hol.gamma, [1.0, 1.0])
        assert hol.even_product == hol.odd_product == -1
        assert hol.full_products == (1, 1)

    def test_contractible_loop_trivial(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        for radius in (0.05, 0.01):
            curve = ClosedCurve.circle(z, np.eye(6)[0], np.eye(6)[4], radius)
            hol = transport_eigenvectors(curve)
            npt.assert_array_equal(hol.gamma, np.ones(3))
            npt.assert_array_equal(hol.gammabar, np.ones(3))

    def test_signs_stable_under_refinement(self, sigma1_n3, coarse_loops):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        a = transport_eigenvectors(curve)
        b = transport_eigenvectors(ClosedCurve(curve.point_at, 2 * curve.initial_samples))
        npt.assert_array_equal(a.gamma, b.gamma)
        npt.assert_array_equal(a.gammabar, b.gammabar)
        for fine, coarse in coarse_loops:
            ref = transport_eigenvectors(fine)
            for curve in coarse:
                hol = transport_eigenvectors(curve)
                npt.assert_array_equal(hol.gamma, ref.gamma)
                npt.assert_array_equal(hol.gammabar, ref.gammabar)

    def test_signs_stable_under_small_perturbation(self, sigma1_n3):
        a = transport_eigenvectors(
            ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        )
        b = transport_eigenvectors(
            ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=3e-3)
        )
        npt.assert_array_equal(a.gamma, b.gamma)
        npt.assert_array_equal(a.gammabar, b.gammabar)

    def test_holonomies_equal_within_pair_slots(self, sigma1_n3):
        # descending convention: gamma_r = gamma_{r+1} for even 1-indexed r,
        # gammabar_r = gammabar_{r+1} for odd r
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        hol = transport_eigenvectors(curve)
        n = hol.gamma.size
        for r in range(2, n, 2):  # 1-indexed even r pairs (r, r+1)
            assert hol.gamma[r - 1] == hol.gamma[r]
        for r in range(1, n, 2):  # 1-indexed odd r
            assert hol.gammabar[r - 1] == hol.gammabar[r]

    def test_degenerate_curve_rejected(self, sigma1_n3):
        # a loop passing through the singular point itself is not regular
        away = sigma1_n3.z.displaced(1e-3 * np.eye(6)[0])
        curve = ClosedCurve.from_samples([away, sigma1_n3.z, away], initial_samples=8)
        with pytest.raises(RegularityError):
            transport_eigenvectors(curve)


class TestMaslovIndex:
    def test_oscillator_calibration(self):
        res = maslov_index(oscillator_angle_loop(3), frame_fn=oscillator_frame)
        assert res.mu == 2
        assert res.calibration_sign == CALIBRATION_SIGN

    def test_oscillator_any_size(self):
        for n in (1, 2, 5):
            res = maslov_index(oscillator_angle_loop(max(n, 2)), frame_fn=oscillator_frame)
            assert res.mu == 2

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

    def test_invariant_under_refinement(self, sigma1_n3, coarse_loops):
        curve = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        assert maslov_index(curve).mu == maslov_index(
            ClosedCurve(curve.point_at, 2 * curve.initial_samples)).mu
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
        inner = curve.point_at
        warped = ClosedCurve(lambda t: inner(t * t * (3.0 - 2.0 * t)), curve.initial_samples)
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
        # the transport walk decomposes each sample once, its initial grid in
        # stacks of GRID_CHUNK samples; the winding walk reads eigenvalues only
        stacks = []

        def counting_decompose(entries, *args):
            stacks.append(len(entries) // 2)  # both classes of each sample
            return decompose_stack(entries, *args)

        monkeypatch.setattr(maslov, "_decompose_stack", counting_decompose)
        fine = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)
        check_holonomy_theorem(fine)
        full, rest = divmod(257, GRID_CHUNK)
        assert stacks == [GRID_CHUNK] * full + [rest]

        seen = []

        def at(t):
            seen.append(t)
            return fine.point_at(t)

        coarse = ClosedCurve(at, initial_samples=4)
        seen.clear()
        stacks.clear()
        hol = transport_eigenvectors(coarse)
        assert len(stacks) > 1 and stacks[0] == 5  # the grid, then the midpoints
        assert set(stacks[1:]) == {1}
        assert sum(stacks) == len(seen) == len(set(seen))
        stacks.clear()
        seen.clear()
        mas = maslov_index(coarse)
        assert not stacks and len(seen) == len(set(seen)) > 5
        rep = check_holonomy_theorem(coarse)
        assert rep.mu == mas.mu
        assert np.array_equal(rep.maslov.winding_trace, mas.winding_trace)
        npt.assert_array_equal(rep.holonomy.gamma, hol.gamma)
        npt.assert_array_equal(rep.holonomy.gammabar, hol.gammabar)

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


class TestFramePhase:
    """arg det(W)^2 is the phase of the unitary part: W = U P with det P > 0."""

    @staticmethod
    def assert_same_phase(frames):
        phase, low = maslov._frame_phase(frames)
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
            b, p, _ = maslov._lax_classes([curve.point_at(t) for t in np.linspace(0, 1, 257)])
            self.assert_same_phase(maslov._toda_frames(b, p))
        loop = oscillator_angle_loop(3)
        self.assert_same_phase(np.array([oscillator_frame(loop.point_at(t))
                                         for t in np.linspace(0, 1, 129)]))

    def test_frame_of_lost_rank_raises(self):
        def frame(z):
            X = oscillator_frame(z)
            X[:, 1] = X[:, 0]
            return X

        with pytest.raises(LagrangianFrameError,
                           match=r"^frame Gram matrix smallest eigenvalue \S+ <= 1e-10$"):
            maslov_index(oscillator_angle_loop(3), frame_fn=frame)


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
        b, p, _ = maslov._lax_classes(points)
        frames = maslov._toda_frames(b, p)
        phases, low = maslov._frame_phase(frames)
        for z, frame, phase, smallest in zip(points, frames, phases, low):
            assert np.array_equal(frame, toda_frame(z))
            one_phase, one_low = maslov._frame_phase(toda_frame(z))
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
        for walk in (transport_eigenvectors, maslov_index, check_holonomy_theorem):
            with pytest.raises(RegularityError) as err:
                walk(curve)
            assert str(err.value) == message

    def test_errors_of_later_samples_wait_for_the_walk(self, sigma1_n3):
        # the grid sample at t = 0.8 cannot be evaluated; the walk stops at
        # t = 1/2 first, as it did when it observed one sample at a time
        inner = self.through(sigma1_n3, 5e-2, 10).point_at

        def at(t):
            if 0.75 < t < 0.85:
                raise ValueError(f"no sample at {t}")
            return inner(t)

        for walk in (transport_eigenvectors, maslov_index):
            with pytest.raises(RegularityError, match="t = 0.500000"):
                walk(ClosedCurve(at, 10))
        regular = ClosedCurve.around_pair(sigma1_n3, PairTarget(True, 1), radius=2e-3)

        def broken(t):
            if 0.75 < t < 0.85:
                raise ValueError(f"no sample at {t}")
            return regular.point_at(t)

        with pytest.raises(ValueError, match="no sample at 0.8"):
            transport_eigenvectors(ClosedCurve(broken, 10))

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

    def test_budget_error_before_any_sample(self):
        z = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
        seen = []

        def at(t):
            seen.append(t)
            return z

        curve = ClosedCurve(at, MAX_EVALUATIONS + 1)
        seen.clear()
        for walk in (transport_eigenvectors, maslov_index):
            with pytest.raises(TransportError, match=f"budget of {MAX_EVALUATIONS} evaluations"):
                walk(curve)
        assert seen == []

    def test_boundary_too_close_to_a_centre(self, sigma1_n3):
        # two disks on one centre: the smaller circle is too close to the larger disk's centre
        for radii, j in (((1e-3, 1e-2), 1), ((1e-2, 1e-3), 0)):
            with pytest.raises(DiskGeometryError) as err:
                enclosure_count_check([DiskSpec(sigma1_n3, radius=r) for r in radii])
            assert str(err.value) == f"singular point {j} lies within 1.224e-03 of the boundary"
