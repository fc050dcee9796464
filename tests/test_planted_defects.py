"""Planted defects: each one fails named checks of the default suite.

A check that passes under a defect in the computation it checks does not
check it.  Each case plants one defect in the library, runs the default
configuration and asserts which records fail: the checks that catch the
defect, and no other.  A clean run fails none.  Every run builds its
samples afresh, so nothing found under one defect reaches another run.
"""

from dataclasses import replace

import numpy as np
import pytest

from todalax import lax, maslov, singularity, verify
from todalax.verify import RunConfig, run_suite


def failing_records() -> dict:
    report = run_suite(RunConfig())
    return {r.check_id: r for r in report.records if r.status != "pass"}


def each_size(names: str, sizes) -> set[str]:
    """The record ids of each check of ``names`` at each n of ``sizes``."""
    return {f"{name}[n={n}]" for name in names.split() for n in sizes}


def scaled_pairing(z, odd_class, u1, u2, _pairing=singularity.pairing_denominator):
    """The pairing 2 u1 . M . u2, one percent too large."""
    return 1.01 * _pairing(z, odd_class, u1, u2)


def swapped_class_signs(n, _signs=lax._class_signs):
    """The sign rows of the two Lax classes in the wrong order: odd, then even."""
    return _signs(n)[::-1]


def vanishing_pairing(z, odd_class, u1, u2, _pairing=singularity.pairing_denominator):
    """The pairing 2 u1 . M . u2 scaled down to 1e-12 of itself."""
    return 1e-12 * _pairing(z, odd_class, u1, u2)


def negated_principal(a, _principal=maslov._principal):
    """The principal argument with its sign flipped: every winding step reversed."""
    return -_principal(a)


def loose_flow(z0, c, t_final, t_eval=None, _flow=verify.integrate_flow, **kwargs):
    """The suite's flow integrated at rtol 1e-6, not the library's default 1e-11."""
    return _flow(z0, c, t_final, t_eval=t_eval, **{**kwargs, "rtol": 1e-6})


def backward_flow(z0, c, t_final, t_eval=None, _flow=verify.integrate_flow, **kwargs):
    """The suite's flow run backward: the points at -t for each requested t."""
    return _flow(z0, c, -t_final, t_eval=-t_eval, **kwargs)


def shifted_flow(z0, c, t_final, t_eval=None, _flow=verify.integrate_flow, **kwargs):
    """The flow of the next trace up: F_3's for F_2, F_1's for F_3."""
    return _flow(z0, np.roll(c, 1), t_final, t_eval=t_eval, **kwargs)


def frozen_flow(z0, c, t_final, t_eval=None, _flow=verify.integrate_flow, **kwargs):
    """The suite's flow with every sample replaced by the initial point."""
    traj = _flow(z0, c, t_final, t_eval=t_eval, **kwargs)
    return replace(traj, points=np.broadcast_to(z0.as_vector(), traj.points.shape))


DEFECTS = {
    # the finder stops while the target gap is still open
    "loose_gap_tolerance": ((singularity, "GAP_TOL", 1e-4), {
        "sigma1_components[n=3]", "corank_sigma1[n=3]", "transverse_structure[n=3]",
        "transverse_structure[n=4]", "maslov_theorem[n=3]"}),
    "scaled_pairing_denominator": ((singularity, "pairing_denominator", scaled_pairing), {
        "bracket_relations_omega[n=2]", "bracket_relations_omega[n=3]",
        "bracket_relations_omega[n=4]", "bracket_relations_omega[n=5]",
        "transverse_structure[n=3]", "transverse_structure[n=4]"}),
    "negated_winding": ((maslov, "_principal", negated_principal), {
        "maslov_calibration", "maslov_theorem[n=3]"}),
    # the rank guard calls regular frames near the Sigma_1 point degenerate
    "loose_frame_gram_tolerance": ((maslov, "FRAME_GRAM_TOL", 1e-3), {"maslov_theorem[n=3]"}),
    # the spectrum drifts along a loosely integrated flow
    "loose_flow_rtol": ((verify, "integrate_flow", loose_flow), {"isospectral_flows[n=3]"}),
    # the spectrum stays put along each of these; the centre of mass does not move as
    # sum_j c_j Tr L^(j-1) says
    "backward_flow": ((verify, "integrate_flow", backward_flow), {"isospectral_flows[n=3]"}),
    "shifted_flow": ((verify, "integrate_flow", shifted_flow), {"isospectral_flows[n=3]"}),
    "frozen_flow": ((verify, "integrate_flow", frozen_flow), {"isospectral_flows[n=3]"}),
    # every Lax power table holds Lbar as its even class and L as its odd one, and the
    # finder fails to converge; char_poly_offset and corank_random read both classes alike
    # and cannot see it, nor can the flows, and n = 2's involution holds with either class
    "classes_swapped": ((lax, "_class_signs", swapped_class_signs), (
        each_size("off_band trace_gap lax_equations interlacing omega_spectra corank_omega "
                  "bracket_relations_omega", range(2, 6))
        | each_size("involution", range(3, 6))
        | each_size("sigma1_components corank_sigma1 transverse_structure", (3, 4))
        | {"holonomy_omega_line[n=2]", "maslov_theorem[n=3]"})),
}


def test_clean_run_passes():
    assert set(failing_records()) == set()


@pytest.mark.parametrize("name", DEFECTS)
def test_defect_fails_its_checks(name, monkeypatch):
    (module, attr, value), caught = DEFECTS[name]
    monkeypatch.setattr(module, attr, value)
    assert set(failing_records()) == caught


def test_a_vanishing_pairing_fails_with_its_reason(monkeypatch):
    # the bracket check and the finder's frequencies meet it, and each check that does is
    # recorded as failed with the typed error
    monkeypatch.setattr(singularity, "pairing_denominator", vanishing_pairing)
    failing = failing_records()
    assert set(failing) == (
        each_size("bracket_relations_omega", range(2, 6))
        | each_size("sigma1_components corank_sigma1 transverse_structure", (3, 4))
        | {"holonomy_omega_line[n=2]", "maslov_theorem[n=3]"})
    for check_id in ("bracket_relations_omega[n=3]", "sigma1_components[n=4]",
                     "maslov_theorem[n=3]"):
        assert "VanishingPairingError: vanishing pair pairing" in failing[check_id].detail
