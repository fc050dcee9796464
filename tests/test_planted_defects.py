"""Planted defects: each one fails named checks of the default suite.

A check that passes under a defect in the computation it checks does not
check it.  Each case plants one defect in the library, runs the default
configuration and asserts which records fail: the checks that catch the
defect, and no other.  A clean run fails none.  Every run builds its
samples afresh, so nothing found under one defect reaches another run.
A defect planted before a run reaches the flow check's forked worker too.
"""

from dataclasses import replace

import numpy as np
import pytest

from todalax import dynamics, lax, maslov, singularity, spectral, verify
from todalax.dynamics import FlowError
from todalax.lax import PhasePoint
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


def stalled_flow(z0, c, t_final, t_eval=None, **kwargs):
    """An integration whose step size underflows at t = 12.5."""
    raise FlowError("integration stopped at t = 12.5: the step size fell below the spacing "
                    "of floating-point numbers")


def far_start_flow(z0, c, t_final, t_eval=None, _flow=verify.integrate_flow, **kwargs):
    """The suite's flow from z0 with its first gap widened past Q_GAP_LIMIT."""
    far = PhasePoint(z0.q + np.eye(z0.n)[0] * lax.Q_GAP_LIMIT, z0.p)
    return _flow(far, c, t_final, t_eval=t_eval, **kwargs)


def even_class_powers(t, j, _power=lax._Powers.power):
    """matrix_power of a table's pair with the even class's power in both classes."""
    return np.repeat(_power(t, j)[:, :1], 2, axis=1)


def power_off_by_one(t, j, _power=lax._Powers.power):
    """matrix_power of a table's pair, one exponent too high from j = 2 on."""
    return _power(t, j + 1 if j >= 2 else j)


def scaled_dq(power, b, _grad=dynamics._grad_from_power):
    """The gradient of Tr(L^j)/j with its q part one percent too large."""
    dq, dp = _grad(power, b)
    return 1.01 * dq, dp


def negated_dq(power, b, _grad=dynamics._grad_from_power):
    """The gradient of Tr(L^j)/j with its q part negated."""
    dq, dp = _grad(power, b)
    return -dq, dp


def shifted_eigenvalues(entries, _decompose=spectral._decompose_stack):
    """A stacked decomposition whose eigenvalues are all 1e-6 too large."""
    vals, *rest = _decompose(entries)
    return (vals + 1e-6, *rest)


# each defect: (the module or class whose attribute it replaces, or a tuple of modules;
# the attribute's name; its value), and the records it fails
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
    # every Lax power table gives Lbar the powers of L: checks that read the odd class's
    # powers see it; the trace gaps and the spectra come from the pair itself
    "even_class_powers": ((lax._Powers, "power", even_class_powers), (
        each_size("off_band lax_equations", range(2, 6))
        | each_size("bracket_relations_omega", range(3, 6))
        | each_size("transverse_structure", (3, 4)))),
    "power_off_by_one": ((lax._Powers, "power", power_off_by_one), (
        each_size("off_band", range(2, 6)) | {"corank_random[n=5]"})),
    # the trace gradients' q part: only the Lax equations compare it with a second route;
    # a flipped sign also reaches the loops' Toda frames, built from the same gradients
    "scaled_gradient_dq": ((dynamics, "_grad_from_power", scaled_dq),
                           each_size("lax_equations", range(2, 6))),
    "negated_gradient_dq": ((dynamics, "_grad_from_power", negated_dq),
                            each_size("lax_equations", range(2, 6)) | {"maslov_theorem[n=3]"}),
    # every stacked decomposition, at each module that calls it: of the checks that read
    # eigenvalues, only the Hessian's dyads and frequencies at the singular points see 1e-6
    "shifted_eigenvalues": (((spectral, singularity, maslov), "_decompose_stack",
                             shifted_eigenvalues), each_size("transverse_structure", (3, 4))),
}


def test_clean_run_passes():
    assert set(failing_records()) == set()


@pytest.mark.parametrize("name", DEFECTS)
def test_defect_fails_its_checks(name, monkeypatch):
    (modules, attr, value), caught = DEFECTS[name]
    for module in modules if isinstance(modules, tuple) else (modules,):
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


# each flow defect: its integrate_flow and the reason the flow check's record keeps
FLOW_ERRORS = {
    "stalled_flow": (stalled_flow, "FlowError: integration stopped at t = 12.5: the step size "
                     "fell below the spacing of floating-point numbers"),
    "far_start_flow": (far_start_flow, "PhaseDomainError: coupling b_1 overflows: "
                       "|q_1 - q_2| = 601 exceeds 600.0"),
}


@pytest.mark.parametrize("name", FLOW_ERRORS)
def test_a_flow_error_fails_its_check_with_its_reason(name, monkeypatch, suite_path):
    # the suite used to raise these and write no report; from the forked worker and
    # in process alike, the flow check is recorded as failed with the typed error
    flow, reason = FLOW_ERRORS[name]
    monkeypatch.setattr(verify, "integrate_flow", flow)
    failing = failing_records()
    assert len(suite_path.pids) == suite_path.forked
    assert set(failing) == {"isospectral_flows[n=3]"}
    assert failing["isospectral_flows[n=3]"].detail == reason
