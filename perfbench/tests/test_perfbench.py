"""Each output check of the benchmark accepts a real output and rejects a planted wrong one."""

from dataclasses import replace
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from todalax.lax import PhasePoint  # noqa: E402
from todalax.singularity import PairTarget  # noqa: E402

Z3 = PhasePoint(np.array([0.2, -0.4, 0.1]), np.array([0.3, -0.1, 0.5]))


# -- points --------------------------------------------------------------

@pytest.fixture(scope="module")
def point():
    out = workloads.point_op(Z3)
    workloads._check_point(Z3, out)
    return out


@pytest.mark.parametrize("field,value", [
    ("involution", 2e-9),
    ("lax_residual", 1e-7),
    ("off_band", 1e-9),
    ("trace_gap", 1e-8),
    ("char_deviation", 1e-7),
    ("char_constant", -4.001),
    ("interlacing_violations", 1),
    ("corank", 1),
    ("nubar", 1),
    ("inconclusive", True),
])
def test_point_check_rejects_planted_residual(point, field, value):
    with pytest.raises(CheckFailed):
        checks.check_point(Z3, replace(point, **{field: value}))


def test_point_check_rejects_wrong_integrals(point):
    with pytest.raises(CheckFailed, match="integrals"):
        checks.check_point(Z3, replace(point, integrals=point.integrals * (1 + 1e-8)))


def test_point_check_rejects_wrong_gradient(point):
    grads = list(point.grads)
    g = grads[1]
    grads[1] = type(g)(g.dq + 1e-4, g.dp)
    with pytest.raises(CheckFailed, match="central differences"):
        checks.check_point(Z3, replace(point, grads=grads))


# -- flows ---------------------------------------------------------------

def _flow(tmp_path, j, method="rk45"):
    spec = workloads.FlowSpec(Z3.q, Z3.p, np.eye(3)[j - 1], method, 0.2)
    path = workloads.flow_op(spec, str(tmp_path / f"flow{j}{method}.csv"))
    checks.check_flow(spec, path)
    return spec, path


def _rewrite(path, data, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _drift_momentum(path, rate):
    """Plant a trajectory that drifts off its level set; F columns stay consistent."""
    header, data = checks.read_trajectory(path)
    n = (data.shape[1] - 1) // 3
    data[:, n + 1] += rate * data[:, 0]
    for row in data:
        row[2 * n + 1:] = checks.own_traces(row[1:n + 1], row[n + 1:2 * n + 1])
    _rewrite(path, data, header)


def test_flow_check_rejects_drifting_trace(tmp_path):
    spec, path = _flow(tmp_path, 2)
    _drift_momentum(path, 1e-6)
    with pytest.raises(CheckFailed, match="drift"):
        checks.check_flow(spec, path)


def test_flow_check_rejects_inconsistent_F_column(tmp_path):
    spec, path = _flow(tmp_path, 3)
    header, data = checks.read_trajectory(path)
    data[-1, -1] *= 1 + 1e-9
    _rewrite(path, data, header)
    with pytest.raises(CheckFailed, match="F columns"):
        checks.check_flow(spec, path)


def test_flow_check_rejects_wrong_translation(tmp_path):
    spec, path = _flow(tmp_path, 1)
    header, data = checks.read_trajectory(path)
    data[:, 1:4] += 1e-6 * data[:, :1]
    for row in data:
        row[7:] = checks.own_traces(row[1:4], row[4:7])
    _rewrite(path, data, header)
    with pytest.raises(CheckFailed, match="F_1 flow"):
        checks.check_flow(spec, path)


def test_flow_check_rejects_leapfrog_energy_error(tmp_path):
    spec, path = _flow(tmp_path, 2, method="verlet")
    _drift_momentum(path, 1e-3)
    with pytest.raises(CheckFailed, match="energy"):
        checks.check_flow(spec, path)


def test_flow_check_rejects_wrong_vector_field(tmp_path):
    spec, path = _flow(tmp_path, 2)
    with pytest.raises(CheckFailed, match="vector field"):
        checks.check_flow(replace(spec, c=np.array([0.0, 0.0, 1.0])), path)


# -- loops ---------------------------------------------------------------

PARAMS = workloads.LoopParams(0.3, -0.2, 0.01, 2e-3, 0.05)


@pytest.fixture(scope="module")
def loop():
    out = workloads._with_reversed(
        workloads.loop_op(3, PairTarget(True, 1), PARAMS, samples=4))
    checks.check_loop(out)
    return out


def test_loop_check_rejects_wrong_sign_of_mu(loop):
    with pytest.raises(CheckFailed, match="sigma"):
        checks.check_loop(replace(loop, mu=-loop.mu, mu_reversed=loop.mu))


def test_loop_check_rejects_wrong_reversed_mu(loop):
    with pytest.raises(CheckFailed, match="reversed"):
        checks.check_loop(replace(loop, mu_reversed=loop.mu))


def test_loop_check_rejects_wrong_holonomy(loop):
    gamma = loop.gamma.copy()
    gamma[:2] = -gamma[:2]
    with pytest.raises(CheckFailed, match="holonomy"):
        checks.check_loop(replace(loop, gamma=gamma))


def test_loop_check_rejects_open_target_pair(loop):
    other = PhasePoint(loop.point.z.q, loop.point.z.p + np.array([1e-3, 0.0, 0.0]))
    with pytest.raises(CheckFailed, match="not closed"):
        checks.check_loop(replace(loop, point=replace(loop.point, z=other)))


def test_regular_loop_check_rejects_nonzero_mu():
    out = workloads.regular_loop_op(replace(PARAMS, regular_radius=0.05))
    checks.check_regular_loop(out)
    with pytest.raises(CheckFailed, match="regular"):
        checks.check_regular_loop(replace(out, mu=2))


def test_enclosure_check_rejects_wrong_count():
    out = workloads.enclosure_op(PARAMS)
    workloads._check_enclosure(out)
    with pytest.raises(CheckFailed, match="enclosure"):
        checks.check_enclosure(replace(out, mu=out.mu + 4))


# -- verify --------------------------------------------------------------

def _report(tmp_path, results):
    path = tmp_path / "report.json"
    timing = {r["id"]: "0.010" for r in results}
    path.write_text(json.dumps({"config": {}, "results": results, "timing": timing}))
    return str(path)


@pytest.fixture
def passing():
    ids = sorted(checks.expected_check_ids(workloads.VERIFY_N))
    return [{"id": i, "status": "pass"} for i in ids]


def test_verify_check_accepts_complete_report(tmp_path, passing):
    seen = checks.check_verify(0, _report(tmp_path, passing), workloads.VERIFY_N)
    assert seen["isospectral_flows_s"] == pytest.approx(0.01)


def test_verify_check_rejects_failed_record(tmp_path, passing):
    passing[3]["status"] = "fail"
    with pytest.raises(CheckFailed, match="not passed"):
        checks.check_verify(0, _report(tmp_path, passing), workloads.VERIFY_N)


def test_verify_check_rejects_missing_check(tmp_path, passing):
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_verify(0, _report(tmp_path, passing[1:]), workloads.VERIFY_N)


def test_verify_check_rejects_exit_code(tmp_path, passing):
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_verify(1, _report(tmp_path, passing), workloads.VERIFY_N)


# -- tracing -------------------------------------------------------------

def test_tracer_counts_calls_and_restores_the_library():
    import todalax.dynamics as dynamics
    import todalax.singularity as singularity
    from tracing import Tracer

    original = dynamics.grad_F
    tracer = Tracer()
    tracer.install()
    try:
        assert singularity.grad_F is dynamics.grad_F is not original
        tracer.recording = True
        singularity.corank(Z3)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert dynamics.grad_F is original and singularity.grad_F is original
    metrics = tracer.metrics(ops=1)
    assert metrics["dynamics.grad_F.calls"] == 3
    assert metrics["linalg.svd.calls"] == 1
    assert metrics["spectral.decompose.calls"] == 2
    assert 0 < metrics["singularity.corank.self_ms"]
