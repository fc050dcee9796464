import json

import numpy as np
import pytest

import todalax.verify as verify
from todalax.cli import main
from todalax.lax import PhasePoint
from todalax.maslov import ClosedCurve, maslov_index
from todalax.reporting import float_str
from todalax.singularity import ConvergenceError, PairTarget
from todalax.verify import RunConfig, run_suite


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_values == [2, 3, 4, 5]
        assert cfg.seed == 42

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"n_values": [3], "bogus": 1})

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            RunConfig(rank_tol=0.0)

    def test_quick_suite_shrinks_samples(self):
        cfg = RunConfig(num_points=200, suite="quick")
        assert cfg.points == 50


class TestVerifyCommand:
    def test_quick_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--n", "2,3", "--points", "20", "--suite", "quick",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        statuses = {r["status"] for r in data["results"]}
        assert statuses == {"pass"}
        captured = capsys.readouterr().out
        assert "checks passed" in captured

    def test_deterministic_results(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "verify", "--n", "2", "--points", "10", "--suite", "quick",
                "--seed", "7", "--out", str(out), "--no-timing",
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_huge_rank_tol_inconclusive_exit_zero(self, capsys):
        code = main([
            "verify", "--n", "2", "--points", "10", "--suite", "quick",
            "--tol.rank", "0.5",
        ])
        assert code == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_corrupted_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"n_values": [2,}')
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [2], "num_points": 10, "suite": "quick"}))
        report = tmp_path / "r.json"
        code = main(["verify", "--config", str(cfg), "--seed", "5", "--out", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["config"]["seed"] == 5


class TestSingularCommand:
    def test_n3_all_targets(self, tmp_path):
        out = tmp_path / "points.json"
        code = main(["singular", "--n", "3", "--targets", "all", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 2
        labels = {pt["target_pairs"][0] for pt in data["points"]}
        assert labels == {"even:1", "odd:1"}
        gaps = [float(g) for pt in data["points"] for g in pt["residual_gaps"]]
        assert max(gaps) < 1e-10

    def test_n4_three_components(self, tmp_path):
        out = tmp_path / "points4.json"
        code = main(["singular", "--n", "4", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 3
        momenta = {tuple(pt["p"]) for pt in data["points"]}
        assert len(momenta) == 3

    def test_joint_targets_higher_stratum(self, tmp_path):
        out = tmp_path / "joint.json"
        code = main([
            "singular", "--n", "4", "--targets", "even:1,odd:1", "--joint",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 1
        assert data["points"][0]["target_pairs"] == ["even:1", "odd:1"]

    def test_requires_single_n(self, capsys):
        assert main(["singular", "--targets", "all"]) == 2

    def test_bad_target_label(self, capsys):
        code = main(["singular", "--n", "3", "--targets", "weird:9"])
        assert code == 2


class TestMaslovCommand:
    @pytest.fixture()
    def singular_center(self, tmp_path):
        out = tmp_path / "pts.json"
        main(["singular", "--n", "3", "--targets", "odd:1", "--out", str(out)])
        data = json.loads(out.read_text())
        pt = data["points"][0]
        return {"q": [float(x) for x in pt["q"]], "p": [float(x) for x in pt["p"]]}

    def test_circle_spec(self, tmp_path, singular_center):
        spec = {
            "type": "circle",
            "center": singular_center,
            "pair": "odd:1",
            "radius": 2e-3,
            "samples": 256,
        }
        spec_path = tmp_path / "curve.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "maslov.json"
        trace = tmp_path / "trace.csv"
        code = main(["maslov", str(spec_path), "--out", str(out), "--trace-csv", str(trace)])
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["mu"]) == 2
        assert data["agree"] is True
        assert data["even_product"] == data["odd_product"] == -1
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,winding_argument"
        assert len(lines) > 100
        # the trace is the winding walk's own, row for row
        curve = ClosedCurve.around_pair(
            PhasePoint(np.array(singular_center["q"]), np.array(singular_center["p"])),
            PairTarget(True, 1), radius=2e-3, initial_samples=256,
        )
        expected = [f"{float_str(t)},{float_str(phi)}"
                    for t, phi in maslov_index(curve).winding_trace]
        assert lines[1:] == expected

    def test_sample_loop_regular(self, tmp_path):
        base = np.array([0.5, -0.2, 0.1, 0.3, 0.9, -0.4])
        pts = []
        for t in np.linspace(0, 1, 33):
            d = np.zeros(6)
            d[0] = 0.05 * np.cos(2 * np.pi * t)
            d[4] = 0.05 * np.sin(2 * np.pi * t)
            v = base + d
            pts.append({"q": list(v[:3]), "p": list(v[3:])})
        pts[-1] = pts[0]
        spec_path = tmp_path / "loop.json"
        spec_path.write_text(json.dumps({"type": "samples", "points": pts}))
        out = tmp_path / "m.json"
        code = main(["maslov", str(spec_path), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mu"] == 0
        assert data["gamma"] == [1, 1, 1]

    def test_loop_through_singularity_fails_cleanly(self, tmp_path, singular_center, capsys):
        q = singular_center["q"]
        p = singular_center["p"]
        near = {"q": [q[0] + 1e-3, q[1], q[2]], "p": p}
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "type": "samples",
            "points": [near, {"q": q, "p": p}, near],
        }))
        code = main(["maslov", str(spec_path)])
        assert code == 1
        assert "singular" in capsys.readouterr().err

    def test_unknown_curve_type(self, tmp_path):
        spec_path = tmp_path / "odd.json"
        spec_path.write_text(json.dumps({"type": "spiral"}))
        assert main(["maslov", str(spec_path)]) == 2


class TestIntegrateCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "integrate", "--q", "0.1,-0.1,0.0", "--p", "0.0,0.2,-0.2",
            "--c", "0,1,0", "--t-final", "5", "--samples", "11",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q_1,q_2,q_3,p_1,p_2,p_3,F_1,F_2,F_3"
        assert len(lines) == 12
        rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
        # conserved traces stay flat
        assert np.max(np.abs(rows[:, 7:] - rows[0, 7:])) < 1e-8

    def test_dimension_mismatch_is_config_error(self, capsys):
        code = main([
            "integrate", "--q", "0.1,-0.1", "--p", "0.0",
            "--c", "0,1", "--out", "/tmp/x.csv",
        ])
        assert code == 2

    @pytest.mark.parametrize("extra, name", [
        (["--t-final", "0"], "t_final"),
        (["--t-final", "0", "--method", "verlet"], "t_final"),
        (["--t-final", "-1", "--method", "verlet"], "t_final"),
        (["--method", "verlet", "--dt", "0"], "dt"),
        (["--method", "verlet", "--dt=-1e-3"], "dt"),
        (["--q", "0.1,700.0"], "overflows"),
        (["--samples", "0"], "samples"),
    ])
    def test_bad_times_and_points_are_config_errors(self, tmp_path, capsys, extra, name):
        out = tmp_path / "traj.csv"
        code = main(["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1",
                     "--samples", "3", "--out", str(out), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert not out.exists()

    def test_backward_rk45_supported(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1",
                     "--t-final", "-1", "--samples", "3", "--out", str(out)])
        assert code == 0
        times = [float(ln.split(",")[0]) for ln in out.read_text().splitlines()[1:]]
        assert times == [0.0, -0.5, -1.0]


def test_suite_keeps_failure_reasons(monkeypatch):
    # a finder failure fails the checks that need it, with its message,
    # and the rest of the suite still runs
    def planted(*args, **kwargs):
        raise ConvergenceError("planted")

    monkeypatch.setattr(verify, "find_singular", planted)
    report = run_suite(RunConfig(n_values=[2, 3], num_points=10, suite="quick",
                                 flow_t_final=1.0))
    by_id = {r.check_id: r for r in report.records}
    for check_id in ("sigma1_components[n=3]", "holonomy_omega_line[n=2]",
                     "maslov_theorem[n=3]"):
        assert by_id[check_id].status == "fail"
        assert "planted" in by_id[check_id].detail
        assert by_id[check_id].to_json_dict()["detail"] == by_id[check_id].detail
    assert "isospectral_flows[n=3]" in by_id
    assert all("detail" not in r.to_json_dict() for r in report.records if not r.detail)
    # the checks that run on the finder's points fail and name what is missing
    for check_id in ("corank_sigma1[n=3]", "transverse_structure[n=3]"):
        assert by_id[check_id].status == "fail"
        assert by_id[check_id].detail == "no sigma1_components[n=3] point for even:1, odd:1"
    assert {r.check_id for r in report.failures} == {
        "sigma1_components[n=3]", "holonomy_omega_line[n=2]", "maslov_theorem[n=3]",
        "corank_sigma1[n=3]", "transverse_structure[n=3]",
    }


def test_suite_runs_inconclusive_band(tmp_path):
    # an absurd rank tolerance turns corank checks inconclusive, not failed
    report = run_suite(RunConfig(n_values=[2], num_points=10, suite="quick", rank_tol=0.5))
    assert not report.failures
    assert report.inconclusive
