import argparse
from dataclasses import replace
import json
import os
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

from todalax import cli, dynamics, maslov, singularity, spectral
import todalax.verify as verify
from todalax.cli import main
from todalax.dynamics import integrate_flow
from todalax.lax import PhaseDomainError, PhasePoint
from todalax.maslov import ClosedCurve, check_holonomy_theorem, maslov_index
from todalax.reporting import float_str
from todalax.singularity import ConvergenceError, PairTarget
from todalax.verify import CHECKS, RunConfig, Sample, run_suite

DATA = Path(__file__).parent / "data"
# thresholds and the flow time are module constants: a config naming one is
# refused as an unknown key, whatever its value
CONSTANT_KEYS = {"flow_t_final", "degeneracy_tol", "rank_tol", "bracket_tol", "ode_rtol"}


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_values == [2, 3, 4, 5]
        assert cfg.seed == 42

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"n_values": [3], "bogus": 1})

    def test_quick_suite_shrinks_samples(self):
        cfg = RunConfig(num_points=200, suite="quick")
        assert cfg.points == 50

    @pytest.mark.parametrize("bad, name", [
        ({"n_values": [2, 2]}, "distinct"),
        ({"n_values": [3, 2, 3]}, "distinct"),
        ({"flow_t_final": 0.0}, "flow_t_final"),
        ({"flow_t_final": float("inf")}, "flow_t_final"),
        ({"flow_t_final": float("nan")}, "flow_t_final"),
        ({"seed": -1}, "seed"),
        ({"rank_tol": float("nan")}, "rank_tol"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"num_points": 10.5}, "num_points"),
        ({"num_points": True}, "num_points"),
        ({"n_values": [2.5]}, "n_values"),
        ({"n_values": [3.0]}, "n_values"),
        ({"n_values": [2, True]}, "n_values"),
        ({"rank_tol": True}, "rank_tol"),
        ({"ode_rtol": float("inf")}, "ode_rtol"),
        ({"flow_t_final": True}, "flow_t_final"),
        ({"degeneracy_tol": "1e-8"}, "degeneracy_tol"),
        ({"bracket_tol": 1e-7}, "bracket_tol"),
        ({"ode_rtol": 1e-15}, "ode_rtol"),
        ({"n_values": []}, "n_values must list at least one size"),
    ])
    def test_rejects_bad_values(self, bad, name):
        with pytest.raises(ValueError, match=name) as exc:
            RunConfig.from_dict(bad)
        assert ("unknown config keys" in str(exc.value)) == bool(CONSTANT_KEYS & set(bad))


def test_registry_tolerances_are_pinned():
    # every bound as the suite has always had it: loosening one shows here
    assert {c.name: c.tolerance for c in CHECKS} == {
        "off_band": 1e-10, "trace_gap": 1e-9, "char_poly_offset": 1e-8, "involution": 1e-9,
        "lax_equations": 1e-8, "interlacing": 1.0, "omega_spectra": 1e-12,
        "corank_omega": 0.5, "corank_random": 1.0, "bracket_relations_omega": 1e-7,
        "sigma1_components": 0.5, "corank_sigma1": 0.5, "transverse_structure": 1e-6,
        "maslov_calibration": 0.5, "holonomy_omega_line": 0.5, "maslov_theorem": 0.5,
        "isospectral_flows": 1e-8,
    }
    # the bounds of the canonical-structure checks and the flow check's time
    assert (verify.BRACKET_TOL, verify.RATIO_TOL, verify.M_INDEPENDENCE_TOL,
            verify.TANGENT_TOL) == (1e-7, 1e-6, 1e-9, 1e-6)
    assert verify.FLOW_T_FINAL == 50.0
    # the suite's thresholds and the integrator's error control
    assert (spectral.DEGENERACY_TOL, singularity.RANK_TOL) == (1e-8, 1e-7)
    assert (dynamics.DEFAULT_RTOL, dynamics.ATOL) == (1e-11, 1e-12)
    # the fixed limits of the eigen-decomposition, the finder and the loop walkers
    assert spectral.INTERLACING_TOL == 1e-12
    assert (singularity.MAX_ITER, singularity.GAP_TOL, singularity.FRAME_OVERLAP) == (
        50, 1e-10, 0.9)
    assert singularity.HESSIAN_STEP == 1e-5
    assert (maslov.MIN_OVERLAP, maslov.REGULARITY_TOL, maslov.MAX_EVALUATIONS) == (
        0.9, 1e-8, 200000)
    assert maslov.FRAME_GRAM_TOL == 1e-10
    assert maslov.GRID_CHUNK == 128
    assert (maslov.CALIBRATION_SAMPLES, maslov.CIRCLE_SAMPLES, maslov.CORRIDOR_SAMPLES) == (
        128, 256, 32)


def test_isospectral_flows_evaluation_count(monkeypatch):
    # the integrator's cost as a count, which repeats exactly where a timing would not
    trajectories = []

    def counted(*args, **kwargs):
        trajectories.append(integrate_flow(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(verify, "integrate_flow", counted)
    check = next(c for c in CHECKS if c.name == "isospectral_flows")
    assert check.run(Sample(3)).status == "pass"
    assert len(trajectories) == 2
    assert sum(t.nfev for t in trajectories) < 20_000


@pytest.mark.parametrize("n", [2, 5])
def test_off_band_takes_one_svd_per_size(monkeypatch, n):
    # ||L||_2 does not depend on the power j; matrix_power still runs once per j
    calls = {"svd": 0, "matrix_power": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    check = next(c for c in CHECKS if c.name == "off_band")
    sample = Sample(n, *verify.random_points(np.random.default_rng(3), n, 20))
    assert check.run(sample).status == "pass"
    assert calls == {"svd": 1, "matrix_power": n}


class TestVerifyCommand:
    @pytest.mark.parametrize("argv, golden", [
        (["--n", "2,3", "--points", "20", "--suite", "quick"], "verify_quick.json"),
        ([], "verify_default.json"),  # the default config: n = 2..5, 200 points
    ], ids=["quick", "default"])
    def test_quick_run_passes(self, tmp_path, capsys, argv, golden):
        out = tmp_path / "report.json"
        code = main(["verify", *argv, "--out", str(out), "--no-timing"])
        assert code == 0
        data = json.loads(out.read_text())
        statuses = {r["status"] for r in data["results"]}
        assert statuses == {"pass"}
        captured = capsys.readouterr().out
        assert "checks passed" in captured
        # every id, residual and tolerance as the suite has always reported them
        assert out.read_bytes() == (DATA / golden).read_bytes()

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

    def test_spectral_error_fails_its_check(self, tmp_path, capsys, monkeypatch):
        # at this tolerance every eigenvalue of a random n = 3 point counts as one
        # degenerate triple; the suite used to die with a traceback
        monkeypatch.setattr(spectral, "DEGENERACY_TOL", 0.9)
        out = tmp_path / "r.json"
        code = main(["verify", "--n", "3", "--points", "10", "--suite", "quick",
                     "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        record = next(r for r in json.loads(out.read_text())["results"]
                      if r["id"] == "corank_random[n=3]")
        assert record["status"] == "fail"
        # the error of the lowest failing point, as the per-point loop met it
        assert record["detail"] == (
            "TripleDegeneracyError: eigenvalues 0..2 all within 3.102e+00; "
            "check the degeneracy tolerance and the input matrix")

    def test_failing_sigma1_checks_name_what_broke(self, monkeypatch):
        # each used to fold its terms into one max and fail with an empty detail;
        # the points are found at the default tolerance, then checked at a huge one
        sample = Sample(3)
        assert len(sample.sigma1[0]) == 2
        monkeypatch.setattr(spectral, "DEGENERACY_TOL", 0.9)
        # a found point carries the spectra it was found with: decompose them again at 0.9
        found, missing, reason = sample.sigma1
        sample.sigma1 = ([replace(sp, spectra=spectral.spectra(sp.z)) for sp in found],
                         missing, reason)
        corank, transverse = (next(c for c in CHECKS if c.name == name).run(sample)
                              for name in ("corank_sigma1", "transverse_structure"))
        assert corank.status == transverse.status == "fail"
        assert corank.detail == ("even:1: corank 1 != nu + nubar = 2; "
                                 "odd:1: corank 1 != nu + nubar = 2")
        reasons = transverse.detail.split("; ")
        assert "odd:1: pairing m-dependence 8.637e-03" in reasons
        assert all(r.startswith(("even:1: ", "odd:1: ")) for r in reasons)

    def test_huge_rank_tol_inconclusive_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(singularity, "RANK_TOL", 0.5)
        code = main(["verify", "--n", "2", "--points", "10", "--suite", "quick"])
        assert code == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_corrupted_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"n_values": [2,}')
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    @pytest.mark.parametrize("args, config, name", [
        (["--n", "2,2"], None, "distinct"),
        (["--seed", "-1"], None, "seed"),
        ([], '{"flow_t_final": 0}', "flow_t_final"),
        ([], '{"flow_t_final": Infinity}', "flow_t_final"),
        ([], '{"flow_t_final": NaN}', "flow_t_final"),
        ([], '{"seed": 1.5, "n_values": [2], "suite": "quick"}', "seed"),
        ([], '{"seed": true, "n_values": [2], "suite": "quick"}', "seed"),
        ([], '{"num_points": 10.5, "n_values": [2], "suite": "quick"}', "num_points"),
        ([], '{"n_values": [2.5], "suite": "quick"}', "n_values"),
        ([], '{"n_values": [2, false], "suite": "quick"}', "n_values"),
        ([], '{"rank_tol": true}', "rank_tol"),
        ([], '{"degeneracy_tol": "1e-8"}', "degeneracy_tol"),
        ([], '{"bracket_tol": 1e-7}', "bracket_tol"),
        ([], '{"ode_rtol": 1e-11}', "ode_rtol"),
        ([], '[1, 2]', "must hold a JSON object, got list"),
        (["--n", "2"], '"n_values"', "must hold a JSON object, got str"),
        # an empty size list used to run maslov_calibration alone and exit 0
        (["--n", ""], None, "n_values must list at least one size"),
        ([], '{"n_values": []}', "n_values must list at least one size"),
    ])
    def test_bad_config_exit_two_before_any_check(self, tmp_path, capsys, args, config, name):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            args = [*args, "--config", str(path)]
        out = tmp_path / "r.json"
        assert main(["verify", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and name in captured.err
        keys = set(json.loads(config)) if config else set()
        assert ("unknown config keys" in captured.err) == bool(CONSTANT_KEYS & keys)
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("out", ["5", "true"])
    def test_non_string_out_is_config_error(self, tmp_path, out):
        # 5 was opened as file descriptor 5 after the whole suite ran, and true
        # wrote the report onto stdout and closed it; a fresh process keeps
        # the test runner's own descriptors out of reach
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"n_values": [2], "suite": "quick", "num_points": 10, "out": {out}}}')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = ("import sys\nfrom todalax.cli import main\ncode = main(sys.argv[1:])\n"
                  "print('stdout open')\nsys.exit(code)")
        run = subprocess.run([sys.executable, "-c", script, "verify", "--config", str(cfg)],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
        assert run.returncode == 2
        assert run.stderr.startswith("config error: out must be a path string or null")
        assert run.stdout == "stdout open\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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

    def test_n4_all_targets_output_is_pinned(self, capsys):
        # every byte the command prints; the finder's stored spectra stay out of it
        assert main(["singular", "--n", "4", "--targets", "all"]) == 0
        assert capsys.readouterr().out.encode() == (DATA / "singular_n4.json").read_bytes()

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

    @pytest.mark.parametrize("option, value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--p0", "nan"), ("--p0", "inf"),
    ])
    def test_non_finite_seed_is_config_error(self, capsys, option, value):
        assert main(["singular", "--n", "3", option, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {option} {value}: ")

    def test_eigenvalue_failure_is_an_error(self, capsys):
        # at p0 = 1e17 the whole spectrum is one rounding step wide
        assert main(["singular", "--n", "3", "--p0", "1e17"]) == 1
        assert capsys.readouterr().err.startswith("error: target ['even:1']: eigenvalues 0..2")


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
        # orientation -1 walks the same circle reversed
        spec_path.write_text(json.dumps({**spec, "orientation": -1}))
        assert main(["maslov", str(spec_path), "--out", str(out), "--trace-csv", str(trace)]) == 0
        rev = json.loads(out.read_text())
        assert rev["mu"] == -data["mu"] and rev["agree"] is True
        assert (rev["gamma"], rev["gammabar"]) == (data["gamma"], data["gammabar"])
        expected = [f"{float_str(t)},{float_str(phi)}"
                    for t, phi in maslov_index(curve.reversed()).winding_trace]
        assert trace.read_text().splitlines()[1:] == expected

    def test_coarse_circle_returns_the_fine_index(self, tmp_path):
        # the n = 5 even:1 circle from 2 samples printed mu = 0 and exited 1 while 256
        # samples give mu = -2: the one walk bisects the steps whose phase wraps a full
        # turn, and the trace is that walk's accepted t
        pts = tmp_path / "pts.json"
        assert main(["singular", "--n", "5", "--targets", "even:1", "--out", str(pts)]) == 0
        pt = json.loads(pts.read_text())["points"][0]
        center = {"q": [float(x) for x in pt["q"]], "p": [float(x) for x in pt["p"]]}
        spec_path = tmp_path / "curve.json"
        spec_path.write_text(json.dumps({"type": "circle", "center": center, "pair": "even:1",
                                         "radius": 2e-3, "samples": 2}))
        out, trace = tmp_path / "maslov.json", tmp_path / "trace.csv"
        code = main(["maslov", str(spec_path), "--out", str(out), "--trace-csv", str(trace)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mu"] == -2 and data["agree"] is True
        curve = ClosedCurve.around_pair(
            PhasePoint(np.array(center["q"]), np.array(center["p"])),
            PairTarget(False, 1), radius=2e-3, initial_samples=2,
        )
        walk = check_holonomy_theorem(curve).maslov.winding_trace
        assert trace.read_text().splitlines()[1:] == [
            f"{float_str(t)},{float_str(phi)}" for t, phi in walk]
        assert len(walk) > len(maslov_index(curve).winding_trace)

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

    @pytest.mark.parametrize("samples", [0, 1, 2.5])
    def test_too_few_samples_is_config_error(self, tmp_path, singular_center, capsys, samples):
        # 0 and 1 used to give mu = 0 and "agree"; 2.5 was truncated to 2
        spec_path = tmp_path / "curve.json"
        spec_path.write_text(json.dumps({"type": "circle", "center": singular_center,
                                         "pair": "odd:1", "radius": 2e-3, "samples": samples}))
        assert main(["maslov", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "at least 2" in err

    @pytest.mark.parametrize("orientation", [0, 1.7])
    def test_bad_orientation_is_config_error(self, tmp_path, singular_center, capsys,
                                             orientation):
        # 0 walked a constant loop (mu = 0, "agree"); 1.7 was truncated to 1
        spec_path = tmp_path / "curve.json"
        spec_path.write_text(json.dumps({"type": "circle", "center": singular_center,
                                         "pair": "odd:1", "radius": 2e-3,
                                         "orientation": orientation}))
        assert main(["maslov", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "orientation must be +1 or -1" in err

    def test_eigenvalue_failure_is_an_error(self, tmp_path, capsys):
        pts = [{"q": [0.1 * k, 0.0, -0.1], "p": [1e300] * 3} for k in range(4)]
        spec_path = tmp_path / "huge.json"
        spec_path.write_text(json.dumps({"type": "samples", "points": [*pts, pts[0]]}))
        assert main(["maslov", str(spec_path)]) == 1
        assert capsys.readouterr().err.startswith("error: eigenvalues 0..2")

    def test_curve_spec_must_be_an_object(self, tmp_path, capsys):
        # a JSON list used to end in a traceback
        spec_path = tmp_path / "list.json"
        spec_path.write_text("[]")
        assert main(["maslov", str(spec_path)]) == 2
        assert "must hold a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"type": "samples", "points": 5}, "points must be a list of points, got 5"),
        ({"type": "samples", "points": [1.0, 2.0, 1.0]},
         "point 0 must be an object with q and p, got 1.0"),
        ({"type": "samples", "points": [{"q": [0.1, 0.0], "p": [0.0, 0.0]},
                                        {"q": [0.2, 0.0, 0.0], "p": [0.0, 0.0, 0.0]},
                                        {"q": [0.1, 0.0], "p": [0.0, 0.0]}]},
         "sample points must have one size n, got n = [2, 3]"),
        ({"type": "circle", "center": [1, 2], "pair": "odd:1"},
         "center must be an object with q and p, got [1, 2]"),
        ({"type": "circle", "center": {"q": [0.1, 0.0, -0.1], "p": [0.0, 0.0, 0.0]},
          "pair": "odd:1", "radius": None}, "radius must be a number, got None"),
        ({"type": "circle", "center": {"q": [0.1, 0.0, -0.1], "p": [0.0, 0.0, 0.0]},
          "pair": 1}, "cannot parse pair target 1; expected 'even:R' or 'odd:S'"),
    ], ids=["points-number", "point-number", "mixed-sizes", "center-list", "radius-null",
            "pair-number"])
    def test_curve_spec_of_wrong_shape_is_config_error(self, tmp_path, capsys, spec, message):
        # each used to end in a TypeError traceback (a numpy shape error for mixed sizes)
        spec_path = tmp_path / "curve.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["maslov", str(spec_path)]) == 2
        assert capsys.readouterr().err == f"config error: bad curve spec: {message}\n"

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
        (["--rtol", "-1"], "rtol"),
        (["--rtol", "0"], "rtol"),
        (["--rtol", "nan"], "rtol"),
        (["--rtol", "inf"], "rtol"),
        (["--rtol", "-1", "--method", "verlet"], "rtol"),
        (["--rtol", "1e-20"], "rtol must be at least the floor 100 eps = 2.22e-14"),
        (["--rtol", "1e-15", "--method", "verlet"], "2.22e-14"),
        (["--c", "nan,1"], "coefficient vector c must be finite"),
        (["--c", "0,inf", "--method", "verlet"], "coefficient vector c must be finite"),
    ])
    def test_bad_times_and_points_are_config_errors(self, tmp_path, capsys, extra, name):
        out = tmp_path / "traj.csv"
        code = main(["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1",
                     "--samples", "3", "--out", str(out), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert not out.exists()

    def test_rk45_is_not_a_method(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1",
                  "--method", "rk45", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'rk45'" in capsys.readouterr().err
        assert not out.exists()

    def test_backward_dop853_supported(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1",
                     "--t-final", "-1", "--samples", "3", "--out", str(out)])
        assert code == 0
        times = [float(ln.split(",")[0]) for ln in out.read_text().splitlines()[1:]]
        assert times == [0.0, -0.5, -1.0]


INTEGRATE = ["integrate", "--q", "0.1,-0.1", "--p", "0.0,0.0", "--c", "0,1", "--samples", "3"]


@pytest.mark.parametrize("argv", [
    [*INTEGRATE, "--tol.ode", "1e-3"],
    [*INTEGRATE, "--seed", "3"],
    [*INTEGRATE, "--n", "2"],
    [*INTEGRATE, "--points", "10"],
    [*INTEGRATE, "--suite", "quick"],
    [*INTEGRATE, "--config", "cfg.json"],
    ["singular", "--n", "3", "--seed", "3"],
    ["singular", "--n", "3", "--tol.rank", "0.1"],
    ["maslov", "curve.json", "--n", "3"],
    ["maslov", "curve.json", "--tol.degeneracy", "1e-6"],
    ["verify", "--n", "2", "--rtol", "1e-9"],
    ["verify", "--n", "2", "--tol.degeneracy", "1e-8"],
    ["verify", "--n", "2", "--tol.rank", "1e-7"],
    ["verify", "--n", "2", "--tol.bracket", "1e-7"],
    ["verify", "--n", "2", "--tol.ode", "1e-11"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, argv):
    # integrate --tol.ode 1e-3 used to be accepted and ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_lists_the_verify_flags():
    # the README's flag list and the parser name the same options, so the docs cannot drift
    parser = cli._parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subparsers.choices["verify"]._actions for s in a.option_strings
               if s.startswith("--")} - {"--help"}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("The flags of `todalax verify` are ")
    sentence = readme[start:re.search(r"\.\s", readme[start:]).end() + start]
    assert set(re.findall(r"`(--[\w.-]+)`", sentence)) == options


def test_main_builds_one_parser_and_runs_the_current_command(monkeypatch):
    # the parser is built once; the subcommand's function is looked up when main runs, so
    # a replaced cmd_integrate runs in place of the one defined when the parser was built
    cli._parser.cache_clear()
    ran = []
    monkeypatch.setattr(cli, "cmd_integrate", lambda args: ran.append(args.out) or 0)
    for out in ("a.csv", "b.csv"):
        assert main([*INTEGRATE, "--out", out]) == 0
    assert ran == ["a.csv", "b.csv"]
    assert cli._parser.cache_info().misses == 1


def test_integrate_requires_out(capsys):
    # without --out the CSV writer met a None path
    with pytest.raises(SystemExit) as exc:
        main(INTEGRATE)
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


NO_SCIPY = """
import contextlib, io, json, sys
from pathlib import Path
import todalax.cli
tmp = Path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    assert todalax.cli.main(["verify", "--suite", "quick", "--n", "3"]) == 0
    assert todalax.cli.main(["integrate", "--q", "0.4,-0.3,-0.1", "--p", "0.2,-0.5,0.3",
                             "--c", "0,0,1", "--t-final", "2", "--out", str(tmp / "flow.csv")]) == 0
    assert todalax.cli.main(["singular", "--n", "3", "--targets", "odd:1",
                             "--out", str(tmp / "pts.json")]) == 0
    point = json.loads((tmp / "pts.json").read_text())["points"][0]
    spec = {"type": "circle", "center": {"q": [float(x) for x in point["q"]],
                                         "p": [float(x) for x in point["p"]]},
            "pair": "odd:1", "radius": 2e-3, "samples": 16}
    (tmp / "curve.json").write_text(json.dumps(spec))
    assert todalax.cli.main(["maslov", str(tmp / "curve.json")]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # the library integrates with its own DOP853; scipy is only the tests' oracle
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True)
    assert run.stdout.split() == ["[]"]


def test_random_points_keep_the_per_point_draw_order():
    q, p = verify.random_points(np.random.default_rng(5), 4, 7)
    assert q.shape == p.shape == (7, 4)
    rng = np.random.default_rng(5)
    for k in range(7):
        assert np.array_equal(q[k], verify.DESK_SCALE * rng.standard_normal(4))
        assert np.array_equal(p[k], verify.DESK_SCALE * rng.standard_normal(4))


STACKED = ("off_band", "trace_gap", "char_poly_offset", "involution", "lax_equations",
           "interlacing", "corank_random")


def test_stacked_checks_build_no_per_point_objects(monkeypatch):
    # every random-point check runs on the stacked rows: none builds a PhasePoint
    sample = Sample(4, *verify.random_points(np.random.default_rng(1), 4, 30))

    def forbidden(self):
        raise AssertionError("a random-point check built a PhasePoint")

    monkeypatch.setattr(PhasePoint, "__post_init__", forbidden)
    assert {c.name for c in CHECKS if c.sizes is None} >= set(STACKED)
    for check in CHECKS:
        if check.name in STACKED:
            assert check.run(sample).status == "pass"


def test_stacked_checks_raise_the_phase_point_error_of_a_bad_row():
    q, p = verify.random_points(np.random.default_rng(2), 4, 12)
    q[7] = [0.0, 700.0, 0.0, 0.0]
    with pytest.raises(PhaseDomainError) as own:
        PhasePoint(q[7], p[7])
    for check in CHECKS:
        if check.name in STACKED:
            with pytest.raises(PhaseDomainError, match=f"^{re.escape(str(own.value))}$"):
                check.run(Sample(4, q, p))


@pytest.mark.parametrize("tol", [None, 0.9])
def test_random_points_are_decomposed_once_per_sample(monkeypatch, tol):
    # interlacing and corank_random read one decomposition of both classes, one stack of
    # 2N rows; at a degeneracy tolerance of 0.9 it fails, and both checks report its error
    if tol is not None:
        monkeypatch.setattr(spectral, "DEGENERACY_TOL", tol)
    stacks, decompose_stack = [], spectral._decompose_stack
    monkeypatch.setattr(spectral, "_decompose_stack",
                        lambda entries: stacks.append(len(entries)) or decompose_stack(entries))
    sample = Sample(3, *verify.random_points(np.random.default_rng(4), 3, 40))
    records = [c.run(sample) for c in CHECKS if c.name in ("interlacing", "corank_random")]
    assert stacks == [80]
    if tol is None:
        assert [r.status for r in records] == ["pass", "pass"]
    else:
        assert [r.status for r in records] == ["fail", "fail"]
        assert records[0].detail == records[1].detail
        assert records[0].detail.startswith("TripleDegeneracyError: ")


def test_suite_keeps_failure_reasons(monkeypatch):
    # a finder failure fails the checks that need it, with its message,
    # and the rest of the suite still runs
    def planted(*args, **kwargs):
        raise ConvergenceError("planted")

    monkeypatch.setattr(verify, "find_singular", planted)
    monkeypatch.setattr(verify, "FLOW_T_FINAL", 1.0)
    report = run_suite(RunConfig(n_values=[2, 3], num_points=10, suite="quick"))
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


def test_loop_checks_read_their_singular_point_from_sigma1(monkeypatch):
    # once the sample's sigma1 points are found, the loop checks find only the
    # enclosure's second point, shifted by p + 0.25
    samples = {"maslov_theorem": Sample(3), "holonomy_omega_line": Sample(2)}
    for s in samples.values():
        assert not s.sigma1[2]
    calls = []
    find_singular = verify.find_singular

    def counted(*args, **kwargs):
        calls.append(args)
        return find_singular(*args, **kwargs)

    monkeypatch.setattr(verify, "find_singular", counted)
    for name, expected in (("maslov_theorem", 1), ("holonomy_omega_line", 0)):
        calls.clear()
        check = next(c for c in CHECKS if c.name == name)
        assert check.run(samples[name]).status == "pass"
        assert len(calls) == expected, name


def _holonomy_report(mu, gamma, gammabar):
    return maslov.HolonomyTheoremReport(
        maslov.MaslovResult(mu, np.zeros(1)),
        maslov.HolonomyResult(np.array(gamma), np.array(gammabar)), int((-1) ** (mu // 2)))


def test_failing_maslov_theorem_names_the_loop_and_statement(monkeypatch):
    # the check used to fold its loops into one pass/fail with an empty detail
    monkeypatch.setattr(verify, "check_holonomy_theorem",
                        lambda curve: _holonomy_report(0, [1.0, 1.0, 1.0], [1.0, -1.0, 1.0]))
    monkeypatch.setattr(verify, "enclosure_count_check",
                        lambda disks: maslov.EnclosureReport(-2, (1, 1), -4))
    check = next(c for c in CHECKS if c.name == "maslov_theorem")
    centre = PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4]))
    record = check.run(Sample(3, centres=(centre,)))
    assert record.status == "fail"
    assert record.detail.split("; ") == [
        "pair loop odd:1: agree False, mu 0",
        "contractible loop 0: agree False, mu 0",
        "contractible loop 0: gammabar != +1",
        "enclosure: mu -2 != -2 sum sigma = -4",
    ]


def test_failing_holonomy_omega_line_names_the_statement(monkeypatch):
    monkeypatch.setattr(verify, "check_holonomy_theorem",
                        lambda curve: _holonomy_report(2, [1.0, 1.0], [-1.0, 1.0]))
    check = next(c for c in CHECKS if c.name == "holonomy_omega_line")
    record = check.run(Sample(2))
    assert record.status == "fail"
    assert record.detail.split("; ") == [
        "omega-line loop odd:1: agree False, mu 2",
        "omega-line loop odd:1: gammabar != -1",
        "omega-line loop odd:1: (-1)^(mu/2) = -1, even-index product 1, not -1",
    ]


def test_suite_runs_inconclusive_band(monkeypatch):
    # an absurd rank tolerance turns corank checks inconclusive, not failed
    monkeypatch.setattr(singularity, "RANK_TOL", 0.5)
    report = run_suite(RunConfig(n_values=[2], num_points=10, suite="quick"))
    assert not report.failures
    assert report.inconclusive
