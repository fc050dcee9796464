"""scripts/bench_pairs.py compares the benchmark files of both checkouts before it runs any,
and flags a metric whose parent runs spread too wide for its bound."""

import importlib.util
import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(root: Path, files: dict[str, str]) -> str:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "run", "perfbench/tests/test_x.py": "t"}


def test_run_outputs_and_caches_are_not_compared(tmp_path):
    a = _checkout(tmp_path / "a", {**BENCH, "perfbench/out/r.json": "1",
                                   "perfbench/__pycache__/run.pyc": "x"})
    b = _checkout(tmp_path / "b", {**BENCH, "perfbench/out/r.json": "2",
                                   "perfbench/tests/__pycache__/test_x.pyc": "y"})
    assert bench_pairs.differing_bench_files(a, b) == []


def test_differing_and_one_sided_files_are_named(tmp_path):
    a = _checkout(tmp_path / "a", {**BENCH, "perfbench/extra.py": "e"})
    b = _checkout(tmp_path / "b", {**BENCH, "BENCHMARK.json": "{ }",
                                   "perfbench/run.py": "run2"})
    assert bench_pairs.differing_bench_files(a, b) == [
        "BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py"]


def test_main_stops_before_any_run(tmp_path, monkeypatch):
    sides = {"P": _checkout(tmp_path / "p", BENCH),
             "C": _checkout(tmp_path / "c", {**BENCH, "perfbench/run.py": "changed"})}
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: sides[rev])

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit, match=r"differing files: perfbench/run\.py$"):
        bench_pairs.main(["--parent", "P", "--change", "C", "--label", "t", "--seed0", "1",
                          "--workdir", str(tmp_path)])
    assert not (ROOT / "BENCH_t.json").exists()


def test_change_side_is_a_commit_with_a_dirty_flag():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    described = bench_pairs.describe_change(None)
    assert described["change"] == head and isinstance(described["change_dirty"], bool)
    assert bench_pairs.describe_change("HEAD") == {"change": head, "change_dirty": False}


def test_change_side_is_a_fresh_copy_of_this_checkout(tmp_path, monkeypatch, request):
    # without --change the change runs from a copy of the working tree, as free of bytecode
    # caches as the parent's export, not from this checkout with its __pycache__
    cache = ROOT / "src" / "todalax" / "__pycache__"
    cache.mkdir(exist_ok=True)
    probe = cache / f"probe-{os.getpid()}.pyc"
    probe.write_bytes(b"")
    request.addfinalizer(probe.unlink)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: bench_pairs.copy_worktree(dest))
    checkouts = []

    def first_pair(checkout, *args):
        # pair 0 runs the parent, then the change: look at both while they exist
        tree = Path(checkout)
        checkouts.append((tree, sorted(tree.rglob("__pycache__")),
                          (tree / "src" / "todalax" / "verify.py").read_bytes()))
        if len(checkouts) == 2:
            raise SystemExit("stop after the first pair")
        return {"failed": 0, "metrics": {}}

    monkeypatch.setattr(bench_pairs, "run_once", first_pair)
    with pytest.raises(SystemExit, match="stop after the first pair"):
        bench_pairs.main(["--parent", "HEAD", "--label", "t", "--seed0", "1",
                          "--workloads", "verify=1", "--workdir", str(tmp_path)])
    (parent, _, _), (change, caches, source) = checkouts
    assert change != ROOT and change.is_relative_to(tmp_path) and change != parent
    assert caches == []
    assert source == (ROOT / "src" / "todalax" / "verify.py").read_bytes()


def _results(parent: list[float], change: list[float]) -> dict:
    def run(value):
        # the lower-is-better metric mirrors the higher one about 10
        return {"metrics": {"ops_per_s": {"value": value}, "op_p50_ms": {"value": 20.0 - value}},
                "failed": 0, "attempted": 10}

    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


DECLARED = {"ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
            "op_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25}}


@pytest.mark.parametrize("parent, change, unresolved", [
    # parent IQR / median = 0.4 > 0.25, and the sides interleave
    ([5.0, 8.0, 10.0, 12.0, 15.0], [9.0, 11.0, 14.0, 8.0, 12.0], True),
    # as wide, but every change run beats every parent run
    ([5.0, 8.0, 10.0, 12.0, 15.0], [16.0, 17.0, 18.0, 16.5, 19.0], False),
    # parent IQR / median = 0.1 <= 0.25: the bound test can tell
    ([9.5, 10.0, 10.5, 9.0, 11.0], [9.0, 11.0, 14.0, 8.0, 12.0], False),
])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(parent, change, unresolved):
    seeds = list(range(len(parent)))
    metrics = bench_pairs.summarise(_results(parent, change), seeds, DECLARED)["metrics"]
    assert metrics["ops_per_s"]["unresolved"] is unresolved
    assert metrics["op_p50_ms"]["unresolved"] is unresolved


def test_help_runs_without_scipy():
    # scipy is a test-only dependency: the script reads its version from the metadata
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            "sys.argv = ['bench_pairs.py', '--help']; "
            f"runpy.run_path({str(ROOT / 'scripts' / 'bench_pairs.py')!r}, run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bench_pairs.py")


def test_scipy_version_without_the_package(monkeypatch):
    def missing(name):
        raise bench_pairs.importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(bench_pairs.importlib.metadata, "version", missing)
    assert bench_pairs.scipy_version() == "not installed"


@pytest.mark.parametrize("flag", [True, False])
def test_host_line_names_the_bytecode_setting(monkeypatch, flag):
    # the runs inherit it: without bytecode caches each one compiles the sources it imports
    monkeypatch.setattr(sys, "dont_write_bytecode", flag)
    assert bench_pairs.host_line().endswith(f"; sys.dont_write_bytecode {flag}")
