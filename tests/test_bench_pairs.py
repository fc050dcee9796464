"""scripts/bench_pairs.py compares the benchmark files of both checkouts before it runs any."""

import importlib.util
from pathlib import Path
import subprocess

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
