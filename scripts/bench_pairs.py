"""Benchmark a change against a parent commit in alternating pairs of perfbench runs.

    python3 scripts/bench_pairs.py --parent REV --label NAME --what "one line" \
        --workloads loops=10,verify=5 --seed0 701 --claim loops:ops_per_s --trace-pairs 2

Each side runs ``perfbench/run.py`` from its own fresh checkout: the parent
from a ``git archive`` export of REV, the change from an export of
``--change REV`` or, without it, from a copy of this checkout's files
(tracked and untracked, the ignored ones such as ``__pycache__`` aside), so
that neither side starts with bytecode caches the other lacks.  Both
checkouts must hold the same benchmark: ``BENCHMARK.json`` and the files
under ``perfbench/`` (its ``out/`` and the Python caches aside) are compared
first, and a difference stops the script with the names of the differing
files.  Pair k uses seed ``seed0 + k`` on
both sides and runs the parent first when k is even.  The runs are made one at a time.  The
result goes to ``BENCH_<label>.json`` at the root of this checkout: seeds,
per-run metrics, medians, quartiles, pair wins and an unresolved flag of every
end-to-end metric that ``BENCHMARK.json`` declares, and the per-layer metrics of the traced
pairs of the claimed workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve(rev: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def scipy_version() -> str:
    """The installed scipy's version for the host line; the library runs without scipy."""
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def host_line() -> str:
    """Cores, machine, versions, and whether the runs write bytecode caches.

    The runs inherit this interpreter's environment, so
    ``sys.dont_write_bytecode`` (PYTHONDONTWRITEBYTECODE) tells whether a
    run compiles the library's sources on import when no bytecode cache
    exists, as in a fresh export; that compile's memory stays in the
    process, so the size of the sources alone can move peak_rss_mb.
    """
    return (f"{os.cpu_count()} cores, {platform.machine()}; Python "
            f"{platform.python_version()}, numpy {np.__version__}, scipy {scipy_version()}; "
            f"BLAS pinned to one thread by perfbench; sys.dont_write_bytecode "
            f"{sys.dont_write_bytecode}")


def export(rev: str, dest: str) -> str:
    """The files of commit ``rev`` under ``dest``, from ``git archive``."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=fh, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def copy_worktree(dest: str) -> str:
    """This checkout's files under ``dest``: tracked and untracked, not the ignored ones."""
    done = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                           "--exclude-standard"], capture_output=True, check=True)
    tree = os.path.join(dest, "tree")
    for rel in filter(None, os.fsdecode(done.stdout).split("\0")):
        source = os.path.join(ROOT, rel)
        if os.path.isfile(source):  # a tracked file deleted from the working tree is left out
            os.makedirs(os.path.dirname(os.path.join(tree, rel)), exist_ok=True)
            shutil.copy2(source, os.path.join(tree, rel))
    return tree


# directories under perfbench/ that runs and tests write, not part of the benchmark
_NOT_BENCHMARK = {"out", "__pycache__", ".pytest_cache"}


def bench_files(checkout: str) -> dict[str, bytes]:
    """``BENCHMARK.json`` and the files under ``perfbench/`` of a checkout, by relative path."""
    files = {}
    top = os.path.join(checkout, "BENCHMARK.json")
    if os.path.isfile(top):
        with open(top, "rb") as fh:
            files["BENCHMARK.json"] = fh.read()
    for dirpath, dirnames, filenames in os.walk(os.path.join(checkout, "perfbench")):
        dirnames[:] = sorted(d for d in dirnames if d not in _NOT_BENCHMARK)
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, checkout).replace(os.sep, "/")] = fh.read()
    return files


def differing_bench_files(a: str, b: str) -> list[str]:
    """Relative paths of the benchmark files that differ between a and b or exist in one only."""
    fa, fb = bench_files(a), bench_files(b)
    return sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))


def describe_change(rev: str | None) -> dict:
    """The change side's commit; without ``rev``, HEAD of this checkout and whether it is dirty."""
    if rev:
        return {"change": resolve(rev), "change_dirty": False}
    done = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                          capture_output=True, text=True, check=True)
    return {"change": resolve("HEAD"), "change_dirty": bool(done.stdout.strip())}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(sides: dict, workload: str, seeds: list[int], seconds: float, trace: int):
    """Per side, the results of one run per seed, the sides alternating first."""
    out = {side: [] for side in sides}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], workload, seed, seconds, trace)
            out[side].append(res)
            value = {m: round(v["value"], 4) for m, v in res["metrics"].items()
                     if m in ("ops_per_s", "op_p50_ms")}
            print(f"{workload} seed {seed} {side}: failed {res['failed']} {value}",
                  file=sys.stderr, flush=True)
    return out


def quartiles(runs: list[float]) -> dict:
    q25, median, q75 = np.percentile(runs, [25, 50, 75])
    return {"q25": float(q25), "median": float(median), "q75": float(q75), "runs": runs}


def summarise(results: dict, seeds: list[int], declared: dict) -> dict:
    """Medians, quartiles, pair wins and the bound test of each end-to-end metric.

    A metric is unresolved when the parent's own runs spread wider than its
    bound (interquartile range over median) and not every run of the change
    beats every run of the parent: its bound test then cannot tell.
    """
    metrics = {}
    for name, spec in declared.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"]))
        parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
        ratio = change["median"] / parent["median"]
        within = ratio >= 1.0 - spec["bound"] if higher else ratio <= 1.0 + spec["bound"]
        spread = (parent["q75"] - parent["q25"]) / parent["median"]
        beats_all = (min(runs["change"]) > max(runs["parent"]) if higher
                     else max(runs["change"]) < min(runs["parent"]))
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "parent": parent,
                         "change": change, "change_over_parent": ratio, "change_wins": wins,
                         "within_bound": bool(within),
                         "unresolved": bool(spread > spec["bound"] and not beats_all)}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {side: [r["failed"] for r in results[side]] for side in results},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in results},
        "metrics": metrics,
    }


def summarise_traced(results: dict, seeds: list[int]) -> dict:
    names = results["parent"][0]["metrics"]
    metrics = {}
    for name in names:
        entry = {"unit": names[name]["unit"]}
        for side in results:
            runs = [r["metrics"][name]["value"] for r in results[side]]
            entry[side] = {"median": float(np.median(runs)), "runs": runs}
        metrics[name] = entry
    return {"seeds": seeds, "metrics": metrics}


def parse_workloads(text: str, default_pairs: int) -> dict[str, int]:
    out = {}
    for tok in text.split(","):
        name, _, pairs = tok.partition("=")
        out[name] = int(pairs) if pairs else default_pairs
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--change", help="commit of the change (default: this checkout)")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--what", default="", help="one line saying what the change does")
    ap.add_argument("--workloads", default="verify,points,flows,loops",
                    help="comma-separated names, each optionally =PAIRS")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload without =PAIRS")
    ap.add_argument("--seed0", type=int, required=True, help="pair k uses seed seed0 + k")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--trace-pairs", type=int, default=0,
                    help="traced pairs (--trace 1) of the claimed workload")
    ap.add_argument("--workdir", help="where the exported checkouts go (default: a temp dir)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = parse_workloads(args.workloads, args.pairs)
    known = {w["name"] for w in bench["workloads"]}
    if not set(workloads) <= known:
        ap.error(f"unknown workloads {sorted(set(workloads) - known)}")
    claim = args.claim.split(":") if args.claim else None
    if claim and (claim[0] not in workloads or claim[1] not in declared):
        ap.error(f"--claim {args.claim} names no benchmarked workload and metric")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sides = {"parent": export(args.parent, tmp)}
        os.makedirs(os.path.join(tmp, "change"))
        sides["change"] = (export(args.change, os.path.join(tmp, "change")) if args.change
                           else copy_worktree(os.path.join(tmp, "change")))
        differing = differing_bench_files(sides["parent"], sides["change"])
        if differing:
            raise SystemExit("the parent and the change run different benchmarks; differing "
                             f"files: {', '.join(differing)}")
        report = {
            "label": args.label,
            "what": args.what,
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                       "--trace T",
            "host": host_line(),
            "method": "scripts/bench_pairs.py: parent and change run from two fresh checkouts "
                      "whose perfbench/ and BENCHMARK.json files were compared equal before the "
                      "first run, in alternating pairs (pair k runs the parent "
                      "first when k is even), one run at a time, seed seed0 + k for pair k; "
                      "quartiles are numpy percentiles 25/50/75 over the runs of one side; op "
                      "and set-up times are perfbench's host-speed-scaled figures",
            "parent": resolve(args.parent),
            **describe_change(args.change),
            "end_to_end": {},
        }
        for workload, pairs in workloads.items():
            seeds = [args.seed0 + k for k in range(pairs)]
            results = run_pairs(sides, workload, seeds, seconds, 0)
            report["end_to_end"][workload] = summarise(results, seeds, declared)
        if claim:
            workload, metric = claim
            m = report["end_to_end"][workload]["metrics"][metric]
            report["claim"] = {
                "workload": workload, "metric": metric, "pairs": workloads[workload],
                "change_wins": m["change_wins"], "parent_median": m["parent"]["median"],
                "change_median": m["change"]["median"],
                "parent_iqr": m["parent"]["q75"] - m["parent"]["q25"],
                "ratio": m["change_over_parent"],
            }
            if args.trace_pairs:
                seeds = [args.seed0 + workloads[workload] + k for k in range(args.trace_pairs)]
                results = run_pairs(sides, workload, seeds, seconds, 1)
                report[f"per_layer_{workload}_traced"] = summarise_traced(results, seeds)

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"written {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
