"""Benchmark of todalax: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's ops until ``--seconds`` have passed,
checks every output, and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and the metrics with their units.  With
``--trace 0`` these are the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  End-to-end times are
scaled to the host's speed, measured alongside them (``speed.py``).  BLAS
is pinned to one thread and ``TODA_LAX_THREADS`` is removed before numpy
is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TODA_LAX_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("verify", "points", "flows", "loops")
SETUP_PROBES = 2  # fresh processes timed for set-up, besides this one

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(workload: str, seed: int, workdir: str):
    """Import the library, make the inputs and warm up; return the workload object."""
    if not os.path.isfile(os.path.join(SRC, "todalax", "__init__.py")):
        raise SystemExit(f"error: no todalax sources under {SRC}")
    sys.path.insert(0, SRC)
    import todalax

    if os.path.dirname(os.path.abspath(todalax.__file__)) != os.path.join(SRC, "todalax"):
        raise SystemExit(f"error: imported todalax from {todalax.__file__}, not from {SRC}")
    import todalax.cli  # noqa: F401  (the command users run)
    import workloads

    bench = workloads.WORKLOADS[workload](seed, workdir)
    bench.warm_up()
    return bench


def probe_setup(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process (python3 run.py --setup-probe)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Measure:
    """Op times and outcomes of one measuring loop.

    ``durations`` are the wall-clock times of the completed ops and
    ``spans`` their starts and ends.  With a speedometer running, the
    kernel time sampled during an op is taken out of its duration.
    """

    def __init__(self):
        self.durations = []
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.observed = []

    def run(self, bench, seconds: float, speedometer=None):
        """Whole rounds until ``seconds`` have passed."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for op in bench.round(self.rounds):
                self.one(op, speedometer=speedometer)
            self.rounds += 1
        return self

    def one(self, op, tracer=None, speedometer=None) -> None:
        """Time one op, then check its output with the clock stopped."""
        import checks

        self.attempted += 1
        spent = speedometer.spent if speedometer else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.region(f"op.{op.kind}"):
                    out = op.run()
            else:
                out = op.run()
        except Exception:
            self.failed += 1
            print(f"op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            t1 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.paused():
                    seen = op.check(out)
            else:
                seen = op.check(out)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"op {op.kind} gave a wrong output: {exc}", file=sys.stderr)
            return
        self.durations.append(t1 - t0 - (speedometer.spent - spent if speedometer else 0.0))
        self.spans.append((t0, t1))
        if seen:
            self.observed.append(seen)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def ops_per_s(durations) -> float:
    if not durations:
        raise SystemExit("error: no op completed")
    return len(durations) / sum(durations)


def end_to_end(durations, setup_s: float) -> dict:
    return {
        "ops_per_s": ops_per_s(durations),
        "op_p50_ms": 1e3 * percentile(durations, 50),
        "op_p90_ms": 1e3 * percentile(durations, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(bench, seconds: float, trace_path: str):
    """Whole rounds for ``seconds``, each op run traced and then untraced.

    The two runs of an op follow each other and so see the same host speed;
    their difference is the tracing overhead.
    """
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    with_trace, plain = Measure(), Measure()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in bench.round(with_trace.rounds):
            tracer.install()
            tracer.recording = True
            try:
                with_trace.one(op, tracer=tracer)
            finally:
                tracer.recording = False
                tracer.uninstall()
            plain.one(op)
        with_trace.rounds += 1
    for seen in with_trace.observed:
        tracer.observed.update(seen)
    metrics = tracer.metrics(with_trace.attempted)
    plain_rate, traced_rate = ops_per_s(plain.durations), ops_per_s(with_trace.durations)
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    tracer.save(trace_path)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return with_trace, plain, {k: {"value": metrics[k], "unit": units[k]} for k in PER_LAYER}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        bench = set_up(args.workload, args.seed, workdir)
        setup_raw = time.perf_counter() - t_start
        import speed

        setup_here = setup_raw * speed.scale_now()
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz")
            with_trace, plain, metrics = traced(bench, args.seconds, trace_path)
            attempted = with_trace.attempted + plain.attempted
            failed = with_trace.failed + plain.failed
            wrong = with_trace.wrong + plain.wrong
            print(f"trace written to {trace_path}", file=sys.stderr)
        else:
            with speed.Speedometer() as meter:
                m = Measure().run(bench, seconds=args.seconds, speedometer=meter)
            scaled = [d * meter.scale(t0, t1) for d, (t0, t1) in zip(m.durations, m.spans)]
            samples = [setup_here] + [probe_setup(args.workload, args.seed)
                                      for _ in range(SETUP_PROBES)]
            values = end_to_end(scaled, statistics.median(samples))
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
            attempted, failed, wrong = m.attempted, m.failed, m.wrong
            raw = end_to_end(m.durations, setup_raw)
            print(f"{m.rounds} rounds, {len(m.durations)} ops; scaled set-up samples {samples}; "
                  f"wall-clock {raw}; median kernel {1e3 * statistics.median(meter.times):.3f} ms",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
