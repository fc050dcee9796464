"""Command-line front end: verify | singular | maslov | integrate.

Configuration comes from an optional JSON file plus flag overrides; all
outputs are UTF-8 JSON or CSV.  Exit codes: 0 success, 1 check or
computation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import numpy as np

from .lax import PhaseDomainError, PhasePoint
from .dynamics import DEFAULT_RTOL, FlowError, integrate_flow, trajectory_to_csv
from .singularity import PairTarget, all_pair_targets, find_singular, omega_point, perturbed_seed
from .maslov import ClosedCurve, check_holonomy_theorem
from .reporting import float_str
from .verify import COMPUTATION_ERRORS, RunConfig, run_suite

__all__ = ["main", "cmd_verify", "cmd_singular", "cmd_maslov", "cmd_integrate"]


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _build_config(args) -> RunConfig:
    data = _load_json(args.config) if args.config else {}
    flags = {"n_values": args.n, "seed": args.seed, "num_points": args.points,
             "suite": args.suite, "out": args.out}
    data.update((key, value) for key, value in flags.items() if value is not None)
    try:
        return RunConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def cmd_verify(args) -> int:
    config = _build_config(args)
    report = run_suite(config)
    for line in report.summary_lines():
        print(line)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timing=not args.no_timing))
        print(f"report written to {config.out}")
    if report.inconclusive:
        print(f"warning: {len(report.inconclusive)} inconclusive checks")
    return 1 if report.failures else 0


def cmd_singular(args) -> int:
    n = args.n[0]
    if args.targets == "all":
        targets = all_pair_targets(n)
    else:
        try:
            targets = [PairTarget.parse(tok) for tok in args.targets.split(",") if tok]
            for t in targets:
                t.positions(n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not targets:
        raise ConfigError("no targets given")
    try:
        om = omega_point(n, p0=args.p0)
    except PhaseDomainError as exc:
        raise ConfigError(f"--p0 {args.p0}: {exc}") from exc
    results = []
    for group in ([targets] if args.joint else [[t] for t in targets]):
        rest = [t for t in all_pair_targets(n) if t not in group]
        try:
            sp = find_singular(_seed(om, rest, args.eps), group)
        except COMPUTATION_ERRORS as exc:
            print(f"error: target {[t.label for t in group]}: {exc}", file=sys.stderr)
            return 1
        results.append(sp.to_json_dict())
    payload = json.dumps({"n": n, "points": results}, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"{len(results)} singular points written to {args.out}")
    else:
        print(payload)
    return 0


def _seed(om, rest: list[PairTarget], eps: float) -> PhasePoint:
    """The finder's start: the equilibrium displaced so that the ``rest`` pairs open."""
    try:
        return perturbed_seed(om, rest, eps=eps)
    except PhaseDomainError as exc:
        raise ConfigError(f"--eps {eps}: {exc}") from exc


def _point_from_spec(entry, what: str) -> PhasePoint:
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be an object with q and p, got {entry!r}")
    return PhasePoint(np.asarray(entry["q"], float), np.asarray(entry["p"], float))


def _curve_from_spec(spec: dict) -> ClosedCurve:
    kind = spec.get("type")
    if kind == "samples":
        points = spec["points"]
        if not isinstance(points, list):
            raise ValueError(f"points must be a list of points, got {points!r}")
        return ClosedCurve.from_samples([_point_from_spec(p, f"point {k}")
                                         for k, p in enumerate(points)])
    if kind == "circle":
        center = _point_from_spec(spec["center"], "center")
        target = PairTarget.parse(spec["pair"])
        radius = spec.get("radius", 1e-2)
        if isinstance(radius, bool) or not isinstance(radius, (int, float)):
            raise ValueError(f"radius must be a number, got {radius!r}")
        return ClosedCurve.around_pair(
            center,
            target,
            radius=float(radius),
            initial_samples=spec.get("samples", 256),
            orientation=spec.get("orientation", 1),
        )
    raise ConfigError(f"unknown curve type {kind!r}; expected 'samples' or 'circle'")


def cmd_maslov(args) -> int:
    spec = _load_json(args.curve)
    try:
        try:
            curve = _curve_from_spec(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad curve spec: {exc}") from exc
        rep = check_holonomy_theorem(curve)
    except (*COMPUTATION_ERRORS, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "mu": rep.mu,
        "theorem_lhs": rep.lhs,
        "gamma": [int(g) for g in rep.holonomy.gamma],
        "gammabar": [int(g) for g in rep.holonomy.gammabar],
        "even_product": rep.holonomy.even_product,
        "odd_product": rep.holonomy.odd_product,
        "agree": rep.agree,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"result written to {args.out}")
    else:
        print(text)
    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8") as fh:
            fh.write("t,winding_argument\n")
            for t, phi in rep.maslov.winding_trace:
                fh.write(f"{float_str(t)},{float_str(phi)}\n")
        print(f"winding trace written to {args.trace_csv}")
    return 0 if rep.agree else 1


def cmd_integrate(args) -> int:
    q = np.asarray(args.q, float)
    p = np.asarray(args.p, float)
    if q.size != p.size:
        raise ConfigError("q and p must have equal length")
    c = np.asarray(args.c, float)
    if c.size != q.size:
        raise ConfigError("coefficient vector must have length n")
    if args.samples < 1:
        raise ConfigError(f"samples must be at least 1, got {args.samples}")
    try:
        z0 = PhasePoint(q, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t_eval = np.linspace(0.0, args.t_final, args.samples)
    try:
        traj = integrate_flow(z0, c, args.t_final, t_eval=t_eval,
                              rtol=args.rtol, method=args.method, dt=args.dt)
        trajectory_to_csv(traj, args.out)
    except (PhaseDomainError, FlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"trajectory with {traj.times.size} samples written to {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="todalax",
        description="Verification suite for the periodic Toda chain's Lax structure, "
        "singular strata and Maslov indices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads; argparse rejects the rest
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path")
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--n", type=_parse_int_list, help="comma-separated chain sizes")

    pv = sub.add_parser("verify", parents=[sizes, out], help="run the verification suite")
    pv.add_argument("--config", help="JSON configuration file")
    pv.add_argument("--seed", type=int, help="random seed")
    pv.add_argument("--points", type=int, help="random samples per check")
    pv.add_argument("--suite", choices=["full", "quick"], help="suite size")
    pv.add_argument("--no-timing", action="store_true", help="omit wall times from the report")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("singular", parents=[sizes, out], help="locate singular points")
    ps.add_argument("--targets", default="all",
                    help="comma-separated pair labels like even:1,odd:2, or 'all'")
    ps.add_argument("--joint", action="store_true",
                    help="drive all listed pairs degenerate at one point")
    ps.add_argument("--eps", type=float, default=1e-2, help="seed perturbation size")
    ps.add_argument("--p0", type=float, default=0.0, help="common momentum of the seed equilibrium")
    ps.set_defaults(fn=cmd_singular)

    pm = sub.add_parser("maslov", parents=[out], help="holonomies and Maslov index of a loop")
    pm.add_argument("curve", help="JSON curve specification file")
    pm.add_argument("--trace-csv", help="write the winding trace as CSV")
    pm.set_defaults(fn=cmd_maslov)

    pi = sub.add_parser("integrate", help="integrate a trace flow")
    pi.add_argument("--q", type=_parse_float_list, required=True, help="initial positions")
    pi.add_argument("--p", type=_parse_float_list, required=True, help="initial momenta")
    pi.add_argument("--c", type=_parse_float_list, required=True,
                    help="coefficients of the flow combination")
    pi.add_argument("--t-final", type=float, default=50.0)
    pi.add_argument("--samples", type=int, default=101)
    pi.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    pi.add_argument("--method", choices=["dop853", "verlet"], default="dop853")
    pi.add_argument("--dt", type=float, default=1e-3, help="leapfrog step size")
    pi.add_argument("--out", required=True, help="output CSV path")
    pi.set_defaults(fn=cmd_integrate)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.command == "singular" and (args.n is None or len(args.n) != 1):
        print("error: singular requires exactly one --n value", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
