"""The four workloads: inputs made from a seed, the ops that run them, their checks.

A workload hands out its ops in rounds; every run executes whole rounds, so
the mix of op kinds is the same in every run.  Library functions are always
reached through their module (``lax.off_band_check``), so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import io
import os
from typing import Any, Callable

import numpy as np

import todalax.cli as cli
import todalax.dynamics as dynamics
import todalax.lax as lax
import todalax.maslov as maslov
import todalax.singularity as singularity
import todalax.spectral as spectral

import checks

DESK_SCALE = 0.35
SIZES = (3, 5, 8)
POINT_SIZES = (3, 5, 7)  # n = 8 points fail the suite's absolute involution bound now and then


@dataclass
class Op:
    """One timed call into the library and the check of its output.

    ``check`` raises ``checks.CheckFailed`` on a wrong output; it may return
    a dict of figures the traced run adds up (the verify report's timings).
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


def _random_point(rng: np.random.Generator, n: int):
    return lax.PhasePoint(DESK_SCALE * rng.standard_normal(n), DESK_SCALE * rng.standard_normal(n))


def _quiet_main(argv: list[str]) -> int:
    """``todalax`` in-process, with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _floats(v) -> str:
    return ",".join(repr(float(x)) for x in v)


# -- points --------------------------------------------------------------

@dataclass
class PointResult:
    off_band: float
    trace_gap: float
    char_constant: float
    char_deviation: float
    grads: list
    involution: float
    lax_residual: float
    interlacing_violations: int
    corank: int
    nu: int
    nubar: int
    inconclusive: bool
    integrals: np.ndarray | None = None


def point_op(z) -> PointResult:
    """The seven per-point checks of the verification suite on one point."""
    n = z.n
    off_band = 0.0
    for j in range(1, n + 1):
        rep = lax.off_band_check(z, j)
        off_band = max(off_band, rep.zero_residual, rep.diagonal_residual)
    trace_gap = float(np.max(lax.trace_relation_check(z).residuals))
    char = lax.char_poly_offset(z)
    grads = [dynamics.grad_F(z, j) for j in range(1, n + 1)]
    involution = max(abs(dynamics.poisson(grads[i], grads[j]))
                     for i in range(n) for j in range(i + 1, n))
    residual = max(dynamics.lax_residual(z, j, odd)
                   for j in range(1, n + 1) for odd in (False, True))
    interlacing = spectral.interlacing_check(z)
    rank = singularity.corank(z)
    return PointResult(off_band, trace_gap, char.constant, char.max_deviation, grads,
                       involution, residual, len(interlacing.violations), rank.corank,
                       rank.nu, rank.nubar, rank.inconclusive)


def _check_point(z, out: PointResult) -> None:
    out.integrals = lax.integrals(z)
    checks.check_point(z, out)


class Points:
    """Seeded random points, n cycled through POINT_SIZES in equal shares."""

    POOL = 32

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.pool = {n: [_random_point(rng, n) for _ in range(self.POOL)] for n in POINT_SIZES}

    def round(self, r: int) -> list[Op]:
        ops = []
        for n in POINT_SIZES:
            z = self.pool[n][r % self.POOL]
            ops.append(Op(f"point[n={n}]", lambda z=z: point_op(z),
                          lambda out, z=z: _check_point(z, out)))
        return ops

    def warm_up(self) -> None:
        for op in self.round(0):
            op.run()


# -- flows ---------------------------------------------------------------

@dataclass(frozen=True)
class FlowSpec:
    q: np.ndarray
    p: np.ndarray
    c: np.ndarray
    method: str
    t_final: float
    dt: float = 1e-3


def flow_op(spec: FlowSpec, path: str) -> str:
    argv = ["integrate", f"--q={_floats(spec.q)}", f"--p={_floats(spec.p)}",
            f"--c={_floats(spec.c)}", "--t-final", repr(spec.t_final), "--out", path]
    if spec.method == "verlet":
        argv += ["--method", "verlet", "--dt", repr(spec.dt)]
    code = _quiet_main(argv)
    checks.require(code == 0, f"todalax integrate exited with {code}")
    return path


class Flows:
    """``todalax integrate`` of F_1, F_2, F_3, a mixed flow and the F_2 leapfrog at every n.

    The top traces are left out: F_n at n = 8 is stiff.  The mixed flow
    uses F_1..F_3 only for the same reason.
    """

    POOL = 8
    T_FINAL = 1.0
    MIX = (0.25, 1.0, -0.5)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.pool = {n: [_random_point(rng, n) for _ in range(self.POOL)] for n in SIZES}
        self.path = os.path.join(workdir, "trajectory.csv")

    def specs(self, z) -> list[tuple[str, FlowSpec]]:
        n = z.n
        eye = np.eye(n)
        mix = np.zeros(n)
        mix[:3] = self.MIX
        out = [(f"F_{j}", FlowSpec(z.q, z.p, eye[j - 1], "rk45", self.T_FINAL)) for j in (1, 2, 3)]
        out.append(("mixed", FlowSpec(z.q, z.p, mix, "rk45", self.T_FINAL)))
        out.append(("F_2 leapfrog", FlowSpec(z.q, z.p, eye[1], "verlet", self.T_FINAL)))
        return out

    def round(self, r: int) -> list[Op]:
        ops = []
        for n in SIZES:
            for label, spec in self.specs(self.pool[n][r % self.POOL]):
                ops.append(Op(f"{label}[n={n}]", lambda s=spec: flow_op(s, self.path),
                              lambda path, s=spec: checks.check_flow(s, path)))
        return ops

    def warm_up(self) -> None:
        z = self.pool[SIZES[0]][0]
        for _, spec in self.specs(z)[:2]:
            flow_op(spec, self.path)


# -- loops ---------------------------------------------------------------

@dataclass
class LoopResult:
    point: Any
    odd: bool
    positions: tuple
    curve: Any
    radius: float
    mu: int
    gamma: np.ndarray
    gammabar: np.ndarray
    mu_reversed: int | None = None


@dataclass
class EnclosureResult:
    points: list
    odd: bool
    positions: tuple
    planes: list | None
    mu: int


@dataclass(frozen=True)
class LoopParams:
    """One seeded set of loop inputs; all stay inside the checked domain."""

    q0: float
    p0: float
    eps: float
    radius: float
    regular_radius: float


def _singular_point(n: int, target, params: LoopParams):
    om = singularity.omega_point(n, q0=params.q0, p0=params.p0)
    rest = [t for t in singularity.all_pair_targets(n) if t != target]
    return singularity.find_singular(singularity.perturbed_seed(om, rest, eps=params.eps), [target])


def loop_op(n: int, target, params: LoopParams, samples: int) -> LoopResult:
    sp = _singular_point(n, target, params)
    curve = maslov.ClosedCurve.around_pair(sp, target, radius=params.radius,
                                           initial_samples=samples)
    rep = maslov.check_holonomy_theorem(curve)
    return LoopResult(sp, target.odd_class, target.positions(n), curve, params.radius, rep.mu,
                      rep.holonomy.gamma, rep.holonomy.gammabar)


# A regular point of the n = 3 chain: its smallest eigenvalue gap, 0.18,
# is three times the largest radius of the circle drawn around it.
REGULAR_Q = np.array([0.5, -0.2, 0.1])
REGULAR_P = np.array([0.3, 0.9, -0.4])


def regular_loop_op(params: LoopParams) -> LoopResult:
    z = lax.PhasePoint(REGULAR_Q + params.q0, REGULAR_P + params.p0)
    eye = np.eye(6)
    curve = maslov.ClosedCurve.circle(z, eye[0], eye[4], params.regular_radius)
    rep = maslov.check_holonomy_theorem(curve)
    return LoopResult(None, False, (), curve, params.regular_radius, rep.mu,
                      rep.holonomy.gamma, rep.holonomy.gammabar)


ENCLOSURE_TARGET = singularity.PairTarget(True, 1)


def enclosure_op(params: LoopParams) -> EnclosureResult:
    """Two disks around n = 3 odd-pair points a momentum shift of 0.25 apart."""
    first = _singular_point(3, ENCLOSURE_TARGET, params)
    second = singularity.find_singular(
        lax.PhasePoint(first.z.q, first.z.p + 0.25), [ENCLOSURE_TARGET])
    disks = [maslov.DiskSpec(sp, radius=params.radius) for sp in (first, second)]
    rep = maslov.enclosure_count_check(disks)
    return EnclosureResult([first, second], True, ENCLOSURE_TARGET.positions(3), None, rep.mu)


def _with_reversed(out: LoopResult) -> LoopResult:
    out.mu_reversed = maslov.maslov_index(out.curve.reversed()).mu
    return out


def _check_enclosure(out: EnclosureResult) -> None:
    out.planes = [
        tuple(np.asarray(v) for v in maslov.pair_plane_duals(sp, ENCLOSURE_TARGET))
        for sp in out.points
    ]
    checks.check_enclosure(out)


class Loops:
    """Singular points near relative equilibria and the loops around them.

    Per round: for every target at every n, one fine circle (the walker
    never bisects) and three coarse ones (it must); one circle around a
    regular point; one two-disk enclosure count.  The 39 coarse circles
    are the larger group, so the median falls well inside it and the 90th
    percentile inside the 15 fine loops, away from the edge between them.
    Below 4 samples the walker gives wrong windings, so none is used.
    """

    POOL = 4
    FINE = 256
    COARSE = (4, 5, 6)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.params = [
            LoopParams(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.5, 0.5)),
                       float(rng.uniform(0.008, 0.012)), float(rng.uniform(1.5e-3, 2.5e-3)),
                       float(rng.uniform(0.04, 0.06)))
            for _ in range(self.POOL)
        ]

    def round(self, r: int) -> list[Op]:
        params = self.params[r % self.POOL]
        ops = []
        for n in SIZES:
            for target in singularity.all_pair_targets(n):
                ops.append(Op(f"loop[n={n},{target.label},samples={self.FINE}]",
                              lambda n=n, t=target: loop_op(n, t, params, self.FINE),
                              checks.check_loop))
                # the reversed circle costs a second winding walk: check it
                # on the cheap coarse circles
                for samples in self.COARSE:
                    ops.append(Op(f"loop[n={n},{target.label},samples={samples}]",
                                  lambda n=n, t=target, s=samples: loop_op(n, t, params, s),
                                  lambda out: checks.check_loop(_with_reversed(out))))
        ops.append(Op("regular_loop", lambda: regular_loop_op(params),
                      lambda out: checks.check_regular_loop(_with_reversed(out))))
        ops.append(Op("enclosure", lambda: enclosure_op(params), _check_enclosure))
        return ops

    def warm_up(self) -> None:
        target = singularity.PairTarget(False, 1)
        loop_op(3, target, self.params[0], self.COARSE[0])


# -- verify --------------------------------------------------------------

VERIFY_N = (2, 3, 4, 5)  # the default config's sizes


class Verify:
    """``todalax verify`` with the default config and a seeded ``--seed``."""

    POOL = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.POOL)]
        self.path = os.path.join(workdir, "report.json")

    def round(self, r: int) -> list[Op]:
        argv = ["verify", "--seed", str(self.seeds[r % self.POOL]), "--out", self.path]
        return [Op("verify", lambda: _quiet_main(argv),
                   lambda code: checks.check_verify(code, self.path, VERIFY_N))]

    def warm_up(self) -> None:
        _quiet_main(["verify", "--suite", "quick", "--n", "2", "--points", "10",
                     "--seed", str(self.seeds[0]), "--out", self.path])


WORKLOADS = {"verify": Verify, "points": Points, "flows": Flows, "loops": Loops}
