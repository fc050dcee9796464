"""Print the cost of the hot layers of a loop walk and of the finder (ROADMAP aim 1).

    python3 scripts/layer_times.py [--sizes 3,5,8] [--repeat 7]

Every figure is the best of ``--repeat`` timeit repeats, each of as many
calls as fill about 0.1 s (one call with ``--quick``), with BLAS pinned to
one thread.  Rows, at each n of ``--sizes`` around the Sigma_1 point of
``PairTarget(True, 1)`` found from ``perturbed_seed(omega_point(n), rest)``:

- ``observe m=M``: one observation of a stack of M samples of the radius-2e-3
  circle (``maslov._lax_samples``) per sample, and its parts: ``decompose``
  (both Lax classes built and decomposed), ``frame`` (the Toda frames, W,
  the Gram matrices W^H W and the phases 2 arg det W) and ``guard`` (the
  shifted Cholesky test, ``maslov._gram_clears_tol``); ``eigvalsh`` is the
  Gram eigensolve that the guard runs only for a stack it does not clear.
- ``holonomy S``: ``check_holonomy_theorem`` on that circle at S initial
  samples, per call: 256 steps and no bisection, or 4 steps that bisect;
  ``observes`` counts its observation calls (``maslov._observe``) and
  ``of one`` those of a single sample.
- ``finder iterate``: ``find_singular`` from the seed less the same call
  from its own solution (no iterate), divided by the seed's iterations.
- ``finder``: ``find_singular`` from a fresh copy of the seed, per call;
  ``iterations``, ``points`` (the seed and every damping trial it visits)
  and ``stacks`` (its ``_decompose_stack`` calls) are counted in one more
  call.
- ``seed``: per call, ``point`` builds ``omega_point(n)``, ``spectra``
  builds one and reads its closed-form spectra, and ``seed`` builds one and
  opens every target but ``PairTarget(True, 1)`` with ``perturbed_seed``.
- ``point``: the suite's seven per-point checks (off-band powers, trace
  gap, characteristic-polynomial offset, involution, Lax equations,
  interlacing, corank) at a desk-scale random point, per call: ``fresh``
  builds the PhasePoint anew, so its Lax power table too; ``warm`` runs
  them again on one point whose table holds every power already.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from todalax import maslov, singularity  # noqa: E402
from todalax.dynamics import grad_F, lax_residual, poisson  # noqa: E402
from todalax.lax import (PhasePoint, char_poly_offset, off_band_check,  # noqa: E402
                         trace_relation_check)
from todalax.singularity import (PairTarget, all_pair_targets, corank,  # noqa: E402
                                 find_singular, omega_point, perturbed_seed)
from todalax.spectral import _decompose_stack, interlacing_check  # noqa: E402

TARGET = PairTarget(True, 1)


def best(fn, repeat: int, quick: bool) -> float:
    """The best time of one call of ``fn`` in seconds, over ``repeat`` timeit repeats."""
    timer = timeit.Timer(fn)
    number = 1 if quick else max(1, timer.autorange()[0] // 2)
    return min(timer.repeat(repeat=repeat, number=number)) / number


def observation_rows(curve: maslov.ClosedCurve, m: int, repeat: int, quick: bool) -> dict:
    """Per-sample costs in µs of one observation of the first m grid samples and of its parts."""
    ts = np.linspace(0.0, 1.0, 257)[:m]
    rows = curve.rows(ts)
    n = rows.shape[1] // 2
    q, p = rows[:, :n], rows[:, n:]
    b, _ = maslov._lax_classes(q, p)
    frames = maslov._toda_frames(b, p)
    W = frames[:, :n] + 1j * frames[:, n:]
    gram = np.conj(np.swapaxes(W, -1, -2)) @ W

    def frame():
        X = maslov._toda_frames(b, p)
        Z = X[:, :n] + 1j * X[:, n:]
        np.conj(np.swapaxes(Z, -1, -2)) @ Z
        2.0 * np.angle(np.linalg.det(Z))

    parts = {
        "observe": lambda: maslov._lax_samples(ts, q, p),
        "decompose": lambda: _decompose_stack(maslov._lax_classes(q, p)[1]),
        "frame": frame,
        "guard": lambda: maslov._gram_clears_tol(gram),
        "eigvalsh": lambda: np.linalg.eigvalsh(gram),
    }
    return {name: best(fn, repeat, quick) / m * 1e6 for name, fn in parts.items()}


def observation_sizes(curve: maslov.ClosedCurve) -> list[int]:
    """The stack size of each observation call of one ``check_holonomy_theorem`` walk."""
    sizes, observe = [], maslov._observe

    def counting(c, ts, obs):
        sizes.append(len(ts))
        return observe(c, ts, obs)

    maslov._observe = counting
    try:
        maslov.check_holonomy_theorem(curve)
    finally:
        maslov._observe = observe
    return sizes


def finder_iterate(n: int, repeat: int, quick: bool) -> float:
    """One Gauss-Newton iterate of ``find_singular`` in µs."""
    rest = [t for t in all_pair_targets(n) if t != TARGET]
    seed = perturbed_seed(omega_point(n), rest, eps=1e-2)
    solution = find_singular(seed, [TARGET])
    full = best(lambda: find_singular(seed, [TARGET]), repeat, quick)
    none = best(lambda: find_singular(solution.z, [TARGET]), repeat, quick)
    return (full - none) / solution.iterations * 1e6


def finder_costs(n: int, repeat: int, quick: bool) -> tuple[float, int, int, int]:
    """``find_singular`` from the seed in µs, its iterations, points visited and stacks decomposed."""
    rest = [t for t in all_pair_targets(n) if t != TARGET]
    seed = perturbed_seed(omega_point(n), rest, eps=1e-2)
    t = best(lambda: find_singular(PhasePoint(seed.q, seed.p), [TARGET]), repeat, quick)
    points, stacks = [seed], []
    kernel, displaced = singularity._decompose_stack, PhasePoint.displaced
    singularity._decompose_stack = lambda entries: stacks.append(len(entries)) or kernel(entries)
    PhasePoint.displaced = lambda z, dz: points.append(displaced(z, dz)) or points[-1]
    try:
        sp = find_singular(PhasePoint(seed.q, seed.p), [TARGET])
    finally:
        singularity._decompose_stack, PhasePoint.displaced = kernel, displaced
    return t * 1e6, sp.iterations, len(points), len(stacks)


def seed_costs(n: int, repeat: int, quick: bool) -> list[float]:
    """The equilibrium, it and its spectra, and it and the seed, each in µs from a fresh one."""
    rest = [t for t in all_pair_targets(n) if t != TARGET]
    calls = (lambda: omega_point(n), lambda: omega_point(n).spectra,
             lambda: perturbed_seed(omega_point(n), rest, eps=1e-2))
    return [best(fn, repeat, quick) * 1e6 for fn in calls]


def point_checks(z: PhasePoint) -> None:
    """The suite's seven per-point checks at z, each through its scalar call."""
    n = z.n
    for j in range(1, n + 1):
        off_band_check(z, j)
    trace_relation_check(z)
    char_poly_offset(z)
    grads = [grad_F(z, j) for j in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            poisson(grads[i], grads[j])
    for j in range(1, n + 1):
        lax_residual(z, j)
        lax_residual(z, j, odd_class=True)
    interlacing_check(z)
    corank(z)


def point_costs(n: int, repeat: int, quick: bool) -> list[float]:
    """The seven checks at a fresh point and again at a warm one, each in µs."""
    rng = np.random.default_rng(n)
    q, p = 0.35 * rng.standard_normal(n), 0.35 * rng.standard_normal(n)
    warm = PhasePoint(q, p)
    point_checks(warm)
    calls = (lambda: point_checks(PhasePoint(q, p)), lambda: point_checks(warm))
    return [best(fn, repeat, quick) * 1e6 for fn in calls]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="3,5,8", help="comma-separated n (default 3,5,8)")
    ap.add_argument("--repeat", type=int, default=7, help="timeit repeats per figure")
    ap.add_argument("--stacks", default="1,128", help="observation stack sizes m (default 1,128)")
    ap.add_argument("--quick", action="store_true", help="one call per repeat: a smoke run")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    stacks = [int(s) for s in args.stacks.split(",")]
    print(f"numpy {np.__version__}, one BLAS thread, best of {args.repeat} repeats")
    columns = ["observe", "decompose", "frame", "guard", "eigvalsh"]
    print(f"{'layer':<22}" + "".join(f"{c:>11}" for c in columns) + "   (µs per sample)")
    for n in sizes:
        rest = [t for t in all_pair_targets(n) if t != TARGET]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [TARGET])
        curve = maslov.ClosedCurve.around_pair(sp, TARGET, radius=2e-3)
        for m in stacks:
            costs = observation_rows(curve, m, args.repeat, args.quick)
            print(f"{f'n={n} observe m={m}':<22}" + "".join(f"{costs[c]:>11.2f}" for c in columns))
    print(f"{'layer':<22}{'ms per call':>11}{'observes':>11}{'of one':>11}")
    for n in sizes:
        rest = [t for t in all_pair_targets(n) if t != TARGET]
        sp = find_singular(perturbed_seed(omega_point(n), rest, eps=1e-2), [TARGET])
        for samples in (256, 4):
            curve = maslov.ClosedCurve.around_pair(sp, TARGET, radius=2e-3,
                                                   initial_samples=samples)
            t = best(lambda: maslov.check_holonomy_theorem(curve), args.repeat, args.quick)
            observed = observation_sizes(curve)
            print(f"{f'n={n} holonomy {samples}':<22}{t * 1e3:>11.3f}{len(observed):>11}"
                  f"{observed.count(1):>11}")
    print(f"{'layer':<22}{'µs per iterate':>11}")
    for n in sizes:
        print(f"{f'n={n} finder iterate':<22}{finder_iterate(n, args.repeat, args.quick):>11.1f}")
    print(f"{'layer':<22}{'µs per call':>11}{'iterations':>11}{'points':>11}{'stacks':>11}")
    for n in sizes:
        t, *counts = finder_costs(n, args.repeat, args.quick)
        print(f"{f'n={n} finder':<22}{t:>11.1f}" + "".join(f"{c:>11}" for c in counts))
    print(f"{'layer':<22}{'point':>11}{'spectra':>11}{'seed':>11}   (µs per call)")
    for n in sizes:
        print(f"{f'n={n} seed':<22}" + "".join(
            f"{t:>11.1f}" for t in seed_costs(n, args.repeat, args.quick)))
    print(f"{'layer':<22}{'fresh':>11}{'warm':>11}   (µs per call)")
    for n in sizes:
        print(f"{f'n={n} point':<22}" + "".join(
            f"{t:>11.1f}" for t in point_costs(n, args.repeat, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
