"""Output checks computed apart from the library.

Every check builds what it needs from the paper's definitions with plain
numpy: its own Lax matrices L and Lbar from b_j = exp((q_j - q_{j+1})/2)
(b_n -> -b_n for Lbar), its own traces F_j = Tr L^j / j, its own
eigen-decompositions and its own gradients of the pair coordinates.  A
check raises ``CheckFailed`` with the reason when an output is wrong.
"""

from __future__ import annotations

import csv
import json

import numpy as np


class CheckFailed(AssertionError):
    """A library output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- the benchmark's own chain ------------------------------------------------

def couplings(q, odd: bool = False) -> np.ndarray:
    """b_j = exp((q_j - q_{j+1})/2), q_{n+1} = q_1, with b_n -> -b_n for Lbar."""
    q = np.asarray(q, float)
    b = np.exp(0.5 * (q - np.roll(q, -1)))
    if odd:
        b[-1] = -b[-1]
    return b


def own_lax(q, p, odd: bool = False) -> np.ndarray:
    """Periodic tridiagonal L (or Lbar) with diagonal p and couplings b_j."""
    b = couplings(q, odd)
    n = b.size
    L = np.diag(np.asarray(p, float))
    for j in range(n):
        k = (j + 1) % n
        L[j, k] += b[j]
        L[k, j] += b[j]
    return L


def own_traces(q, p) -> np.ndarray:
    """F_j = Tr L^j / j for j = 1..n."""
    L = own_lax(q, p)
    power = np.eye(L.shape[0])
    out = []
    for j in range(1, L.shape[0] + 1):
        power = power @ L
        out.append(np.trace(power) / j)
    return np.array(out)


def own_descending(q, p, odd: bool):
    vals, vecs = np.linalg.eigh(own_lax(q, p, odd))
    return vals[::-1], vecs[:, ::-1]


def form_gradient(q, p, odd: bool, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient (d/dq, d/dp) of u . L(q, p) . w for fixed vectors u, w."""
    b = couplings(q, odd)
    nxt = (np.arange(b.size) + 1) % b.size
    # coupling r depends on q_r (factor +1/2) and q_{r+1} (factor -1/2)
    c = 0.5 * b * (u * w[nxt] + u[nxt] * w)
    dq = c - np.roll(c, 1)
    return np.concatenate([dq, u * w])


def bracket(f: np.ndarray, g: np.ndarray) -> float:
    """Canonical Poisson bracket of two phase-space gradients (dq, dp)."""
    n = f.size // 2
    return float(f[:n] @ g[n:] - f[n:] @ g[:n])


def trace_jacobian(zvec: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of all own traces: row j-1 is the gradient of F_j."""
    n = zvec.size // 2
    jac = np.empty((n, 2 * n))
    for k in range(2 * n):
        hi, lo = zvec.copy(), zvec.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (own_traces(hi[:n], hi[n:]) - own_traces(lo[:n], lo[n:])) / (2.0 * step)
    return jac


# -- points --------------------------------------------------------------

SUITE_TOL = {  # the tolerances the verification suite pins
    "off_band": 1e-10,
    "trace_gap": 1e-9,
    "char_poly": 1e-8,
    "involution": 1e-9,
    "lax_equations": 1e-8,
}


def check_point(z, out) -> None:
    """Check one random point's outputs (see workloads.point_op)."""
    q, p = z.q, z.p
    n = q.size
    F = own_traces(q, p)
    require(np.allclose(out.integrals, F, rtol=1e-11, atol=1e-12),
            f"integrals(z) {out.integrals} != own Tr L^j / j {F}")

    L, Lbar = own_lax(q, p), own_lax(q, p, odd=True)
    for x in (-1.5, 0.25, 2.0):
        a = np.linalg.det(x * np.eye(n) - L)
        d = a - np.linalg.det(x * np.eye(n) - Lbar)
        scale = max(1.0, abs(a))
        require(abs(abs(d) - 4.0) < 1e-8 * scale, f"own char-poly offset {d} at x={x} is not +-4")
        require(abs(out.char_constant - d) < 1e-8 * scale,
                f"char_poly_offset constant {out.char_constant} != own offset {d}")

    zvec = np.concatenate([q, p])
    grads = [np.concatenate([g.dq, g.dp]) for g in out.grads]
    fd_all = trace_jacobian(zvec)
    for j, g in enumerate(grads, start=1):
        fd = fd_all[j - 1]
        require(np.max(np.abs(g - fd)) < 1e-6 * max(1.0, float(np.max(np.abs(g)))),
                f"grad_F(z, {j}) differs from central differences by {np.max(np.abs(g - fd)):.3e}")
    own_involution = max(abs(bracket(grads[i], grads[j]))
                         for i in range(n) for j in range(i + 1, n))
    require(own_involution < SUITE_TOL["involution"],
            f"bracket of the traces {own_involution:.3e} from grad_F is not zero")

    for key, value in (("off_band", out.off_band), ("trace_gap", out.trace_gap),
                       ("char_poly", out.char_deviation), ("involution", out.involution),
                       ("lax_equations", out.lax_residual)):
        require(value < SUITE_TOL[key], f"{key} residual {value:.3e} >= {SUITE_TOL[key]}")
    require(abs(abs(out.char_constant) - 4.0) < SUITE_TOL["char_poly"],
            f"char_poly_offset constant {out.char_constant} is not +-4")
    require(out.interlacing_violations == 0,
            f"{out.interlacing_violations} interlacing violations")
    require(out.corank == 0 and out.nu == 0 and out.nubar == 0 and not out.inconclusive,
            f"random point not regular: corank {out.corank}, nu {out.nu}, nubar {out.nubar}, "
            f"inconclusive {out.inconclusive}")


# -- flows ---------------------------------------------------------------

ADAPTIVE_DRIFT = 1e-8  # relative, the suite's isospectral bound
# Leapfrog errors are O(dt^2).  Over 480 seeded points at n = 3, 5, 8 to
# t = 2 the largest relative energy error was 0.49 dt^2 and the largest
# relative drift of the other traces and of the spectrum 18 dt^2.
LEAPFROG_ENERGY_C = 2.0
LEAPFROG_TRACE_C = 100.0


def read_trajectory(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def check_flow(spec, path) -> None:
    """Check one ``todalax integrate`` CSV using the file alone."""
    n = spec.q.size
    header, data = read_trajectory(path)
    want = (["t"] + [f"q_{i}" for i in range(1, n + 1)] + [f"p_{i}" for i in range(1, n + 1)]
            + [f"F_{i}" for i in range(1, n + 1)])
    require(header == want, f"CSV header {header} != {want}")
    t, Q, P, F = data[:, 0], data[:, 1:n + 1], data[:, n + 1:2 * n + 1], data[:, 2 * n + 1:]
    require(np.allclose(t, np.linspace(0.0, spec.t_final, t.size), rtol=0, atol=1e-12)
            and t.size >= 3, "time column is not the requested grid")
    require(np.array_equal(Q[0], spec.q) and np.array_equal(P[0], spec.p),
            "first row is not the initial point")

    own_F = np.array([own_traces(qk, pk) for qk, pk in zip(Q, P)])
    require(np.allclose(F, own_F, rtol=1e-11, atol=1e-12),
            "F columns disagree with the traces of the row's own L")

    scale_F = np.maximum(1.0, np.abs(own_F[0]))
    spectra = np.array([np.linalg.eigvalsh(own_lax(qk, pk)) for qk, pk in zip(Q, P)])
    scale_spec = max(1.0, float(np.max(np.abs(spectra[0]))))
    if spec.method == "verlet":
        b2 = np.exp(Q - np.roll(Q, -1, axis=1))
        H = 0.5 * np.sum(P * P, axis=1) + np.sum(b2, axis=1)
        energy = np.max(np.abs(H - H[0])) / max(1.0, abs(H[0]))
        require(energy <= LEAPFROG_ENERGY_C * spec.dt ** 2,
                f"leapfrog energy error {energy:.3e} above {LEAPFROG_ENERGY_C} dt^2")
        bound = LEAPFROG_TRACE_C * spec.dt ** 2
    else:
        bound = ADAPTIVE_DRIFT
    drift_F = np.max(np.abs(own_F - own_F[0]) / scale_F)
    require(drift_F <= bound, f"F_j drift {drift_F:.3e} above {bound:.1e}")
    drift_spec = np.max(np.abs(spectra - spectra[0])) / scale_spec
    require(drift_spec <= bound, f"spectrum drift {drift_spec:.3e} above {bound:.1e}")

    if np.array_equal(spec.c, np.eye(n)[0]):
        require(np.allclose(Q, spec.q + t[:, None], rtol=0, atol=1e-9 * (1 + spec.t_final))
                and np.allclose(P, spec.p, rtol=0, atol=1e-12),
                "F_1 flow is not q(t) = q0 + t, p(t) = p0")
    else:
        require(float(np.max(np.abs(Q[-1] - Q[0]))) > 1e-3, "trajectory did not move")

    # initial velocity against the Hamiltonian vector field of sum_j c_j F_j
    h = t[1] - t[0]
    z0 = np.concatenate([Q[0], P[0]])
    vel = (-3.0 * z0 + 4.0 * np.concatenate([Q[1], P[1]]) - np.concatenate([Q[2], P[2]])) / (
        2.0 * h)
    grad = spec.c @ trace_jacobian(z0)
    field = np.concatenate([grad[n:], -grad[:n]])
    require(np.max(np.abs(vel - field)) < 1e-2 * max(1.0, float(np.max(np.abs(field)))),
            "initial velocity is not the Hamiltonian vector field of the flow")


# -- loops ---------------------------------------------------------------

def check_closed_pair(z, odd: bool, positions) -> None:
    """The target pair is closed and every other adjacent pair of both classes is open."""
    for cls in (False, True):
        vals, _ = own_descending(z.q, z.p, cls)
        rng = max(1.0, float(vals[0] - vals[-1]))
        gaps = (vals[:-1] - vals[1:]) / rng
        for i, gap in enumerate(gaps):
            if cls == odd and i == positions[0]:
                require(gap < 1e-9, f"target pair gap {gap:.3e} is not closed")
            else:
                require(gap > 1e-4, f"pair ({i}, {i + 1}) of class {'odd' if cls else 'even'} "
                        f"closed too (gap {gap:.3e})")


def own_sigma(z, odd: bool, positions, a: np.ndarray, b: np.ndarray) -> int:
    """Orientation of the loop plane (a -> b) in (xi, eta) times the sign of {xi, eta}."""
    _, vecs = own_descending(z.q, z.p, odd)
    u1, u2 = vecs[:, positions[0]], vecs[:, positions[1]]
    dxi = 0.5 * (form_gradient(z.q, z.p, odd, u2, u2) - form_gradient(z.q, z.p, odd, u1, u1))
    deta = form_gradient(z.q, z.p, odd, u1, u2)
    orient = np.linalg.det(np.array([[dxi @ a, dxi @ b], [deta @ a, deta @ b]]))
    xi_eta = bracket(dxi, deta)
    require(abs(orient) > 1e-6 and abs(xi_eta) > 1e-6, "loop plane or pair bracket degenerate")
    return int(np.sign(orient) * np.sign(xi_eta))


def even_holonomy_product(gamma, gammabar) -> int:
    signs = np.concatenate([gamma, gammabar])
    require(np.all(np.abs(signs) == 1.0), f"holonomies are not signs: {signs}")
    require(np.prod(gamma) == 1 and np.prod(gammabar) == 1, "full holonomy products are not 1")
    return int(np.prod(gamma[1::2]) * np.prod(gammabar[1::2]))


def check_loop(out) -> None:
    """A circle around a single-pair singular point: mu = -2 sigma and the holonomy identity."""
    z = out.point.z
    check_closed_pair(z, out.odd, out.positions)
    zc = z.as_vector()
    a = (out.curve.point_at(0.0).as_vector() - zc) / out.radius
    b = (out.curve.point_at(0.25).as_vector() - zc) / out.radius
    sigma = own_sigma(z, out.odd, out.positions, a, b)
    require(out.mu == -2 * sigma, f"mu {out.mu} != -2 sigma = {-2 * sigma}")
    product = even_holonomy_product(out.gamma, out.gammabar)
    require(product == (-1) ** (out.mu // 2), f"even holonomy product {product} != (-1)^(mu/2)")
    if out.mu_reversed is not None:
        require(out.mu_reversed == -out.mu, f"reversed circle gives {out.mu_reversed}, not {-out.mu}")


def check_regular_loop(out) -> None:
    require(out.mu == 0, f"mu {out.mu} != 0 around a regular point")
    require(even_holonomy_product(out.gamma, out.gammabar) == 1, "holonomy product != 1")
    require(np.all(out.gamma == 1.0) and np.all(out.gammabar == 1.0),
            "a loop around a regular point flipped an eigenvector")
    if out.mu_reversed is not None:
        require(out.mu_reversed == 0, f"reversed regular circle gives {out.mu_reversed}")


def check_enclosure(out) -> None:
    """Boundary winding of two disks equals -2 times the sum of their own sigmas."""
    total = 0
    for point, (a, b) in zip(out.points, out.planes):
        check_closed_pair(point.z, out.odd, out.positions)
        total += own_sigma(point.z, out.odd, out.positions, a, b)
    require(out.mu == -2 * total, f"enclosure mu {out.mu} != -2 sum sigma = {-2 * total}")


# -- verify --------------------------------------------------------------

def expected_check_ids(n_values) -> set[str]:
    """The check ids a suite run over ``n_values`` produces."""
    per_n = ("off_band", "trace_gap", "char_poly_offset", "involution", "lax_equations",
             "interlacing", "omega_spectra", "corank_omega", "corank_random",
             "bracket_relations_omega")
    ids = {f"{c}[n={n}]" for n in n_values for c in per_n}
    for n in (3, 4):
        if n in n_values:
            ids |= {f"sigma1_components[n={n}]", f"corank_sigma1[n={n}]",
                    f"transverse_structure[n={n}]"}
    ids.add("maslov_calibration")
    if 2 in n_values:
        ids.add("holonomy_omega_line[n=2]")
    if 3 in n_values:
        ids |= {"maslov_theorem[n=3]", "isospectral_flows[n=3]"}
    return ids


RANDOM_POINT_CHECKS = ("off_band", "trace_gap", "char_poly_offset", "involution",
                       "lax_equations", "interlacing", "corank_random")


def check_verify(exit_code: int, path, n_values) -> dict[str, float]:
    """Check one ``todalax verify`` report; return its per-check wall times in seconds."""
    require(exit_code == 0, f"todalax verify exited with {exit_code}")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    ids = [r["id"] for r in report["results"]]
    require(len(ids) == len(set(ids)), "duplicate check ids")
    want = expected_check_ids(n_values)
    require(set(ids) == want, f"check ids differ from the config: missing "
            f"{sorted(want - set(ids))}, extra {sorted(set(ids) - want)}")
    failed = [r["id"] for r in report["results"] if r["status"] != "pass"]
    require(not failed, f"checks not passed: {failed}")
    timing = {k: float(v) for k, v in report["timing"].items()}
    return {
        "isospectral_flows_s": timing["isospectral_flows[n=3]"],
        "maslov_theorem_s": timing["maslov_theorem[n=3]"],
        "random_points_s": sum(v for k, v in timing.items()
                               if k.split("[")[0] in RANDOM_POINT_CHECKS),
    }
