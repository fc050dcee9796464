"""Acceptance suite: the paper's twelve criteria, run as checks of the registry.

Each criterion runs its entries of ``todalax.verify.CHECKS`` on the test's
own samples (seeds 101-106, n up to 8), with the registry's tolerances, and
prints one pass/fail line per check.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from todalax.lax import PhasePoint
from todalax.singularity import omega_point
from todalax.verify import CHECKS, Sample, random_points

SIGMA1_CHECKS = ("sigma1_components", "corank_sigma1", "transverse_structure")


def _random(seed, sizes, count):
    rng = np.random.default_rng(seed)
    return [Sample(n, *random_points(rng, n, count)) for n in sizes]


def _equilibria(sizes, *q0_p0):
    return [Sample(n, equilibrium=omega_point(n, q0, p0)) for n in sizes for q0, p0 in q0_p0]


# the test's samples of every registry check but the sigma1 ones
SAMPLES = {
    "off_band": lambda: _random(101, range(2, 9), 100),
    "trace_gap": lambda: _random(102, range(2, 9), 100),
    "char_poly_offset": lambda: _random(102, range(2, 9), 100),
    "lax_equations": lambda: _random(103, range(2, 7), 200),  # the check uses 50
    "involution": lambda: _random(104, range(2, 7), 1000),
    "corank_random": lambda: _random(105, range(2, 9), 150),
    "interlacing": lambda: _random(106, range(3, 9), 1667),
    "omega_spectra": lambda: _equilibria(range(2, 9), (0.0, 0.0), (0.6, -0.8), (-1.1, 0.4)),
    "corank_omega": lambda: _equilibria(range(2, 9), (0.0, 0.0)),
    "bracket_relations_omega": lambda: _equilibria(range(2, 7), (0.0, 0.2)),
    "maslov_calibration": lambda: [Sample(None)],
    "holonomy_omega_line": lambda: [Sample(2)],
    "maslov_theorem": lambda: [Sample(n, centres=(
        PhasePoint(np.array([0.4, -0.1]), np.array([0.2, 0.7])),
        PhasePoint(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.9, -0.4])),
    )) for n in range(3, 9)],
    "isospectral_flows": lambda: [Sample(3)],
}

# criterion -> its registry checks and a wall-time limit in seconds
CRITERIA = {
    "01_off_band_structure": (("off_band",), 10.0),
    "02_trace_and_charpoly_constants": (("trace_gap", "char_poly_offset"), 5.0),
    "03_higher_lax_equations": (("lax_equations",), 30.0),
    "04_involution": (("involution",), None),
    "05_corank_theorem": (("corank_omega", "corank_sigma1", "corank_random"), None),
    "06_interlacing": (("interlacing",), None),
    "07_omega_spectra": (("omega_spectra",), None),
    "08_bracket_structure": (("bracket_relations_omega",), None),
    "09_transverse_stability": (("sigma1_components", "transverse_structure"), 60.0),
    "10_maslov_holonomy": (("holonomy_omega_line", "maslov_theorem"), None),
    "11_calibration_regression": (("maslov_calibration",), None),
    "12_isospectral_flows": (("isospectral_flows",), None),
}


@pytest.fixture(scope="module")
def sigma1():
    """The sigma1 checks' samples; they share the finder's points."""
    return [Sample(n) for n in range(3, 9)]


def _criterion(names, limit):
    def test(sigma1):
        start = time.perf_counter()
        for name in names:
            check = next(c for c in CHECKS if c.name == name)
            t0 = time.perf_counter()
            samples = sigma1 if name in SIGMA1_CHECKS else SAMPLES[name]()
            records = [check.run(s) for s in samples]
            bad = [f"{r.check_id} {r.status} {r.detail}" for r in records if r.status != "pass"]
            print(f"{name:24s} [{'FAIL' if bad else 'PASS'}] worst residual "
                  f"{max(r.residual for r in records):.2e} (tol {records[0].tolerance:.0e}) "
                  f"over {len(records)} samples, {time.perf_counter() - t0:.1f}s")
            assert not bad, bad
        elapsed = time.perf_counter() - start
        assert limit is None or elapsed < limit, f"{elapsed:.1f}s over the {limit}s limit"

    return test


for _label, (_names, _limit) in CRITERIA.items():
    globals()[f"test_criterion_{_label}"] = _criterion(_names, _limit)


def test_criteria_run_every_registry_check_once():
    names = [name for names, _ in CRITERIA.values() for name in names]
    assert sorted(names) == sorted(c.name for c in CHECKS)
    assert set(SAMPLES) | set(SIGMA1_CHECKS) == set(names)
