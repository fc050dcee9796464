"""Every exported name resolves, so tools that walk ``__all__`` never meet a dangling one.

The exports' settable values (parameters and fields with defaults) are pinned.
"""

import copy
import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import todalax
from todalax import dynamics, lax, maslov, reporting, singularity, spectral, verify

MODULES = ("lax", "spectral", "dynamics", "singularity", "maslov", "verify", "reporting", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"todalax.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_reexports_are_module_exports():
    for name, value in vars(todalax).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        home = importlib.import_module(value.__module__)
        assert name in home.__all__, f"todalax.{name} is not exported by {home.__name__}"
        assert getattr(home, name) is value


def _settable_values(module: str) -> list[str]:
    """Every parameter and dataclass field with a default of the module's exports.

    Methods count with their class; fields and methods whose name starts with
    an underscore do not.
    """
    mod = importlib.import_module(f"todalax.{module}")
    out = []

    def parameters(label, fn):
        out.extend(f"{label}({p.name})" for p in inspect.signature(fn).parameters.values()
                   if p.default is not inspect.Parameter.empty)

    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            parameters(f"{module}.{name}", obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                out.extend(f"{module}.{name}.{f.name}" for f in dataclasses.fields(obj)
                           if not f.name.startswith("_")
                           and (f.default is not dataclasses.MISSING
                                or f.default_factory is not dataclasses.MISSING))
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                if not attr.startswith("_") and inspect.isfunction(member):
                    parameters(f"{module}.{name}.{attr}", member)
    return out


def test_settable_values_are_pinned():
    # a new knob, or a default that no caller needs, shows here
    found = sorted(v for m in ("lax", "spectral", "dynamics", "singularity", "maslov")
                   for v in _settable_values(m))
    assert found == [
        "dynamics.integrate_flow(dt)",
        "dynamics.integrate_flow(method)",
        "dynamics.integrate_flow(rtol)",
        "dynamics.integrate_flow(t_eval)",
        "dynamics.lax_residual(odd_class)",
        "lax.build_generator(odd_class)",
        "lax.build_lax(eps)",
        "maslov.ClosedCurve.around_pair(initial_samples)",
        "maslov.ClosedCurve.around_pair(radius)",
        "maslov.ClosedCurve.circle(initial_samples)",
        "maslov.ClosedCurve.initial_samples",
        "maslov.DiskSpec.orientation",
        "maslov.DiskSpec.radius",
        "singularity.omega_point(p0)",
        "singularity.omega_point(q0)",
        "singularity.perturbed_seed(eps)",
    ]


def _one_of_each() -> list:
    """One instance of each exported dataclass, from the library's own calls at n = 3."""
    z = lax.PhasePoint(np.array([0.3, -0.1, 0.2]), np.array([0.1, 0.4, -0.2]))
    target = singularity.PairTarget(True, 1)
    om = singularity.omega_point(3)
    sp = singularity.find_singular(
        singularity.perturbed_seed(om, [singularity.PairTarget(False, 1)], eps=1e-2), [target])
    eye = np.eye(6)
    holonomy = maslov.check_holonomy_theorem(maslov.ClosedCurve.circle(z, eye[0], eye[4], 0.05))
    disk = maslov.DiskSpec(sp, radius=2e-3)
    check = verify.CHECKS[0]
    sample = verify.Sample(3, *verify.random_points(np.random.default_rng(0), 3, 4), om)
    return [
        z, lax.SignVector.odd(3), lax.build_lax(z), lax.build_generator(z, 2),
        sp.spectra[1], spectral.annihilator(sp.spectra[1], 0),
        dynamics.grad_F(z, 2),
        dynamics.integrate_flow(z, np.eye(3)[1], 0.01, method="verlet"),
        target, singularity.corank(sp), om, sp, singularity.hessian_structure_check(sp, target),
        singularity.bracket_relations_check(sp),
        maslov.ClosedCurve.around_pair(sp, target, radius=2e-3), holonomy.holonomy,
        holonomy.maslov, holonomy, disk, maslov.enclosure_count_check([disk]),
        verify.RunConfig(), sample, check, check.run(sample),
        reporting.VerificationReport([check.run(sample)]),
    ]


def test_dataclasses_compare_and_hash():
    # a dataclass holding arrays compares by identity: an elementwise == has no truth value
    exported = set()
    for module in MODULES:
        mod = importlib.import_module(f"todalax.{module}")
        exported |= {obj for obj in map(mod.__dict__.get, mod.__all__)
                     if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    instances = _one_of_each()
    assert {type(x) for x in instances} == exported
    for x in instances:
        twin = copy.deepcopy(x)  # equal fields, separate arrays
        assert (x == x) is True and isinstance(x == twin, bool), type(x).__name__
        if x.__dataclass_params__.frozen:
            hash(x), hash(twin)
