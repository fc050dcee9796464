"""Every exported name resolves, so tools that walk ``__all__`` never meet a dangling one.

The exports' settable values (parameters and fields with defaults) are pinned.
"""

import dataclasses
import importlib
import inspect

import pytest

import todalax

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
        "lax.GeneratorMatrix.odd_class",
        "lax.build_generator(odd_class)",
        "lax.build_lax(eps)",
        "maslov.ClosedCurve.around_pair(initial_samples)",
        "maslov.ClosedCurve.around_pair(orientation)",
        "maslov.ClosedCurve.around_pair(radius)",
        "maslov.ClosedCurve.circle(initial_samples)",
        "maslov.ClosedCurve.circle(orientation)",
        "maslov.ClosedCurve.initial_samples",
        "maslov.DiskSpec.orientation",
        "maslov.DiskSpec.radius",
        "singularity.omega_point(p0)",
        "singularity.omega_point(q0)",
        "singularity.perturbed_seed(eps)",
    ]
