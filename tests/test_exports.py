"""Every exported name resolves, so tools that walk ``__all__`` never meet a dangling one."""

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
