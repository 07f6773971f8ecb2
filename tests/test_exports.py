"""Every module's __all__ names only what the module defines."""
import importlib
import pkgutil

import pytest

import fracctrl

MODULES = ["fracctrl"] + sorted(f"fracctrl.{m.name}" for m in pkgutil.iter_modules(fracctrl.__path__))


def test_the_modules_are_found():
    assert {"fracctrl.backward", "fracctrl.fracnoise", "fracctrl.forward", "fracctrl.smp"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
