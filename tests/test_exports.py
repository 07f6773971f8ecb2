"""Every module's __all__ names only what the module defines, and every
module reads each name it imports."""
import ast
import importlib
import pkgutil
from pathlib import Path

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


SOURCES = sorted(Path(fracctrl.__file__).parent.glob("*.py"))


def imported_names(tree):
    """The names that the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def read_names(tree):
    """The names the module loads, and those its __all__ lists."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return loaded


def test_the_sources_are_found():
    assert {"backward", "forward", "fracnoise", "smp"} <= {path.stem for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(set(imported_names(tree)) - read_names(tree))
    assert not unread, f"{path.name} imports names it never reads: {unread}"
