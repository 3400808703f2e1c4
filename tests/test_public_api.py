import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pmp_thermo

MODULES = sorted(info.name for info in pkgutil.iter_modules(pmp_thermo.__path__))


def test_every_module_is_listed():
    assert {"bruteforce", "cli", "lindblad", "planner", "pmp", "two_level"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"pmp_thermo.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from pmp_thermo import *", namespace)
    assert "solve_engine" in namespace and "grid_search" in namespace


@pytest.mark.parametrize("path", sorted(Path(pmp_thermo.__file__).parent.rglob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    # at any depth, inside functions too: scipy is a test dependency only
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert not [name for name in names if name.split(".")[0] == "scipy"]
