import importlib
import pkgutil

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
