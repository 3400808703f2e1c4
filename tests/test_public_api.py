import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import pmp_thermo

MODULES = sorted(info.name for info in pkgutil.iter_modules(pmp_thermo.__path__))
SOURCES = sorted(Path(pmp_thermo.__file__).parent.rglob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # at any depth, inside functions too: scipy is a test dependency only
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert not [name for name in names if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    # sum() of floats rounds differently from Python 3.12 on; lindblad._sum adds
    # left to right on every version
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert not calls


def _private_definitions(tree):
    """(name, node) for each private, non-dunder name a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    )


def test_no_unused_private_names():
    # a private name that src/ never reads is dead code or kept alive for a test
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(pmp_thermo.__file__).parent.rglob("*.py"))}
    uses = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{file}:{name}" for file, tree in trees.items() for name, node in _private_definitions(tree)
              if uses[name] - _references(node)[name] <= 0]
    assert not unused


# perfbench/tracer.py rebinds planner.adiabatic_f and pmp.lindblad_rhs; tests/test_tracer_targets.py
# guards each pair
KEPT_IMPORTS = {("planner.py", "adiabatic_f"), ("pmp.py", "lindblad_rhs")}


def _top_level_imports(path, tree):
    """(name, line) for each name bound by an import at the module's top level.
    A package __init__ imports from its own modules to publish the names."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (path.name == "__init__.py" and node.level > 0):
                yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    # a name a module imports and never reads, nor lists in __all__, is left behind
    tree = ast.parse(path.read_text(), str(path))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read = loaded | _dunder_all(tree)
    unused = {(path.name, name, line) for name, line in _top_level_imports(path, tree) if name not in read}
    kept = {entry for entry in KEPT_IMPORTS if entry[0] == path.name}
    assert {(file, name) for file, name, _ in unused} == kept, sorted(unused)
