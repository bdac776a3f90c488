"""The library surface: every exported name resolves, every module has a caller.

The reachability check reads ``import`` statements with :mod:`ast`.  A module
under ``src/repro`` counts as reached when some file in ``src/``,
``examples/`` or ``perfbench/`` imports it: directly (``import repro.x.m``,
``from repro.x.m import f``, ``from repro.x import m``) or by taking from the
module's package a name the module defines (``from repro.x import f``).

A package ``__init__`` does not count as a caller.  Its re-exports are what
made unreached modules look alive: a module imported only by its own
``__init__`` (and by its own tests) is loaded with the package, but nothing in
the library, the examples or the benchmark ever calls into it.  Files under
``tests/`` do not count either, for the same reason.
"""

import ast
import importlib
import pathlib
import pkgutil
from functools import lru_cache

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CALLER_DIRS = ("src", "examples", "perfbench")

PACKAGES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_all_name_resolves(package_name):
    package = importlib.import_module(package_name)
    missing = [name for name in getattr(package, "__all__", ()) if not hasattr(package, name)]
    assert not missing, f"{package_name}.__all__ names what it does not define: {missing}"


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def top_level_names(tree):
    """Names a module defines at top level: functions, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def imported(path):
    """``(module, name)`` pairs a file imports, anywhere in it; ``name`` is
    ``None`` for ``import module``.  Relative imports are resolved."""
    package = module_name(path).rpartition(".")[0] if path.is_relative_to(SRC) else ""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            pairs.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            pairs.update((base, alias.name) for alias in node.names)
    return pairs


@lru_cache(maxsize=None)
def caller_imports():
    """Imports of every file that may count as a caller, keyed by path."""
    return {
        path: imported(path)
        for directory in CALLER_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
    }


MODULES = sorted(
    path
    for path in SRC.joinpath("repro").rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py")
)


@pytest.mark.parametrize("path", MODULES, ids=[module_name(p) for p in MODULES])
def test_every_module_has_a_caller(path):
    name = module_name(path)
    package = name.rpartition(".")[0]
    defines = top_level_names(ast.parse(path.read_text()))
    callers = [
        caller.relative_to(REPO_ROOT).as_posix()
        for caller, pairs in caller_imports().items()
        if caller != path
        and any(
            base == name
            or f"{base}.{imported_name}" == name
            or (base == package and imported_name in defines)
            for base, imported_name in pairs
        )
    ]
    assert callers, f"nothing in {', '.join(CALLER_DIRS)} imports {name}"
