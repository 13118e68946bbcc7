"""Every name a `talentflow` module imports is used in that module, and
every private name it defines at module level is read in that module.

A package `__init__` re-exports what it imports, so it is exempt. A name
that appears only inside a string does not count as used: the modules
use `from __future__ import annotations`, so no annotation is quoted.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import talentflow

PACKAGE = Path(talentflow.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind -> the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each `_name` (not `__name__`) that a module-level statement binds by
    assignment, `def` or `class` -> the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE.parent)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE.parent)))
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = read_names(tree)
    dead = {name: line for name, line in private_definitions(tree).items()
            if name not in read}
    assert not dead, f"{path.name}: private names never read (name: line) {dead}"


def test_catches_a_dead_private_name():
    tree = ast.parse("_A = 1\n_B: int = 2\n_C, D = 3, 4\n__all__ = []\n"
                     "def _f(): return _A\nclass _K: pass\nprint(_f())\n")
    assert set(private_definitions(tree)) - read_names(tree) == {"_B", "_C", "_K"}


def test_catches_an_unused_import():
    tree = ast.parse("import json\nfrom typing import Callable, Mapping\n"
                     "def f(m: Mapping[str, str]) -> str: return 'json'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Callable", "json"}
