"""Every name a `talentflow` module imports is used in that module.

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


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE.parent)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_catches_an_unused_import():
    tree = ast.parse("import json\nfrom typing import Callable, Mapping\n"
                     "def f(m: Mapping[str, str]) -> str: return 'json'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Callable", "json"}
