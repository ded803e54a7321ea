"""Every name a bilingap module imports is used in that module.

No linter ships with the project, so this is the unused-import check: each
module under src/bilingap is parsed with ast, and an imported name counts as
used when the module reads it (a bare name, or the base of an attribute
chain) or lists it in __all__.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bilingap"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Imported name -> line, for every import in the module but __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Callable, Iterable\nimport numpy.linalg\n"
        "__all__ = ['Iterable']\ndef f(x: numpy.ndarray) -> None: ...\n"
    )
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"Callable"}
