"""The package imports nothing but the standard library, numpy and click,
the two dependencies pyproject.toml declares."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twoscale"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click"}


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_click(path):
    undeclared = imported_modules(ast.parse(path.read_text(), str(path))) - ALLOWED
    assert not undeclared, f"{path.name} imports {sorted(undeclared)}"


def test_the_check_sees_an_undeclared_import():
    tree = ast.parse("import numpy.linalg\nfrom scipy import stats\nfrom . import core\n")
    assert imported_modules(tree) - ALLOWED == {"scipy"}
