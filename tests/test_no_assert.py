"""The library raises real exceptions for its invariants: ``python -O``
strips ``assert`` statements, so no module of the package may hold one."""

import ast
from pathlib import Path

import pytest

import demazure

MODULES = sorted(Path(demazure.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s: assert statements at lines %s" % (path.name, lines)
