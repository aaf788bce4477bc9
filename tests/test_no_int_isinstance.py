"""An entry check reads ``type(c) is int``: ``isinstance(c, int)`` lets a bool
through as 0 or 1, so no module of the package may make that call, with
``int`` alone or inside a tuple of classes."""

import ast
from pathlib import Path

import pytest

import demazure

MODULES = sorted(Path(demazure.__file__).parent.glob("*.py"))


def _names_int(node):
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(item, ast.Name) and item.id == "int" for item in items)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_isinstance_int(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and _names_int(node.args[1])]
    assert not lines, "%s: isinstance(..., int) at lines %s" % (path.name, lines)


@pytest.mark.parametrize("source, found", [
    ("isinstance(c, int)", True), ("isinstance(c, (str, int))", True),
    ("isinstance(c, GradedCharacter)", False), ("type(c) is int", False)])
def test_the_check_finds_int_alone_or_in_a_tuple(source, found):
    call = ast.parse(source).body[0].value
    assert (isinstance(call, ast.Call) and _names_int(call.args[1])) is found
