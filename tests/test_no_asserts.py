"""Checks that guard a result are exceptions: `python -O` strips asserts."""

import ast
from pathlib import Path

import dp6kit

SRC = Path(dp6kit.__file__).parent


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements_in_the_package():
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raw_assertion_errors_in_the_package():
    # the CLI turns only Dp6kitError into error JSON; an AssertionError
    # would end in a traceback
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []
