"""Checks that guard a result are exceptions: `python -O` strips asserts."""

import ast
from pathlib import Path

import dp6kit

SRC = Path(dp6kit.__file__).parent


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
