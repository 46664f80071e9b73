"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import dp6kit

SRC = Path(dp6kit.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import lcm, gcd\nprint(gcd(os.sep, 1))\n")
    assert _unused_imports(tree) == ["lcm (line 2)"]
