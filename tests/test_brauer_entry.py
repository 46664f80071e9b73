"""Brauer classes enter the package one way: through brauer's decoders
(from_json, from_json_K), quaternion_class and order3_class.  No module
other than brauer calls the class constructor or names the unvalidated
builder _vector, and brauer has one class type, over Q and over K alike."""

import ast
from pathlib import Path

import dp6kit

SRC = Path(dp6kit.__file__).parent

CLASSES = {"InvariantVector"}
BUILDERS = {"_vector"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _ways_in(tree):
    """Each call of a class constructor (or of its __new__) and each import
    or use of an unvalidated builder in the tree, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if _name(func) in CLASSES or (_name(func) == "__new__"
                                          and _name(func.value) in CLASSES):
                found.append((node.lineno, f"{ast.unparse(func)}("))
        elif _name(node) in BUILDERS:
            found.append((node.lineno, _name(node)))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_classes_enter_only_through_brauer():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "brauer.py":
            ways = _ways_in(ast.parse(path.read_text(), str(path)))
            if ways:
                found[path.name] = ways
    assert found == {}


def test_way_in_is_reported():
    tree = ast.parse("from .brauer import InvariantVector, _vector\n"
                     "a = InvariantVector()\n"
                     "b = brauer.InvariantVector.__new__(brauer.InvariantVector)\n"
                     "c = brauer._vector(K, 1, ())\n"
                     "d: InvariantVector = from_json({})\n")
    assert _ways_in(tree) == ["_vector (line 1)", "InvariantVector( (line 2)",
                              "brauer.InvariantVector.__new__( (line 3)",
                              "_vector (line 4)"]


def test_brauer_has_one_class_type():
    tree = ast.parse((SRC / "brauer.py").read_text())
    assert {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} == \
        {"QuadField", "InvariantVector"}
