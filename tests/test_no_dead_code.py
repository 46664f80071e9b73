"""Every definition of the package is reached from somewhere in the package.

An AST scan of src/dp6kit/*.py: each module-level function, class and
assigned name, and each non-dunder method, must occur as an ``ast.Name`` or
an ``ast.Attribute`` somewhere in the package outside its own definition.
A name that only tests reach is dead code; the exceptions are listed in
KEEP, each with the reason it stays.

The scan goes by name, so a definition can hide behind a same-named
attribute elsewhere (``order``, ``inverse``, ``zero``); those cases are
checked by hand, not here.
"""

import ast
from pathlib import Path

import dp6kit

SRC = Path(dp6kit.__file__).parent

KEEP = {
    "__version__": "the package version, read by packaging tools",
    "build_surface": "the benchmark counts dp6.twists_built through it",
    "raw_point_count": "the independent P^6 oracle for every point count",
    "cubic_from_basis": "a validated constructor from an explicit basis",
    "parse_element": "inverts format_element, for re-checking certificates offline",
    "to_json": "serialises a ProofCertificate, for re-checking it offline",
    "poly_mul": "the polynomial product, for a gcd-based root finder",
}

# parameters that every caller in the package leaves at one value, kept on
# purpose: "module.function.parameter" -> reason
KEEP_PARAMETERS = {
    "dp6.find_lines.m": "the only way to find the lines over a larger field, "
                        "which reaches the embedding of coefficients through K",
    "dp6.raw_point_count.budget": "the enumeration budgets are to be reworked together",
    "dp6.surface_points.budget": "the enumeration budgets are to be reworked together",
    "dp6.fibration_point_count.budget": "the enumeration budgets are to be reworked together",
    "dp6.count_points.budget": "the enumeration budgets are to be reworked together",
    "dp6.zeta_check.budget": "the enumeration budgets are to be reworked together",
    "dp6.torus_count_check.budget": "the enumeration budgets are to be reworked together",
}


def _definitions(tree):
    """(name, node) for every module-level function, class and assigned name
    and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item


def _uses(tree):
    """(name, node) for every ast.Name and ast.Attribute of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unreached(sources):
    """Names defined in sources (a {module: text} map) that no use outside
    their own definition reaches, as sorted "module.name" strings."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = {}
    for tree in trees.values():
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(id(n) not in inside for n in uses.get(name, ())):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_every_definition_is_reached_or_kept():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    dead = [name for name in unreached(sources) if name.split(".")[-1] not in KEEP]
    assert dead == []


def test_every_kept_name_is_still_defined():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = {name for text in sources.values()
               for name, _ in _definitions(ast.parse(text))}
    assert set(KEEP) <= defined
    for key in KEEP_PARAMETERS:
        module, function, parameter = key.split(".")
        node = next(n for n in ast.parse(sources[module]).body
                    if isinstance(n, ast.FunctionDef) and n.name == function)
        assert parameter in [a.arg for a in node.args.args], key


def test_scan_reports_unreached_definitions():
    sources = {
        "a": "X = 1\nY = 2\n\ndef f(n):\n    return f(n - 1) + X\n\n"
             "class C:\n    def used(self):\n        return self.used()\n"
             "    def __eq__(self, other):\n        return True\n",
        "b": "from .a import f\n\ndef g():\n    return f(0)\n",
    }
    assert unreached(sources) == ["a.C", "a.Y", "a.used", "b.g"]
