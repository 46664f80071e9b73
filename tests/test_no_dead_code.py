"""Every definition of the package is reached from somewhere in the package.

An AST scan of src/dp6kit/*.py: each module-level function, class and
assigned name, and each non-dunder method, must occur as an ``ast.Name`` or
an ``ast.Attribute`` somewhere in the package outside its own definition.
A name that only tests reach is dead code; the exceptions are listed in
KEEP, each with the reason it stays.

A second scan looks at calls: a parameter with a default that no call in
the package sets is dead too, unless KEEP_PARAMETERS names it with its
reason.  So is a default that every call in the package sets, which no
caller relies on, unless KEEP_DEFAULTS names it with its reason.

A third scan looks at class attributes: each non-dunder name a class body
assigns or annotates (``x = ...``, a dataclass field ``x: int``), and each
attribute a method assigns on its first parameter (``self.x = ...``), must
be read as an attribute somewhere in the package.

The scans go by name, so a definition can hide behind a same-named
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
    "parse_element": "inverts format_element, for re-checking certificates offline",
    "to_json": "serialises a ProofCertificate, for re-checking it offline",
    "poly_mul": "the polynomial product, for a gcd-based root finder",
}

# defaulted parameters that no call in the package sets, kept on purpose:
# "module.function.parameter" -> reason
KEEP_PARAMETERS = {
    "cli.main.argv": "tests and perfbench/cli_shim.py call main(argv) in-process",
    "dp6.find_lines.m": "the only way to find the lines over a larger field, "
                        "which reaches the embedding of coefficients through K",
    "dp6.split_model_points.k": "the biprojective oracle counts over extensions "
                                "F_{q^k} too",
    "selftest.index6_corpus.seed": "the tests draw corpora apart from the selftest's",
}

# defaulted parameters that every call in the package sets, kept on purpose:
# "module.function.parameter" -> reason
KEEP_DEFAULTS = {
    "dp6.verify_split_equivalence.k": "perfbench/worker.py calls it without k",
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


def _functions(tree):
    """(name, node, bound) for every module-level function and method; an
    __init__ goes by its class's name, and bound is 1 when a call passes the
    first parameter implicitly (self or cls)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, 0 if static else 1


def _defaulted(node):
    """(position or None, name) of each parameter that has a default;
    keyword-only parameters have no position."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _parameter_calls(sources):
    """("module.function.parameter", sets) for each defaulted parameter of
    sources (a {module: text} map), where sets holds, for each call of the
    function's name in sources, whether that call sets the parameter.

    Calls are matched by name, like the definition scan.  A call with *args
    or **kwargs sets every parameter.  A function whose name has any use
    other than a call or the class of an isinstance test is skipped: passed
    as a value, it can be called with anything."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls, escaped = {}, set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                    callees.update(id(n) for n in ast.walk(node.args[1]))
                name, _ = next(_uses(node.func), (None, None))
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (starred, len(node.args), {k.arg for k in node.keywords}))
        for name, node in _uses(tree):
            if id(node) not in callees and not isinstance(node.ctx, ast.Store):
                escaped.add(name)
    for module, tree in trees.items():
        for name, function, bound in _functions(tree):
            if name in escaped:
                continue
            for position, parameter in _defaulted(function):
                yield f"{module}.{name}.{parameter}", [
                    starred or parameter in keywords
                    or (position is not None and position < bound + count)
                    for starred, count, keywords in calls.get(name, ())]


def unset_parameters(sources):
    """Defaulted parameters that no call in sources (a {module: text} map)
    sets, as sorted "module.function.parameter" strings; see
    _parameter_calls for how calls are matched."""
    return sorted(key for key, sets in _parameter_calls(sources) if not any(sets))


def unrelied_defaults(sources):
    """Defaulted parameters that are called in sources (a {module: text}
    map) and set by every such call, so that no call relies on the
    default, as sorted "module.function.parameter" strings; calls are
    matched as in unset_parameters."""
    return sorted(key for key, sets in _parameter_calls(sources) if sets and all(sets))


def _assigned_attributes(tree):
    """(class, attribute) for each name a class body assigns or annotates
    (a dataclass field) and each attribute a method assigns on its first
    parameter."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield cls.name, name.id
            elif isinstance(item, ast.FunctionDef) and item.args.args:
                first = item.args.args[0].arg
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == first):
                        yield cls.name, node.attr


def unread_attributes(sources):
    """Non-dunder attributes that a class in sources (a {module: text} map)
    assigns but no attribute load in sources reads, as sorted
    "module.Class.attribute" strings."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    found = {f"{module}.{cls}.{name}"
             for module, tree in trees.items()
             for cls, name in _assigned_attributes(tree)
             if name not in read and not (name.startswith("__") and name.endswith("__"))}
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


def test_every_unset_parameter_is_kept():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unset_parameters(sources) == sorted(KEEP_PARAMETERS)


def test_every_default_is_relied_on_or_kept():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unrelied_defaults(sources) == sorted(KEEP_DEFAULTS)


def test_every_class_attribute_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_attributes(sources) == []


def test_scan_reports_unreached_definitions():
    sources = {
        "a": "X = 1\nY = 2\n\ndef f(n):\n    return f(n - 1) + X\n\n"
             "class C:\n    def used(self):\n        return self.used()\n"
             "    def __eq__(self, other):\n        return True\n",
        "b": "from .a import f\n\ndef g():\n    return f(0)\n",
    }
    assert unreached(sources) == ["a.C", "a.Y", "a.used", "b.g"]


def test_scan_reports_unset_parameters():
    sources = {
        "a": "def f(x, y=1, z=2, *, w=3):\n    return f(0, 1)\n\n"
             "def g(x=0):\n    return g\n\n"
             "def k(x=0):\n    return x\n\n"
             "class C:\n    def __init__(self, v=0):\n        self.v = v\n"
             "    def m(self, n=0):\n        return isinstance(self, C)\n",
        "b": "from .a import C, k\n\ndef h(**kw):\n    return k(**kw), C(), C().m(n=1)\n",
    }
    assert unset_parameters(sources) == ["a.C.v", "a.f.w", "a.f.z"]


def test_scan_reports_unrelied_defaults():
    sources = {
        "a": "def f(x, y=1, z=2, *, w=3):\n    return f(0, 1, w=4) + f(0, 2, 3, w=5)\n\n"
             "def g(x=0):\n    return g\n\n"
             "def k(x=0):\n    return x\n\n"
             "def u(x=0):\n    return x\n\n"
             "class C:\n    def __init__(self, v=0):\n        self.v = v\n"
             "    def m(self, n=0):\n        return isinstance(self, C)\n",
        "b": "from .a import C, k\n\ndef h(**kw):\n    return k(**kw), C(v=1), C(2).m(n=1)\n",
    }
    assert unrelied_defaults(sources) == ["a.C.v", "a.f.w", "a.f.y", "a.k.x", "a.m.n"]


def test_scan_reports_unread_attributes():
    sources = {
        "a": "class C:\n    __slots__ = ('v', 'w')\n    k = 0\n    unused = 1\n\n"
             "    def __init__(self, v):\n        self.v = v\n        self.w = v\n"
             "        self.w = 2\n\n    def get(self):\n        return self.v + C.k\n",
        "b": "from .a import C\n\ndef g(c):\n    c.x = 1\n    return c.get()\n",
    }
    assert unread_attributes(sources) == ["a.C.unused", "a.C.w"]


def test_scan_reports_unread_annotated_fields():
    sources = {
        "a": "from dataclasses import dataclass, field\n\n@dataclass\nclass R:\n"
             "    ok: bool\n    failures: list = field(default_factory=list)\n"
             "    note: str = ''\n",
        "b": "from .a import R\n\ndef g():\n    r = R(ok=True)\n"
             "    return r.ok, R.note\n",
    }
    assert unread_attributes(sources) == ["a.R.failures"]
