"""Spans around dp6kit's public functions, installed from outside the package.

``install()`` replaces every public function of the nine dp6kit layer
modules, under each name by which any dp6kit module refers to it, with a
wrapper that records a span: name, start and end ``perf_counter_ns``, parent
span, item id, whether it returned normally and per-function metadata.

Small helpers that run hundreds of thousands of times per command (the
scalar ``FFElem`` multiply and inverse, the 3x3 matrix helpers, polynomial
helpers, ``embed``) are leaves: they are counted and timed in aggregate per
name, and their time is charged to the enclosing span as ``leaf_ns``. That
keeps every self time exact without one record per multiplication. A leaf
never calls a recorded span; ``spans_in_leaves`` counts violations.

Spans stay in memory; ``dump()`` writes them out at the end of a process.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("fields", "algebra3", "dp6", "hexagon", "intlattice", "brauer",
          "proofkit", "selftest", "cli")
LEAF_METHODS = (("fields", "FFElem", "__mul__", ("__rmul__",)),
                ("fields", "FFElem", "inverse", ()))
LEAF_FUNCTIONS = ("fields.embed", "fields.retract", "fields.field_arith",
                  "fields.frobenius", "fields.format_element", "fields.is_prime",
                  "algebra3.sum_three", "brauer.frac_mod1")
LEAF_PREFIXES = ("fields.poly_", "algebra3.m3_")
METHOD_SPANS = (("dp6", "DP6Surface", "descriptor_json"),)

# span record fields
NAME, START, END, PARENT, ITEM, OK, LEAF_NS, META = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []       # indices of the open spans
        self.cells = []       # one [covered ns] cell per open span or leaf
        self.leaves = {}      # name -> [calls, total ns, self ns]
        self.leaf_depth = 0
        self.spans_in_leaves = 0
        self.item = None

    # -- recording -------------------------------------------------------

    def span(self, name, fn, meta=None):
        spans, stack, cells = self.spans, self.stack, self.cells

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.leaf_depth:
                self.spans_in_leaves += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item, True, 0, None]
            cell = [0]
            stack.append(len(spans))
            spans.append(rec)
            cells.append(cell)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
                cells.pop()
                rec[LEAF_NS] = cell[0]
            if meta is not None:
                rec[META] = meta(args, kwargs, result)
            return result
        return traced

    def leaf(self, name, fn):
        cells = self.cells
        agg = self.leaves.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell = [0]
            cells.append(cell)
            self.leaf_depth += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.leaf_depth -= 1
                cells.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - cell[0]
                if cells:
                    cells[-1][0] += dt
        return counted

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "leaves": self.leaves,
                       "spans_in_leaves": self.spans_in_leaves, **extra}, fh)


# -- metadata hooks ------------------------------------------------------


def _surface_id(args, kwargs, result):
    return {"surface": id(args[0])} if args else None


def _points(args, kwargs, result):
    surface = args[0]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    qk = surface.field.size ** k
    return {"surface": id(surface), "points": (qk ** 7 - 1) // (qk - 1)}


def _built(args, kwargs, result):
    return {"built": id(result)}


def _steps(args, kwargs, result):
    return {"verified_steps": sum(1 for s in args[0].steps if s.kind == "VERIFIED")}


META_HOOKS = {
    "dp6.build_surface": _built,
    "dp6.raw_point_count": _points,
    "dp6.surface_points": _points,
    "proofkit.verify_certificate": _steps,
}
SURFACE_READERS = ("dp6.DP6Surface.descriptor_json", "dp6.find_lines",
                   "dp6.frobenius_on_lines", "dp6.count_points", "dp6.zeta_check",
                   "dp6.torus_count_check", "dp6.verify_split_equivalence",
                   "dp6.splitting_degree", "dp6.expected_frobenius_type")


def is_leaf(full):
    return full in LEAF_FUNCTIONS or full.startswith(LEAF_PREFIXES)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


def install(tracer):
    """Wrap every public function of the layer modules in place."""
    mods = [importlib.import_module(f"dp6kit.{layer}") for layer in LAYERS]
    loaded = [m for n, m in list(sys.modules.items())
              if n == "dp6kit" or n.startswith("dp6kit.")]
    for layer, mod in zip(LAYERS, mods):
        for name, fn in list(_public_functions(mod)):
            full = f"{layer}.{name}"
            if is_leaf(full):
                wrapped = tracer.leaf(full, fn)
            else:
                hook = META_HOOKS.get(full) or (
                    _surface_id if full in SURFACE_READERS else None)
                wrapped = tracer.span(full, fn, hook)
            for m in loaded:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)
    for layer, cls, meth in METHOD_SPANS:
        klass = getattr(importlib.import_module(f"dp6kit.{layer}"), cls)
        full = f"{layer}.{cls}.{meth}"
        setattr(klass, meth, tracer.span(full, getattr(klass, meth), _surface_id))
    for layer, cls, meth, aliases in LEAF_METHODS:
        klass = getattr(importlib.import_module(f"dp6kit.{layer}"), cls)
        wrapped = tracer.leaf(f"{layer}.{cls}.{meth}", getattr(klass, meth))
        for attr in (meth,) + aliases:
            setattr(klass, attr, wrapped)
    return tracer


# -- analysis ------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus what its child spans and
    aggregated leaf calls cover. Children of one span never overlap (one
    thread), so the covered time is a plain sum."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[i] - rec[LEAF_NS]
            for i, rec in enumerate(spans)]


def layer_of(name):
    return name.split(".", 1)[0]


def outermost_ns(spans, names):
    """Total duration of spans named in `names` that have no ancestor in
    `names` (so recursion and nesting are not counted twice)."""
    names = set(names)
    total = 0
    for rec in spans:
        if rec[NAME] not in names:
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += rec[END] - rec[START]
    return total


# -- per-layer metrics ---------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("fields.mul_calls", "count", "lower"),
    ("fields.mul_ns", "ns", "lower"),
    ("fields.inv_ns", "ns", "lower"),
    ("fields.embed_calls", "count", "lower"),
    ("fields.rref_calls", "count", "lower"),
    ("fields.rref_self_s", "s", "lower"),
    ("fields.calls", "count", "lower"),
    ("fields.self_s", "s", "lower"),
    ("algebra3.build_s", "s", "lower"),
    ("algebra3.split_normalize_s", "s", "lower"),
    ("algebra3.generator_search_s", "s", "lower"),
    ("algebra3.generator_candidates", "count", "lower"),
    ("algebra3.generator_yield", "ratio", "higher"),
    ("algebra3.calls", "count", "lower"),
    ("algebra3.self_s", "s", "lower"),
    ("dp6.twists_built", "count", "lower"),
    ("dp6.twist_yield", "ratio", "higher"),
    ("dp6.standard_twists_self_s", "s", "lower"),
    ("dp6.find_lines_self_s", "s", "lower"),
    ("dp6.frobenius_self_s", "s", "lower"),
    ("dp6.points_enumerated", "count", "lower"),
    ("dp6.raw_point_count_s", "s", "lower"),
    ("dp6.points_per_s", "1/s", "higher"),
    ("dp6.surface_points_s", "s", "lower"),
    ("dp6.calls", "count", "lower"),
    ("dp6.self_s", "s", "lower"),
    ("hexagon.reports_s", "s", "lower"),
    ("hexagon.self_s", "s", "lower"),
    ("intlattice.snf_calls", "count", "lower"),
    ("intlattice.snf_self_s", "s", "lower"),
    ("intlattice.self_s", "s", "lower"),
    ("brauer.calls", "count", "lower"),
    ("brauer.self_s", "s", "lower"),
    ("proofkit.replay_s", "s", "lower"),
    ("proofkit.verify_s", "s", "lower"),
    ("proofkit.steps_verified", "count", "higher"),
    ("proofkit.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.handler_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("share.fields_algebra3", "ratio", "lower"),
    ("share.enumeration", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.spans_in_leaves", "count", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_OUTERMOST = {
    "algebra3.build_s": ("algebra3.build_split_exchange", "algebra3.build_hermitian"),
    "algebra3.split_normalize_s": ("algebra3.split_normalize",),
    "algebra3.generator_search_s": ("algebra3.hermitian_cubic_generator",),
    "dp6.raw_point_count_s": ("dp6.raw_point_count",),
    "dp6.surface_points_s": ("dp6.surface_points",),
    "hexagon.reports_s": ("hexagon.subgroup_report", "hexagon.all_subgroup_reports",
                          "hexagon.reports_json"),
    "proofkit.replay_s": ("proofkit.replay_first_proof", "proofkit.replay_second_proof"),
    "proofkit.verify_s": ("proofkit.verify_certificate",),
    "cli.handler_s": ("cli.main",),
}
_SELF = {
    "fields.rref_self_s": ("fields.rref", "fields.mat_solve", "fields.mat_kernel"),
    "dp6.standard_twists_self_s": ("dp6.standard_twists",),
    "dp6.find_lines_self_s": ("dp6.find_lines",),
    "dp6.frobenius_self_s": ("dp6.frobenius_on_lines",),
    "intlattice.snf_self_s": ("intlattice.smith_normal_form",),
}
_CALLS = {
    "fields.embed_calls": "fields.embed",
    "fields.rref_calls": "fields.rref",
    "dp6.twists_built": "dp6.build_surface",
    "intlattice.snf_calls": "intlattice.smith_normal_form",
}


def layer_metrics(dumps):
    """Per-layer metrics of one traced pass, from the span dumps of all its
    processes. Times are in seconds unless the unit says otherwise."""
    calls, self_ns, layer_self, layer_calls = {}, {}, {}, {}
    leaf = {}
    m = {name: 0 for name, _, _ in PER_LAYER}
    outer = {key: 0 for key in _OUTERMOST}
    built = read = raw_points = won = 0
    imports = []

    def add(d, k, v):
        d[k] = d.get(k, 0) + v

    for d in dumps:
        spans = d["spans"]
        built_ids, read_ids = set(), set()
        for rec, st in zip(spans, self_times(spans)):
            name, meta = rec[NAME], rec[META] or {}
            add(calls, name, 1)
            add(self_ns, name, st)
            add(layer_self, layer_of(name), st)
            add(layer_calls, layer_of(name), 1)
            if "built" in meta:
                built_ids.add(meta["built"])
            if "surface" in meta:
                read_ids.add(meta["surface"])
            if name in ("dp6.raw_point_count", "dp6.surface_points"):
                m["dp6.points_enumerated"] += meta["points"]
                raw_points += meta["points"] if name == "dp6.raw_point_count" else 0
            m["proofkit.steps_verified"] += meta.get("verified_steps", 0)
            if name == "algebra3.cubic_from_generator" and rec[PARENT] >= 0 and \
                    spans[rec[PARENT]][NAME] == "algebra3.hermitian_cubic_generator":
                m["algebra3.generator_candidates"] += 1
            won += name == "algebra3.hermitian_cubic_generator" and rec[OK]
        for name, (n, total, own) in d["leaves"].items():
            add(leaf, name, n)
            add(leaf, name + ":ns", total)
            add(layer_self, layer_of(name), own)
            add(layer_calls, layer_of(name), n)
        for key, names in _OUTERMOST.items():
            outer[key] += outermost_ns(spans, names)
        built += len(built_ids)
        read += len(built_ids & read_ids)
        m["trace.spans"] += len(spans)
        m["trace.spans_in_leaves"] += d["spans_in_leaves"]
        imports.append(d["import_ns"])

    mul, inv = "fields.FFElem.__mul__", "fields.FFElem.inverse"
    m["fields.mul_calls"] = leaf.get(mul, 0)
    m["fields.mul_ns"] = leaf.get(mul + ":ns", 0) / max(leaf.get(mul, 0), 1)
    m["fields.inv_ns"] = leaf.get(inv + ":ns", 0) / max(leaf.get(inv, 0), 1)
    for key, name in _CALLS.items():
        m[key] = calls.get(name, 0) + leaf.get(name, 0)
    for key, names in _SELF.items():
        m[key] = sum(self_ns.get(n, 0) for n in names) / 1e9
    for key, ns in outer.items():
        m[key] = ns / 1e9
    for layer in LAYERS:
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] = layer_calls.get(layer, 0)
    cands = m["algebra3.generator_candidates"]
    m["algebra3.generator_yield"] = won / cands if cands else 0.0
    m["dp6.twist_yield"] = read / built if built else 0.0
    rp = m["dp6.raw_point_count_s"]
    m["dp6.points_per_s"] = raw_points / rp if rp else 0.0
    total = sum(layer_self.values()) / 1e9
    if total:
        m["share.fields_algebra3"] = (m["fields.self_s"] + m["algebra3.self_s"]) / total
        m["share.enumeration"] = (rp + m["dp6.surface_points_s"]) / total
    m["cli.import_s"] = statistics.median(imports) / 1e9 if imports else 0.0
    return m
