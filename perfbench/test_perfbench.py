"""Tests of the benchmark itself: span self times, answer checks, inputs."""

import copy
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import inputs
import tracer
from worker import Runner

HERE = Path(__file__).resolve().parent


def _span(name, start, end, parent, leaf_ns=0, meta=None):
    return [name, start, end, parent, "i0", True, leaf_ns, meta]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("dp6.standard_twists", 0, 100, -1, leaf_ns=5),   # children 10..40, 50..90
        _span("algebra3.build_hermitian", 10, 40, 0),
        _span("fields.rref", 15, 25, 1, leaf_ns=4),
        _span("algebra3.hermitian_cubic_generator", 50, 90, 0),
    ]
    assert tracer.self_times(spans) == [100 - 30 - 40 - 5, 30 - 10, 10 - 4, 40]
    assert tracer.outermost_ns(spans, ["algebra3.build_hermitian", "fields.rref"]) == 30


def test_layer_metrics_on_synthetic_dump():
    spans = [
        _span("dp6.standard_twists", 0, 100, -1),
        _span("dp6.build_surface", 0, 10, 0, meta={"built": 1}),
        _span("dp6.build_surface", 10, 20, 0, meta={"built": 2}),
        _span("algebra3.hermitian_cubic_generator", 20, 60, 0),
        _span("algebra3.cubic_from_generator", 20, 30, 3),
        _span("algebra3.cubic_from_generator", 30, 40, 3),
        _span("dp6.raw_point_count", 100, 200, -1, meta={"surface": 2, "points": 127}),
    ]
    dump = {"spans": spans, "leaves": {"fields.FFElem.__mul__": [4, 40, 40]},
            "spans_in_leaves": 0, "import_ns": 7}
    m = tracer.layer_metrics([dump])
    assert m["dp6.twists_built"] == 2 and m["dp6.twist_yield"] == 0.5
    assert m["algebra3.generator_candidates"] == 2
    assert m["algebra3.generator_yield"] == 0.5
    assert m["dp6.points_enumerated"] == 127
    assert m["fields.mul_calls"] == 4 and m["fields.mul_ns"] == 10
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER}


def test_cli_checker_rejects_corrupted_answers():
    item = {"q": 3, "model": "split", "action": "count"}
    good = {"count": 22, "predicted": 22, "q": 3, "k": 1}
    assert checks.check_surface(item, good) == []
    assert checks.check_surface(item, {**good, "count": 23})
    assert checks.check_surface(item, {**good, "count": 23, "predicted": 23})  # not q^2+4q+1
    ok = json.dumps(good)
    assert checks.check_cli_result(item, 0, ok, "") == []
    assert checks.check_cli_result(item, 1, ok, "")
    assert checks.check_cli_result(item, 0, "count: 22", "")
    assert checks.check_cli_result(item, 0, ok, "Traceback (most recent call last):")
    frob = {"q": 2, "model": "kinert-l3", "action": "frobenius"}
    assert checks.check_surface(frob, {"frobenius": "s312", "swap": True, "cycle_type": [3]}) == []
    assert checks.check_surface(frob, {"frobenius": "s312", "swap": False, "cycle_type": [3]})


def test_lines_checker_needs_a_hexagon():
    item = {"q": 2, "model": "split", "action": "lines"}
    adj = {"E1": ["F2", "F3"], "E2": ["F1", "F3"], "E3": ["F1", "F2"],
           "F1": ["E2", "E3"], "F2": ["E1", "E3"], "F3": ["E1", "E2"]}
    row = ["[0]@2^1"] * 6 + ["[1]@2^1"]
    out = {"field_degree": 1, "adjacency": adj, "lines": {k: [row, row] for k in adj}}
    assert checks.check_surface(item, out) == []
    bad = copy.deepcopy(out)
    bad["adjacency"]["E1"], bad["adjacency"]["F1"] = ["F1", "F3"], ["E1", "E3"]
    assert checks.check_surface(item, bad)


def test_frobenius_types_match_the_program():
    from dp6kit import dp6
    from dp6kit.fields import GF
    for p in (2, 3):
        for name, surf in dp6.standard_twists(GF(p)).items():
            swap, ct = dp6.expected_frobenius_type(surf)
            assert checks.expected_frobenius(name) == (swap, list(ct))


def test_in_process_checkers_reject_corrupted_answers():
    runner = Runner()
    rng_items = inputs.proof_lattice_items(3)
    vec = next(it for it in rng_items if it["kind"] == "vector")
    mat = next(it for it in rng_items if it["kind"] == "matrix")
    for item in (vec, mat):
        result = {"answer": runner.run(item)()}
        assert checks.check_item(item, result) == []
    ans = runner.run(vec)()
    flipped = copy.deepcopy(ans)
    flipped["certs"][1]["verified"] = False
    assert checks.check_item(vec, {"answer": flipped})
    wrong_index = {**ans, "index": 3}
    assert checks.check_item(vec, {"answer": wrong_index})
    snf = runner.run(mat)()
    snf["S"][0][0] += 1
    assert checks.check_item(mat, {"answer": snf})
    assert checks.check_item(vec, {"error": "IndexMismatch: boom"})

    zeta = {"kind": "zeta", "q": 2, "model": "split"}
    ans = {"records": [[1, 13, 13], [2, 33, 33]], "equivalence": True,
           "torus": {"surface_points": 13, "u_count": 1, "torus_count": 1, "ok": True}}
    assert checks.check_item(zeta, {"answer": ans}) == []
    ans["records"][1][1] += 1
    assert checks.check_item(zeta, {"answer": ans})

    hil = {"kind": "hilbert", "a": -1, "b": -1, "p": 2}
    assert checks.check_item(hil, {"answer": {"symbol": -1}}, lambda a, b, p: -1) == []
    assert checks.check_item(hil, {"answer": {"symbol": 1}}, lambda a, b, p: -1)


def test_two_seeds_give_identical_per_q_counts():
    def per_q(seed):
        return Counter(it["q"] for it in inputs.surface_cli_items(seed))
    assert per_q(1) == per_q(2) == per_q(3)
    assert per_q(1)[4] >= 1
    for seed in (1, 2):
        items = inputs.surface_cli_items(seed)
        assert {it["model"] for it in items} == set(inputs.TWISTS)
        assert {it["action"] for it in items} == set(inputs.ACTIONS)
    assert inputs.surface_cli_items(1) != inputs.surface_cli_items(2)
    assert inputs.surface_cli_items(1) == inputs.surface_cli_items(1)
    kinds = [Counter(it["kind"] for it in inputs.proof_lattice_items(s)) for s in (1, 2)]
    assert kinds[0] == kinds[1] == Counter(inputs.PROOF_MIX)
    assert all(inputs.expected_index(it["algebra"]) == 6
               for it in inputs.proof_lattice_items(1) if it["kind"] == "vector")


def test_traced_cli_shim_writes_spans(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "cli_shim.py"), str(out), "x",
                           "surface", "count", "--model", "split", "--q", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 13
    m = tracer.layer_metrics([json.loads(out.read_text())])
    assert m["dp6.twists_built"] == 6 and m["fields.mul_calls"] > 0
    assert m["cli.handler_s"] > 0 and m["trace.spans_in_leaves"] == 0


def test_benchmark_json_names_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in tracer.PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} == set(inputs.WORKLOADS)
    assert set(inputs.ITEMS) == set(inputs.WORKLOADS + inputs.EXTRA_WORKLOADS)
