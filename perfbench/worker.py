"""One in-process pass of a library workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload zeta-session --seed 1 --out pass.json

Imports dp6kit, generates the inputs, runs every item one at a time and
writes the pass time, per-build and per-item times and raw answers to
``--out``.
Answers are checked by the caller, outside the timed region. With
``--setup-only`` it prints ``ready`` and its ``perf_counter()`` once set-up
is done, and exits;
``--trace`` installs the span wrappers after set-up and writes the spans to
``--out`` + ``.spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter, perf_counter_ns

import inputs


def _mat(M):
    return [list(r) for r in M.data]


def _cls(u):
    """A Brauer class as JSON without calling dp6kit (which the trace counts)."""
    return {"inf": str(u.real), "primes": {str(p): str(f) for p, f in u.primes}}


class Runner:
    def __init__(self):
        from dp6kit import brauer, dp6, fields, hexagon, intlattice, proofkit
        self.brauer, self.dp6, self.fields = brauer, dp6, fields
        self.hexagon, self.intlattice, self.proofkit = hexagon, intlattice, proofkit
        self.twists = {}

    def build_twists(self, q):
        self.twists[q] = self.dp6.standard_twists(self.fields.GF(q))

    def run(self, item):
        """Run one item; returns a thunk that turns its results into JSON
        after the timer has stopped."""
        return getattr(self, "_" + item["kind"])(item)

    def _zeta(self, item):
        surf = self.twists[item["q"]][item["model"]]
        recs = self.dp6.zeta_check(surf)
        torus = self.dp6.torus_count_check(surf)
        equiv = self.dp6.verify_split_equivalence(surf) if item["model"] == "split" else None
        return lambda: {"records": [[r.k, r.raw, r.predicted] for r in recs],
                        "torus": torus, "equivalence": equiv}

    def _vector(self, item):
        br, pk = self.brauer, self.proofkit
        A = br.from_json(item["algebra"])
        idx = br.index(A)
        C, D = br.decompose_degree6(A)
        kernel = br.chatelet_kernel(A)
        certs = [pk.corollary_cdpgl(pk.replay_first_proof(A)),
                 pk.corollary_cdpgl(pk.replay_second_proof(A))]
        verified = [pk.verify_certificate(c) for c in certs]
        return lambda: {
            "index": idx, "C": _cls(C), "D": _cls(D),
            "kernel": [_cls(u) for u in kernel],
            "certs": [{"contradiction": c.contradiction, "verified": v}
                      for c, v in zip(certs, verified)]}

    def _matrix(self, item):
        il = self.intlattice
        M = il.IntMat(item["matrix"])
        S, U, V = il.smith_normal_form(M)
        H = il.row_hnf(M)
        K = il.kernel_basis(M)
        return lambda: {"S": _mat(S), "U": _mat(U), "V": _mat(V), "hnf": _mat(H),
                        "kernel": _mat(K), "kernel_cols": K.cols}

    def _hilbert(self, item):
        from fractions import Fraction
        s = self.brauer.hilbert_symbol(Fraction(item["a"]), Fraction(item["b"]), item["p"])
        return lambda: {"symbol": s}

    def _hexagon(self, item):
        report = self.hexagon.subgroup_report(item["subgroup"])
        return lambda: {"report": report}


def run_pass(workload, seed, tracer=None):
    runner = Runner()
    items = inputs.make_items(workload, seed)
    out, builds = [], []
    t0 = perf_counter_ns()
    if workload == "zeta-session":     # the session builds the twists once per q
        for q in inputs.ZETA_QS:
            if tracer is not None:
                tracer.item = f"build-q{q}"
            t = perf_counter_ns()
            runner.build_twists(q)
            builds.append([f"build-q{q}", (perf_counter_ns() - t) / 1e9])
    for item in items:
        if tracer is not None:
            tracer.item = item["id"]
        t = perf_counter_ns()
        try:
            finish = runner.run(item)
        except Exception as exc:  # noqa: BLE001 - a failed item is reported, not fatal
            out.append({"id": item["id"], "t_s": (perf_counter_ns() - t) / 1e9,
                        "error": f"{type(exc).__name__}: {exc}"})
            continue
        dt = perf_counter_ns() - t
        out.append({"id": item["id"], "t_s": dt / 1e9, "answer": finish()})
    wall = (perf_counter_ns() - t0) / 1e9
    return {"wall_s": wall, "builds": builds, "items": out}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=list(inputs.ITEMS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t = perf_counter_ns()
    import dp6kit.cli  # noqa: F401 - the whole package, as every entry point loads it
    import_ns = perf_counter_ns() - t
    if args.setup_only:
        inputs.make_items(args.workload, args.seed)
        sys.stdout.write(f"ready {perf_counter()}\n")
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())
    result = run_pass(args.workload, args.seed, tracer)
    result["import_s"] = import_ns / 1e9
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(args.out + ".spans", import_ns=import_ns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
