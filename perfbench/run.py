"""dp6kit benchmark: workloads, answer checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload surface-cli --seed 1 --seconds 55 --trace 0

Workloads (inputs are generated from --seed by perfbench/inputs.py):
  surface-cli    one fresh `python -m dp6kit.cli surface ...` process per item
  proof-lattice  index-6 classes through both proof replays, integer
                 matrices through SNF/HNF/kernel, Hilbert symbols, hexagon
                 subgroup reports
  zeta-session   (by hand only, not in BENCHMARK.json) one process builds the
                 six twists for q = 2, 3 and checks every twist: zeta counts,
                 torus counts, Segre equivalence

The load is a closed loop with one client: one item in flight at a time. A
pass runs the seed's fixed item list once; in-process passes each run in a
fresh interpreter. Passes repeat while one more, at the mean pass time so
far, still ends within --seconds, and at least MIN_PASSES times.

--trace 0 prints the end-to-end metrics. Each step of the list (an item, or
one of the zeta session's twist builds) counts at its best time over the
passes: wall_s is the sum of those, item_p50_s and item_p90_s are
percentiles over the items. setup_s is the median of several fresh starts
that import dp6kit.cli and generate the inputs, and peak_rss_mb the largest
RSS of any process the benchmark started.

--trace 1 runs the item list once untraced and twice with span wrappers
installed (perfbench/tracer.py) and prints the per-layer metrics of the
traced passes: counts must agree exactly between the two, times are their
mean.

The last stdout line is the result JSON; the line before it records the
seed and the environment. All answers are checked (perfbench/checks.py);
a failed check, an error, a traceback or a wrong exit status counts in
"failed".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 7
# Fewest passes a timed run makes, whatever --seconds says, so that every
# step has a best-of time.
MIN_PASSES = 3
CHILD_TIMEOUT = 60     # seconds; the slowest child today takes about 12
ENV = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Pass:
    def __init__(self, wall, times, problems, oracle_items=(), dumps=(), builds=()):
        self.wall = wall            # seconds for the whole item list
        self.times = times          # item id -> seconds
        self.problems = problems    # item id -> failed checks
        self.oracle_items = oracle_items  # (item, result) left for the oracle
        self.dumps = dumps          # span dumps when traced
        self.builds = dict(builds)  # zeta session's twist builds -> seconds


def _env():
    env = dict(os.environ)
    env.update(ENV)
    return env


def _child(cmd, env):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{cmd[1:4]} timed out after {CHILD_TIMEOUT} s") from exc


def setup_once(workload, seed, env):
    """Seconds from spawning a worker to its `ready`: interpreter start,
    import of dp6kit.cli and input generation. The worker prints its
    perf_counter() at that point; it is CLOCK_MONOTONIC, shared by all
    processes on the machine."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t = perf_counter()
    proc = _child(cmd, env)
    word, _, ready = proc.stdout.partition(" ")
    if word != "ready" or proc.returncode:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return float(ready) - t


def cli_pass(seed, env, tmp, trace):
    items = inputs.surface_cli_items(seed)
    runs = []
    t0 = perf_counter()
    for it in items:
        argv = inputs.surface_argv(it)
        if trace:
            cmd = [sys.executable, str(HERE / "cli_shim.py"),
                   str(tmp / f"{it['id']}.spans"), it["id"], *argv]
        else:
            cmd = [sys.executable, "-m", "dp6kit.cli", *argv]
        t = perf_counter()
        proc = _child(cmd, env)
        runs.append((it, perf_counter() - t, proc))
    wall = perf_counter() - t0
    problems = {it["id"]: checks.check_cli_result(it, p.returncode, p.stdout, p.stderr)
                for it, _, p in runs}
    dumps = [json.loads((tmp / f"{it['id']}.spans").read_text()) for it in items] \
        if trace else []
    return Pass(wall, {it["id"]: dt for it, dt, _ in runs}, problems, dumps=dumps)


def lib_pass(workload, seed, env, tmp, trace):
    out = tmp / "pass.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    proc = _child(cmd + (["--trace"] if trace else []), env)
    if proc.returncode:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    res = json.loads(out.read_text())
    got = {r["id"]: r for r in res["items"]}
    problems, oracle_items = {}, []
    for it in inputs.make_items(workload, seed):
        result = got.get(it["id"], {"error": "no result"})
        if it["kind"] == "hilbert" and "error" not in result:
            oracle_items.append((it, result))
        else:
            problems[it["id"]] = checks.check_item(it, result)
    dumps = [json.loads(Path(str(out) + ".spans").read_text())] if trace else []
    return Pass(res["wall_s"], {r["id"]: r["t_s"] for r in res["items"]}, problems,
                oracle_items, dumps, res["builds"])


def check_answers(passes):
    """Item id -> problems for every item of every pass.

    The Hilbert answers are checked here, after the passes and after peak RSS
    is read: the oracle imports dp6kit into this process, and a child spawned
    later would inherit this process's peak RSS in its own ru_maxrss. For the
    same reason each pass is checked as it ends instead of being kept whole."""
    if any(p.oracle_items for p in passes):
        sys.path.insert(0, str(SRC))
        from dp6kit.selftest import solvability_oracle
        for p in passes:
            for it, result in p.oracle_items:
                p.problems[it["id"]] = checks.check_item(it, result, solvability_oracle)
    return {f"{n}:{item_id}": probs
            for n, p in enumerate(passes) for item_id, probs in p.problems.items()}


def run_pass(workload, seed, env, tmp, trace=False):
    if workload == "surface-cli":
        return cli_pass(seed, env, tmp, trace)
    return lib_pass(workload, seed, env, tmp, trace)


def timed_run(workload, seed, seconds, env, tmp):
    setup_once(workload, seed, env)            # warms the bytecode cache
    setup = [setup_once(workload, seed, env) for _ in range(SETUP_STARTS)]
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(workload, seed, env, tmp))
        n = len(passes)
        if n >= MIN_PASSES and (perf_counter() - t0) * (n + 1) / n > seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # Other tenants of the machine slow it down for stretches from under a
    # second to minutes; they only ever add time. So each step of the fixed
    # list is timed at its best of the passes, and the metrics are taken over
    # those best times. Short steps gain most: a long one rarely falls whole
    # into a quiet stretch.
    best = {}
    for p in passes:
        for step, t in (p.builds | p.times).items():
            best[step] = min(t, best.get(step, t))
    items = sorted(best[i] for i in passes[0].times)
    metrics = {
        "wall_s": (sum(best.values()), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_p90_s": (statistics.quantiles(items, n=10, method="inclusive")[8], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return passes, metrics, {"passes": len(passes), "items": len(items)}, {}


def traced_run(workload, seed, env, tmp):
    base = run_pass(workload, seed, env, tmp)
    traced = [run_pass(workload, seed, env, tmp, trace=True) for _ in range(2)]
    runs = [tracer.layer_metrics(p.dumps) for p in traced]
    metrics, problems = {}, {}
    for name, unit, _ in tracer.PER_LAYER:
        values = [r[name] for r in runs]
        if unit == "count" and values[0] != values[1]:
            problems[name] = [f"count differs between the traced runs: {values}"]
        metrics[name] = (values[0] if unit == "count" else statistics.fmean(values), unit)
    traced_wall = statistics.fmean(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = (base.wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - base.wall, "s")
    return [base] + traced, metrics, {"passes": 3}, problems


def environment():
    commit = ""
    if (ROOT / ".git").exists():     # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "dp6kit").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit or None,
            "src_sha256": digest.hexdigest(), **ENV, "PYTHONPATH": "src"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(inputs.ITEMS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dp6kit" / "cli.py").is_file():
        print(f"perfbench: no dp6kit sources under {SRC}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception: subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = _env()
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            passes, metrics, info, problems = traced_run(args.workload, args.seed, env, tmp)
        else:
            passes, metrics, info, problems = timed_run(args.workload, args.seed,
                                                        args.seconds, env, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    problems.update(check_answers(passes))
    for name, probs in problems.items():
        for msg in probs:
            print(f"perfbench: {name}: {msg}", file=sys.stderr)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(1 for probs in problems.values() if probs)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **info, "env": environment()}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
