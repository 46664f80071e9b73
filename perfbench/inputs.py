"""Seeded inputs for the three benchmark workloads.

Every input is a plain JSON-able value derived from (workload, seed) through
``random.Random``; nothing here imports dp6kit, so the program under test only
ever sees the generated arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

TWISTS = ("split", "ksplit-l21", "ksplit-l3",
          "kinert-lsplit", "kinert-l21", "kinert-l3")
ACTIONS = ("build", "count", "lines", "frobenius", "check-zeta")

SURFACE_QS = (2, 3, 4)
ZETA_QS = (2, 3)

VECTOR_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
HILBERT_PRIMES = (2, 3, 5, 7, 11, 13)
PROOF_MIX = {"vector": 150, "matrix": 50, "hilbert": 20, "hexagon": 4}
HEXAGON_SUBGROUPS = 16

# The workloads BENCHMARK.json lists. zeta-session runs by hand only: on a
# shared 2-vCPU machine its 7.5 s passes fit too few times into one run to
# keep its run-to-run spread inside the 0.25 bound, and the layers it
# stresses (dp6 enumeration, fields tables) also run in surface-cli.
WORKLOADS = ("surface-cli", "proof-lattice")
EXTRA_WORKLOADS = ("zeta-session",)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _number(items):
    for i, it in enumerate(items):
        it["id"] = str(i)
    return items


# The surface commands: one at q = 4, two at q = 3, three at q = 2, covering
# all six twists and all five actions. The same for every seed, because the
# cost of a command depends on its twist and action by up to 3x at one q
# (0.6 to 1.8 s at q = 2, 2.5 to 4.2 s at q = 4), so a seeded choice moved
# wall_s and both percentiles between seeds by more than run-to-run noise.
# Each command is a fresh process, so the seeded order changes no cost. The
# q = 4 command is a `build`, the cheapest action there: every command at one
# q builds all six twists, so it still pays the q = 4 construction, and a
# cheap pass leaves room for more passes in a run.
SURFACE_ITEMS = (
    (4, "build", "kinert-l3"),
    # enumerates P^6(F_9), which sets the memory peak
    (3, "check-zeta", "split"),
    (3, "frobenius", "ksplit-l3"),
    (2, "lines", "ksplit-l21"),
    (2, "count", "kinert-l21"),
    (2, "build", "kinert-lsplit"),
)


def surface_cli_items(seed):
    """The SURFACE_ITEMS commands in a seeded order."""
    items = [{"kind": "surface", "q": q, "model": t, "action": a}
             for q, a, t in SURFACE_ITEMS]
    _rng("surface-cli", seed).shuffle(items)
    return _number(items)


def surface_argv(item):
    return ["surface", item["action"], "--model", item["model"],
            "--q", str(item["q"])]


def zeta_session_items(seed):
    """Every (q, twist) case for q in ZETA_QS. The cases are fixed, and so is
    their order: the session's caches (algebras over the splitting fields,
    enumeration tables) are filled by whichever case needs them first, so a
    seeded order would move cost from item to item. The seed picks nothing."""
    return _number([{"kind": "zeta", "q": q, "model": t}
                    for q in ZETA_QS for t in TWISTS])


def _frac(f):
    return f"{f.numerator}/{f.denominator}"


def index6_vector(rng):
    """Invariant vector over Q with one 1/6-type invariant, so its index is 6.

    Returned in the CLI's JSON form together with the exact local data."""
    primes = sorted(rng.sample(VECTOR_PRIMES, rng.randint(2, 4)))
    inv = {primes[0]: Fraction(rng.choice((1, 5)), 6)}
    real = Fraction(1, 2) if rng.random() < 0.3 else Fraction(0)
    total = inv[primes[0]] + real
    for p in primes[1:-1]:
        d = rng.choice((2, 3, 6))
        inv[p] = Fraction(rng.randrange(1, d), d)
        total += inv[p]
    rem = -total % 1
    if rem:
        inv[primes[-1]] = rem
    obj = {"primes": {str(p): _frac(f) for p, f in sorted(inv.items())}}
    if real:
        obj["inf"] = _frac(real)
    return obj


def int_matrix(rng):
    rows, cols = rng.randint(2, 5), rng.randint(2, 5)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.3:   # a dependent row: nontrivial kernel
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def hilbert_query(rng):
    def nonzero():
        return rng.choice((-1, 1)) * rng.randint(1, 30)
    return {"a": nonzero(), "b": nonzero(), "p": rng.choice(HILBERT_PRIMES)}


def proof_lattice_items(seed):
    rng = _rng("proof-lattice", seed)
    items = []
    for _ in range(PROOF_MIX["vector"]):
        items.append({"kind": "vector", "algebra": index6_vector(rng)})
    for _ in range(PROOF_MIX["matrix"]):
        items.append({"kind": "matrix", "matrix": int_matrix(rng)})
    for _ in range(PROOF_MIX["hilbert"]):
        items.append({"kind": "hilbert", **hilbert_query(rng)})
    for _ in range(PROOF_MIX["hexagon"]):
        items.append({"kind": "hexagon", "subgroup": rng.randrange(HEXAGON_SUBGROUPS)})
    rng.shuffle(items)
    return _number(items)


ITEMS = {
    "surface-cli": surface_cli_items,
    "zeta-session": zeta_session_items,
    "proof-lattice": proof_lattice_items,
}


def make_items(workload, seed):
    """The fixed item list of one pass; every pass of a run repeats it."""
    return ITEMS[workload](seed)


def expected_index(algebra):
    """Index over Q = lcm of the orders of the local invariants."""
    fracs = [Fraction(f) for f in algebra["primes"].values()]
    fracs.append(Fraction(algebra.get("inf", "0")))
    return lcm(*(f.denominator for f in fracs))
