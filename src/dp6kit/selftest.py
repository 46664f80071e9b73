"""The acceptance suite: one callable per criterion, deterministic output.

Every check is exact; random corpora use fixed seeds so two runs of the full
suite produce byte-identical JSON.  The Hilbert-symbol oracle here is an
independent brute-force p-adic solvability search, kept deliberately apart
from the closed formulas it validates.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

from . import brauer, dp6, hexagon, intlattice, proofkit
from .brauer import (QuadField, corestriction, from_json, hilbert_symbol,
                     index, power, quaternion_class, restriction,
                     splitting_in_quadratic)
from .errors import Dp6kitError
from .fields import GF

SCHEMA = "dp6kit/selftest/1"


# ---------------------------------------------------------------------------
# brute-force p-adic solvability oracle


def _squarefree_part(n):
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


@lru_cache(maxsize=None)
def _squares_mod(m):
    return frozenset((z * z) % m for z in range(m))


@lru_cache(maxsize=None)
def _scaled_squares_mod(c, m):
    return frozenset((c * s) % m for s in _squares_mod(m))


@lru_cache(maxsize=None)
def solvability_oracle(a, b, p):
    """+1 when z^2 = a x^2 + b y^2 has a nontrivial p-adic solution.

    Searches solutions modulo p^K, K = 2 v_p(4ab) + 3, with a unit
    coordinate; a solution with unit coordinate t is scaled by t^{-1}, so the
    three cases x = 1, y = 1, z = 1 are exhaustive.  Scaling a variable by t
    multiplies the matching coefficient by a square, which lets the search
    run on squarefree parts.
    """
    a = _squarefree_part(Fraction(a).numerator * Fraction(a).denominator)
    b = _squarefree_part(Fraction(b).numerator * Fraction(b).denominator)
    v = 0
    ab4 = 4 * a * b
    while ab4 % p == 0:
        ab4 //= p
        v += 1
    m = p ** (2 * v + 3)
    squares = _squares_mod(m)
    b_sq = _scaled_squares_mod(b % m, m)
    half = m if p == 2 else (m + 1) // 2
    for x in range(half):  # t and -t give the same square
        x2 = (x * x) % m
        if (a + b * x2) % m in squares:  # x = 1, enumerate y
            return 1
        if (a * x2 + b) % m in squares:  # y = 1, enumerate x
            return 1
        if (1 - a * x2) % m in b_sq:  # z = 1, enumerate x
            return 1
    return -1


# ---------------------------------------------------------------------------
# random corpora (fixed seeds)


def random_reciprocal_vector(rng):
    """Random invariant vector with reciprocity enforced at a closing prime."""
    pool = [5, 7, 11, 13, 17, 19, 23, 29]
    nsupp = rng.randint(1, 3)
    primes = sorted(rng.sample(pool, nsupp))
    entries = {}
    total = Fraction(0)
    for p in primes:
        d = rng.choice((2, 3, 6))
        n = rng.randrange(1, d)
        f = Fraction(n, d)
        entries[str(p)] = str(f)
        total += f
    rem = -total % 1
    if rem:
        entries["31"] = str(rem)  # the closing prime
    return from_json({"primes": entries})


def index6_corpus(count, seed=20_240_601):
    """Vectors of exact index 6: one place carries a 1/6-type invariant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pool = [5, 7, 11, 13, 17, 19, 23]
        primes = sorted(rng.sample(pool, rng.randint(2, 3)))
        total = Fraction(rng.choice([1, 5]), 6)
        entries = {str(primes[0]): str(total)}
        for p in primes[1:-1]:
            d = rng.choice([2, 3, 6])
            f = Fraction(rng.randrange(1, d), d)
            entries[str(p)] = str(f)
            total += f
        rem = -total % 1
        if rem:
            entries[str(primes[-1])] = str(rem)
        u = from_json({"primes": entries})
        if index(u) == 6:
            out.append(u)
    return out


def random_quaternion_K(rng, K):
    """Random 2-torsion class over a quadratic field, valid slot structure."""
    pool = [3, 5, 7, 11, 13, 17]
    candidates = []  # (place, slot) spots that may carry 1/2
    if K.real_slots == 2:
        candidates += [("inf", 0), ("inf", 1)]
    for p in pool:
        kind = splitting_in_quadratic(K, p)
        if kind == brauer.SPLIT:
            candidates += [(p, 0), (p, 1)]
        else:
            candidates += [(p, 0)]
    chosen = [spot for spot in candidates if rng.randrange(10) < 3]
    if len(chosen) % 2:
        if chosen and rng.randrange(2):
            chosen.pop()
        else:
            extra = next(s for s in candidates if s not in chosen)
            chosen.append(extra)
    if K.is_split:
        # per-factor reciprocity: build each slot separately with even counts
        slots = {0: [s for s in chosen if s[1] == 0], 1: [s for s in chosen if s[1] == 1]}
        for sl in (0, 1):
            if len(slots[sl]) % 2:
                slots[sl].pop()
        chosen = slots[0] + slots[1]
    real = ["0"] * K.real_slots
    primes = {}
    for place, slot in chosen:
        if place == "inf":
            real[slot] = "1/2"
        else:
            nslots = 2 if splitting_in_quadratic(K, place) == brauer.SPLIT else 1
            primes.setdefault(str(place), ["0"] * nslots)[slot] = "1/2"
    return brauer.from_json_K({"d": K.d, "inf": real, "primes": primes})


def random_surface_case(rng):
    kind = rng.choice(["sb", "sb0", "p1p1_field", "p1p1_split", "conic", "conic0", "dp"])
    if kind == "sb":
        p, q = sorted(rng.sample([7, 13, 19, 31], 2))
        t = rng.choice([1, 2])
        u = from_json({"primes": {str(p): f"{t}/3", str(q): f"{3 - t}/3"}})
        return proofkit.SeveriBrauerSurface(u)
    if kind == "sb0":
        return proofkit.SeveriBrauerSurface(from_json({}))
    if kind == "p1p1_field":
        K = QuadField(rng.choice([-1, 2, -3, 5, 6]))
        return proofkit.FormP1xP1(K, random_quaternion_K(rng, K))
    if kind == "p1p1_split":
        K = QuadField.split()
        return proofkit.FormP1xP1(K, random_quaternion_K(rng, K))
    if kind == "conic":
        a = rng.choice([-1, 2, 3, -5, 7])
        b = rng.choice([-1, -2, 5, 11])
        return proofkit.ConicBundle(quaternion_class(a, b))
    if kind == "conic0":
        return proofkit.ConicBundle(from_json({}))
    return proofkit.DelPezzoRankOne()


# ---------------------------------------------------------------------------
# criterion implementations


def crit_hilbert_oracle():
    """1: closed-form symbol vs brute-force solvability, p <= 13, |a|,|b| <= 10."""
    mismatches = []
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(-10, 11):
            if a == 0:
                continue
            for b in range(-10, 11):
                if b == 0:
                    continue
                cases += 1
                closed = hilbert_symbol(a, b, p)
                brute = solvability_oracle(a, b, p)
                if closed != brute:
                    mismatches.append([a, b, p, closed, brute])
    return not mismatches, {"cases": cases, "mismatches": mismatches[:5]}


def crit_reciprocity():
    """2: 500 random quaternion classes sum to zero."""
    rng = random.Random(11)
    bad = 0
    for _ in range(500):
        a = rng.choice([n for n in range(-50, 51) if n])
        b = rng.choice([n for n in range(-50, 51) if n])
        u = quaternion_class(a, b)
        total = u.real + sum((f for _, f in u.primes), Fraction(0))
        if total.denominator != 1:
            bad += 1
    return bad == 0, {"classes": 500, "violations": bad}


def crit_projection_formula():
    """3: cor(res(u)) = 2u for 200 random vectors over four quadratic fields."""
    rng = random.Random(12)
    bad = 0
    fields = [QuadField(-1), QuadField(2), QuadField(-3), QuadField(5)]
    for _ in range(200):
        u = random_reciprocal_vector(rng)
        for K in fields:
            if corestriction(restriction(u, K)) != power(u, 2):
                bad += 1
    return bad == 0, {"vectors": 200, "fields": 4, "violations": bad}


def crit_hexagon_suite():
    """4: all 16 subgroups: sequences exact, h1(Pic) = 0, fixed rank by
    traces, full-group fixed module generated by the canonical class."""
    reports = hexagon.all_subgroup_reports()
    problems = []
    if len(reports) != 16:
        problems.append(f"expected 16 subgroups, got {len(reports)}")
    for r in reports:
        if not r["sequences_exact"]:
            problems.append(f"subgroup {r['subgroup_id']}: sequence not exact")
        if r["h1"]:
            problems.append(f"subgroup {r['subgroup_id']}: h1 = {r['h1']}")
        if r["fixed_rank"] != r["fixed_rank_by_traces"]:
            problems.append(f"subgroup {r['subgroup_id']}: fixed rank mismatch")
    full = hexagon.subgroups()[-1]
    if full.order != 12:
        problems.append("last subgroup is not the full group")
    fixed = intlattice.fixed_submodule(hexagon.pic_lattice(), full)
    if fixed.cols != 1:
        problems.append("full-group fixed module does not have rank 1")
    else:
        col = fixed.col(0)
        kv = list(hexagon.K_CLASS)
        if col != kv and col != [-x for x in kv]:
            problems.append(f"fixed generator {col} is not the canonical class")
        if hexagon.is_K_divisible(col):
            problems.append("canonical generator is divisible")
    return not problems, {"subgroups": len(reports), "problems": problems}


def crit_stable_iso():
    """5: unimodular intertwiner for Pic + Z vs Z[L/F] + Z[K/F], full group;
    the search must find the matrix the hexagon reports check,
    hexagon.STABLE_ISO_WITNESS."""
    M, bound = hexagon.stable_iso_witness()
    if M is None:
        return False, {"found": False, "bound": bound}
    left, right = hexagon.stable_iso_lattices()
    ok = M.is_unimodular() and M.data == hexagon.STABLE_ISO_WITNESS
    for lbl in hexagon.hexagon_group().labels:
        if M * left.action[lbl] != right.action[lbl] * M:
            ok = False
    return ok, {"found": True, "coefficient_bound": bound,
                "matrix": M.to_lists(), "unimodular": M.is_unimodular()}


def crit_split_counts():
    """6: #S(F_q) = q^2 + 4q + 1 for q in {2, 3, 5} by brute force."""
    expected = {2: 13, 3: 22, 5: 46}
    got = {q: dp6.split_model_points(q) for q in expected}
    ok = all(got[q] == expected[q] == q * q + 4 * q + 1 for q in expected)
    return ok, {"counts": {str(q): got[q] for q in sorted(got)}}


@lru_cache(maxsize=None)
def _twists(qsize):
    p = 2 if qsize == 2 else 3
    return dp6.standard_twists(GF(p))


def crit_segre_equivalence():
    """7: quadric points biject with the biprojective model for q in {2, 3}."""
    results = {}
    for q in (2, 3):
        s = _twists(q)["split"]
        results[str(q)] = dp6.verify_split_equivalence(s, 1)
    return all(results.values()), {"equivalence": results}


def _zeta_records():
    out = []
    for q in (2, 3):
        for name, surf in _twists(q).items():
            for rec in dp6.zeta_check(surf):
                out.append((q, name, rec))
    return out


def crit_twisted_zeta():
    """8: counts match q^{2k} + q^k tr(phi^k) + 1 on the full twist corpus."""
    rows = []
    ok = True
    combos = set()
    for q, name, rec in _zeta_records():
        rows.append({"q": q, "twist": name, **rec.as_dict(), "ok": rec.ok})
        combos.add((q, name))
        if not rec.ok:
            ok = False
    if len(combos) < 4:
        ok = False
    return ok, {"combinations": len(combos), "checks": rows}


def crit_line_configuration():
    """9: six lines, hexagon adjacency, symbolic vanishing, Frobenius type."""
    problems = []
    for q in (2, 3):
        for name, surf in _twists(q).items():
            try:
                lr = dp6.find_lines(surf)  # raises on any configuration defect
            except Exception as e:  # noqa: BLE001 - reported, not hidden
                problems.append(f"q={q} {name}: {e}")
                continue
            if len(lr.lines) != 6:
                problems.append(f"q={q} {name}: {len(lr.lines)} lines")
            phi = dp6.frobenius_on_lines(surf)
            swap, ct = dp6.expected_frobenius_type(surf)
            if (phi.swap, phi.cycle_type()) != (swap, ct):
                problems.append(f"q={q} {name}: frobenius {phi.label} has wrong type")
    return not problems, {"surfaces": 12, "problems": problems}


def crit_torus_counts():
    """10: |U(F_q)| = |det(q - phi | T^)| on the same corpus."""
    rows = []
    ok = True
    for q in (2, 3):
        for name, surf in _twists(q).items():
            r = dp6.torus_count_check(surf)
            rows.append({"q": q, "twist": name, **r})
            ok = ok and r["ok"]
    return ok, {"checks": rows}


def crit_kernel_shapes():
    """11: 100 random cases stay in the master list with matching types."""
    rng = random.Random(13)
    problems = []
    for n in range(100):
        case = random_surface_case(rng)
        shapes = proofkit.kernel_shapes(case)
        for s in shapes:
            if s.name not in proofkit.MASTER_SHAPES:
                problems.append(f"case {n}: shape {s.name}")
            for tag, cls in s.generators:
                if isinstance(case, proofkit.SeveriBrauerSurface) and tag != "cubic":
                    problems.append(f"case {n}: SB generator type {tag}")
                if isinstance(case, proofkit.ConicBundle) and tag != "quaternion":
                    problems.append(f"case {n}: conic bundle generator type {tag}")
                if isinstance(case, proofkit.FormP1xP1) and tag == "cubic":
                    problems.append(f"case {n}: quadric surface with cubic generator")
    return not problems, {"cases": 100, "problems": problems}


def crit_proof_replays():
    """12: both replays reach verified contradictions on a 50-vector corpus."""
    corpus = index6_corpus(50)
    problems = []
    for n, A in enumerate(corpus):
        c1 = proofkit.replay_first_proof(A)
        c2 = proofkit.replay_second_proof(A)
        if not (c1.contradiction and proofkit.verify_certificate(c1)):
            problems.append(f"vector {n}: first replay failed")
        if not (c2.contradiction and proofkit.verify_certificate(c2)):
            problems.append(f"vector {n}: second replay failed")
    witness_ok = index(proofkit.DEGREE6_WITNESS) == 6
    if not witness_ok:
        problems.append("degree-6 witness does not have index 6")
    return not problems, {"corpus": len(corpus), "witness_index":
                          index(proofkit.DEGREE6_WITNESS), "problems": problems}


def crit_determinism():
    """13: the full selftest JSON is byte-identical across two runs."""
    first = report_json(run_all(include_determinism=False))
    second = report_json(run_all(include_determinism=False))
    return first == second, {"bytes": len(first), "identical": first == second}


CRITERIA = (
    ("1", "brauer: hilbert symbol oracle equivalence", crit_hilbert_oracle),
    ("2", "brauer: quaternion reciprocity", crit_reciprocity),
    ("3", "brauer: projection formula cor(res) = x2", crit_projection_formula),
    ("4", "hexagon: lattice suite over the 16 subgroups", crit_hexagon_suite),
    ("5", "hexagon: stable isomorphism witness", crit_stable_iso),
    ("6", "surface: split-model point counts", crit_split_counts),
    ("7", "surface: Segre equivalence of the quadric model", crit_segre_equivalence),
    ("8", "surface: twisted zeta checks", crit_twisted_zeta),
    ("9", "surface: line configuration and Frobenius types",
     crit_line_configuration),
    ("10", "surface: torus orbit counts", crit_torus_counts),
    ("11", "proof: kernel shape conformance", crit_kernel_shapes),
    ("12", "proof: replays with reproducible certificates", crit_proof_replays),
    ("13", "determinism of the full selftest", crit_determinism),
)


def run_all(filter_text=None, include_determinism=True, on_result=None):
    """The selected criteria's report.  on_result(result, seconds), if given,
    sees each result as it is made, with the criterion's elapsed time, which
    the deterministic report leaves out."""
    results = []
    for cid, name, fn in CRITERIA:
        if fn is crit_determinism and not include_determinism:
            continue
        if filter_text and filter_text not in name and filter_text != cid:
            continue
        t0 = perf_counter()
        passed, detail = fn()
        results.append({"id": cid, "name": name, "passed": bool(passed),
                        "detail": detail})
        if on_result is not None:
            on_result(results[-1], perf_counter() - t0)
    if not results:
        # an empty selection would report a vacuous pass
        raise Dp6kitError(f"filter {filter_text!r} selects no criterion")
    return {
        "schema": SCHEMA,
        "results": results,
        "all_passed": all(r["passed"] for r in results),
    }


def report_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
