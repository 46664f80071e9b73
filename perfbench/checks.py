"""Answer checks. None compares bytes with a golden output: each one tests a
property the answer must have, so a change that declares a new serialized
surface still passes. Every check returns a list of problems (empty = ok).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from inputs import expected_index

_ELEM = re.compile(r"^\[([0-9,]*)\]@(\d+)\^(\d+)$")
_LINES = ("E1", "E2", "E3", "F1", "F2", "F3")


def _prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def expected_frobenius(model):
    """(swap, cycle type) fixed by the twist name: K inert swaps the two
    triangles; the factorization type of L gives the cycle type."""
    ct = {"split": [1, 1, 1], "lsplit": [1, 1, 1], "l21": [1, 2], "l3": [3]}
    return model.startswith("kinert"), ct[model.rsplit("-", 1)[-1]]


def _field_elem_ok(s, p, k):
    m = _ELEM.match(s)
    return bool(m) and int(m.group(2)) == p and int(m.group(3)) == k \
        and len(m.group(1).split(",")) == k \
        and all(0 <= int(c) < p for c in m.group(1).split(","))


def _count_ok(q, model, k, count, predicted):
    probs = []
    if count != predicted:
        probs.append(f"k={k}: count {count} != predicted {predicted}")
    if model == "split" and k == 1 and count != q * q + 4 * q + 1:
        probs.append(f"split count {count} != q^2+4q+1")
    return probs


def _hexagon_ok(adjacency):
    probs = []
    if sorted(adjacency) != list(_LINES):
        return [f"line labels {sorted(adjacency)}"]
    for a, nbrs in adjacency.items():
        if len(set(nbrs)) != 2 or any(a not in adjacency.get(b, ()) for b in nbrs):
            probs.append(f"{a} is not on a symmetric 2-regular graph")
        if any(b[0] == a[0] for b in nbrs):
            probs.append(f"{a} meets a line of its own triangle")
    seen, cur, prev = ["E1"], "E1", None
    while len(seen) < 7 and not probs:
        nxt = [b for b in adjacency[cur] if b != prev][0]
        prev, cur = cur, nxt
        seen.append(cur)
    if not probs and (seen[-1] != "E1" or len(set(seen[:6])) != 6):
        probs.append("the six lines do not form one 6-cycle")
    for i in "123":
        opposite = [f for f in ("F1", "F2", "F3") if f not in adjacency[f"E{i}"]]
        if opposite != [f"F{i}"]:
            probs.append(f"E{i} has opposite lines {opposite}")
    return probs


def check_surface(item, out):
    """One CLI `surface` command: `out` is its parsed stdout JSON."""
    q, model, action = item["q"], item["model"], item["action"]
    p, e = _prime_power(q)
    if "error" in out:
        return [f"error JSON {out['error']}"]
    if action == "count":
        return _count_ok(q, model, out["k"], out["count"], out["predicted"]) + (
            [] if (out["q"], out["k"]) == (q, 1) else [f"q,k = {out['q']},{out['k']}"])
    if action == "check-zeta":
        recs = out["records"]
        probs = [] if out["all_ok"] is True else ["all_ok is not true"]
        if [r["k"] for r in recs] != list(range(1, len(recs) + 1)) or not recs:
            probs.append("records do not cover k = 1..n")
        for r in recs:
            probs += _count_ok(q, model, r["k"], r["count"], r["predicted"])
        return probs
    if action == "frobenius":
        swap, ct = expected_frobenius(model)
        if (out["swap"], out["cycle_type"]) != (swap, ct):
            return [f"frobenius {out['frobenius']} has type {out['swap']},"
                    f"{out['cycle_type']}; expected {swap},{ct}"]
        return []
    if action == "lines":
        probs = _hexagon_ok(out["adjacency"])
        k = out["field_degree"]    # degree of the splitting field over F_p
        if k % e:
            probs.append(f"splitting field GF({p}^{k}) does not contain GF({q})")
        if sorted(out["lines"]) != list(_LINES):
            probs.append("not six labelled lines")
        for lbl, rows in out["lines"].items():
            if len(rows) != 2 or any(len(r) != 7 for r in rows) or \
                    not all(_field_elem_ok(x, p, k) for r in rows for x in r):
                probs.append(f"line {lbl} is not a 2x7 matrix over GF({p}^{k})")
        return probs
    if action == "build":
        probs = []
        kind = "hermitian" if model.startswith("kinert") else "split_exchange"
        if out["provenance"]["kind"] != kind:
            probs.append(f"provenance kind {out['provenance']['kind']}")
        if out["provenance"]["field"].get("q") != q:
            probs.append("provenance field is not GF(q)")
        forms = out["quadrics"]
        if len(forms) != 9 or not all(forms):
            probs.append("not nine nonzero quadrics")
        for form in forms:
            for key, c in form.items():
                i, j = map(int, key.split(","))
                if not (0 <= i <= j < 7) or not _field_elem_ok(c, p, e):
                    probs.append(f"bad quadric term {key}: {c}")
        return probs
    return [f"unknown action {action}"]


def check_cli_result(item, returncode, stdout, stderr):
    """Exit status, traceback and JSON shape first, then the answer."""
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(out, dict):
        return ["stdout is not a JSON object"]
    try:
        return check_surface(item, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


# -- in-process answers ----------------------------------------------------


def check_zeta(item, ans):
    q, model = item["q"], item["model"]
    recs = ans["records"]
    probs = [] if recs and [r[0] for r in recs] == list(range(1, len(recs) + 1)) \
        else ["records do not cover k = 1..n"]
    for k, raw, predicted in recs:
        probs += _count_ok(q, model, k, raw, predicted)
    t = ans["torus"]
    if t["u_count"] != t["torus_count"] or t["ok"] is not True:
        probs.append(f"torus count {t['u_count']} != {t['torus_count']}")
    if t["surface_points"] != recs[0][1]:
        probs.append("listed points disagree with the count")
    if model == "split" and ans["equivalence"] is not True:
        probs.append("Segre equivalence failed")
    return probs


def _places(obj):
    out = {int(p): Fraction(f) for p, f in obj.get("primes", {}).items()}
    out["inf"] = Fraction(obj.get("inf", "0"))
    return out


def _same_class(u, v):
    keys = set(u) | set(v)
    return all((u.get(k, 0) - v.get(k, 0)) % 1 == 0 for k in keys)


def check_vector(item, ans):
    A = _places(item["algebra"])
    probs = []
    if ans["index"] != expected_index(item["algebra"]):
        probs.append(f"index {ans['index']}")
    C, D = _places(ans["C"]), _places(ans["D"])
    if not _same_class({k: C.get(k, 0) + D.get(k, 0) for k in set(C) | set(D)}, A):
        probs.append("C x D is not the input class")
    if any((2 * f) % 1 for f in C.values()) or any((3 * f) % 1 for f in D.values()):
        probs.append("C is not 2-torsion or D is not 3-torsion")
    kernel = [_places(u) for u in ans["kernel"]]
    if len(kernel) != ans["index"] or not all(
            _same_class(u, {k: t * f for k, f in A.items()}) for t, u in enumerate(kernel)):
        probs.append("Chatelet kernel is not the cyclic group of the class")
    for n, cert in enumerate(ans["certs"]):
        if cert["verified"] is not True or cert["contradiction"] is not True:
            probs.append(f"certificate {n}: verified={cert['verified']} "
                         f"contradiction={cert['contradiction']}")
    return probs


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _det(m):
    """Exact determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _rank(m):
    m = [[Fraction(x) for x in row] for row in m]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pr = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_matrix(item, ans):
    M = item["matrix"]
    S, U, V = ans["S"], ans["U"], ans["V"]
    rows, cols = len(M), len(M[0])
    probs = []
    if _matmul(_matmul(U, M), V) != S:
        probs.append("U*M*V != S")
    if abs(_det(U)) != 1 or abs(_det(V)) != 1:
        probs.append("U or V is not unimodular")
    diag = [S[i][i] for i in range(min(rows, cols))]
    if any(S[i][j] for i in range(rows) for j in range(cols) if i != j) or \
            any(d < 0 for d in diag):
        probs.append("S is not a nonnegative diagonal")
    nz = [d for d in diag if d]
    if diag[:len(nz)] != nz or any(b % a for a, b in zip(nz, nz[1:])):
        probs.append(f"diagonal {diag} is not a divisibility chain")
    rank = _rank(M)
    if len(nz) != rank:
        probs.append("S has the wrong rank")
    K = ans["kernel"]
    if ans["kernel_cols"] != cols - rank:
        probs.append("kernel has the wrong rank")
    elif K and (any(any(r) for r in _matmul(M, K)) or _rank(K) != cols - rank):
        probs.append("kernel columns are not independent solutions of M x = 0")
    H = ans["hnf"]
    if len(H) != rank or (H and _rank(H + M) != rank):
        probs.append("HNF does not span the row space")
    last = -1
    for n, row in enumerate(H):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None or piv <= last or row[piv] <= 0:
            probs.append("HNF is not in echelon form with positive pivots")
            break
        if any(not 0 <= H[r][piv] < row[piv] for r in range(n)):
            probs.append("HNF entries above a pivot are not reduced")
        last = piv
    return probs


def check_hilbert(item, ans, oracle):
    want = oracle(item["a"], item["b"], item["p"])
    return [] if ans["symbol"] == want else [f"symbol {ans['symbol']} != oracle {want}"]


def check_hexagon(item, ans):
    r = ans["report"]
    probs = []
    if r["subgroup_id"] != item["subgroup"] or 12 % r["order"]:
        probs.append("wrong subgroup or order")
    if r["fixed_rank"] != r["fixed_rank_by_traces"]:
        probs.append("fixed rank disagrees with the character count")
    if r["h1"] != [] or r["sequences_exact"] is not True or r["stable_iso_found"] is not True:
        probs.append("H^1, exactness or stable isomorphism check failed")
    return probs


def check_item(item, result, oracle=None):
    """Problems with one in-process item result (`result` as the worker
    wrote it)."""
    if "error" in result:
        return [result["error"]]
    ans = result["answer"]
    try:
        if item["kind"] == "hilbert":
            return check_hilbert(item, ans, oracle)
        return {"zeta": check_zeta, "vector": check_vector, "matrix": check_matrix,
                "hexagon": check_hexagon}[item["kind"]](item, ans)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]

