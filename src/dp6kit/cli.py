"""Command-line frontend: deterministic JSON in, deterministic JSON out.

Exit status 0 on success, 1 on a domain error (machine-readable error JSON
on stdout), 2 on usage errors.  No timestamps, no randomness without an
explicit seed: identical invocations produce byte-identical output.

Importing this module loads only it and dp6kit.errors.  Each handler imports
the layer it runs (dp6 and fields for surface, brauer for brauer and replay,
intlattice for lattice, hexagon for hexagon, proofkit, selftest), so a cold
process compiles only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import Dp6kitError

SCHEMA = "dp6kit/1"


def _emit(payload):
    out = {"schema": SCHEMA}
    out.update(payload)
    sys.stdout.write(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")


def _fail(exc):
    _emit({"error": type(exc).__name__, "message": str(exc)})
    return 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _object(data, what):
    if not isinstance(data, dict):
        raise Dp6kitError(f"{what} must be a JSON object")
    return data


def _class(data, what="class"):
    """A class payload: an object whose optional "primes" is an object."""
    _object(_object(data, what).get("primes", {}), f'"primes" of the {what}')
    return data


def _place(data):
    """The "place" of a payload: "inf", or a prime as a JSON integer or string."""
    v = data["place"]
    if v == "inf":
        return v
    if type(v) is not int and not isinstance(v, str):
        raise Dp6kitError(f"place must be a JSON string or integer, got {v!r}")
    return int(v)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise Dp6kitError(f"JSON object names the key {key!r} twice")
        obj[key] = value
    return obj


def _payload(text):
    """A JSON payload whose objects name no key twice (plain json.loads
    would keep the last value and drop the others unseen)."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _cmd_brauer(args):
    from . import brauer
    op = args.op
    data = _object(_payload(args.payload), "payload")
    if op == "index":
        _emit({"index": brauer.index(brauer.from_json(_class(data)))})
    elif op == "tensor":
        u = brauer.tensor(brauer.from_json(_class(data["left"])),
                          brauer.from_json(_class(data["right"])))
        _emit({"class": brauer.to_json(u)})
    elif op == "inverse":
        u = brauer.inverse(brauer.from_json(_class(data)))
        _emit({"class": brauer.to_json(u)})
    elif op == "is-split":
        _emit({"split": brauer.is_split(brauer.from_json(_class(data)))})
    elif op == "quaternion":
        u = brauer.quaternion_class(brauer.parse_rational(data["a"]),
                                    brauer.parse_rational(data["b"]))
        _emit({"class": brauer.to_json(u)})
    elif op == "order3":
        u = brauer.order3_class(_class(data).get("primes", {}))
        _emit({"class": brauer.to_json(u)})
    elif op == "hilbert":
        _emit({"symbol": brauer.hilbert_symbol(brauer.parse_rational(data["a"]),
                                               brauer.parse_rational(data["b"]),
                                               _place(data))})
    elif op == "splitting":
        K = brauer.QuadField(data.get("d"))
        _emit({"splitting": brauer.splitting_in_quadratic(K, _place(data))})
    elif op == "restriction":
        u = brauer.from_json(_class(data["class"]))
        u = brauer.restriction(u, brauer.QuadField(data.get("d")))
        _emit({"classK": brauer.to_json_K(u)})
    elif op == "corestriction":
        u = brauer.corestriction(brauer.from_json_K(_class(data["classK"])))
        _emit({"class": brauer.to_json(u)})
    elif op == "involution":
        u = brauer.from_json_K(_class(data["classK"]))
        _emit({"admits": brauer.admits_unitary_involution(u)})
    elif op == "decompose":
        C, D = brauer.decompose_degree6(brauer.from_json(_class(data)))
        _emit({"C": brauer.to_json(C), "D": brauer.to_json(D)})
    elif op == "chatelet":
        u = brauer.from_json(_class(data))
        _emit({"kernel": [brauer.to_json(v) for v in brauer.chatelet_kernel(u)]})
    return 0


def _int_matrix(text):
    """A JSON array of rows of JSON integers (not floats, strings or booleans)."""
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in rows)):
        raise Dp6kitError("matrix must be a JSON array of rows of integers")
    if not rows or not rows[0]:
        raise Dp6kitError("matrix must be a JSON array of at least one nonempty row")
    return rows


def _cmd_lattice(args):
    from . import intlattice
    M = intlattice.IntMat(_int_matrix(args.matrix))
    if args.op == "snf":
        S, U, V = intlattice.smith_normal_form(M)
        _emit({"S": _mat_json(S), "U": _mat_json(U), "V": _mat_json(V)})
    elif args.op == "kernel":
        K = intlattice.kernel_basis(M)
        # a kernel with no columns prints as no rows, as it always has
        _emit({"kernel_columns": _mat_json(K) if K.cols else []})
    elif args.op == "hnf":
        _emit({"hnf": _mat_json(intlattice.row_hnf(M))})
    return 0


def _mat_json(M):
    return [[str(x) for x in row] for row in M.data]


def _cmd_hexagon(args):
    from . import hexagon
    if args.all_subgroups:
        _emit({"reports": hexagon.all_subgroup_reports()})
    else:
        _emit({"report": hexagon.subgroup_report(args.subgroup)})
    return 0


def _surface_for(args):
    from . import dp6
    from .fields import GF, check_field_size
    p, e = dp6._parse_prime_power(args.q)
    check_field_size(p, e)
    if args.model not in dp6.TWIST_NAMES:
        raise Dp6kitError(f"unknown model {args.model}; choose from {dp6.TWIST_NAMES}")
    # every twist is built with K = GF(q^2), the split ones first: refuse a q
    # too large for K before building any
    check_field_size(p, 2 * e)
    return dp6.standard_twists(GF(p, e))[args.model]


def _cmd_surface(args):
    from . import dp6
    surf = _surface_for(args)
    if args.action == "build":
        _emit(surf.descriptor_json())
    elif args.action == "count":
        rec = dp6.count_points(surf, args.k)
        _emit({"count": rec.raw, "predicted": rec.predicted, "q": rec.q, "k": rec.k})
    elif args.action == "lines":
        lr = dp6.find_lines(surf)
        _emit({
            "field_degree": lr.field.k,
            "lines": {lbl: [[repr(x) for x in row] for row in ln.matrix]
                      for lbl, ln in sorted(lr.lines.items())},
            "adjacency": {lbl: sorted(adj) for lbl, adj in sorted(lr.adjacency.items())},
        })
    elif args.action == "frobenius":
        phi = dp6.frobenius_on_lines(surf)
        _emit({"frobenius": phi.label, "swap": phi.swap,
               "cycle_type": list(phi.cycle_type())})
    elif args.action == "check-zeta":
        recs = dp6.zeta_check(surf)
        _emit({"records": [r.as_dict() | {"ok": r.ok} for r in recs],
               "all_ok": all(r.ok for r in recs)})
    return 0


def _cmd_replay(args):
    from . import brauer, proofkit
    A = brauer.from_json(_class(_payload(args.algebra), "algebra"))
    if args.proof == "first":
        cert = proofkit.replay_first_proof(A)
    else:
        cert = proofkit.replay_second_proof(A)
    if args.corollary:
        cert = proofkit.corollary_cdpgl(cert)
    if args.transcript:
        sys.stdout.write(proofkit.transcript(cert) + "\n")
    else:
        _emit({"certificate": cert.as_dict(),
               "verified": proofkit.verify_certificate(cert)})
    return 0


def _cmd_selftest(args):
    from . import selftest

    def progress(r, seconds):
        status = "PASS" if r["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] criterion {r['id']}: {r['name']}"
                         f" ({seconds:.2f}s)\n")

    report = selftest.run_all(filter_text=args.filter, on_result=progress)
    sys.stdout.write(selftest.report_json(report).decode() + "\n")
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dp6kit",
        description="exact del Pezzo-6 / Brauer toolkit (JSON output)")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "brauer", help="invariant-vector operations",
        description='classes as {"inf": "0|1/2", "primes": {"7": "1/6", ...}}; '
                    'classes over a quadratic field carry slot lists and a "d"')
    b.add_argument("op", choices=["index", "tensor", "inverse", "is-split",
                                  "quaternion", "order3", "hilbert", "splitting",
                                  "restriction", "corestriction", "involution",
                                  "decompose", "chatelet"])
    b.add_argument("payload", help="JSON payload")
    b.set_defaults(fn=_cmd_brauer)

    lat = sub.add_parser("lattice", help="integer matrix normal forms")
    lat.add_argument("op", choices=["snf", "kernel", "hnf"])
    lat.add_argument("matrix", help="JSON array of rows")
    lat.set_defaults(fn=_cmd_lattice)

    h = sub.add_parser("hexagon", help="subgroup reports for the line lattice")
    h.add_argument("--all-subgroups", action="store_true")
    h.add_argument("--subgroup", type=int, default=0)
    h.set_defaults(fn=_cmd_hexagon)

    s = sub.add_parser("surface", help="surface models over finite fields")
    s.add_argument("action", choices=["build", "count", "lines", "frobenius",
                                      "check-zeta"])
    s.add_argument("--model", default="split")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--k", type=int, default=1)
    s.set_defaults(fn=_cmd_surface)

    r = sub.add_parser("replay", help="machine-checked proof replays")
    r.add_argument("--proof", choices=["first", "second"], required=True)
    r.add_argument("--algebra", required=True, help="invariant-vector JSON")
    r.add_argument("--corollary", action="store_true",
                   help="wrap with the projective-linear-group conclusion")
    r.add_argument("--transcript", action="store_true",
                   help="human-readable transcript instead of JSON")
    r.set_defaults(fn=_cmd_replay)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--filter", default=None)
    st.set_defaults(fn=_cmd_selftest)

    # argparse reads an argument that names none of a parser's options as a
    # value only when it matches this pattern (by default, a negative
    # integer or decimal); widened, a payload may begin with "-" ("-1e+20")
    for payload_parser in (b, lat, r):
        payload_parser._negative_number_matcher = re.compile("-")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Dp6kitError as exc:
        return _fail(exc)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
