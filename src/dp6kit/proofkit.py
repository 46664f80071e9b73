"""Machine-checked replays of the two splitting-dimension arguments.

A ProofCertificate is an ordered list of steps.  VERIFIED steps name a
computation from a registry in this module together with its JSON inputs
and recorded output; re-running the computation must reproduce the output
bit for bit.  AXIOM steps carry the cited statement from the literature;
the artifact separates verified arithmetic from cited mathematics and never
pretends to prove the axioms.

The kernel case analysis for geometrically rational surfaces is exposed as
kernel_shapes: possible Brauer kernels of the function-field map, always
inside the master list {0, Z/2, Z/2+Z/2, Z/3}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .brauer import (InvariantVector, QuadField, admits_unitary_involution,
                     corestriction, decompose_degree6, from_json, from_json_K,
                     index, is_split, order, power, restriction,
                     split_components, tensor, to_json, to_json_K)
from .errors import (Dp6kitError, InconsistentObservation, IndexMismatch,
                     MalformedCase)

# ---------------------------------------------------------------------------
# the cited statements, as first-class data

AXIOMS = {
    "generic_splitting": {
        "statement": ("For a smooth irreducible variety, the function field is a "
                      "generic splitting field, and a canonical dimension bound "
                      "d produces a closed d-dimensional subvariety receiving a "
                      "dominant rational map."),
        "source": "Karpenko-Merkurjev, canonical dimension of smooth varieties",
    },
    "resolution_surfaces": {
        "statement": ("An integral projective surface over a perfect field has a "
                      "smooth projective birational model."),
        "source": "resolution of singularities for surfaces (Lipman, Artin)",
    },
    "index_birational": {
        "statement": ("The point index n_X divides along morphisms and is a "
                      "birational invariant of smooth projective varieties."),
        "source": "standard moving-point argument for the index",
    },
    "period_index_number_field": {
        "statement": ("Over a number field the Schur index of a Brauer class "
                      "equals its period, the lcm of the local orders."),
        "source": "Albert-Brauer-Hasse-Noether",
    },
    "iskovskikh_mori": {
        "statement": ("A minimal smooth projective geometrically rational surface "
                      "is a conic bundle over a smooth conic with Picard rank 2, "
                      "or a del Pezzo surface with Picard rank 1."),
        "source": "Iskovskikh (1980), Mori (1982) classification",
    },
    "conic_bundle_quartic_point": {
        "statement": ("A conic bundle over a smooth conic has a closed point of "
                      "degree dividing 4, so its index divides 4."),
        "source": "fiber-over-a-quadratic-point argument",
    },
    "dp6_index_divides_degree": {
        "statement": "For a del Pezzo surface the index divides the degree K^2.",
        "source": "anticanonical embedding degree count",
    },
    "dp6_triples": {
        "statement": ("Every degree-6 del Pezzo surface arises from a rank-9 "
                      "Azumaya algebra with unitary involution over a quadratic "
                      "etale algebra together with a cubic etale subalgebra of "
                      "symmetric elements, with (K, L) matching the Galois "
                      "action on the six lines."),
        "source": "structure theory of degree-6 del Pezzo surfaces via "
                  "algebras with involution",
    },
    "dp6_splitting_implications": {
        "statement": ("For such a surface: index 6 forces both the quadratic "
                      "algebra and the rank-9 algebra to be nonsplit; a rational "
                      "point forces the rank-9 algebra to be split."),
        "source": "blow-up structure of the split-quadratic form",
    },
    "conic_kernel_two_torsion": {
        "statement": ("The kernel of the Brauer map to the function field of a "
                      "conic is generated by the quaternion class of the conic; "
                      "in particular an odd-order class that dies there is "
                      "already split."),
        "source": "Witt, Chatelet",
    },
    "chatelet": {
        "statement": ("The kernel of the Brauer map to the function field of a "
                      "Severi-Brauer variety is the cyclic group generated by "
                      "the class of the underlying algebra."),
        "source": "Chatelet's theorem",
    },
    "unitary_involution_corestriction": {
        "statement": ("An Azumaya algebra over K carrying an involution of the "
                      "second kind has trivial corestriction to the base field."),
        "source": "Knus-Merkurjev-Rost-Tignol, involutions of the second kind",
    },
    "rank_one_kernel": {
        "statement": ("A del Pezzo surface with Picard rank 1 and non-divisible "
                      "canonical class has trivial Brauer kernel: the fixed "
                      "Picard lattice is generated by the canonical class, so "
                      "the Picard map is onto the Galois invariants."),
        "source": "Leray five-term exact sequence for the Picard group",
    },
    "torsor_algebra": {
        "statement": ("Projective-linear torsors of rank n correspond to degree-"
                      "n central simple algebras with the same splitting fields."),
        "source": "descent for projective linear groups",
    },
    "cdim_upper_bound": {
        "statement": ("The canonical dimension of the Severi-Brauer variety of a "
                      "degree-6 class is at most 1 + 2 = 3, through the product "
                      "of the quaternion and cubic factors."),
        "source": "product splitting-field comparison",
    },
}


# ---------------------------------------------------------------------------
# the computation registry: each entry is (decode, compute).  compute takes
# classes and plain values and returns the result as JSON; decode rebuilds
# its arguments from a step's recorded JSON inputs.  A replay calls compute
# on the classes it already holds and records their JSON forms as the
# inputs; verify_certificate alone calls decode.  The two routes meet in the
# result, compared as typed JSON values (_same_json), which also checks the
# to_json/from_json round trip of every recorded class.


def _decode_class(inputs):
    return (from_json(inputs["class"]),)


def _decode_class_K(inputs):
    return (from_json_K(inputs["classK"]),)


def _comp_index(u):
    return {"index": index(u)}


def _comp_decompose(u):
    C, D = decompose_degree6(u)
    return {
        "C": to_json(C),
        "D": to_json(D),
        "index_C": index(C),
        "index_D": index(D),
        "tensor_recovers_input": tensor(C, D) == u,
    }


def _comp_divisibility_filter(mult, dividing):
    sols = [n for n in range(1, dividing + 1) if dividing % n == 0 and n % mult == 0]
    return {"solutions": sols}


def _comp_degree_forced(mult, lo, hi):
    return {"solutions": [d for d in range(lo, hi + 1) if d % mult == 0]}


def _comp_corestriction(u):
    return to_json(corestriction(u))


def _comp_admits_involution(u):
    return {"admits": admits_unitary_involution(u)}


def _comp_is_split(u):
    return {"split": is_split(u)}


def lemma_number_check(K, B_class, observed):
    """Consistency of observed surface data with the splitting implications:

    * n_S = 6 forces both K and B nonsplit;
    * a rational point forces B split;
    * K split forces n_S | 3 (blow-up structure);
    * B split forces n_S | 2.

    observed: dict with optional keys "n_S" (int) and "has_rational_point".
    Raises InconsistentObservation naming the violated implication.
    """
    n_s = observed.get("n_S")
    has_pt = observed.get("has_rational_point")
    b_split = B_class is None or is_split(B_class)
    if has_pt:
        n_s = 1 if n_s is None else n_s
        if not b_split:
            raise InconsistentObservation(
                "a rational point forces the K-algebra to be split")
    if n_s == 6:
        if K.is_split:
            raise InconsistentObservation("n_S = 6 forces K to be nonsplit")
        if b_split:
            raise InconsistentObservation("n_S = 6 forces the K-algebra to be nonsplit")
    if n_s is not None:
        if K.is_split and 3 % n_s != 0:
            raise InconsistentObservation("split K forces n_S to divide 3")
        if b_split and 2 % n_s != 0:
            raise InconsistentObservation("split K-algebra forces n_S to divide 2")
    return "consistent"


def _decode_lemma_number_check(inputs):
    B = inputs.get("classK")
    observed = inputs["observed"]
    if not isinstance(observed, dict):
        raise Dp6kitError("observed must be an object")
    n_s, has_pt = observed.get("n_S"), observed.get("has_rational_point")
    if n_s is not None and (type(n_s) is not int or n_s < 1):
        raise Dp6kitError("observed n_S must be an integer >= 1")
    if has_pt is not None and type(has_pt) is not bool:
        raise Dp6kitError("observed has_rational_point must be a boolean")
    return (QuadField(inputs["d"]), None if B is None else from_json_K(B), observed)


def _comp_lemma_number_check(K, B, observed):
    return {"verdict": lemma_number_check(K, B, observed)}


def _decode_pair(inputs):
    return from_json(inputs["A"]), from_json(inputs["A2"])


def _comp_corollary_3or4(A, A2):
    res = corollary_3or4_check(A, A2)
    out = {"compatible": res.compatible}
    if res.witness is not None:
        out["witness"] = to_json(res.witness)
        out["witness_order"] = order(res.witness)
    return out


def _decode_degrees(*keys):
    """Decoder of the integer inputs under keys, each refused unless an int
    (not a bool) in 1..9: the range of del Pezzo degrees, which holds every
    value a replay records and bounds the recomputation's ranges."""
    get = itemgetter(*keys)

    def decode(inputs):
        values = get(inputs)
        for v in values:
            if type(v) is not int or not 1 <= v <= 9:
                raise Dp6kitError(f"{', '.join(keys)} must be integers in 1..9")
        return values
    return decode


COMPUTATIONS = {
    "index": (_decode_class, _comp_index),
    "decompose_degree6": (_decode_class, _comp_decompose),
    "divisibility_filter": (_decode_degrees("multiple_of", "dividing"),
                            _comp_divisibility_filter),
    "degree_forced": (_decode_degrees("multiple_of", "min", "max"), _comp_degree_forced),
    "corestriction": (_decode_class_K, _comp_corestriction),
    "admits_unitary_involution": (_decode_class_K, _comp_admits_involution),
    "is_split": (_decode_class, _comp_is_split),
    "lemma_number_check": (_decode_lemma_number_check, _comp_lemma_number_check),
    "corollary_3or4_check": (_decode_pair, _comp_corollary_3or4),
}


# canonical JSON text: sorted keys, no spaces; one encoder for every call
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class Step:
    statement: str
    kind: str  # "VERIFIED" or "AXIOM"
    computation: str = None
    inputs: object = None
    result: object = None
    axiom: str = None

    def as_dict(self):
        out = {"statement": self.statement, "kind": self.kind}
        if self.kind == "VERIFIED":
            out["computation"] = self.computation
            out["inputs"] = self.inputs
            out["result"] = self.result
        else:
            out["axiom"] = self.axiom
            out["source"] = AXIOMS[self.axiom]["source"]
        return out


@dataclass
class ProofCertificate:
    title: str
    algebra: object  # JSON form of the input class
    steps: tuple
    contradiction: bool
    verdict: str

    def as_dict(self):
        return {
            "title": self.title,
            "algebra": self.algebra,
            "steps": [s.as_dict() for s in self.steps],
            "contradiction": self.contradiction,
            "verdict": self.verdict,
        }

    def to_json(self):
        return _canon(self.as_dict())


def _verified(statement, computation, inputs, *args):
    """A VERIFIED step: the computation run on args, the classes and values
    whose JSON form is inputs."""
    result = COMPUTATIONS[computation][1](*args)
    return Step(statement=statement, kind="VERIFIED", computation=computation,
                inputs=inputs, result=result)


@lru_cache(maxsize=None)
def _axiom(statement, key):
    """The AXIOM step citing key; the replays cite a fixed set, so each
    (statement, key) is one shared frozen Step."""
    if key not in AXIOMS:
        raise KeyError(f"unknown axiom {key}")
    return Step(statement=statement, kind="AXIOM", axiom=key)


@lru_cache(maxsize=None)
def _fixed_steps():
    """The VERIFIED steps whose inputs never change: the conic-bundle
    filter, the forced degree and the index of the standing witness.  Like
    the AXIOM steps, each is one shared frozen Step, built on first use;
    verify_certificate still re-runs it in every certificate."""
    return (
        _verified("no positive integer is divisible by 6 and divides 4, so "
                  "the conic bundle case is impossible", "divisibility_filter",
                  {"multiple_of": 6, "dividing": 4}, 6, 4),
        _verified("the only degree in 1..9 divisible by 6 is 6: the minimal "
                  "model is a degree-6 del Pezzo surface", "degree_forced",
                  {"multiple_of": 6, "min": 1, "max": 9}, 6, 1, 9),
        _verified("a degree-6 division class exists: the standing witness "
                  "has index 6", "index", {"class": to_json(DEGREE6_WITNESS)},
                  DEGREE6_WITNESS),
    )


_JSON_LEAVES = (str, int, bool, type(None))


def _same_json(a, b):
    """a and b are the same JSON value, with the same type at every node:
    dicts with the same keys, lists of the same length, equal str, int, bool
    or None leaves.  On JSON values this holds exactly when their canonical
    texts agree, and it is stricter than those texts on anything else (a
    tuple is not a list).  Plain == is not enough: it matches 0 with false
    and 6.0 with 6."""
    t = type(a)
    if t is not type(b):
        return False
    if t is dict:
        if a.keys() != b.keys():
            return False
        for k, v in a.items():  # faster than all() over a generator here
            if not _same_json(v, b[k]):
                return False
        return True
    if t is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return t in _JSON_LEAVES and a == b


def verify_certificate(cert):
    """Re-run every VERIFIED step from its recorded JSON inputs and compare
    the result with the recorded one as typed JSON values (_same_json), no
    less strict than comparing their canonical texts bit for bit.

    This is the one place a certificate's inputs are decoded; the replays
    computed on the classes they held.  A step with an unknown computation,
    inputs that are no JSON object, or inputs the decoders refuse (a missing
    key, a degree outside 1..9, or a tampered class that breaks reciprocity,
    say) does not verify, nor does a step whose recomputation refuses them
    (an observation that lemma_number_check finds inconsistent).
    """
    for step in cert.steps:
        if step.kind != "VERIFIED":
            continue
        entry = isinstance(step.computation, str) and COMPUTATIONS.get(step.computation)
        if not entry or not isinstance(step.inputs, dict):
            return False
        decode, compute = entry
        try:
            result = compute(*decode(step.inputs))
        except (Dp6kitError, KeyError, ValueError):
            return False
        if not _same_json(result, step.result):
            return False
    return True


def transcript(cert):
    """Human-readable rendering of a certificate."""
    lines = [cert.title, "=" * len(cert.title),
             f"input class: {_canon(cert.algebra)}", ""]
    for n, step in enumerate(cert.steps, 1):
        if step.kind == "VERIFIED":
            lines.append(f"{n:2d}. [VERIFIED] {step.statement}")
            lines.append(f"      computation: {step.computation}"
                         f" inputs={_canon(step.inputs)}")
            lines.append(f"      result: {_canon(step.result)}")
        else:
            lines.append(f"{n:2d}. [AXIOM] {step.statement}")
            lines.append(f"      cited: {AXIOMS[step.axiom]['source']}")
    lines.append("")
    lines.append(f"verdict: {cert.verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# kernel case analysis


SHAPE_ZERO = "0"
SHAPE_Z2 = "Z/2"
SHAPE_Z2Z2 = "Z/2+Z/2"
SHAPE_Z3 = "Z/3"
MASTER_SHAPES = (SHAPE_ZERO, SHAPE_Z2, SHAPE_Z2Z2, SHAPE_Z3)


@dataclass(frozen=True)
class KernelShape:
    """Shape of the Brauer kernel with typed generators.

    A generator is (type_tag, class-or-None); None marks a generator whose
    existence the case analysis asserts without pinning the class down.
    """

    name: str
    generators: tuple = ()

    def __post_init__(self):
        if self.name not in MASTER_SHAPES:
            raise MalformedCase(f"shape {self.name} outside the master list")
        expect = {SHAPE_ZERO: 0, SHAPE_Z2: 1, SHAPE_Z2Z2: 2, SHAPE_Z3: 1}[self.name]
        if len(self.generators) != expect:
            raise MalformedCase("generator count does not match the shape")
        for tag, cls in self.generators:
            if tag not in ("quaternion", "biquaternion", "cubic"):
                raise MalformedCase(f"unknown generator type {tag}")
            if cls is None:
                continue
            want = {"quaternion": 2, "biquaternion": 2, "cubic": 3}[tag]
            if order(cls) != want:
                raise MalformedCase(
                    f"generator of type {tag} must have order {want}")
            if tag == "quaternion" and index(cls) != 2:
                raise MalformedCase("quaternion generator must have index 2")
            if tag == "biquaternion" and index(cls) != 4:
                raise MalformedCase("biquaternion generator must have index 4")


@dataclass(frozen=True)
class SeveriBrauerSurface:
    cls: InvariantVector  # order 1 or 3


@dataclass(frozen=True)
class FormP1xP1:
    K: QuadField
    conic: InvariantVector  # 2-torsion class over K


@dataclass(frozen=True)
class ConicBundle:
    base: InvariantVector  # quaternion class of the base conic (may be 0)


@dataclass(frozen=True)
class DelPezzoRankOne:
    pass


def kernel_shapes(case):
    """Possible Brauer kernels Br(F(X)/F) for the given surface case."""
    if isinstance(case, SeveriBrauerSurface):
        u = case.cls
        if order(u) not in (1, 3):
            raise MalformedCase("Severi-Brauer surface class must have order 1 or 3")
        if is_split(u):
            return (KernelShape(SHAPE_ZERO),)
        return (KernelShape(SHAPE_Z3, (("cubic", u),)),)
    if isinstance(case, FormP1xP1):
        u = case.conic
        if case.K != u.K:
            raise MalformedCase("conic class lives over a different quadratic algebra")
        if order(u) > 2:
            raise MalformedCase("conic class over K must be 2-torsion")
        if case.K.is_split:
            c1, c2 = split_components(u)
            nonzero = [c for c in (c1, c2) if not is_split(c)]
            if not nonzero:
                return (KernelShape(SHAPE_ZERO),)
            if len(nonzero) == 1 or c1 == c2:
                return (KernelShape(SHAPE_Z2, (("quaternion", nonzero[0]),)),)
            return (KernelShape(SHAPE_Z2Z2, (("quaternion", c1),
                                             ("quaternion", c2))),)
        cor = corestriction(u)
        if is_split(cor):
            return (KernelShape(SHAPE_ZERO),)
        tag = "quaternion" if index(cor) == 2 else "biquaternion"
        return (KernelShape(SHAPE_Z2, ((tag, cor),)),)
    if isinstance(case, ConicBundle):
        q = case.base
        if order(q) > 2:
            raise MalformedCase("base conic class must be 2-torsion")
        if is_split(q):
            # split base: kernel order divides 2, generated by some quaternion
            return (KernelShape(SHAPE_ZERO),
                    KernelShape(SHAPE_Z2, (("quaternion", None),)))
        return (KernelShape(SHAPE_Z2, (("quaternion", q),)),
                KernelShape(SHAPE_Z2Z2, (("quaternion", q),
                                         ("quaternion", None))))
    if isinstance(case, DelPezzoRankOne):
        return (KernelShape(SHAPE_ZERO),)
    raise MalformedCase(f"unknown surface case {case!r}")


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    witness: object = None  # order-6 class when applicable


def corollary_3or4_check(A, A2):
    """Both cubic, or both quaternion/biquaternion; otherwise a contradiction
    with the order-6 witness A x A2 when it has order 6."""
    def is_cubic(u):
        return index(u) in (1, 3)

    def is_quat_like(u):
        return order(u) <= 2 and index(u) <= 4

    if is_cubic(A) and is_cubic(A2):
        return CompatibilityResult(compatible=True)
    if is_quat_like(A) and is_quat_like(A2):
        return CompatibilityResult(compatible=True)
    w = tensor(A, A2)
    return CompatibilityResult(compatible=False,
                               witness=w if order(w) == 6 else None)


# ---------------------------------------------------------------------------
# the two replays


_REPLAY_VERDICT = ("the splitting dimension assumption <= 2 is contradictory; "
                   "combined with the upper bound, the canonical dimension of "
                   "the degree-6 Severi-Brauer variety equals 3")
_REPLAY_NO_VERDICT = "no verdict: the recorded results do not refute the assumption"


def _require_index6(A):
    if index(A) != 6:
        raise IndexMismatch(f"replay requires index 6, got {index(A)}")


def _replay_certificate(title, algebra, steps, refuting):
    """Certificate whose verdict is read off the recorded VERIFIED results.

    `refuting` maps a computation name to the result fields that refute the
    assumption; the replay reaches a contradiction when its steps include
    such computations and every one of them recorded those fields.
    """
    decisive = [s for s in steps if s.kind == "VERIFIED" and s.computation in refuting]
    contradiction = bool(decisive) and all(
        s.result.get(key) == want
        for s in decisive for key, want in refuting[s.computation].items())
    return ProofCertificate(
        title=title,
        algebra=algebra,
        steps=tuple(steps),
        contradiction=contradiction,
        verdict=_REPLAY_VERDICT if contradiction else _REPLAY_NO_VERDICT,
    )


def _common_head(A, algebra):
    """The opening steps on the input class A, whose JSON form is algebra."""
    return [
        _verified("the input class has index 6 (period-index identification "
                  "recorded below)", "index", {"class": algebra}, A),
        _axiom("the index of the input class equals its period",
               "period_index_number_field"),
        _verified("degree-6 factorization: C of degree 2 and D of degree 3 "
                  "with C x D the input class", "decompose_degree6",
                  {"class": algebra}, A),
    ]


def replay_first_proof(A):
    """Certificate for the surface-theoretic argument.

    Assuming the splitting dimension were at most 2, a minimal surface with
    index divisible by 6 must be a degree-6 del Pezzo; its quadratic and
    rank-9 algebras cannot be split, yet the Chatelet step over the cubic
    factor identifies the rank-9 class with a restriction whose
    corestriction is visibly nonzero.  The involution criterion forces that
    corestriction to vanish: contradiction.
    """
    _require_index6(A)
    _, D = decompose_degree6(A)
    D2 = power(D, 2)
    K = QuadField(2)
    rD, r2D = restriction(D, K), restriction(D2, K)
    # each JSON input is built once and shared: no computation mutates its inputs
    algebra, resD, res2D = to_json(A), to_json_K(rD), to_json_K(r2D)
    observed = {"n_S": 6}
    filter_step, degree_step, _ = _fixed_steps()
    steps = _common_head(A, algebra)
    steps += [
        _axiom("assume the splitting dimension is at most 2: the product of "
               "the quaternion and cubic Severi-Brauer varieties admits a "
               "dominant rational map onto a closed surface or curve over "
               "the base field", "generic_splitting"),
        _axiom("a curve target is impossible: it would be a conic, of index "
               "dividing 2, while the index must be divisible by 6; the "
               "target is a surface with a smooth projective model",
               "resolution_surfaces"),
        _axiom("replace the model by a minimal one; the point index is a "
               "birational invariant and divides 6 both ways",
               "index_birational"),
        _axiom("minimal classification: conic bundle over a conic, or del "
               "Pezzo with Picard rank 1", "iskovskikh_mori"),
        _axiom("a conic bundle over a conic has index dividing 4",
               "conic_bundle_quartic_point"),
        filter_step,
        _axiom("for a del Pezzo surface the index divides the degree",
               "dp6_index_divides_degree"),
        degree_step,
        _axiom("the surface arises from a rank-9 algebra with unitary "
               "involution over a quadratic etale algebra and a cubic etale "
               "subalgebra of symmetric elements", "dp6_triples"),
        _axiom("index 6 forces the quadratic algebra and the rank-9 algebra "
               "to be nonsplit; a point over the product function field "
               "forces the rank-9 algebra to split there",
               "dp6_splitting_implications"),
        _verified("consistency of the observed data (index 6, nonsplit "
                  "candidates) with the splitting implications, on the "
                  "concrete candidate below", "lemma_number_check",
                  {"d": 2, "classK": resD, "observed": observed}, K, rD, observed),
        _axiom("the function field tower over the cubic factor is the "
               "function field of a conic; an odd-order class split there "
               "is split already", "conic_kernel_two_torsion"),
        _axiom("Chatelet over the cubic factor: the rank-9 class is the "
               "restriction of the cubic class or of its square",
               "chatelet"),
        _axiom("the unitary involution forces the corestriction of the "
               "rank-9 class to vanish", "unitary_involution_corestriction"),
        _verified("corestriction of the first candidate equals twice the "
                  "cubic class", "corestriction", {"classK": resD}, rD),
        _verified("corestriction of the second candidate equals the cubic "
                  "class", "corestriction", {"classK": res2D}, r2D),
        _verified("twice the cubic class is not split", "is_split",
                  {"class": to_json(D2)}, D2),
        _verified("the cubic class is not split", "is_split",
                  {"class": to_json(D)}, D),
        _verified("neither candidate admits a unitary involution",
                  "admits_unitary_involution", {"classK": resD}, rD),
        _verified("neither candidate admits a unitary involution (square)",
                  "admits_unitary_involution", {"classK": res2D}, r2D),
        _axiom("the splitting dimension is at most 3",
               "cdim_upper_bound"),
    ]
    # the contradiction: both corestrictions are nonzero, so neither
    # candidate carries the unitary involution the surface requires
    return _replay_certificate(
        "first replay: degree-6 del Pezzo argument", algebra, steps,
        {"is_split": {"split": False},
         "admits_unitary_involution": {"admits": False}})


def replay_second_proof(A):
    """Certificate for the Brauer-kernel argument: the quaternion and cubic
    factors both die over the product function field, which the kernel case
    analysis forbids."""
    _require_index6(A)
    C, D = decompose_degree6(A)
    algebra = to_json(A)
    steps = _common_head(A, algebra)
    steps += [
        _axiom("assume the splitting dimension is at most 2 for the product "
               "of the two Severi-Brauer varieties", "generic_splitting"),
        _axiom("each factor class dies over the function field of its own "
               "Severi-Brauer variety, hence over the product function "
               "field", "chatelet"),
        _axiom("the Brauer kernel of a smooth proper geometrically "
               "unirational variety of splitting dimension at most 2 is "
               "0, Z/2, Z/2+Z/2 or Z/3, spanned by quaternion, biquaternion "
               "or cubic classes", "iskovskikh_mori"),
        _verified("the degree-2 and degree-3 parts are not simultaneously "
                  "quaternion-like or simultaneously cubic: contradiction "
                  "with an explicit order-6 witness", "corollary_3or4_check",
                  {"A": to_json(C), "A2": to_json(D)}, C, D),
        _axiom("the splitting dimension is at most 3", "cdim_upper_bound"),
    ]
    return _replay_certificate(
        "second replay: Brauer kernel argument", algebra, steps,
        {"corollary_3or4_check": {"compatible": False, "witness_order": 6}})


DEGREE6_WITNESS = from_json({"primes": {"7": "1/6", "13": "5/6"}})


def corollary_cdpgl(replay_cert):
    """Wrap a replay with the torsor correspondence and an existence witness
    to conclude on the projective linear group of rank 6."""
    _, _, witness_step = _fixed_steps()
    steps = [
        _axiom("projective-linear torsors of rank 6 correspond to degree-6 "
               "central simple algebras with identical splitting behavior",
               "torsor_algebra"),
        witness_step,
    ]
    steps += list(replay_cert.steps)
    if replay_cert.contradiction:
        verdict = "the canonical dimension of the projective linear group of rank 6 is 3"
    else:
        verdict = "no verdict: the underlying replay did not reach a contradiction"
    return ProofCertificate(
        title="canonical dimension of the rank-6 projective linear group",
        algebra=replay_cert.algebra,
        steps=tuple(steps),
        contradiction=replay_cert.contradiction,
        verdict=verdict,
    )
