import copy
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dp6kit.brauer import (QuadField, decompose_degree6, from_json, from_json_K,
                           index, order, order3_class, power, quaternion_class,
                           restriction, tensor, to_json)
from dp6kit.errors import InconsistentObservation, IndexMismatch, MalformedCase
from dp6kit.proofkit import (AXIOMS, COMPUTATIONS, DEGREE6_WITNESS,
                             ConicBundle, DelPezzoRankOne, FormP1xP1,
                             KernelShape, MASTER_SHAPES, ProofCertificate,
                             SeveriBrauerSurface, Step, corollary_3or4_check,
                             corollary_cdpgl, kernel_shapes, lemma_number_check,
                             replay_first_proof, replay_second_proof, transcript,
                             verify_certificate, _axiom, _canon,
                             _replay_certificate, _same_json)
from dp6kit.selftest import index6_corpus, random_surface_case

STANDING = from_json({"primes": {"7": "1/6", "13": "5/6"}})
ZERO = from_json({})
ORDER3 = {"7": "1/3", "13": "2/3"}


def split_pair_K(c1, c2):
    """Class over K = F x F from its two factor classes."""
    j1, j2 = to_json(c1), to_json(c2)
    m1, m2 = j1["primes"], j2["primes"]
    primes = {p: [m1.get(p, "0"), m2.get(p, "0")] for p in m1.keys() | m2.keys()}
    return from_json_K({"d": None, "inf": [j1.get("inf", "0"), j2.get("inf", "0")],
                        "primes": primes})


def zero_K(K):
    return from_json_K({"d": K.d})


def test_witness_has_index_6():
    assert index(DEGREE6_WITNESS) == 6
    assert DEGREE6_WITNESS == STANDING


def test_kernel_shapes_severi_brauer():
    d = order3_class(ORDER3)
    shapes = kernel_shapes(SeveriBrauerSurface(d))
    assert [s.name for s in shapes] == ["Z/3"]
    assert shapes[0].generators[0] == ("cubic", d)
    assert [s.name for s in kernel_shapes(SeveriBrauerSurface(ZERO))] \
        == ["0"]
    with pytest.raises(MalformedCase):
        kernel_shapes(SeveriBrauerSurface(quaternion_class(-1, -1)))


def test_kernel_shapes_quadric_surface_field():
    K = QuadField(-1)
    # res of a quaternion class has zero corestriction: kernel collapses
    conic = restriction(quaternion_class(-1, -1), K)
    shapes = kernel_shapes(FormP1xP1(K, conic))
    assert [s.name for s in shapes] == ["0"]


def test_kernel_shapes_quadric_surface_split():
    q1, q2 = quaternion_class(-1, -1), quaternion_class(-1, 3)
    shapes = kernel_shapes(FormP1xP1(QuadField.split(), split_pair_K(q1, q2)))
    assert [s.name for s in shapes] == ["Z/2+Z/2"]
    shapes = kernel_shapes(FormP1xP1(QuadField.split(), split_pair_K(q1, q1)))
    assert [s.name for s in shapes] == ["Z/2"]
    shapes = kernel_shapes(FormP1xP1(QuadField.split(), split_pair_K(ZERO, ZERO)))
    assert [s.name for s in shapes] == ["0"]


def test_kernel_shapes_conic_bundle():
    shapes = kernel_shapes(ConicBundle(quaternion_class(-1, -1)))
    assert [s.name for s in shapes] == ["Z/2", "Z/2+Z/2"]
    assert all(t == "quaternion" for s in shapes for t, _ in s.generators)
    shapes = kernel_shapes(ConicBundle(ZERO))
    assert [s.name for s in shapes] == ["0", "Z/2"]


def test_kernel_shapes_del_pezzo():
    assert [s.name for s in kernel_shapes(DelPezzoRankOne())] == ["0"]


def test_kernel_shapes_master_list_random():
    import random
    rng = random.Random(55)
    for _ in range(100):
        for s in kernel_shapes(random_surface_case(rng)):
            assert s.name in MASTER_SHAPES


def test_kernel_shape_validation():
    with pytest.raises(MalformedCase):
        KernelShape("Z/5")
    with pytest.raises(MalformedCase):
        KernelShape("Z/3", (("cubic", quaternion_class(-1, -1)),))


def test_corollary_3or4():
    q = quaternion_class(-1, -1)
    d = order3_class(ORDER3)
    res = corollary_3or4_check(q, d)
    assert not res.compatible and order(res.witness) == 6
    assert corollary_3or4_check(d, d).compatible
    assert corollary_3or4_check(ZERO, ZERO).compatible
    assert corollary_3or4_check(q, q).compatible
    # products of quaternions stay 2-torsion of index at most 2 over Q
    # (period equals index), hence in the quaternion-like bucket
    prod = tensor(quaternion_class(-1, -1), quaternion_class(2, 5))
    assert order(prod) <= 2 and index(prod) <= 2
    assert corollary_3or4_check(q, prod).compatible


def test_replay_first_proof():
    cert = replay_first_proof(STANDING)
    assert cert.contradiction
    assert verify_certificate(cert)
    kinds = {s.kind for s in cert.steps}
    assert kinds == {"VERIFIED", "AXIOM"}
    # every axiom step carries a source from the registry
    for s in cert.steps:
        if s.kind == "AXIOM":
            assert s.axiom in AXIOMS
        else:
            assert s.computation in COMPUTATIONS


def test_replay_first_proof_alternate_vector():
    A = from_json({"primes": {"7": "1/6", "11": "1/6", "13": "2/3"}})
    assert index(A) == 6
    cert = replay_first_proof(A)
    assert cert.contradiction and verify_certificate(cert)


def test_replay_rejects_wrong_index():
    with pytest.raises(IndexMismatch):
        replay_first_proof(quaternion_class(-1, -1))
    with pytest.raises(IndexMismatch):
        replay_second_proof(order3_class(ORDER3))


def test_replay_second_proof():
    cert = replay_second_proof(STANDING)
    assert cert.contradiction and verify_certificate(cert)
    # the contradiction step carries the order-6 witness
    step = next(s for s in cert.steps if s.computation == "corollary_3or4_check")
    assert step.result["witness_order"] == 6
    assert not step.result["compatible"]


@pytest.mark.parametrize("replay, computation, result", [
    (replay_first_proof, "admits_unitary_involution", {"admits": True}),
    (replay_second_proof, "corollary_3or4_check", {"compatible": True}),
])
def test_replay_verdict_derived_from_results(monkeypatch, replay, computation,
                                             result):
    decode, _ = COMPUTATIONS[computation]
    monkeypatch.setitem(COMPUTATIONS, computation, (decode, lambda *args: result))
    cert = replay(STANDING)
    assert not cert.contradiction
    assert cert.verdict.startswith("no verdict")
    assert verify_certificate(cert)
    wrapped = corollary_cdpgl(cert)
    assert not wrapped.contradiction and "no verdict" in wrapped.verdict


def test_replays_on_corpus():
    for A in index6_corpus(10, seed=4242):
        c1 = replay_first_proof(A)
        c2 = replay_second_proof(A)
        assert c1.contradiction and verify_certificate(c1)
        assert c2.contradiction and verify_certificate(c2)


# axioms that no replay cites yet, each with the reason it stays
UNCITED_AXIOMS = {
    "rank_one_kernel": "the planned lattice step for minimal del Pezzo surfaces of "
                       "Picard rank 1 (ROADMAP item 6) cites it",
}


def _all_certificates():
    certs = [replay_first_proof(DEGREE6_WITNESS), replay_second_proof(DEGREE6_WITNESS)]
    return certs + [corollary_cdpgl(cert) for cert in certs]


def test_every_computation_is_emitted_by_a_replay():
    steps = [s for cert in _all_certificates() for s in cert.steps]
    emitted = {s.computation for s in steps if s.kind == "VERIFIED"}
    assert emitted == set(COMPUTATIONS)
    cited = {s.axiom for s in steps if s.kind == "AXIOM"}
    assert cited.isdisjoint(UNCITED_AXIOMS)
    assert cited | set(UNCITED_AXIOMS) == set(AXIOMS)


def test_certificate_tamper_detection():
    cert = replay_second_proof(STANDING)
    tampered_steps = []
    for s in cert.steps:
        if s.computation == "index":
            tampered_steps.append(replace(s, result={"index": 5}))
        else:
            tampered_steps.append(s)
    tampered = replace(cert, steps=tuple(tampered_steps))
    assert not verify_certificate(tampered)


def _tamper_inputs(cert, computation, change):
    """cert with change applied to a copy of the inputs of its first step
    that runs computation."""
    steps = list(cert.steps)
    i = next(i for i, s in enumerate(steps) if s.computation == computation)
    inputs = copy.deepcopy(steps[i].inputs)
    change(inputs)
    steps[i] = replace(steps[i], inputs=inputs)
    return replace(cert, steps=tuple(steps))


def _first_slot_to_one_third(inputs):
    slots = next(iter(inputs["classK"]["primes"].values()))
    assert slots[0] != "1/3"
    slots[0] = "1/3"


def _split_class(inputs):
    inputs["class"] = {"primes": {}}


@pytest.mark.parametrize("computation, change", [
    ("corestriction", _first_slot_to_one_third),   # refused: breaks reciprocity
    ("is_split", _split_class),                  # decodes, but the result differs
])
def test_certificate_input_tamper_detection(computation, change):
    cert = replay_first_proof(STANDING)
    assert verify_certificate(cert)
    assert not verify_certificate(_tamper_inputs(cert, computation, change))
    # the shared inputs of the original certificate are untouched
    assert verify_certificate(cert)


# small alphabets and ranges, so that independent draws often collide
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text("ab", max_size=2),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), children, max_size=3),
    max_leaves=8)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_same_json_agrees_with_canonical_text(data):
    a = data.draw(_json_values)
    b = data.draw(_json_values | st.just(json.loads(_canon(a))))
    assert _same_json(a, b) == (_canon(a) == _canon(b))


@pytest.mark.parametrize("computed, recorded", [
    ((1, 2), [1, 2]),
    ({"C": {"primes": ("7",)}}, {"C": {"primes": ["7"]}}),
    ({7: "1/2"}, {"7": "1/2"}),
    (0, False),
    (True, 1),
    (6.0, 6),
    ({"index": 6}, {"index": 6.0}),
])
def test_same_json_refuses_type_confusion(computed, recorded):
    # each pair passes the canonical-text comparison or plain ==
    assert _canon(computed) == _canon(recorded) or computed == recorded
    assert not _same_json(computed, recorded)
    assert not _same_json(recorded, computed)


def _read_back(cert):
    """The certificate rebuilt from its JSON text."""
    data = json.loads(cert.to_json())
    steps = tuple(Step(statement=s["statement"], kind=s["kind"],
                       computation=s.get("computation"), inputs=s.get("inputs"),
                       result=s.get("result"), axiom=s.get("axiom"))
                  for s in data["steps"])
    return ProofCertificate(title=data["title"], algebra=data["algebra"],
                            steps=steps, contradiction=data["contradiction"],
                            verdict=data["verdict"])


def test_recorded_results_match_their_json_text():
    certs = [replay(A) for A in index6_corpus(50)  # the selftest corpus
             for replay in (replay_first_proof, replay_second_proof)]
    for cert in certs + [corollary_cdpgl(cert) for cert in certs]:
        for s in cert.steps:
            if s.kind == "VERIFIED":
                assert _same_json(s.result, json.loads(_canon(s.result)))
        back = _read_back(cert)
        assert back.to_json() == cert.to_json()
        assert verify_certificate(back)


def _tamper_result(cert, computation, result):
    """cert with result recorded for its first step that runs computation."""
    steps = list(cert.steps)
    i = next(i for i, s in enumerate(steps) if s.computation == computation)
    steps[i] = replace(steps[i], result=result)
    return replace(cert, steps=tuple(steps))


# each tampered result equals the true one under plain ==
@pytest.mark.parametrize("replay, computation, result", [
    (replay_first_proof, "is_split", {"split": 0}),
    (replay_first_proof, "admits_unitary_involution", {"admits": 0}),
    (replay_second_proof, "index", {"index": 6.0}),
], ids=["split", "admits", "index"])
def test_type_confused_result_does_not_verify(replay, computation, result):
    cert = replay(STANDING)
    assert verify_certificate(cert)
    assert not verify_certificate(_tamper_result(cert, computation, result))


# each malformed step raised from verify_certificate instead of failing it
@pytest.mark.parametrize("fields", [
    {"computation": "no_such_computation"},
    {"inputs": [{"primes": {"7": "1/6", "13": "5/6"}}]},
    {"inputs": {}},
    {"inputs": {"class": []}},
    {"inputs": {"class": {"primes": []}}},
    {"computation": ["index"]},
], ids=["unknown-computation", "list-inputs", "no-class", "list-class", "list-primes",
        "list-computation"])
def test_malformed_step_does_not_verify(fields):
    cert = replay_second_proof(STANDING)
    steps = list(cert.steps)
    i = next(i for i, s in enumerate(steps) if s.computation == "index")
    steps[i] = replace(steps[i], **fields)
    assert verify_certificate(cert)
    assert verify_certificate(replace(cert, steps=tuple(steps))) is False


# each tampered input raised from verify_certificate instead of failing it,
# or verified: max 10 leaves the solutions unchanged, a true dividing reads
# as 1, n_S 0 or true passes every implication on a nonsplit K, and max
# 10**12 built the whole range before comparing
@pytest.mark.parametrize("computation, key, value", [
    ("divisibility_filter", "multiple_of", 0),
    ("divisibility_filter", "dividing", "4"),
    ("divisibility_filter", "dividing", True),
    ("degree_forced", "multiple_of", 0),
    ("degree_forced", "max", 10),
    ("degree_forced", "max", 10 ** 12),
    ("lemma_number_check", "observed", []),
    ("lemma_number_check", "observed", {"n_S": 0}),
    ("lemma_number_check", "observed", {"n_S": True}),
    ("lemma_number_check", "observed", {"has_rational_point": 1}),
    ("lemma_number_check", "observed", {"has_rational_point": True}),
], ids=["zero-multiple", "text-dividing", "bool-dividing", "zero-degree-multiple",
        "max-10", "huge-max", "list-observed", "zero-n_S", "bool-n_S",
        "int-point", "inconsistent-point"])
def test_tampered_input_does_not_verify(computation, key, value):
    cert = replay_first_proof(STANDING)
    assert verify_certificate(cert)
    tampered = _tamper_inputs(cert, computation, lambda inputs: inputs.update({key: value}))
    assert verify_certificate(tampered) is False


def test_fixed_verified_steps_are_shared():
    A = index6_corpus(1, seed=3)[0]
    firsts = [replay_first_proof(B) for B in (STANDING, A)]
    for computation in ("divisibility_filter", "degree_forced"):
        a, b = ([s for s in cert.steps if s.computation == computation]
                for cert in firsts)
        assert len(a) == 1 and a[0] is b[0]
    witness = [corollary_cdpgl(cert).steps[1]
               for cert in (*firsts, replay_second_proof(A))]
    assert witness[0].inputs == {"class": to_json(DEGREE6_WITNESS)}
    assert all(s is witness[0] for s in witness)


def test_verifying_twice_leaves_the_steps_unchanged():
    certs = _all_certificates()
    recorded = [(s.inputs, s.result) for cert in certs for s in cert.steps]
    before = copy.deepcopy(recorded)
    for _ in range(2):
        assert all(verify_certificate(cert) for cert in certs)
    assert recorded == before and _canon(recorded) == _canon(before)


def test_replay_certificate_without_a_decisive_step_has_no_verdict():
    cert = replay_first_proof(STANDING)
    axioms = [s for s in cert.steps if s.kind == "AXIOM"]
    bare = _replay_certificate("axioms only", cert.algebra, axioms,
                               {"is_split": {"split": False}})
    assert not bare.contradiction and bare.verdict.startswith("no verdict")


def test_decompose_records_a_factorization_that_misses_the_input(monkeypatch):
    from dp6kit import proofkit
    compute = COMPUTATIONS["decompose_degree6"][1]
    assert compute(STANDING)["tensor_recovers_input"] is True
    monkeypatch.setattr(proofkit, "decompose_degree6",
                        lambda u: (decompose_degree6(u)[0], power(u, 2)))
    assert compute(STANDING)["tensor_recovers_input"] is False


def test_replays_decode_nothing_and_verify_decodes_each_class_once(monkeypatch):
    from dp6kit import brauer, proofkit
    calls = Counter()

    def counted(name, decode):
        def wrapper(obj):
            calls[name] += 1
            return decode(obj)
        return wrapper

    for name in ("from_json", "from_json_K"):
        wrapper = counted(name, getattr(brauer, name))
        for module in (brauer, proofkit):
            monkeypatch.setattr(module, name, wrapper)
    certs = [replay(A) for A in (STANDING, *index6_corpus(3, seed=7))
             for replay in (replay_first_proof, replay_second_proof)]
    certs += [corollary_cdpgl(cert) for cert in certs]
    assert not calls
    inputs = [(key, value) for cert in certs for s in cert.steps if s.kind == "VERIFIED"
              for key, value in s.inputs.items()]
    want = Counter()
    for key, value in inputs:
        if key in ("class", "A", "A2"):
            want["from_json"] += 1
        elif key == "classK" and value is not None:
            want["from_json_K"] += 1
    assert all(verify_certificate(cert) for cert in certs)
    assert calls == want and want["from_json"] and want["from_json_K"]


def test_certificate_json_and_transcript():
    cert = replay_second_proof(STANDING)
    blob = cert.to_json()
    parsed = json.loads(blob)
    assert parsed["contradiction"] is True
    assert parsed["steps"][0]["kind"] == "VERIFIED"
    text = transcript(cert)
    assert "[AXIOM]" in text and "[VERIFIED]" in text and "verdict" in text
    # the shared encoder writes what json.dumps writes
    assert blob == json.dumps(cert.as_dict(), sort_keys=True, separators=(",", ":"))


def test_axiom_steps_are_shared_and_unknown_keys_refused():
    first, second = replay_first_proof(STANDING), replay_first_proof(STANDING)
    axioms = [(a, b) for a, b in zip(first.steps, second.steps) if a.kind == "AXIOM"]
    assert axioms and all(a is b for a, b in axioms)
    for _ in range(2):  # a refusal is not remembered as an answer
        with pytest.raises(KeyError):
            _axiom("a statement", "no_such_axiom")


def test_corollary_cdpgl():
    good = corollary_cdpgl(replay_first_proof(STANDING))
    assert "projective linear group" in good.verdict and "3" in good.verdict
    assert verify_certificate(good)
    # a failed replay propagates: no verdict
    from dp6kit.proofkit import ProofCertificate
    failed = ProofCertificate(title="x", algebra={}, steps=(),
                              contradiction=False, verdict="stalled")
    wrapped = corollary_cdpgl(failed)
    assert "no verdict" in wrapped.verdict


def test_lemma_number_check():
    Ksplit = QuadField.split()
    K2 = QuadField(2)
    d = order3_class(ORDER3)
    b_nonsplit = restriction(d, K2)
    # n_S = 6 with split K is inconsistent
    with pytest.raises(InconsistentObservation):
        lemma_number_check(Ksplit, None, {"n_S": 6})
    # n_S = 6 with split B is inconsistent
    with pytest.raises(InconsistentObservation):
        lemma_number_check(K2, zero_K(K2), {"n_S": 6})
    # nonsplit K and nonsplit B with n_S = 6: fine
    assert lemma_number_check(K2, b_nonsplit, {"n_S": 6}) == "consistent"
    # split B with n_S = 2: fine
    assert lemma_number_check(K2, zero_K(K2), {"n_S": 2}) == "consistent"
    # split B with n_S = 4 violates n_S | 2
    with pytest.raises(InconsistentObservation):
        lemma_number_check(K2, zero_K(K2), {"n_S": 4})
    # a rational point forces B split
    with pytest.raises(InconsistentObservation):
        lemma_number_check(K2, b_nonsplit, {"has_rational_point": True})
    # finite-field surface: a point exists and B = 0 is consistent
    assert lemma_number_check(K2, zero_K(K2),
                              {"has_rational_point": True}) == "consistent"
