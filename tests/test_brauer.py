import copy
import json
import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from dp6kit import brauer
from dp6kit.brauer import (INERT, RAMIFIED, REAL_PLACE, SPLIT,
                           InvariantVector, QuadField,
                           admits_unitary_involution, chatelet_kernel,
                           corestriction, decompose_degree6, from_json,
                           from_json_K, hilbert_symbol, index, inverse,
                           is_split, order, order3_class,
                           parse_rational, power, primes_from_json,
                           quaternion_class, restriction, split_components,
                           splitting_in_quadratic, tensor, to_json, to_json_K)
from dp6kit.errors import (Dp6kitError, FieldMismatch, OrderViolation, RealPlaceOrder,
                           ReciprocityViolation)
from dp6kit.fields import PRIME_BOUND
from dp6kit.proofkit import DEGREE6_WITNESS
from dp6kit.selftest import solvability_oracle

F = Fraction
HALF = F(1, 2)
ZERO = from_json({})
STANDING = from_json({"primes": {"7": "1/6", "13": "5/6"}})
ORDER3 = {"7": "1/3", "13": "2/3"}


def at(u, v):
    """The invariant of the class u at the place v."""
    if v == REAL_PLACE:
        return u.real
    return dict(u.primes).get(v, Fraction(0))


def split_pair_K(c1, c2):
    """Class over K = F x F from its two factor classes."""
    places = sorted(set(dict(c1.primes)) | set(dict(c2.primes)))
    return from_json_K({"d": None, "inf": [str(c1.real), str(c2.real)],
                        "primes": {str(p): [str(at(c1, p)), str(at(c2, p))]
                                   for p in places}})


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(5, 7, 3) == 1
    assert hilbert_symbol(1, 5, 7) == 1
    assert hilbert_symbol(F(1, 2), 2, 2) == 1  # square-class invariance


def test_hilbert_vs_oracle_sample():
    # a light cut of the acceptance grid; the full grid is criterion 1
    for p in (2, 3, 5):
        for a in (-6, -2, -1, 1, 2, 3, 5, 10):
            for b in (-5, -1, 2, 7):
                assert hilbert_symbol(a, b, p) == solvability_oracle(a, b, p)


def test_quaternion_class_examples():
    q = quaternion_class(-1, -1)
    assert q.real == F(1, 2) and q.primes == ((2, F(1, 2)),)
    assert is_split(quaternion_class(1, 5))
    assert is_split(tensor(q, q))


def test_quaternion_reciprocity_random():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.choice([n for n in range(-50, 51) if n])
        b = rng.choice([n for n in range(-50, 51) if n])
        u = quaternion_class(a, b)  # constructor enforces reciprocity
        total = u.real + sum((f for _, f in u.primes), F(0))
        assert total.denominator == 1


def test_order3_class():
    u = order3_class(ORDER3)
    assert order(u) == 3 and u == from_json({"primes": ORDER3})
    assert is_split(order3_class({}))
    with pytest.raises(ReciprocityViolation):
        order3_class({"7": "1/3"})
    with pytest.raises(ValueError):  # the real place is not a prime key
        order3_class({"inf": "1/2", "7": "1/2"})
    with pytest.raises(OrderViolation):
        order3_class({"7": "1/2", "13": "1/2"})


def test_group_operations():
    u = STANDING
    assert is_split(tensor(u, inverse(u)))
    doubled = tensor(u, u)
    assert doubled == from_json({"primes": {"7": "1/3", "13": "2/3"}})
    q = quaternion_class(-1, -1)
    d = order3_class(ORDER3)
    mix = tensor(q, d)  # disjoint supports just merge
    assert mix == from_json({"inf": "1/2", "primes": {"2": "1/2", **ORDER3}})
    assert index(mix) == 6


def test_index_examples():
    assert index(ZERO) == 1
    assert index(quaternion_class(-1, -1)) == 2
    assert index(STANDING) == 6


def test_splitting_in_quadratic():
    K = QuadField(-1)
    assert splitting_in_quadratic(K, 5) == SPLIT
    assert splitting_in_quadratic(K, 2) == RAMIFIED
    assert splitting_in_quadratic(K, REAL_PLACE) == INERT
    K2 = QuadField(2)
    assert splitting_in_quadratic(K2, 7) == SPLIT  # 3^2 = 2 mod 7
    assert splitting_in_quadratic(K2, 13) == INERT  # 2 is not a square mod 13
    assert splitting_in_quadratic(K2, REAL_PLACE) == SPLIT
    assert splitting_in_quadratic(QuadField(-7), 2) == SPLIT  # -7 = 1 mod 8
    assert splitting_in_quadratic(QuadField(5), 2) == INERT  # 5 mod 8
    assert splitting_in_quadratic(QuadField.split(), 11) == SPLIT
    with pytest.raises(ValueError):
        QuadField(4)
    with pytest.raises(ValueError):
        QuadField(12)  # not squarefree


def test_restriction_examples():
    q = quaternion_class(-1, -1)
    assert is_split(restriction(q, QuadField(-1)))
    assert is_split(restriction(ZERO, QuadField(2)))
    d = order3_class(ORDER3)
    r = restriction(d, QuadField(2))
    assert to_json_K(r)["primes"] == {"7": ["1/3", "1/3"], "13": ["1/3"]}


def test_corestriction_and_projection_formula():
    d = order3_class(ORDER3)
    K = QuadField(2)
    assert corestriction(restriction(d, K)) == power(d, 2)
    assert is_split(corestriction(from_json_K({"d": 2})))
    q = quaternion_class(-1, -1)
    assert is_split(corestriction(restriction(q, QuadField(-1))))


def test_projection_formula_random():
    rng = random.Random(5)
    from dp6kit.selftest import random_reciprocal_vector
    for K in (QuadField(-1), QuadField(2), QuadField(-3), QuadField(5)):
        for _ in range(50):
            u = random_reciprocal_vector(rng)
            assert corestriction(restriction(u, K)) == power(u, 2)


def test_admits_unitary_involution():
    K = QuadField(2)
    assert admits_unitary_involution(from_json_K({"d": 2}))
    d = order3_class(ORDER3)
    assert not admits_unitary_involution(restriction(d, K))
    # 2-torsion restrictions always do (cor res = x2 kills them)
    q = quaternion_class(-1, 3)
    assert admits_unitary_involution(restriction(q, K))
    # slot cancellation at a split place
    u = from_json_K({"d": 2, "primes": {"7": ["1/3", "2/3"]}})
    assert admits_unitary_involution(u)


def test_chatelet_kernel():
    assert chatelet_kernel(ZERO) == [ZERO]
    q = quaternion_class(-1, -1)
    assert chatelet_kernel(q) == [ZERO, q]
    d = order3_class(ORDER3)
    k = chatelet_kernel(d)
    assert len(k) == 3 and k[1] == d and k[2] == power(d, 2)


def test_decompose_degree6():
    u = STANDING
    C, D = decompose_degree6(u)
    assert C == from_json({"primes": {"7": "1/2", "13": "1/2"}})
    assert D == from_json({"primes": {"7": "2/3", "13": "1/3"}})
    assert tensor(C, D) == u
    q = quaternion_class(-1, -1)
    C2, D2 = decompose_degree6(q)
    assert C2 == q and is_split(D2)
    C3, D3 = decompose_degree6(ZERO)
    assert is_split(C3) and is_split(D3)
    bad = from_json({"primes": {"5": "1/5", "11": "4/5"}})
    with pytest.raises(OrderViolation):
        decompose_degree6(bad)


def test_decompose_then_tensor_random():
    from dp6kit.selftest import index6_corpus
    for u in index6_corpus(20, seed=777):
        C, D = decompose_degree6(u)
        assert tensor(C, D) == u
        assert order(C) in (1, 2) and order(D) in (1, 3)


def test_class_validation():
    with pytest.raises(ReciprocityViolation):
        from_json({"primes": {"7": "1/3"}})
    with pytest.raises(RealPlaceOrder):
        from_json({"inf": "1/3", "primes": {"3": "2/3"}})
    # complex place of an imaginary field carries no invariant
    with pytest.raises(RealPlaceOrder):
        from_json_K({"d": -1, "inf": ["1/2"], "primes": {"7": ["1/2"]}})


def test_split_algebra_classes():
    c1 = quaternion_class(-1, -1)
    c2 = quaternion_class(-1, 3)
    u = split_pair_K(c1, c2)
    back1, back2 = split_components(u)
    assert back1 == c1 and back2 == c2
    assert corestriction(u) == tensor(c1, c2)
    with pytest.raises(ReciprocityViolation):
        # factor 0 alone violates reciprocity even though the total is fine
        from_json_K({"d": None, "primes": {"7": ["1/2", "0"], "11": ["0", "1/2"]}})


def test_reprs():
    u = from_json({"inf": "1/2", "primes": {"2": "1/2", "7": "1/6", "13": "5/6"}})
    assert [repr(ZERO), repr(quaternion_class(-1, -1)), repr(DEGREE6_WITNESS), repr(u)] == [
        "Br{}", "Br{inf:1/2, 2:1/2}", "Br{7:1/6, 13:5/6}", "Br{inf:1/2, 2:1/2, 7:1/6, 13:5/6}"]
    assert [repr(restriction(u, K)) for K in (QuadField(2), QuadField(-1), QuadField.split())] \
        == ["Br_Q(sqrt(2)){inf:(1/2,1/2), 7:(1/6,1/6), 13:(2/3)}",
            "Br_Q(sqrt(-1)){7:(1/3), 13:(5/6,5/6)}",
            "Br_QxQ{inf:(1/2,1/2), 2:(1/2,1/2), 7:(1/6,1/6), 13:(5/6,5/6)}"]
    assert [repr(from_json_K(obj)) for obj in (
        {"d": 5, "inf": ["1/2", "1/2"]},
        {"d": 5, "inf": ["0", "0"], "primes": {"3": ["1/3"], "11": ["1/2", "1/6"]}},
        {"d": 2, "inf": ["1/2", "0"], "primes": {"7": ["0", "1/2"]}},
        {"d": -1})] == ["Br_Q(sqrt(5)){inf:(1/2,1/2)}",
                        "Br_Q(sqrt(5)){3:(1/3), 11:(1/2,1/6)}",
                        "Br_Q(sqrt(2)){inf:(1/2,0), 7:(0,1/2)}",
                        "Br_Q(sqrt(-1)){}"]


def test_json_roundtrip():
    u = from_json({"inf": "1/2", "primes": {"2": "1/2", "7": "1/6", "13": "5/6"}})
    assert brauer._from_json(to_json(u)) == u  # the uncached decoder
    K = QuadField(2)
    r = restriction(u, K)
    assert brauer._from_json_K(to_json_K(r)) == r


# ---------------------------------------------------------------------------
# the classes the decoders build against a Fraction reference: a class over
# Q is {place: invariant in (0, 1)}, one over K {place: slot tuple, some slot
# nonzero}, invariants of denominator <= 12, reduced by x - floor(x); every
# operation is recomputed on those maps


def mod1(x):
    return x - floor(x)


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
SUPPORT = (5, 7, 11, 13, 17)
CLOSING = 19
FIELDS = [QuadField(d) for d in (-1, 2, -3, 5, 6, -7)] + [QuadField.split()]


def _payload(real, primes):
    """The JSON payload of a real invariant and {p: invariant}, any values."""
    return {"inf": str(real), "primes": {str(p): str(f) for p, f in primes.items()}}


def _payload_K(K, real, primes):
    """The JSON payload over K of real slots and {p: slots}, any values."""
    return {"d": K.d, "inf": [str(f) for f in real],
            "primes": {str(p): [str(f) for f in s] for p, s in primes.items()}}


@st.composite
def classes(draw):
    """A class with invariants of denominator <= 12 on SUPPORT, closed at 19."""
    real = draw(st.sampled_from([Fraction(0), HALF]))
    primes = {p: draw(fractions) for p in
              draw(st.lists(st.sampled_from(SUPPORT), unique=True, max_size=4))}
    primes[CLOSING] = -(real + sum(primes.values(), Fraction(0)))
    return from_json(_payload(real, primes))


@st.composite
def classes_K(draw, K=None):
    """(K, class over K): slot invariants of denominator <= 12 on SUPPORT,
    real slots 0 or 1/2 when K has real places, and each reciprocity sum
    (one per factor over QxQ) closed in the first slot at CLOSING.  K is
    drawn from FIELDS unless it is given."""
    K = draw(st.sampled_from(FIELDS)) if K is None else K
    n_real = K.real_slots
    real = [draw(st.sampled_from([F(0), HALF])) for _ in range(n_real)] \
        if n_real == 2 else [F(0)]
    primes = {p: tuple(draw(fractions) for _ in
                       range(2 if splitting_in_quadratic(K, p) == SPLIT else 1))
              for p in draw(st.lists(st.sampled_from(SUPPORT), unique=True, max_size=4))}
    if K.is_split:
        primes[CLOSING] = tuple(-(real[i] + sum((s[i] for s in primes.values()), F(0)))
                                for i in (0, 1))
    else:
        closing = -(sum(real) + sum((f for s in primes.values() for f in s), F(0)))
        n = 2 if splitting_in_quadratic(K, CLOSING) == SPLIT else 1
        primes[CLOSING] = (closing,) + (F(0),) * (n - 1)
    return K, from_json_K(_payload_K(K, real, primes))


@settings(max_examples=200, deadline=None)
@given(real=st.sampled_from([Fraction(0), HALF]),
       values=st.lists(fractions, max_size=4))
def test_reciprocity_acceptance_matches_oracle(real, values):
    primes = dict(zip(SUPPORT, values))
    total = mod1(real + sum(primes.values(), Fraction(0)))
    if total == 0:
        u = from_json(_payload(real, primes))
        assert all(f == mod1(primes[p]) for p, f in u.primes)
    else:
        with pytest.raises(ReciprocityViolation) as exc:
            from_json(_payload(real, primes))
        assert str(exc.value) == f"local invariants sum to {total}, not 0"


@settings(max_examples=200, deadline=None)
@given(K=st.sampled_from(FIELDS), values=st.lists(fractions, min_size=2, max_size=8))
def test_reciprocity_acceptance_over_K_matches_oracle(K, values):
    values = iter(values)
    primes = {}
    for p in SUPPORT:
        n = 2 if splitting_in_quadratic(K, p) == SPLIT else 1
        primes[p] = tuple(next(values, Fraction(0)) for _ in range(n))
    total = mod1(sum(f for s in primes.values() for f in s))
    # over split K the two factors sum to total, so factor 0 decides
    factor0 = mod1(sum(s[0] for s in primes.values())) if K.is_split else 0
    try:
        from_json_K(_payload_K(K, (F(0),) * K.real_slots, primes))
    except ReciprocityViolation as exc:
        assert str(exc) == ("invariants over K do not sum to 0" if total else
                            "factor 0 of the split algebra violates reciprocity")
        assert total or factor0
    else:
        assert total == 0 and factor0 == 0


def _ref(entries):
    """A reference class over Q: entries mod 1, zeros dropped."""
    return {v: mod1(f) for v, f in entries.items() if mod1(f)}


def _ref_K(entries):
    return {v: tuple(mod1(f) for f in s) for v, s in entries.items() if any(map(mod1, s))}


def _ref_order(ref):
    return lcm(*(f.denominator for f in ref.values()))


def _ref_power(ref, n):
    return _ref({v: n * f for v, f in ref.items()})


def _class(ref):
    """The validated class of a reference map over Q, built from its
    numerators over the lcm of its denominators by brauer._vector, the real
    place keyed by brauer._REAL."""
    order = _ref_order(ref)
    support = sorted((brauer._REAL if v == REAL_PLACE else v,
                      f.numerator * (order // f.denominator)) for v, f in ref.items())
    return brauer._vector(None, order, support)._validate()


def _class_K(K, real, primes):
    """The validated class over K of real slots and {p: slots}, any values:
    taken mod 1, zero slots dropped, then built from the numerators over the
    lcm of the denominators by brauer._vector, each slot keyed (p, slot)."""
    slots = {brauer._REAL: tuple(map(mod1, real)), **_ref_K(primes)}
    order = lcm(*(f.denominator for s in slots.values() for f in s))
    support = sorted(((p, i), f.numerator * (order // f.denominator))
                     for p, s in slots.items() for i, f in enumerate(s))
    return brauer._vector(K, order, support)._validate()


def _view(u):
    """The reference form of u, read through .real and .primes."""
    assert type(u.real) is Fraction and u.real in (0, HALF)
    assert all(type(f) is Fraction and 0 < f < 1 for _, f in u.primes)
    ref = _ref({REAL_PLACE: u.real, **dict(u.primes)})
    assert order(u) == index(u) == _ref_order(ref) and is_split(u) == (not ref)
    return ref


def _slots_K(u):
    """{place: slot invariants} of a class over K, the real place first with
    all of its slots, then each place of the support with all of its slots,
    read from its numerators."""
    slots = {REAL_PLACE: [F(0)] * u.K.real_slots}
    for (p, i), n in u._support:
        v = REAL_PLACE if p == brauer._REAL else p
        if v not in slots:
            slots[v] = [F(0)] * (2 if splitting_in_quadratic(u.K, p) == SPLIT else 1)
        slots[v][i] = F(n, u.order)
    return {v: tuple(s) for v, s in slots.items()}


def _view_K(u):
    """The reference form of u over K."""
    slots = _slots_K(u)
    assert all(0 <= f < 1 for s in slots.values() for f in s)
    assert all(any(s) for v, s in slots.items() if v != REAL_PLACE)
    ref = _ref_K(slots)
    assert is_split(u) == (not ref)
    return ref


@settings(max_examples=100, deadline=None)
@given(u=classes(), w=classes(), n=st.integers(-13, 13))
def test_q_operations_match_fraction_reference(u, w, n):
    a, b = _view(u), _view(w)
    assert _view(power(u, n)) == _ref_power(a, n)
    assert _view(inverse(u)) == _ref_power(a, -1)
    assert _view(tensor(u, w)) == _ref({v: a.get(v, 0) + b.get(v, 0)
                                        for v in a.keys() | b.keys()})
    assert [_view(k) for k in chatelet_kernel(u)] == \
        [_ref_power(a, t) for t in range(_ref_order(a))]
    if 6 % _ref_order(a):
        with pytest.raises(OrderViolation):
            decompose_degree6(u)
    else:
        C, D = decompose_degree6(u)
        assert (_view(C), _view(D)) == (_ref_power(a, 3), _ref_power(a, 4))
    # equality and hash follow the reference, whatever route built the class
    assert (u == w) == (a == b)
    again = _class(a)
    assert again == u and hash(again) == hash(u)
    shifted = power(u, n + order(u))
    assert shifted == power(u, n) and hash(shifted) == hash(power(u, n))


@settings(max_examples=100, deadline=None)
@given(u=classes(), K=st.sampled_from(FIELDS), Kx=classes_K())
def test_json_matches_fraction_reference(u, K, Kx):
    a = _view(u)
    want = {"primes": {str(p): str(f) for p, f in sorted(
        (p, f) for p, f in a.items() if p != REAL_PLACE)}}
    if REAL_PLACE in a:
        want["inf"] = str(a[REAL_PLACE])
    assert json.dumps(to_json(u)) == json.dumps(want)
    back = from_json(json.loads(json.dumps(to_json(u))))
    assert back == u and hash(back) == hash(u)
    r = restriction(u, K)
    slots = _slots_K(r)
    want = {"d": K.d, "inf": [str(f) for f in slots.pop(REAL_PLACE)],
            "primes": {str(p): [str(f) for f in s] for p, s in slots.items()}}
    assert json.dumps(to_json_K(r)) == json.dumps(want)
    back = from_json_K(json.loads(json.dumps(to_json_K(r))))
    assert back == r and hash(back) == hash(r)
    _, x = Kx
    back = from_json_K(json.loads(json.dumps(to_json_K(x))))
    assert back == x and hash(back) == hash(x)


@settings(max_examples=100, deadline=None)
@given(u=classes(), w=classes(), Kx=classes_K())
def test_k_operations_match_fraction_reference(u, w, Kx):
    K, x = Kx
    a, ref = _view(u), _view_K(x)
    want = {}
    for v, f in a.items():
        split = splitting_in_quadratic(K, v) == SPLIT
        want[v] = (f, f) if split else (mod1(2 * f),)
    assert _view_K(restriction(u, K)) == _ref_K(want)
    # corestriction sums the slots above each place, over a field and over QxQ
    for y in (x, restriction(u, K), split_pair_K(u, w)):
        assert _view(corestriction(y)) == _ref({v: sum(s) for v, s in _view_K(y).items()})
    if K.is_split:
        c1, c2 = split_components(x)
        assert (_view(c1), _view(c2)) == tuple(
            _ref({v: s[i] for v, s in ref.items()}) for i in (0, 1))
    slots = _slots_K(x)
    again = _class_K(K, slots.pop(REAL_PLACE), slots)
    assert again == x and hash(again) == hash(x)
    assert (x == restriction(u, K)) == (ref == _view_K(restriction(u, K)))


# ---------------------------------------------------------------------------
# the group operations keep a class valid: they build their results without
# _validate(), which every result must still pass

REAL_FIELDS = [K for K in FIELDS if not K.is_split and K.d > 0]
IMAGINARY_FIELDS = [K for K in FIELDS if not K.is_split and K.d < 0]


def _valid(u):
    assert u._validate() is u
    return u


@settings(max_examples=100, deadline=None)
@given(u=classes(), w=classes(), n=st.integers(-13, 13), Kx=classes_K(),
       K_real=st.sampled_from(REAL_FIELDS), K_imaginary=st.sampled_from(IMAGINARY_FIELDS))
def test_group_operations_keep_classes_valid(u, w, n, Kx, K_real, K_imaginary):
    _valid(power(u, n))
    _valid(inverse(u))
    _valid(tensor(u, w))
    for t in chatelet_kernel(u):
        _valid(t)
    # a power of u whose order divides 6
    for t in decompose_degree6(power(u, order(u) // gcd(order(u), 6))):
        _valid(t)
    for K in (QuadField.split(), K_real, K_imaginary):
        _valid(corestriction(_valid(restriction(u, K))))
    for x in (restriction(u, QuadField.split()), split_pair_K(u, w)):
        for c in split_components(x):
            _valid(c)
    K, x = Kx
    _valid(corestriction(x))
    if K.is_split:
        for c in split_components(x):
            _valid(c)
    # the group operations over K
    _valid(power(x, n))
    _valid(inverse(x))
    _valid(tensor(x, x))
    _valid(tensor(x, restriction(u, K)))
    for t in chatelet_kernel(x):
        _valid(t)


@settings(max_examples=100, deadline=None)
@given(u=classes(), w=classes(), n=st.integers(-13, 13), Kx=classes_K(), data=st.data())
def test_restriction_and_corestriction_are_homomorphisms(u, w, n, Kx, data):
    K, x = Kx
    _, y = data.draw(classes_K(K))
    assert corestriction(tensor(x, y)) == tensor(corestriction(x), corestriction(y))
    assert corestriction(power(x, n)) == power(corestriction(x), n)
    assert restriction(tensor(u, w), K) == tensor(restriction(u, K), restriction(w, K))
    assert restriction(power(u, n), K) == power(restriction(u, K), n)
    # over QxQ the factors of a product are the products of the factors
    pairs = [(split_pair_K(u, w), split_pair_K(w, u))] + ([(x, y)] if K.is_split else [])
    for a, b in pairs:
        assert split_components(tensor(a, b)) == tuple(
            map(tensor, split_components(a), split_components(b)))


# ---------------------------------------------------------------------------
# the interned invariants against plain Fraction


def _fraction_or_refusal(parse, x):
    """parse(x), or how it refused: Dp6kitError for a zero denominator, the
    ValueError message for text that is not a rational."""
    try:
        return parse(x)
    except Dp6kitError as exc:
        return Dp6kitError, str(exc)
    except ZeroDivisionError:
        return Dp6kitError, (f"rational must be a JSON fraction with a nonzero "
                             f"denominator, got {x!r}")
    except ValueError as exc:
        return ValueError, str(exc)


RATIONAL_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789\u0663\u0664\uff13 \t\n\u00a0_+-/.eE", max_size=12),
    st.sampled_from(["1/0", "-0/0", " 3/00 ", "1/2", " +1/2\n", "-5/6", "1_000/3",
                     "1__0/3", "_1/3", "\u0663/\u0664", "\uff15/\uff16", "1.5", "-.5",
                     "2e-3", "1/2.0", "nan", "inf", "", " "]),
    st.integers(-10**30, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(-9, 10**6)),
)


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(RATIONAL_TEXT, st.integers(-10**30, 10**30)))
def test_parse_rational_matches_fraction(x):
    want = _fraction_or_refusal(Fraction, x)
    for _ in range(2):  # the second answer may come from the cache
        got = _fraction_or_refusal(parse_rational, x)
        assert got == want and type(got) is type(want)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-10**20, 10**20), d=st.integers(1, 10**12))
def test_interned_reductions_match_fraction(n, d):
    want = Fraction(n % d, d)
    for _ in range(2):
        got = brauer._fraction(n % d, d)
        assert got == want and type(got) is Fraction
        assert got.numerator == want.numerator and got.denominator == want.denominator


def test_interning_stays_bounded_and_exact():
    for n in range(3 * brauer._INTERNED):
        assert brauer._fraction(n % 997, 997) == Fraction(n % 997, 997)
        assert parse_rational(f"{n}/{n + 1}") == Fraction(n, n + 1)
    assert brauer._fraction.cache_info().currsize <= brauer._INTERNED
    for n in range(3 * brauer._INTERNED):
        assert from_json({"primes": {"7": f"{n}/2", "13": f"{n + 2}/2"}}) == \
            _class(_ref({7: F(n, 2), 13: F(n, 2)}))
    assert len(brauer._classes) <= brauer._INTERNED


# ---------------------------------------------------------------------------
# the JSON decoders against the Fraction route: parse_rational for every
# value, the place (and over K the slot count) of every entry, zero ones
# included, then the class of the reference map, _class or _class_K


def _fraction_route(obj):
    real = parse_rational(obj.get("inf", "0"))
    primes = primes_from_json(obj.get("primes", {}), parse_rational)
    for p in sorted(primes):
        brauer._check_place(p)
    return _class(_ref({REAL_PLACE: real, **primes}))


def _fraction_slots(slots):
    if not isinstance(slots, list):
        raise Dp6kitError(f"slot invariants must be a JSON array, got {slots!r}")
    return tuple(parse_rational(f) for f in slots)


def _fraction_route_K(obj):
    K = QuadField(obj.get("d"))
    real = _fraction_slots(obj.get("inf", [])) or (F(0),) * K.real_slots
    primes = primes_from_json(obj.get("primes", {}), _fraction_slots)
    for p, slots in sorted(primes.items()):
        brauer._check_slots(K, p, slots)
    if len(real) != K.real_slots:
        raise ValueError("wrong number of real slots for this field")
    return _class_K(K, real, primes)


def _outcome(decode, obj):
    """decode(obj), or the type and message of the exception it raised."""
    try:
        return decode(obj)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc), str(exc)


def _decoders_agree(decode, reference, obj):
    want = _outcome(reference, obj)
    for _ in range(2):  # the second decode may come from the cache
        got = _outcome(decode, obj)
        assert got == want
        assert type(got) is type(want) and hash(got) == hash(want)


JSON_VALUES = st.one_of(
    st.sampled_from(["0", "1/2", "1/3", "2/3", "1/6", "5/6", "-1/2", "7/6", "4/2",
                     "1/0", "-3/0", "1.5", "x", "", " 1/2 "]),
    st.builds("{}/{}".format, st.integers(-13, 13), st.integers(-2, 13)),
    st.integers(-13, 13),
    st.floats(allow_nan=False, width=16),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from(["0", "1/2"]), max_size=2),
    st.just({}),
)
PRIME_KEYS = st.sampled_from(["07", "+7", " 13", "13 ", "1_3", "\u0663", "x", "-7",
                              "0", "1", "4", "9", "2", "3", "23"])


def _mutate_primes(draw, primes, value):
    """Rename, drop or add one prime key of primes, reverse their order, or
    set one entry to a value drawn from the strategy value."""
    keys = sorted(primes)
    op = draw(st.sampled_from(["value", "key", "drop", "add", "reverse"]
                              if keys else ["add"]))
    if op == "reverse":  # a JSON object's keys may come in any order
        items = list(primes.items())[::-1]
        primes.clear()
        primes.update(items)
    elif op == "value":
        primes[draw(st.sampled_from(keys))] = draw(value)
    elif op == "key":
        primes[draw(PRIME_KEYS)] = primes.pop(draw(st.sampled_from(keys)))
    elif op == "drop":
        del primes[draw(st.sampled_from(keys))]
    else:
        primes[draw(PRIME_KEYS)] = draw(value)


@st.composite
def payloads(draw):
    """to_json of a class, with up to two changes to its entries."""
    obj = json.loads(json.dumps(to_json(draw(classes()))))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            obj["inf"] = draw(JSON_VALUES)
        else:
            _mutate_primes(draw, obj["primes"], JSON_VALUES)
    return obj


@st.composite
def payloads_K(draw):
    """to_json_K of a class over K, with up to two changes: a slot value, a
    slot list or its length, a prime key, the real slots or d."""
    obj = json.loads(json.dumps(to_json_K(draw(classes_K())[1])))
    primes = obj["primes"]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["slot", "count", "primes", "inf", "d"]))
        lists = sorted(p for p, s in primes.items() if isinstance(s, list) and s)
        if op == "slot" and lists:
            slots = primes[draw(st.sampled_from(lists))]
            slots[draw(st.integers(0, len(slots) - 1))] = draw(JSON_VALUES)
        elif op == "count" and lists:
            slots = primes[draw(st.sampled_from(lists))]
            if draw(st.booleans()):
                slots.append(draw(JSON_VALUES))
            else:
                slots.pop()
        elif op == "primes":
            _mutate_primes(draw, primes, st.one_of(st.lists(JSON_VALUES, max_size=3),
                                                   JSON_VALUES))
        elif op == "inf":
            obj["inf"] = draw(st.one_of(st.lists(JSON_VALUES, max_size=3), JSON_VALUES))
        else:
            obj["d"] = draw(st.sampled_from([None, 2, 5, -1, -3, 3, 4, 8, -4, 18, 0, 1,
                                             True, "2", 2.0]))
    return obj


@settings(max_examples=400, deadline=None)
@given(obj=payloads())
@example(obj={"primes": {"7": "1/6", "13": "5/6"}})
@example(obj={"primes": {"13": "5/6", "7": "1/6"}})           # unsorted keys
@example(obj={"primes": {"07": "1/3", "13": "2/3"}})         # non-canonical key
@example(obj={"primes": {"7": "1/0", "13": "5/6"}})          # zero denominator
@example(obj={"inf": 0.5, "primes": {"2": "1/2"}})           # a float
@example(obj={"inf": True, "primes": {"2": "1/2"}})          # a bool
@example(obj={"primes": {"7": ["1/2"], "13": "1/2"}})        # a list
@example(obj={"primes": {"7": "1/3", "13": "1/3"}})          # reciprocity
@example(obj={"inf": "1/3", "primes": {"3": "2/3"}})         # real place
@example(obj={"primes": {"4": "1/2", "7": "1/2"}})           # not a prime
@example(obj={"primes": {"4": "0", "1": "3/3"}})             # zeros at non-places
def test_from_json_matches_fraction_route(obj):
    _decoders_agree(from_json, _fraction_route, obj)


@settings(max_examples=400, deadline=None)
@given(obj=payloads_K())
@example(obj={"d": 2, "inf": ["0", "0"], "primes": {"7": ["1/3", "1/3"], "13": ["1/3"]}})
@example(obj={"d": 2, "primes": {"07": ["1/2", "1/2"]}})     # non-canonical key
@example(obj={"d": 2, "primes": {"7": ["1/0", "0"]}})        # zero denominator
@example(obj={"d": 2, "primes": {"7": [0.5, "1/2"]}})        # a float
@example(obj={"d": 2, "primes": {"7": [False, "1/2"]}})      # a bool
@example(obj={"d": 2, "inf": "0"})                           # slots not a list
@example(obj={"d": 2, "primes": {"7": "1/2"}})               # slots not a list
@example(obj={"d": 2, "primes": {"7": ["1/2"], "5": ["1/2"]}})      # slot count
@example(obj={"d": 2, "inf": ["0"]})                         # real slot count
@example(obj={"d": 12, "primes": {}})                        # d not squarefree
@example(obj={"d": 2, "primes": {"5": ["1/3"]}})             # reciprocity
@example(obj={"d": None, "primes": {"7": ["1/2", "0"], "11": ["0", "1/2"]}})
@example(obj={"d": -1, "inf": ["1/2"], "primes": {"3": ["1/2"]}})   # complex place
@example(obj={"d": 2, "primes": {"7": [], "5": ["0"]}})      # empty and zero slots
@example(obj={"d": 2, "primes": {"13": ["1/3"], "7": ["1/3", "1/3"]}})   # unsorted keys
@example(obj={"d": 2, "primes": {"7": ["0", "0", "0"], "4": ["0"]}})    # zero entries
@example(obj={"d": 2, "primes": {"7": []}})                  # an empty slot list
def test_from_json_K_matches_fraction_route(obj):
    _decoders_agree(from_json_K, _fraction_route_K, obj)


# ---------------------------------------------------------------------------
# the class cache of from_json and from_json_K: a payload that differs from a
# cached valid one only in the JSON type of one entry (1, true or 1.0 for
# "1"; a tuple for a list; 2.0 for d = 2) is decoded or refused as the
# uncached route does it, though Python finds those values equal


def _retyped(value):
    """value, then the values that differ from it only in type."""
    if isinstance(value, list):
        return [value, tuple(value)]
    if isinstance(value, int):
        return [value, float(value)]
    return [value, int(value), bool(int(value)), float(value)]


@st.composite
def retyped_payloads(draw):
    """(decoder, its uncached route, payloads): a valid payload, then copies
    that differ from it only in the type of one entry, the valid ones first.
    Over Q the entry is an extra zero invariant, "0" or "1", at the real
    place or at 23; over K it is d, the real slots or one place's slots."""
    if draw(st.booleans()):
        decode, uncached = from_json, brauer._from_json
        obj = to_json(draw(classes()))
        entry = draw(st.sampled_from(["0", "1"]))
        at = obj if "inf" not in obj and draw(st.booleans()) else obj["primes"]
        key = "inf" if at is obj else "23"
    else:
        decode, uncached = from_json_K, brauer._from_json_K
        obj = to_json_K(draw(classes_K())[1])
        fields = ["inf"] + (["d"] if obj["d"] is not None else [])
        choice = draw(st.sampled_from(fields + sorted(obj["primes"])))
        at, key = (obj, choice) if choice in fields else (obj["primes"], choice)
        entry = at[key]
    payloads = []
    for value in _retyped(entry):
        at[key] = value
        payloads.append(copy.deepcopy(obj))
    return decode, uncached, payloads


@settings(max_examples=300, deadline=None)
@given(case=retyped_payloads())
def test_interned_decoders_keep_json_types_apart(case):
    decode, uncached, payloads = case
    for obj in payloads:
        _decoders_agree(decode, uncached, obj)


@settings(max_examples=200, deadline=None)
@given(u=classes())
def test_decompose_degree6_refuses_exactly_orders_not_dividing_6(u):
    if power(u, 6) != ZERO:
        with pytest.raises(OrderViolation) as exc:
            decompose_degree6(u)
        assert str(exc.value) == "class does not have order dividing 6"
    else:
        C, D = decompose_degree6(u)
        assert tensor(C, D) == u and power(C, 2) == power(D, 3) == ZERO


# ---------------------------------------------------------------------------
# every validation path: its exception class and its exact message

K2 = QuadField(2)


def _raw(K, order, support):
    """The class over K (None for Q) with this support, taken as it is, then
    validated: for the checks that no decoder reaches, since the decoders
    check every place, sort the support and reduce every invariant."""
    u = InvariantVector.__new__(InvariantVector)
    u.K, u.order, u._support = K, order, support
    return u._validate()


def _two_faults(make, exc, message):
    """A case whose payload has two faults, refused by the first check to
    see one; its own id, so that it renames no case with the same message."""
    return pytest.param(make, exc, message, id=f"two faults: {message}")


@pytest.mark.parametrize("make, exc, message", [
    (lambda: from_json({"inf": "1/3"}), RealPlaceOrder,
     "real invariant must be 0 or 1/2, got 1/3"),
    (lambda: from_json({"primes": {"4": "1/2", "7": "1/2"}}), ValueError,
     "not a place of Q: 4"),
    (lambda: _raw(None, 2, ((7, 1), (5, 1))), ValueError,
     "prime support must be strictly sorted"),
    (lambda: _raw(None, 2, ((5, 3), (7, 1))), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(None, 1, ((5, 0),)), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(None, 1, ((5, 1),)), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(None, 2, ((5, -1), (7, 1))), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: from_json({"primes": {"7": "1/3", "13": "1/3"}}), ReciprocityViolation,
     "local invariants sum to 2/3, not 0"),
    (lambda: from_json_K({"d": 2, "inf": ["0"]}), ValueError,
     "wrong number of real slots for this field"),
    (lambda: from_json_K({"d": -1, "inf": ["1/2"]}), RealPlaceOrder,
     "complex place carries no Brauer invariant"),
    (lambda: from_json_K({"d": 2, "inf": ["1/3", "2/3"]}), RealPlaceOrder,
     "real invariant must be 0 or 1/2"),
    (lambda: from_json_K({"d": 2, "primes": {"9": ["1/2"]}}), ValueError,
     "not a place of Q: 9"),
    (lambda: _raw(K2, 2, (((13, 0), 1), ((5, 0), 1))),
     ValueError, "prime support must be strictly sorted"),
    (lambda: from_json_K({"d": 2, "primes": {"7": ["1/2"]}}), ValueError,
     "place 7 needs 2 slot(s)"),
    (lambda: _raw(K2, 1, (((5, 0), 0),)), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(K2, 2, (((5, 0), 3), ((13, 0), 1))),
     ValueError, "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(K2, 1, (((5, 0), 1),)), ValueError,
     "invariants must be reduced, nonzero, in (0,1)"),
    (lambda: _raw(K2, 2, (((5, 1), 1), ((13, 0), 1))), ValueError,
     "place 5 has no slot 1"),
    (lambda: _raw(QuadField(-1), 2, (((0, 1), 1), ((3, 0), 1))), ValueError,
     "place inf has no slot 1"),
    (lambda: from_json_K({"d": 2, "primes": {"5": ["1/3"]}}), ReciprocityViolation,
     "invariants over K do not sum to 0"),
    (lambda: from_json_K({"d": None, "primes": {"7": ["1/2", "0"], "11": ["0", "1/2"]}}),
     ReciprocityViolation, "factor 0 of the split algebra violates reciprocity"),
    (lambda: from_json_K({"d": None, "inf": ["1/2", "1/2"],
                          "primes": {"7": ["1/2", "0"], "11": ["0", "0"]}}),
     ReciprocityViolation, "invariants over K do not sum to 0"),
    (lambda: order3_class({"inf": "1/2", "7": "1/2"}), ValueError,
     "invalid literal for int() with base 10: 'inf'"),
    (lambda: order3_class({"7": "1/6", "13": "5/6"}), OrderViolation,
     "invariant 1/6 does not have order dividing 3"),
    (lambda: decompose_degree6(from_json({"primes": {"5": "1/5", "11": "4/5"}})),
     OrderViolation, "class does not have order dividing 6"),
    (lambda: split_components(from_json_K({"d": 2})), ValueError,
     "class is not over the split algebra"),
    (lambda: QuadField(12), ValueError, "d must be a squarefree integer != 0, 1: 12"),
    (lambda: hilbert_symbol(0, 5, 7), ValueError,
     "Hilbert symbol arguments must be nonzero"),
    (lambda: hilbert_symbol(2, 3, [7]), ValueError, "not a place of Q: [7]"),
    (lambda: hilbert_symbol(2, 3, {7: 1}), ValueError, "not a place of Q: {7: 1}"),
    (lambda: splitting_in_quadratic(K2, [7]), ValueError, "not a place of Q: [7]"),
    (lambda: hilbert_symbol(2, 3, True), ValueError, "not a place of Q: True"),
    (lambda: hilbert_symbol(2, 3, PRIME_BOUND), Dp6kitError,
     f"{PRIME_BOUND} is too large: primality is decided only below {PRIME_BOUND}"),
    (lambda: from_json({"primes": {str(PRIME_BOUND + 2): "1/2", "7": "1/2"}}),
     Dp6kitError, f"{PRIME_BOUND + 2} is too large: primality is decided only "
                  f"below {PRIME_BOUND}"),
    (lambda: parse_rational(0.5), Dp6kitError,
     "rational must be a JSON string or integer, got 0.5"),
    (lambda: from_json({"inf": True, "primes": {}}), Dp6kitError,
     "rational must be a JSON string or integer, got True"),
    (lambda: from_json_K({"d": 2, "primes": {"7": [1.0, 0]}}), Dp6kitError,
     "rational must be a JSON string or integer, got 1.0"),
    (lambda: parse_rational("1/0"), Dp6kitError,
     "rational must be a JSON fraction with a nonzero denominator, got '1/0'"),
    (lambda: from_json_K({"d": 2, "inf": "0"}), Dp6kitError,
     "slot invariants must be a JSON array, got '0'"),
    (lambda: from_json({"primes": {"07": "1/3", "7": "2/3"}}), Dp6kitError,
     "prime key '07' is not the canonical decimal 7"),
    (lambda: from_json({"primes": {"+7": "1/3", "13": "2/3"}}), Dp6kitError,
     "prime key '+7' is not the canonical decimal 7"),
    (lambda: from_json({"primes": {" 13": "1/3", "7": "2/3"}}), Dp6kitError,
     "prime key ' 13' is not the canonical decimal 13"),
    (lambda: from_json_K({"d": 2, "primes": {"5": ["1/2"], "05": ["1/2"]}}),
     Dp6kitError, "prime key '05' is not the canonical decimal 5"),
    (lambda: primes_from_json({"7": "1/3", "007": "1/3"}, parse_rational),
     Dp6kitError, "prime key '007' is not the canonical decimal 7"),
    (lambda: order3_class({"0": "1/3", "7": "2/3"}), ValueError, "not a place of Q: 0"),
    _two_faults(lambda: from_json_K({"d": 2, "inf": ["0"], "primes": {"9": ["1/2"]}}),
                ValueError, "not a place of Q: 9"),
    _two_faults(lambda: from_json_K({"d": 2, "inf": ["0"], "primes": {"7": ["1/2"]}}),
                ValueError, "place 7 needs 2 slot(s)"),
    _two_faults(lambda: from_json_K({"d": 2, "inf": ["1/3"], "primes": {"5": ["1/3"]}}),
                ValueError, "wrong number of real slots for this field"),
    _two_faults(lambda: from_json_K({"d": 2, "inf": ["1/3", "2/3"], "primes": {"5": ["1/3"]}}),
                RealPlaceOrder, "real invariant must be 0 or 1/2"),
    _two_faults(lambda: from_json({"inf": "1/3", "primes": {"4": "1/2"}}),
                ValueError, "not a place of Q: 4"),
    _two_faults(lambda: order3_class({"7": "1/3", "4": "2/3"}),
                ValueError, "not a place of Q: 4"),
    (lambda: from_json([]), Dp6kitError, "class payload must be a JSON object, got []"),
    (lambda: from_json_K("0"), Dp6kitError, "class payload must be a JSON object, got '0'"),
    (lambda: from_json({"primes": []}), Dp6kitError,
     '"primes" must be a JSON object, got []'),
    (lambda: from_json_K({"d": 2, "primes": [["7", "1/2"]]}), Dp6kitError,
     '"primes" must be a JSON object, got [[\'7\', \'1/2\']]'),
    (lambda: tensor(from_json_K({"d": 5, "inf": ["1/2", "1/2"]}),
                    from_json_K({"d": 2, "inf": ["1/2", "1/2"]})),
     FieldMismatch, "tensor of classes over Q(sqrt(5)) and Q(sqrt(2))"),
    (lambda: tensor(quaternion_class(-1, -1), from_json_K({"d": 2, "inf": ["1/2", "1/2"]})),
     FieldMismatch, "tensor of classes over Q and Q(sqrt(2))"),
    (lambda: tensor(from_json_K({"d": None}), from_json_K({"d": -1})),
     FieldMismatch, "tensor of classes over QxQ and Q(sqrt(-1))"),
    (lambda: to_json(from_json_K({"d": 2, "inf": ["1/2", "1/2"]})), FieldMismatch,
     "to_json takes a class over Q, not over Q(sqrt(2)): use to_json_K"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_validation_path(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: from_json({"primes": {"4": "0", "1": "3/3"}}), "not a place of Q: 1"),
    (lambda: from_json({"primes": {"7": "0", "9": "1"}}), "not a place of Q: 9"),
    (lambda: from_json_K({"d": 2, "primes": {"7": ["0", "0", "0"], "4": ["0"]}}),
     "not a place of Q: 4"),
    (lambda: from_json_K({"d": None, "primes": {"4": ["0", "0"]}}), "not a place of Q: 4"),
    (lambda: from_json_K({"d": 2, "primes": {"7": ["0", "0", "0"]}}),
     "place 7 needs 2 slot(s)"),
    (lambda: from_json_K({"d": 2, "primes": {"7": []}}), "place 7 needs 2 slot(s)"),
    (lambda: from_json_K({"d": 2, "primes": {"5": ["0", "0"]}}), "place 5 needs 1 slot(s)"),
], ids=["from_json", "from_json-unit", "from_json_K-place", "from_json_K-split-place",
        "from_json_K-slots", "from_json_K-empty", "from_json_K-inert-slots"])
def test_zero_entries_are_checked_before_they_are_dropped(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


def test_real_slots():
    assert [QuadField(d).real_slots for d in (None, 2, 5, -1, -3)] == [2, 2, 2, 1, 1]


def factor_oracle(n):
    """{p: e} for |n| by trial division by every d >= 2."""
    n, out, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-10**7 + 1, 10**7 - 1))
@example(n=0)
@example(n=1009 * 1013)  # both primes above the trial-division bound
@example(n=-1009 ** 2)
@example(n=997 * 1009 * 1013)
@example(n=2 ** 23)
def test_factor_matches_trial_division(n):
    assert brauer._factor(n) == factor_oracle(n)


@pytest.mark.parametrize("n, factors", [
    (1000000007 * 1000000009, {1000000007: 1, 1000000009: 1}),
    (2 * (2**61 - 1), {2: 1, 2**61 - 1: 1}),
    (1099511627791 * 2199023255579, {1099511627791: 1, 2199023255579: 1}),
    (3**40 * 1000003, {3: 40, 1000003: 1}),
    (2**100, {2: 100}),
])
def test_factor_large(n, factors):
    assert brauer._factor(n) == factors
    assert brauer._factor(-n) == factors


def test_factor_refuses_a_cofactor_at_the_primality_bound():
    with pytest.raises(Dp6kitError) as info:
        quaternion_class(3 * PRIME_BOUND, 5)
    assert str(info.value) == (f"{PRIME_BOUND} is too large: primality is decided "
                               f"only below {PRIME_BOUND}")
