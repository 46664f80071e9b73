"""Brauer classes over Q and over quadratic fields as local invariant vectors.

A class is a finitely supported map from places to Q/Z whose invariants sum
to zero, with real invariant 0 or 1/2.  Hilbert symbols use the standard
closed formulas; restriction and corestriction to a quadratic field track
places as (rational place, slot) pairs, never as ideals.

One class type serves Q and a quadratic field K: InvariantVector holds K
(None over Q), an order and a support, the sorted (place, n) with invariant
n/order, 0 < n < order; a place is a prime or _REAL (sorted first) over Q,
and (such a place, slot) over K.  A class is kept reduced, so the gcd of the
order and all numerators is 1.  The order is then the lcm of the local
denominators, which over a number field is the Schur index of a division
class (Albert-Brauer-Hasse-Noether); index() reads it, and certificates that
rely on the identification record it as an axiom.

There is one way into a class from outside data, and it is validated there:
from_json and from_json_K decode a JSON payload, and quaternion_class and
order3_class build the classes the CLI names by their data.  The decoders
check the place of every entry, and the slot count of every entry over K,
before they drop the zero ones.  The group operations (power, tensor,
restriction, corestriction, split_components and what is built on them)
make classes from validated ones without re-checking them, since the group
laws keep a class valid; tests/test_brauer.py checks that property.

JSON goes straight to and from the integers: the decoders take each JSON
rational to (n mod d, d) through one bounded cache, and to_json and
to_json_K format n/order through another.  Fractions appear only at
parse_rational and at the .real and .primes of a class over Q, which return
them interned by one bounded cache.  Classes are interned too: the decoders
keep one bounded cache of validated classes, keyed by the exact content of
the payload, so a payload seen before is not decoded or validated again.
Only payloads whose invariants are all JSON strings (and, over K, lists of
them, with an int d) are keyed, with their types checked exactly; any other
payload is decoded each time, and a refused payload is refused each time,
with the same error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (Dp6kitError, FieldMismatch, OrderViolation, RealPlaceOrder,
                     ReciprocityViolation)
from .fields import is_prime

REAL_PLACE = "inf"
# The real place in the support of a class: it sorts before every prime.
_REAL = 0

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

# _factor trial-divides by the primes below this bound, and _rho_divisor
# takes one gcd per this many steps.
_TRIAL_BOUND = 1000
_RHO_BLOCK = 128

# Entries each cache below keeps.  A pass over the proof-lattice benchmark
# corpus makes some 40 000 lookups of 18 distinct invariants and 12 places,
# and decodes 2400 class payloads, 308 of them proofkit's DEGREE6_WITNESS,
# with 539 distinct payloads among them.
_INTERNED = 1024

# Fraction(n, d) or Fraction(text) for ints n, d or a JSON string; typed,
# so the string "1" and the integer 1 are separate entries.
_fraction = lru_cache(maxsize=_INTERNED, typed=True)(Fraction)

# is_prime of a prime place, remembered: int places only, since lists and
# other unhashable values must reach _check_place's ValueError.
_is_prime_place = lru_cache(maxsize=_INTERNED)(is_prime)


@lru_cache(maxsize=_INTERNED)
def _text(n, d):
    """n/d in lowest terms as JSON text: "0", "1/2", "5/6"."""
    return str(Fraction(n, d))


def _check_place(v):
    if v != REAL_PLACE and not (isinstance(v, int) and _is_prime_place(v)):
        raise ValueError(f"not a place of Q: {v!r}")


class InvariantVector:
    """Brauer class over Q (K is None) or over the quadratic field K, with
    invariant n/order at each (place, n) of _support; see the module doc."""

    __slots__ = ("K", "order", "_support")

    def _validate(self):
        K, order = self.K, self.order
        last = -1 if K is None else (-1,)  # below every place
        total = 0
        for place, n in self._support:
            if K is None:
                p = place
                if p != _REAL:
                    _check_place(p)
            else:
                p, slot = place
                # _slot_count refuses p unless it is a prime or _REAL
                if not 0 <= slot < _slot_count(K.d, p):
                    raise ValueError(f"place {p or REAL_PLACE} has no slot {slot}")
            if not place > last:
                raise ValueError("prime support must be strictly sorted")
            if not 0 < n < order:
                raise ValueError("invariants must be reduced, nonzero, in (0,1)")
            if p == _REAL:
                if K is not None and K.real_slots == 1:
                    raise RealPlaceOrder("complex place carries no Brauer invariant")
                if 2 * n != order:
                    raise RealPlaceOrder("real invariant must be 0 or 1/2" + (
                        f", got {_text(n, order)}" if K is None else ""))
            last = place
            total += n
        if total % order:
            raise ReciprocityViolation(
                f"local invariants sum to {_text(total % order, order)}, not 0"
                if K is None else "invariants over K do not sum to 0")
        # Br(F x F) = Br F x Br F; factor 1 is reciprocal if the total and factor 0 are
        if K is not None and K.is_split and sum(
                n for (_, slot), n in self._support if slot == 0) % order:
            raise ReciprocityViolation("factor 0 of the split algebra violates reciprocity")
        return self

    @property
    def real(self):
        """The real invariant of a class over Q, a Fraction."""
        support = self._support
        return _fraction(support[0][1] if support and support[0][0] == _REAL else 0,
                         self.order)

    @property
    def primes(self):
        """((p, Fraction), ...) of a class over Q, sorted by p, nonzero only."""
        order = self.order
        return tuple((p, _fraction(n, order)) for p, n in self._support if p != _REAL)

    def __eq__(self, other):
        if other.__class__ is not InvariantVector:
            return NotImplemented
        return (self.K == other.K and self.order == other.order
                and self._support == other._support)

    def __hash__(self):
        return hash((self.K, self.order, self._support))

    def __repr__(self):
        order = self.order
        if self.K is None:
            return "Br{" + ", ".join(f"{p or REAL_PLACE}:{_text(n, order)}"
                                     for p, n in self._support) + "}"
        parts = [f"{p or REAL_PLACE}:(" + ",".join(_text(n, order) for n in slots) + ")"
                 for p, slots in _slot_lists(self).items() if any(slots)]
        return f"Br_{self.K}{{" + ", ".join(parts) + "}"


def _vector(K, order, support):
    """The class over K (None for Q) with invariant n/order at each
    (place, n) of support, sorted, 0 <= n < order: zeros dropped and
    reduced, not validated: the decoders, quaternion_class and order3_class
    call _validate(), which returns the class."""
    support = [(v, n) for v, n in support if n]
    g = gcd(order, *(n for _, n in support))
    if g > 1:
        order //= g
        support = [(v, n // g) for v, n in support]
    u = InvariantVector.__new__(InvariantVector)
    u.K, u.order, u._support = K, order, tuple(support)
    return u


def tensor(u, v):
    """Product in the Brauer group: pointwise addition in Q/Z.  Both classes
    must be over the same field."""
    if u.K is not v.K and u.K != v.K:
        raise FieldMismatch(f"tensor of classes over {u.K or 'Q'} and {v.K or 'Q'}")
    order = lcm(u.order, v.order)
    a, b = order // u.order, order // v.order
    support = {place: n * a for place, n in u._support}
    for place, n in v._support:
        support[place] = (support.get(place, 0) + n * b) % order
    return _vector(u.K, order, sorted(support.items()))


def inverse(u):
    return power(u, -1)


def is_split(u):
    return u.order == 1


def power(u, n):
    order = u.order
    return _vector(u.K, order, [(place, m * n % order) for place, m in u._support])


def order(u):
    return u.order


def index(u):
    """lcm of the orders of the local invariants (= Schur index over Q)."""
    return u.order


# ---------------------------------------------------------------------------
# Hilbert symbols


def _squareclass_int(a):
    a = Fraction(a)
    if a == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    return a.numerator * a.denominator


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(u, p):
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, v):
    """(a, b)_v by the standard closed formulas.

    +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at v.  Odd p: valuations and quadratic residues; p = 2: units
    modulo 8; real place: signs.
    """
    a = _squareclass_int(a)
    b = _squareclass_int(b)
    _check_place(v)
    if v == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    alpha, u = _vp(a, p)
    beta, w = _vp(b, p)
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and _legendre(-1, p) == -1:
            sign = -sign
        if beta % 2 and _legendre(u, p) == -1:
            sign = -sign
        if alpha % 2 and _legendre(w, p) == -1:
            sign = -sign
        return sign
    eps_u = ((u - 1) // 2) % 2
    eps_w = ((w - 1) // 2) % 2
    omega_u = ((u * u - 1) // 8) % 2
    omega_w = ((w * w - 1) // 8) % 2
    e = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if e % 2 else 1


def _factor(n):
    """{p: e} with |n| the product of the p^e.  Trial division splits off
    the primes below _TRIAL_BOUND, and _large_primes factors what is left."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    # n has no prime factor below d, so if n < d^2 it is 1 or a prime
    if 1 < n < d * d:
        out[n] = 1
    elif n > 1:
        for p in _large_primes(n):
            out[p] = out.get(p, 0) + 1
    return out


def _large_primes(n):
    """The prime factors of n, with multiplicity, for n with no prime factor
    below _TRIAL_BOUND.  is_prime decides each part, and refuses one at or
    above PRIME_BOUND."""
    if is_prime(n):
        return [n]
    f = _rho_divisor(n)
    return _large_primes(f) + _large_primes(n // f)


def _rho_divisor(n):
    """A proper divisor of the composite n, which has no factor below
    _TRIAL_BOUND: Brent's variant of Pollard's rho (R. P. Brent, "An
    improved Monte Carlo factorization algorithm", BIT 20, 1980) on
    y -> y^2 + c from y = 2, for c = 1, 2, ... in turn, so the divisor
    found is the same on every run.  The differences are multiplied
    together in blocks of _RHO_BLOCK, one gcd per block."""
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:
            # the block overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def quaternion_class(a, b):
    """Class of the quaternion algebra (a, b): invariant 1/2 exactly at the
    places where the Hilbert symbol is -1."""
    ai = _squareclass_int(a)
    bi = _squareclass_int(b)
    candidates = {2} | set(_factor(ai)) | set(_factor(bi))
    support = [(_REAL, int(hilbert_symbol(ai, bi, REAL_PLACE) == -1))]
    support += [(p, 1) for p in sorted(candidates) if hilbert_symbol(ai, bi, p) == -1]
    return _vector(None, 2, support)._validate()


def order3_class(primes):
    """The validated class of order dividing 3 with the invariants of a JSON
    "primes" object.  Each invariant must have order dividing 3, in key
    order; then the place of each nonzero one, and reciprocity."""
    residues = primes_from_json(primes, _residue)
    for n, d in residues.values():
        if d not in (1, 3):
            raise OrderViolation(f"invariant {_text(n, d)} does not have order dividing 3")
    support = sorted((p, n * 3 // d) for p, (n, d) in residues.items() if n)
    for p, _ in support:
        _check_place(p)  # so that no key is read as the real place
    return _vector(None, 3, support)._validate()


# ---------------------------------------------------------------------------
# quadratic fields and restriction / corestriction


def _squarefree(n):
    for p, e in _factor(n).items():
        if e >= 2:
            return False
    return True


class QuadField:
    """Q(sqrt(d)) for squarefree d, or the split algebra Q x Q (d = None)."""

    __slots__ = ("d",)

    def __init__(self, d):
        if d is not None and (not isinstance(d, int) or d in (0, 1)
                              or not _squarefree(d)):
            raise ValueError(f"d must be a squarefree integer != 0, 1: {d!r}")
        self.d = d

    def __eq__(self, other):
        if other.__class__ is not QuadField:
            return NotImplemented
        return self.d == other.d

    def __hash__(self):
        return hash(self.d)

    @staticmethod
    def split():
        return QuadField(None)

    @property
    def is_split(self):
        return self.d is None

    @property
    def real_slots(self):
        """Invariant slots at the real place: one per real embedding of K,
        or a single forced-zero slot when the archimedean place is complex."""
        return 2 if (self.is_split or self.d > 0) else 1

    def __repr__(self):
        return "QxQ" if self.is_split else f"Q(sqrt({self.d}))"


def splitting_in_quadratic(K, v):
    """Decomposition of a place of Q in K: split, inert or ramified."""
    _check_place(v)
    if K.is_split:
        return SPLIT
    d = K.d
    if v == REAL_PLACE:
        return SPLIT if d > 0 else INERT
    p = v
    if p == 2:
        if d % 8 == 1:
            return SPLIT
        if d % 8 == 5:
            return INERT
        return RAMIFIED  # d even, or d = 3 mod 4: 2 divides disc(K)
    if d % p == 0:
        return RAMIFIED
    return SPLIT if _legendre(d, p) == 1 else INERT


@lru_cache(maxsize=_INTERNED)
def _slot_count(d, p):
    """Slots over QuadField(d) at p, a prime or _REAL: 2 where p splits, else 1.
    Keyed by d: a QuadField key would run __hash__ and __eq__ on each lookup."""
    return 2 if splitting_in_quadratic(QuadField(d), p or REAL_PLACE) == SPLIT else 1


def _check_slots(K, p, slots):
    """Check that p is a prime place of Q with len(slots) slots over K."""
    _check_place(p)
    expected = _slot_count(K.d, p)
    if len(slots) != expected:
        raise ValueError(f"place {p} needs {expected} slot(s)")


def _slot_lists(u):
    """{p: [n at each slot]} of a class over K, sorted by p: every slot of
    each place in the support, and the real place always."""
    d = u.K.d
    out = {_REAL: [0] * _slot_count(d, _REAL)}
    for (p, slot), n in u._support:
        slots = out.get(p)
        if slots is None:
            slots = out[p] = [0] * _slot_count(d, p)
        slots[slot] = n
    return out


def split_components(u):
    """The two factor classes of a class over split K."""
    if not u.K.is_split:
        raise ValueError("class is not over the split algebra")
    return tuple(_vector(None, u.order, [(p, n) for (p, s), n in u._support if s == slot])
                 for slot in (0, 1))


def restriction(u, K):
    """Base change of a class over Q to K: local degree times the invariant.
    Split places copy it to both slots; inert and ramified places, and the
    real place when K is imaginary, have local degree 2."""
    order = u.order
    support = []
    for p, n in u._support:
        if _slot_count(K.d, p) == 2:
            support += [((p, 0), n), ((p, 1), n)]
        else:
            support.append(((p, 0), 2 * n % order))
    return _vector(K, order, support)


def corestriction(u):
    """Sum of the invariants over the places above each rational place."""
    order = u.order
    support = []
    for (p, _), n in u._support:
        if support and support[-1][0] == p:  # the slots of p are adjacent
            support[-1] = (p, (support[-1][1] + n) % order)
        else:
            support.append((p, n))
    return _vector(None, order, support)


def admits_unitary_involution(u):
    """A class over K supports an involution of the second kind over Q
    exactly when its corestriction is split."""
    return is_split(corestriction(u))


def chatelet_kernel(u):
    """Multiples 0, u, 2u, ... up to the order of u: the classes killed by
    the function field of the associated twisted projective space."""
    return [power(u, t) for t in range(u.order)]


def decompose_degree6(u):
    """Split a class of order dividing 6 into its 2-part and 3-part.

    C = 3u has order dividing 2, D = 4u has order dividing 3, and C x D
    recovers u.
    """
    if 6 % u.order:
        raise OrderViolation("class does not have order dividing 6")
    C = power(u, 3)
    D = power(u, 4)
    return C, D


# ---------------------------------------------------------------------------
# JSON forms used by the CLI


def to_json(u):
    if u.K is not None:
        raise FieldMismatch(f"to_json takes a class over Q, not over {u.K}: use to_json_K")
    order, support = u.order, u._support
    out = {"primes": {str(p): _text(n, order) for p, n in support if p != _REAL}}
    if support and support[0][0] == _REAL:
        out["inf"] = _text(support[0][1], order)
    return out


def _check_rational(x):
    if type(x) is not int and not isinstance(x, str):
        raise Dp6kitError(f"rational must be a JSON string or integer, got {x!r}")


def parse_rational(x):
    """A rational number from JSON: an integer or a string such as "5/6".
    Floats, booleans, lists and zero denominators are refused."""
    _check_rational(x)
    try:
        return _fraction(x)
    except ZeroDivisionError:
        raise Dp6kitError(f"rational must be a JSON fraction with a nonzero "
                          f"denominator, got {x!r}") from None


@lru_cache(maxsize=_INTERNED, typed=True)
def _residue_of(x):
    f = parse_rational(x)
    return f.numerator % f.denominator, f.denominator


def _residue(x):
    """A JSON rational mod 1 as ints (n, d) in lowest terms, 0 <= n < d,
    with parse_rational's checks; each distinct value is parsed once."""
    _check_rational(x)
    return _residue_of(x)


def primes_from_json(primes, parse):
    """{p: parse(value)} from a JSON "primes" object.  Each key must be the
    canonical decimal of its integer, so no prime is named by two keys."""
    if not isinstance(primes, dict):
        raise Dp6kitError(f'"primes" must be a JSON object, got {primes!r}')
    out = {}
    for key, value in primes.items():
        p = int(key)
        if str(p) != key:
            raise Dp6kitError(f"prime key {key!r} is not the canonical decimal {p}")
        out[p] = parse(value)
    return out


# Validated classes by the exact content of their JSON payload (see
# _INTERNED for how often a payload repeats).
_classes = {}


def _interned(decode, key, obj):
    """decode(obj), remembered under key, the exact content of obj.  A
    payload with no key (None) takes the uncached route, and a refusal
    raises each time: it is never remembered.  The oldest entry goes once
    _INTERNED are kept."""
    if key is None:
        return decode(obj)
    u = _classes.get(key)
    if u is None:
        u = decode(obj)
        if len(_classes) >= _INTERNED:
            del _classes[next(iter(_classes))]
        _classes[key] = u
    return u


def _json_key(obj):
    """The exact content of a class payload over Q whose invariants are
    all JSON strings, as a hashable key; None for any other payload.  The
    types are checked exactly, since 1, True and 1.0 are equal keys."""
    if type(obj) is not dict:
        return None
    inf, primes = obj.get("inf", "0"), obj.get("primes", {})
    if type(inf) is not str or type(primes) is not dict:
        return None
    items = tuple(primes.items())
    for p, f in items:
        if type(p) is not str or type(f) is not str:
            return None
    return inf, items


def from_json(obj):
    """The validated class of a JSON payload {"inf": .., "primes": {..}};
    each distinct payload of string invariants is decoded once."""
    return _interned(_from_json, _json_key(obj), obj)


def _payload(obj):
    """A class payload, which must be a JSON object."""
    if not isinstance(obj, dict):
        raise Dp6kitError(f"class payload must be a JSON object, got {obj!r}")
    return obj


def _from_json(obj):
    real = _residue(_payload(obj).get("inf", "0"))
    primes = sorted(primes_from_json(obj.get("primes", {}), _residue).items())
    for p, _ in primes:
        _check_place(p)
    entries = [(_REAL, real), *primes]
    order = lcm(*(d for _, (_, d) in entries))
    return _vector(None, order,
                   [(v, n * (order // d)) for v, (n, d) in entries])._validate()


def to_json_K(u):
    order, slots = u.order, _slot_lists(u)
    real = slots.pop(_REAL)
    return {"d": u.K.d, "inf": [_text(n, order) for n in real],
            "primes": {str(p): [_text(n, order) for n in s] for p, s in slots.items()}}


def _slots_json(slots):
    """Per-slot invariants over a quadratic field, a JSON array of
    rationals, as _residue pairs."""
    if not isinstance(slots, list):
        raise Dp6kitError(f"slot invariants must be a JSON array, got {slots!r}")
    return [_residue(f) for f in slots]


def _json_key_K(obj):
    """The exact content of a class payload over K with an int d and every
    invariant in a list of JSON strings, as a hashable key (a 3-tuple, so
    never equal to a _json_key); None for any other payload."""
    if type(obj) is not dict:
        return None
    d, inf, primes = obj.get("d"), obj.get("inf", []), obj.get("primes", {})
    if type(d) is not int or type(primes) is not dict:
        return None
    for p in primes:
        if type(p) is not str:
            return None
    for values in (inf, *primes.values()):
        if type(values) is not list:
            return None
        for f in values:
            if type(f) is not str:
                return None
    return d, tuple(inf), tuple([(p, tuple(slots)) for p, slots in primes.items()])


def from_json_K(obj):
    """The validated class over K of a JSON payload {"d": .., "inf": [..],
    "primes": {..}}; each distinct payload of string invariants is decoded
    once."""
    return _interned(_from_json_K, _json_key_K(obj), obj)


def _from_json_K(obj):
    K = QuadField(_payload(obj).get("d"))
    real = _slots_json(obj.get("inf", [])) or [(0, 1)] * K.real_slots
    primes = sorted(primes_from_json(obj.get("primes", {}), _slots_json).items())
    for p, slots in primes:
        _check_slots(K, p, slots)
    if len(real) != K.real_slots:
        raise ValueError("wrong number of real slots for this field")
    entries = [(_REAL, real), *primes]
    order = lcm(*(d for _, slots in entries for _, d in slots))
    return _vector(K, order, [((v, i), n * (order // d)) for v, slots in entries
                              for i, (n, d) in enumerate(slots)])._validate()
