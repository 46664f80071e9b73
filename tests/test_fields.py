import random
from fractions import Fraction

import pytest

from dp6kit.errors import DivisionByZero, Dp6kitError, FieldMismatch
from dp6kit.fields import (GF, PRIME_BOUND, _pmod, _pmul, embed, format_element,
                           is_prime, mat_det_field, mat_kernel, mat_solve, parse_element,
                           poly_divmod, poly_eval, poly_gcd_monic, poly_is_squarefree,
                           poly_mul, poly_roots, retract, rref)

FIELDS = [GF(2), GF(7), GF(2, 2), GF(3, 2), GF(2, 6)]


def _sample(field, rng):
    return field.from_code(rng.randrange(field.size))


def test_basic_examples():
    assert GF(7).from_int(3).inverse() == GF(7).from_int(5)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_field_axioms_random(field):
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (_sample(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert field.one / a * a == field.one


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        GF(5).zero.inverse()
    with pytest.raises(DivisionByZero):
        GF(5).one / GF(5).zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF(2).one + GF(3).one
    with pytest.raises(FieldMismatch):
        GF(2, 2).one * GF(2, 3).one


def test_field_too_large_for_tables_is_refused_at_once():
    with pytest.raises(ValueError, match="too large"):
        GF(2, 30)  # no degree-30 irreducible search, no 2^30-entry tables


def test_find_irreducible_examples():
    assert GF(2).modulus == (0, 1)
    assert GF(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert GF(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def _all_monic(field, deg):
    from itertools import product
    for tail in product(range(field.size), repeat=deg):
        yield tuple(field.from_code(c) for c in tail) + (field.one,)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                 (3, 2), (3, 4), (5, 3), (7, 2), (13, 1)])
def test_find_irreducible_verified_by_divisor_search(p, k):
    # independent oracle: trial division by every lower-degree monic
    base = GF(p)
    f = tuple(base.from_int(c) for c in GF(p, k).modulus)
    assert len(f) == k + 1 and f[-1] == base.one
    for d in range(1, k):
        for g in _all_monic(base, d):
            _, rem = poly_divmod(f, g, base)
            assert rem, f"irreducible output divisible by degree-{d} factor"
    # and no roots in F_{p^d} for proper divisors d of k
    for d in range(1, k):
        if k % d:
            continue
        ext = GF(p, d)
        lifted = tuple(embed(c, ext) for c in f)
        assert not poly_roots(lifted, ext)


def test_frobenius_examples():
    F4 = GF(2, 2)
    t = F4.from_code(2)  # the class of x
    assert F4.one ** 2 == F4.one
    assert t ** 2 == t + F4.one  # t^2 = t + 1
    assert (t ** 2) ** 2 == t


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 6)])
def test_frobenius_is_field_automorphism(p, k):
    """x -> x^p is additive and multiplicative, its k-th iterate is the
    identity, and its fixed field is F_p."""
    field = GF(p, k)
    rng = random.Random(7)
    for _ in range(200):
        a = field.from_code(rng.randrange(field.size))
        b = field.from_code(rng.randrange(field.size))
        assert (a + b) ** p == a ** p + b ** p
        assert (a * b) ** p == a ** p * b ** p
    for c in range(field.size):
        x = field.from_code(c)
        y = x
        for _ in range(k):
            y = y ** p
        assert y == x
    fixed = [c for c in range(field.size)
             if field.from_code(c) ** p == field.from_code(c)]
    assert len(fixed) == p


def test_embed_retract_roundtrip():
    F4, F64 = GF(2, 2), GF(2, 6)
    for c in range(4):
        x = F4.from_code(c)
        assert retract(embed(x, F64), F4) == x
    with pytest.raises(FieldMismatch):
        embed(GF(2, 2).one, GF(2, 3))  # 2 does not divide 3


def test_serialization():
    t = GF(2, 2).from_code(2)
    assert format_element(t) == "[0,1]@2^2"
    assert parse_element("[0,1]@2^2") == t
    assert format_element(Fraction(5, 6)) == "5/6"
    assert parse_element("5/6") == Fraction(5, 6)
    assert parse_element(format_element(GF(7).from_int(3))) == GF(7).from_int(3)


def test_poly_utilities():
    F3 = GF(3)
    f = tuple(F3.from_int(n) for n in (1, 0, 1))  # x^2 + 1, irreducible mod 3
    g = tuple(F3.from_int(n) for n in (2, 1))
    q, r = poly_divmod(poly_mul(f, g, F3), g, F3)
    assert q == f and not r
    assert poly_gcd_monic(f, g, F3) == (F3.one,)
    assert poly_is_squarefree(f, F3)
    sq = poly_mul(g, g, F3)
    assert not poly_is_squarefree(sq, F3)
    assert poly_eval(f, F3.from_int(0), F3) == F3.one


def test_linear_algebra_over_fields():
    F5 = GF(5)
    rows = [[F5.from_int(1), F5.from_int(2)], [F5.from_int(2), F5.from_int(4)]]
    assert mat_det_field(rows, F5) == F5.zero
    ker = mat_kernel(rows, 2, F5)
    assert len(ker) == 1
    sol = mat_solve([[F5.from_int(2)]], [F5.from_int(3)], F5)
    assert sol[0] * F5.from_int(2) == F5.from_int(3)
    r, pivots = rref([[F5.from_int(n) for n in row] for row in ((2, 4), (1, 2))], F5)
    assert pivots == [0]


# ---------------------------------------------------------------------------
# the table arithmetic against the tuple-polynomial oracle

SMALL = [GF(2), GF(2, 2), GF(2, 3), GF(2, 4), GF(3), GF(3, 2), GF(3, 3),
         GF(5, 2), GF(7)]


def _tuple_product(field, a, b):
    prod = _pmod(_pmul(a.coeffs, b.coeffs, field.p), field.modulus, field.p)
    return prod + (0,) * (field.k - len(prod))


@pytest.mark.parametrize("field", SMALL, ids=repr)
def test_every_pair_matches_tuple_arithmetic(field):
    p = field.p
    elems = field.elements()
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == _tuple_product(field, a, b)
            pairs = list(zip(a.coeffs, b.coeffs))
            assert (a + b).coeffs == tuple((x + y) % p for x, y in pairs)
            assert (a - b).coeffs == tuple((x - y) % p for x, y in pairs)


@pytest.mark.parametrize("field", SMALL, ids=repr)
def test_inverse_negation_and_powers(field):
    for x in field.elements():
        assert -x + x == field.zero
        if x:
            assert x * x.inverse() == field.one
            assert field.one / x == x.inverse()
        acc = field.one
        for n in range(2 * field.size + 1):
            assert x ** n == acc
            acc = acc * x
        if x:
            acc = field.one
            for n in range(1, 4):
                acc = acc * x.inverse()
                assert x ** -n == acc
        else:
            with pytest.raises(DivisionByZero):
                x ** -1


@pytest.mark.parametrize("field", SMALL, ids=repr)
def test_subtraction_is_addition_of_the_negative(field):
    one = field.one
    for a in field.elements():
        assert a - 1 == a + (-one) and 1 - a == one + (-a)
        for n in (0, 2, -3, field.p + 1):
            assert a - n == a + (-field.from_int(n))
            assert n - a == field.from_int(n) + (-a)
        for b in field.elements():
            assert a - b == a + (-b)


@pytest.mark.parametrize("field", SMALL, ids=repr)
def test_codes_and_coefficients_agree(field):
    elems = field.elements()
    assert [x.code for x in elems] == list(range(field.size))
    assert [field.elem(x.coeffs) for x in elems] == elems


@pytest.mark.parametrize("field", [GF(2, 4), GF(3, 3), GF(5, 2), GF(2, 6)], ids=repr)
def test_products_match_sympy_galoistools(field):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    p = field.p
    modulus = list(reversed(field.modulus))  # sympy lists the leading coefficient first
    rng = random.Random(11)
    for _ in range(300):
        a = field.from_code(rng.randrange(field.size))
        b = field.from_code(rng.randrange(field.size))
        prod = galoistools.gf_rem(galoistools.gf_mul(list(reversed(a.coeffs)),
                                                     list(reversed(b.coeffs)), p, ZZ),
                                  modulus, p, ZZ)
        want = tuple(reversed(prod)) + (0,) * (field.k - len(prod))
        assert (a * b).coeffs == want


# ---------------------------------------------------------------------------
# is_prime: trial division below 43^2, Miller-Rabin to 13 bases up to the bound


def trial_division_is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(-5, 10**5) if is_prime(n) != trial_division_is_prime(n)] == []


def _chernick_carmichael(k):
    """(6k+1)(12k+1)(18k+1), a Carmichael number when all three are prime."""
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


# Strong pseudoprimes to the first 4, 11 and 12 prime bases (the last one
# passes every base up to 37, so only the base 41 exposes it), the primes
# 2^61 - 1 and 2^79 - 67, and the largest n below the bound.
HARD_CASES = (3215031751, 3825123056546413051, 318665857834031151167461,
              2**61 - 1, 2**79 - 67, PRIME_BOUND - 1)


def test_is_prime_matches_sympy_on_20_to_24_digits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    ks = [k for k in range(10**6, 10**6 + 3000)
          if all(sympy.isprime(m * k + 1) for m in (6, 12, 18))][:3]
    carmichael = [_chernick_carmichael(k) for k in ks]
    assert len(carmichael) == 3 and all(10**21 <= n < 10**22 for n in carmichael)
    randoms = [rng.randrange(10**19, PRIME_BOUND) for _ in range(300)]
    primes = [sympy.nextprime(n) for n in randoms[:40]]
    semiprimes = [sympy.nextprime(n) * sympy.nextprime(n + 10**9)
                  for n in (10**10, 3 * 10**11, 10**12)]
    cases = carmichael + randoms + primes + semiprimes + list(HARD_CASES)
    assert [n for n in cases if is_prime(n) != sympy.isprime(n)] == []
    assert sum(map(is_prime, cases)) >= 40


def test_is_prime_refuses_at_the_bound():
    assert is_prime(PRIME_BOUND - 1) is False
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
        with pytest.raises(Dp6kitError) as exc:
            is_prime(n)
        assert str(exc.value) == (f"{n} is too large: primality is decided only "
                                  f"below {PRIME_BOUND}")
