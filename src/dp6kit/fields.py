"""Exact arithmetic foundation: rationals, prime fields, small extensions.

Every value is immutable and every operation is exact; the package contains
no floating point anywhere.  Rationals are ``fractions.Fraction`` (always in
lowest terms, positive denominator).  F_{p^k} is presented over the prime
field with one fixed defining polynomial per (p, k), chosen as the
lexicographically smallest monic irreducible, so serialized elements are
reproducible across runs.

The module also provides univariate polynomial helpers and dense linear
algebra over any of these fields (elements only need +, -, *, / and ==).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DivisionByZero, FieldMismatch

Rational = Fraction


def is_prime(n):
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


# ---------------------------------------------------------------------------
# internal polynomial arithmetic on int-coefficient tuples modulo p


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim((((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p)
                  for i in range(n))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    # b must be nonzero; works for non-monic b via inverse of lead coeff
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(_ptrim(a)) >= len(b):
        a = list(_ptrim(a))
        d = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        q[d] = c
        for i, bi in enumerate(b):
            a[i + d] = (a[i + d] - c * bi) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _pinv(a, m, p):
    # inverse of a modulo the monic polynomial m, via extended Euclid
    if not _ptrim(a):
        raise DivisionByZero("inverse of zero")
    r0, r1 = _ptrim(m), _ptrim(a)
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pmul(tuple(-c % p for c in q), s1, p), p)
    # r0 is the gcd, a nonzero constant since m is irreducible
    c_inv = pow(r0[0], p - 2, p)
    return _ptrim(tuple((c_inv * c) % p for c in s0))


def _int_poly_is_irreducible(f, p):
    """Trial division of the monic int-tuple poly f by all lower-degree monics."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    from itertools import product as iproduct
    for d in range(1, deg // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            g = tuple(tail) + (1,)
            if not _pdivmod(f, g, p)[1]:
                return False
    return True


@lru_cache(maxsize=None)
def _find_irreducible_ints(p, k):
    """Coefficients (c0..c_{k-1}, 1) of the lexicographically smallest monic
    irreducible of degree k over F_p (lex on (c0, ..., c_{k-1}))."""
    from itertools import product as iproduct
    for tail in iproduct(range(p), repeat=k):
        f = tuple(tail) + (1,)
        if _int_poly_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field objects


class RationalField:
    """Field object for Q; elements are fractions.Fraction."""

    char = 0
    size = None

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FFElem:
    """Element of F_{p^k}, stored as a coefficient tuple over the prime field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # trimmed-free fixed length k tuple

    def _check(self, other):
        if not isinstance(other, FFElem):
            raise FieldMismatch(f"cannot combine {other!r} with {self!r}")
        if other.field is not self.field:
            raise FieldMismatch(f"mixed fields {self.field} and {other.field}")

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        self._check(other)
        return other

    def __add__(self, other):
        o = self._coerce(other)
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        f = self.field
        prod = _pmod(_pmul(self.coeffs, o.coeffs, f.p), f.modulus, f.p)
        return FFElem(f, prod + (0,) * (f.k - len(prod)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero in " + repr(self.field))
        f = self.field
        inv = _pinv(self.coeffs, f.modulus, f.p)
        return FFElem(f, inv + (0,) * (f.k - len(inv)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """x -> x^p, the arithmetic Frobenius over the prime field."""
        return self ** self.field.p

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (isinstance(other, FFElem) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def code(self):
        """Integer code sum(c_i * p^i), a bijection with range(p^k)."""
        c = 0
        for a in reversed(self.coeffs):
            c = c * self.field.p + a
        return c

    def __repr__(self):
        return format_element(self)


class FiniteField:
    """F_{p^k} = F_p[x]/(m(x)) with the canonical defining polynomial m.

    Instances are interned per (p, k) through GF(); always compare by identity.
    """

    def __init__(self, p, k):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.k = k
        self.size = p ** k
        self.char = p
        irr = _find_irreducible_ints(p, k)
        self.modulus = irr  # length k+1, monic
        self.zero = FFElem(self, (0,) * k)
        self.one = FFElem(self, (1,) + (0,) * (k - 1)) if k > 1 else FFElem(self, (1 % p,))

    def from_int(self, n):
        return FFElem(self, (n % self.p,) + (0,) * (self.k - 1))

    def elem(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"need exactly {self.k} coefficients")
        return FFElem(self, coeffs)

    def gen(self):
        """Class of x, a generator of the extension (for k = 1 this is 0)."""
        if self.k == 1:
            return self.zero
        return FFElem(self, (0, 1) + (0,) * (self.k - 2))

    def from_code(self, c):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(c % self.p)
            c //= self.p
        return FFElem(self, tuple(coeffs))

    def elements(self):
        """All elements in code order (deterministic)."""
        return [self.from_code(c) for c in range(self.size)]

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def _gf_cached(p, k):
    return FiniteField(p, k)


def GF(p, k=1):
    return _gf_cached(p, k)


def frobenius(x):
    """x -> x^p on a finite-field element; the k-th iterate is the identity."""
    if not isinstance(x, FFElem):
        raise FieldMismatch("frobenius is defined on finite-field elements")
    return x.frobenius()


@lru_cache(maxsize=None)
def _embedding_root(src, tgt):
    # smallest-code root in tgt of the defining polynomial of src
    if src.p != tgt.p or tgt.k % src.k:
        raise FieldMismatch(f"no embedding {src} -> {tgt}")
    coeffs = [tgt.from_int(c) for c in src.modulus]
    for c in range(tgt.size):
        x = tgt.from_code(c)
        acc = tgt.zero
        for a in reversed(coeffs):
            acc = acc * x + a
        if not acc:
            return x
    raise AssertionError("defining polynomial has no root in the extension")


def embed(x, target):
    """Canonical embedding F_{p^j} -> F_{p^k} for j | k (smallest-code root)."""
    if not isinstance(x, FFElem):
        raise FieldMismatch("embed expects a finite-field element")
    if x.field is target:
        return x
    r = _embedding_root(x.field, target)
    acc = target.zero
    for a in reversed(x.coeffs):
        acc = acc * r + target.from_int(a)
    return acc


@lru_cache(maxsize=None)
def _retraction_table(src, tgt):
    return {embed(e, tgt).coeffs: e for e in src.elements()}


def retract(x, source):
    """Inverse of embed() on its image; raises if x is not in the subfield."""
    table = _retraction_table(source, x.field)
    try:
        return table[x.coeffs]
    except KeyError:
        raise FieldMismatch(f"{x!r} is not in {source}") from None


# ---------------------------------------------------------------------------
# serialization: rationals as "a/b", finite-field elements as "[c0,..]@p^k"

_FF_RE = re.compile(r"^\[([0-9,\s]*)\]@(\d+)\^(\d+)$")


def format_element(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    if isinstance(x, FFElem):
        return "[" + ",".join(str(c) for c in x.coeffs) + f"]@{x.field.p}^{x.field.k}"
    raise FieldMismatch(f"cannot serialize {x!r}")


def parse_element(s):
    s = s.strip()
    m = _FF_RE.match(s)
    if m:
        coeffs = [int(c) for c in m.group(1).split(",")] if m.group(1).strip() else []
        field = GF(int(m.group(2)), int(m.group(3)))
        return field.elem(coeffs)
    return Fraction(s)


# ---------------------------------------------------------------------------
# generic univariate polynomials (tuples of field elements, trimmed)


def poly_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_deg(f):
    return len(f) - 1  # -1 for the zero polynomial


def poly_add(f, g, field):
    n = max(len(f), len(g))
    z = field.zero
    return poly_trim([(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z)
                      for i in range(n)])


def poly_scale(f, c):
    return poly_trim([c * a for a in f])


def poly_mul(f, g, field):
    if not f or not g:
        return ()
    z = field.zero
    out = [z] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(f, g, field):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(f)
    z = field.zero
    q = [z] * max(0, len(f) - len(g) + 1)
    inv_lead = field.one / g[-1]
    while len(poly_trim(f)) >= len(g):
        f = list(poly_trim(f))
        d = len(f) - len(g)
        c = f[-1] * inv_lead
        q[d] = c
        for i, b in enumerate(g):
            f[i + d] = f[i + d] - c * b
    return poly_trim(q), poly_trim(f)


def poly_gcd_monic(f, g, field):
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_divmod(f, g, field)[1]
    if not f:
        return ()
    return poly_scale(f, field.one / f[-1])


def poly_eval(f, x, field):
    acc = field.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_deriv(f, field):
    out = []
    for i in range(1, len(f)):
        c = f[i]
        acc = field.zero
        for _ in range(i):
            acc = acc + c
        out.append(acc)
    return poly_trim(out)


def poly_is_squarefree(f, field):
    g = poly_gcd_monic(f, poly_deriv(f, field), field)
    return poly_deg(g) <= 0


def poly_from_ints(ints, field):
    return poly_trim([field.from_int(n) for n in ints])


def find_irreducible(p, k):
    """The canonical monic irreducible of degree k over F_p, as a polynomial
    over GF(p) (coefficient tuple, constant term first)."""
    f = GF(p)
    return tuple(f.from_int(c) for c in _find_irreducible_ints(p, k))


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def poly_roots(f, field):
    """All roots of f in the field, each listed once, in canonical order.

    Finite fields: exhaustive search in code order.  Over Q: rational-root
    search through divisors after clearing denominators.
    """
    f = poly_trim(f)
    if poly_deg(f) <= 0:
        return []
    if isinstance(field, FiniteField):
        return [x for c in range(field.size)
                if not poly_eval(f, (x := field.from_code(c)), field)]
    # rationals: scale coefficients to integers, then p/q with p | a0, q | an
    den = lcm(*(Fraction(c).denominator for c in f))
    ints = [int(Fraction(c) * den) for c in f]
    a0, an = ints[0], ints[-1]
    roots = set()
    if a0 == 0:
        roots.add(Fraction(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
        a0 = ints[0]
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            for sign in (1, -1):
                r = Fraction(sign * pnum, qden)
                if poly_eval(f, r, QQ) == 0:
                    roots.add(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# dense linear algebra over an exact field (rows are lists of elements)


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def mat_kernel(rows, ncols, field):
    """Canonical basis of the right kernel {x : rows . x = 0}."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(v)
        return basis
    m, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def mat_solve(rows, rhs, field):
    """One solution of rows . x = rhs, or None."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug, field)
    ncols = len(rows[0])
    for row in m:
        if row[-1] and not any(row[:-1]):
            return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = m[i][-1]
    return x


def mat_inv_field(rows, field):
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    m, pivots = rref(aug, field)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def mat_det_field(rows, field):
    m = [list(r) for r in rows]
    n = len(m)
    det = field.one
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return field.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det = det * m[c][c]
        inv = field.one / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det
