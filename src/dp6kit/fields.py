"""Exact arithmetic foundation: prime fields and their small extensions.

Every value is immutable and every operation is exact; the package contains
no floating point anywhere.  F_{p^k} is presented over the prime field with
one fixed defining polynomial per (p, k), chosen as the lexicographically
smallest monic irreducible, so serialized elements are reproducible across
runs.

An element of F_{p^k} is an integer code in range(p^k): the coefficients
(c0, ..., c_{k-1}) of its polynomial representative read as base-p digits,
c0 least significant.  The code order is the canonical element order.  Each
field builds three int tables once, by walking the powers of g, its
smallest-code primitive element (Zech logarithms; K. Huber, "Some comments
on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990):

* ``exp[i]`` is the code of g^i, stored for 0 <= i < 2(Q - 1), twice over,
  so the sum of two logarithms needs no reduction;
* ``log[c]`` is the logarithm of the nonzero code c, the inverse of ``exp``;
* ``zech[n]`` is log(1 + g^n), or -1 where 1 + g^n = 0.

Then g^i * g^j = g^(i + j) and g^i + g^j = g^(i + zech[j - i]), so every
operation on elements is a few list lookups and no polynomial arithmetic.

The module also provides univariate polynomial helpers and dense linear
algebra over any of these fields (elements only need +, -, *, / and ==).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

from .errors import DivisionByZero, Dp6kitError, FieldMismatch, InvariantViolation

# The 13 primes up to 41.  Trial division by them decides every n < 43^2,
# with no pow; above that, the strong probable-prime test to these bases is
# exact for n < PRIME_BOUND (J. Sorenson and J. Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, exactly.  n >= PRIME_BOUND is refused
    with Dp6kitError, since no test here is proven exact that far."""
    if n >= PRIME_BOUND:
        raise Dp6kitError(f"{n} is too large: primality is decided only "
                          f"below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# internal polynomial arithmetic on int-coefficient tuples modulo p: the
# irreducibility search and the one-time walk that builds a field's tables


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


def _int_poly_is_irreducible(f, p):
    """Trial division of the monic int-tuple poly f by all lower-degree monics."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            if not _pdivmod(f, g, p)[1]:
                return False
    return True


@lru_cache(maxsize=None)
def _find_irreducible_ints(p, k):
    """Coefficients (c0..c_{k-1}, 1) of the lexicographically smallest monic
    irreducible of degree k over F_p (lex on (c0, ..., c_{k-1}))."""
    for tail in product(range(p), repeat=k):
        f = tuple(tail) + (1,)
        if _int_poly_is_irreducible(f, p):
            return f
    raise InvariantViolation("no irreducible polynomial found")  # unreachable


def _ppow(a, n, m, p):
    out = (1,)
    for bit in bin(n)[2:]:
        out = _pmod(_pmul(out, out, p), m, p)
        if bit == "1":
            out = _pmod(_pmul(out, a, p), m, p)
    return out


def _log_tables(p, k, modulus):
    """(exp, log, zech) of F_p[x]/(modulus) on its smallest-code primitive
    element g: the first candidate in code order with g^((Q-1)/r) != 1 for
    every prime r | Q - 1, whose powers are then walked once."""
    Q = p ** k
    weights = [p ** i for i in range(k)]
    cofactors = [(Q - 1) // r for r in range(2, Q) if (Q - 1) % r == 0 and is_prime(r)]
    for cand in range(1, Q):
        g = tuple(cand // w % p for w in weights)
        if all(_ppow(g, e, modulus, p) != (1,) for e in cofactors):
            break
    exp, power = [1], (1,)
    for _ in range(Q - 2):
        power = _pmod(_pmul(power, g, p), modulus, p)
        exp.append(sum(c * w for c, w in zip(power, weights)))
    log = [0] * Q
    for i, c in enumerate(exp):
        log[c] = i
    # 1 + c only changes the lowest digit of c
    plus_one = (c - c % p + (c + 1) % p for c in exp)
    zech = [log[s] if s else -1 for s in plus_one]
    return exp + exp, log, zech


# ---------------------------------------------------------------------------
# field objects


class FFElem:
    """Element of F_{p^k}: its field and its integer code; every operation is
    a few lookups in the field's exp/log/Zech tables."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def _code_of(self, other):
        # the code of an operand: an element of the same field, or an int
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise FieldMismatch(f"mixed fields {self.field} and {other.field}")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        raise FieldMismatch(f"cannot combine {other!r} with {self!r}")

    def __add__(self, other):
        f = self.field
        return FFElem(f, f._add(self.code, self._code_of(other)))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FFElem(f, f._neg(self.code))

    def __sub__(self, other):
        f = self.field
        return FFElem(f, f._add(self.code, f._neg(self._code_of(other))))

    def __rsub__(self, other):
        f = self.field
        return FFElem(f, f._add(self._code_of(other), f._neg(self.code)))

    def __mul__(self, other):
        f = self.field
        b = self._code_of(other)
        if not (self.code and b):
            return f.zero
        return FFElem(f, f.exp[f.log[self.code] + f.log[b]])

    __rmul__ = __mul__

    def inverse(self):
        f = self.field
        if not self.code:
            raise DivisionByZero("inverse of zero in " + repr(f))
        return FFElem(f, f.exp[f.size - 1 - f.log[self.code]])

    def __truediv__(self, other):
        return self * FFElem(self.field, self._code_of(other)).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        f = self.field
        if not self.code:
            if n < 0:
                raise DivisionByZero("inverse of zero in " + repr(f))
            return f.zero if n else f.one
        return FFElem(f, f.exp[f.log[self.code] * n % (f.size - 1)])

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.field.p
        return (isinstance(other, FFElem) and other.field is self.field
                and other.code == self.code)

    def __hash__(self):
        return hash(self.code)

    def __bool__(self):
        return self.code != 0

    @property
    def coeffs(self):
        """Coefficients (c0, ..., c_{k-1}) over the prime field: the base-p
        digits of the code."""
        p, c = self.field.p, self.code
        return tuple(c // p ** i % p for i in range(self.field.k))

    def __repr__(self):
        return format_element(self)


# the three tables cost about 90 bytes per element
_MAX_FIELD_SIZE = 1 << 22


def check_field_size(p, k):
    """Refuse GF(p^k) when its tables would pass _MAX_FIELD_SIZE elements."""
    if p ** k > _MAX_FIELD_SIZE:
        raise ValueError(f"GF({p}^{k}) is too large for its log tables "
                         f"(more than {_MAX_FIELD_SIZE} elements)")


class FiniteField:
    """F_{p^k} = F_p[x]/(m(x)) with the canonical defining polynomial m and
    its exp/log/Zech tables (see the module docstring).

    Instances are interned per (p, k) through GF(); always compare by identity.
    """

    def __init__(self, p, k):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("degree must be >= 1")
        check_field_size(p, k)
        self.p = p
        self.k = k
        self.size = p ** k
        self.modulus = _find_irreducible_ints(p, k)  # length k+1, monic
        self.exp, self.log, self.zech = _log_tables(p, k, self.modulus)
        self.zero = FFElem(self, 0)
        self.one = FFElem(self, 1)

    def _add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[self.log[b] - la]  # a negative index wraps mod Q - 1
        return self.exp[la + z] if z >= 0 else 0

    def _neg(self, a):
        # -1 is the constant p - 1
        return self.exp[self.log[a] + self.log[self.p - 1]] if a else 0

    def from_int(self, n):
        return FFElem(self, n % self.p)

    def elem(self, coeffs):
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) != self.k:
            raise ValueError(f"need exactly {self.k} coefficients")
        return FFElem(self, sum(c * self.p ** i for i, c in enumerate(coeffs)))

    def from_code(self, c):
        return FFElem(self, c % self.size)

    def elements(self):
        """All elements in code order (deterministic)."""
        return [FFElem(self, c) for c in range(self.size)]

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def _gf_cached(p, k):
    return FiniteField(p, k)


def GF(p, k=1):
    return _gf_cached(p, k)


@lru_cache(maxsize=None)
def _embedding_log(src, tgt):
    # log in tgt of the image of src's primitive element under the embedding
    # that sends x to the smallest-code root of src's defining polynomial
    if src.p != tgt.p or tgt.k % src.k:
        raise FieldMismatch(f"no embedding {src} -> {tgt}")
    modulus = [tgt.from_int(c) for c in src.modulus]
    root = next(x for x in tgt.elements() if not poly_eval(modulus, x, tgt))
    g = [tgt.from_int(c) for c in FFElem(src, src.exp[1]).coeffs]
    return tgt.log[poly_eval(g, root, tgt).code]


def embed(x, target):
    """Canonical embedding F_{p^j} -> F_{p^k} for j | k (smallest-code root)."""
    if not isinstance(x, FFElem):
        raise FieldMismatch("embed expects a finite-field element")
    src = x.field
    if src is target:
        return x
    e = _embedding_log(src, target)
    if not x.code:
        return target.zero
    return FFElem(target, target.exp[e * src.log[x.code] % (target.size - 1)])


@lru_cache(maxsize=None)
def _retraction_table(src, tgt):
    return {embed(e, tgt).code: e for e in src.elements()}


def retract(x, source):
    """Inverse of embed() on its image; raises if x is not in the subfield."""
    table = _retraction_table(source, x.field)
    try:
        return table[x.code]
    except KeyError:
        raise FieldMismatch(f"{x!r} is not in {source}") from None


# ---------------------------------------------------------------------------
# serialization: rationals as "a/b", finite-field elements as "[c0,..]@p^k"

_FF_RE = re.compile(r"^\[([0-9,\s]*)\]@(\d+)\^(\d+)$")


def format_element(x):
    if isinstance(x, FFElem):
        return "[" + ",".join(str(c) for c in x.coeffs) + f"]@{x.field.p}^{x.field.k}"
    # rationals only: a surface command never loads fractions
    from fractions import Fraction
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise FieldMismatch(f"cannot serialize {x!r}")


def parse_element(s):
    s = s.strip()
    m = _FF_RE.match(s)
    if m:
        coeffs = [int(c) for c in m.group(1).split(",")] if m.group(1).strip() else []
        field = GF(int(m.group(2)), int(m.group(3)))
        return field.elem(coeffs)
    from fractions import Fraction
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
    return poly_trim([f[i] * i for i in range(1, len(f))])


def poly_is_squarefree(f, field):
    g = poly_gcd_monic(f, poly_deriv(f, field), field)
    return poly_deg(g) <= 0


def poly_roots(f, field):
    """All roots of f in the finite field, each listed once, in code order:
    an exhaustive search over the field's elements."""
    f = poly_trim(f)
    if poly_deg(f) <= 0:
        return []
    return [x for x in field.elements() if not poly_eval(f, x, field)]


# ---------------------------------------------------------------------------
# dense linear algebra over a finite field (rows are lists of elements)


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
