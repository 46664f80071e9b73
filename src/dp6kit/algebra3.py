"""Rank-9 algebras with unitary involution over finite fields, through their
symmetric elements.

Both models are M3 over a quadratic etale K.  The surface reads only the
9-dimensional F-space of symmetric elements, and an element of it is one
3x3 matrix:

* split exchange (K = F x F): M3(F) x M3(F) with involution
  (a, b) -> (b^t, a^t); the symmetric elements are the pairs (a, a^t),
  stored as the matrix a over F;
* hermitian (K a field): M3(K) with the conjugate-transpose involution;
  the symmetric elements are the Hermitian matrices over K.

The matrix carries the degree-3 structure on the symmetric space: reduced
trace, the quadratic coefficient and reduced norm.  The adjoint
x# = x^2 - Trd(x) x + S(x), with x x# = Nrd(x), is the adjugate of the
matrix; dp6 expands it into the surface's quadrics.  Every matrix the
module builds is symmetric by construction (a matrix over F, or a Hermitian
matrix over K); tests/test_algebra3.py checks that on the standard twists.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DegenerateSubalgebra, FieldMismatch, InvariantViolation, NotSplitOverBase
from .fields import (GF, embed, mat_det_field, mat_inv_field, mat_kernel, mat_solve,
                     poly_is_squarefree, poly_roots, poly_trim, retract)

SPLIT_EXCHANGE = "split_exchange"
HERMITIAN = "hermitian"


# ---------------------------------------------------------------------------
# quadratic extension bookkeeping for the hermitian model


class _FiniteQuadExt:
    """K = F_{q^2} over F = F_q, conjugation by the q-power Frobenius."""

    def __init__(self, F):
        self.F = F
        self.K = GF(F.p, 2 * F.k)
        self.q = F.size
        self.zero = self.K.zero
        self.one = self.K.one
        self.delta = self._pick_delta()
        # 1 / (delta - conj delta), which coords divides by
        self._dd_inv = (self.delta - self.conj(self.delta)).inverse()

    def _pick_delta(self):
        # smallest-code element with a nontrivial conjugate; together with 1
        # it spans K over the embedded F
        for c in range(self.K.size):
            z = self.K.from_code(c)
            if self.conj(z) != z:
                return z
        raise InvariantViolation("no generator of K over F")

    def embed_base(self, x):
        return embed(x, self.K)

    def conj(self, z):
        return z ** self.q

    def retract_base(self, z):
        return retract(z, self.F)

    def coords(self, z):
        """(u, v) in F with z = u + v * delta, via the conjugate trick:
        v = (z - conj z) / (delta - conj delta), then u = z - v delta."""
        vk = (z - self.conj(z)) * self._dd_inv
        uk = z - vk * self.delta
        return (retract(uk, self.F), retract(vk, self.F))


# ---------------------------------------------------------------------------
# 3x3 matrix helpers over any coefficient ring with dunder arithmetic


def m3_mul(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                       for j in range(3)) for i in range(3))


def m3_trace(a):
    return a[0][0] + a[1][1] + a[2][2]


def m3_det(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def m3_from_entries(entries, zero):
    return tuple(tuple(entries.get((i, j), zero) for j in range(3)) for i in range(3))


def m3_unit(i, j, one, zero):
    return m3_from_entries({(i, j): one}, zero)


# ---------------------------------------------------------------------------
# the two models


class StructureAlgebra:
    """One of the two rank-9 models, through its symmetric space.

    Use build_split_exchange / build_hermitian; the constructor builds the
    unit and the canonical basis of the 9-dimensional symmetric space, each
    a 3x3 matrix over ring: F for the exchange model, the K context
    otherwise.
    """

    def __init__(self, kind, field, ctx=None):
        self.kind = kind
        self.field = field
        self.ctx = ctx
        self.ring = ctx or field
        z, o = self.ring.zero, self.ring.one
        self.one = m3_from_entries({(i, i): o for i in range(3)}, z)
        self.sym_basis = self._make_sym_basis()

    def _make_sym_basis(self):
        if self.kind == SPLIT_EXCHANGE:
            z, o = self.field.zero, self.field.one
            return tuple(m3_unit(i, j, o, z) for i in range(3) for j in range(3))
        ctx = self.ctx
        kz, ko = ctx.zero, ctx.one
        delta, deltac = ctx.delta, ctx.conj(ctx.delta)
        out = [m3_unit(i, i, ko, kz) for i in range(3)]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            out.append(m3_from_entries({(i, j): ko, (j, i): ko}, kz))
            out.append(m3_from_entries({(i, j): delta, (j, i): deltac}, kz))
        return tuple(out)

    # ------------------------------------------------------------------
    # the degree-3 structure on symmetric elements

    def _to_base(self, value):
        return self.ctx.retract_base(value) if self.ctx else value

    def trd_sym(self, x):
        return self._to_base(m3_trace(x))

    def s_sym(self, a):
        # the trace of the adjugate: the sum of the principal 2x2 minors
        return self._to_base(a[0][0] * a[1][1] - a[0][1] * a[1][0]
                             + a[0][0] * a[2][2] - a[0][2] * a[2][0]
                             + a[1][1] * a[2][2] - a[1][2] * a[2][1])

    def nrd_sym(self, x):
        return self._to_base(m3_det(x))

    def sym_matrix_coords(self, m):
        """Coordinates of the symmetric element m in the canonical 9-basis."""
        if self.kind == SPLIT_EXCHANGE:
            return tuple(m[i][j] for i in range(3) for j in range(3))
        ctx = self.ctx
        out = [ctx.retract_base(m[0][0]), ctx.retract_base(m[1][1]),
               ctx.retract_base(m[2][2])]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            u, v = ctx.coords(m[i][j])
            out.append(u)
            out.append(v)
        return tuple(out)

    def sym_from_coords(self, coords):
        """The symmetric element sum c_k e_k over the canonical 9-basis: each
        entry sums only the basis entries that are nonzero there."""
        cs = [self.ctx.embed_base(c) for c in coords] if self.ctx else coords
        return tuple(tuple(sum((c * e[i][j] for c, e in zip(cs, self.sym_basis) if e[i][j]),
                               self.ring.zero) for j in range(3)) for i in range(3))

    def descriptor(self):
        # serialized surfaces record the Hermitian model's field as "finite",
        # not by the model's kind
        kind = self.kind if self.kind == SPLIT_EXCHANGE else "finite"
        return {"kind": kind, "q": self.field.size}


@lru_cache(maxsize=None)
def build_split_exchange(field):
    """(M3(F) x M3(F), exchange involution); the symmetric element (a, a^t)
    is the matrix a over F."""
    return StructureAlgebra(SPLIT_EXCHANGE, field)


@lru_cache(maxsize=None)
def build_hermitian(field):
    """3x3 matrices over K = F_{q^2}, the unique quadratic extension of
    F = F_q, with the conjugate-transpose involution."""
    return StructureAlgebra(HERMITIAN, field, _FiniteQuadExt(field))


# ---------------------------------------------------------------------------
# the trace form and cubic etale subalgebras


def trace_form(A, x, y):
    """b(x, y) = Trd(xy), symmetric and F-valued on symmetric elements: the
    trace of the matrix product, without forming it."""
    return A._to_base(sum((x[i][j] * y[j][i] for i in range(3) for j in range(3)),
                          A.ring.zero))


def gram_matrix(A, elems):
    return [[trace_form(A, x, y) for y in elems] for x in elems]


class CubicSub:
    """Cubic etale F-subalgebra of symmetric elements, with a chosen basis of
    3x3 matrices.

    Monogenic subalgebras record their generator and its (squarefree) minimal
    polynomial; the fully split diagonal over a tiny field is not monogenic,
    so an explicit idempotent basis is also accepted.  The constructor checks
    nothing: cubic_from_generator validates a generator, and diagonal_cubic
    builds the idempotent basis.
    """

    __slots__ = ("algebra", "basis", "generator", "minpoly")

    def __init__(self, algebra, basis, generator=None, minpoly=None):
        self.algebra = algebra
        self.basis = basis
        self.generator = generator
        self.minpoly = minpoly

    def descriptor(self):
        if self.generator is not None:
            return {"generator_minpoly": [str(c) for c in self.minpoly]}
        return {"basis": "idempotents"}


def cubic_from_generator(A, u):
    """L = span(1, u, u^2); etale exactly when the minimal polynomial of u is
    squarefree of degree 3."""
    t = A.trd_sym(u)
    s = A.s_sym(u)
    n = A.nrd_sym(u)
    f = A.field
    minpoly = poly_trim([-n, s, -t, f.one])
    # the minimal polynomial divides the characteristic cubic and has all its
    # roots; over a perfect field (every finite field is) a squarefree cubic
    # therefore is the minimal polynomial, so 1, u, u^2 are independent.  A
    # generator of degree < 3 has a repeated root and fails here.
    if not poly_is_squarefree(minpoly, f):
        raise DegenerateSubalgebra("minimal polynomial is not squarefree")
    return CubicSub(algebra=A, basis=(A.one, u, m3_mul(u, u)), generator=u, minpoly=minpoly)


def orth_complement(L):
    """The 6-dimensional orthogonal complement of L under the trace form."""
    A = L.algebra
    g = gram_matrix(A, L.basis)
    if not mat_det_field(g, A.field):
        raise DegenerateSubalgebra("restricted trace form is degenerate")
    rows = []
    for l in L.basis:
        rows.append([trace_form(A, l, b) for b in A.sym_basis])
    basis_vecs = mat_kernel(rows, 9, A.field)
    out = [A.sym_from_coords(v) for v in basis_vecs]
    if len(out) != 6:
        raise InvariantViolation(f"Lperp has dimension {len(out)}, not 6")
    return out


# ---------------------------------------------------------------------------
# split normalization: conjugating a split commuting family to the diagonal


class SplitCertificate:
    """Conjugator c with c m c^{-1} diagonal for each matrix m of the family."""

    __slots__ = ("conjugator", "inverse")

    def __init__(self, conjugator, inverse):
        self.conjugator = conjugator  # 3x3 over the field of the family
        self.inverse = inverse

    def apply_matrix(self, m):
        return m3_mul(self.conjugator, m3_mul(m, self.inverse))

    def verify(self, mats):
        for m in mats:
            m = self.apply_matrix(m)
            for i in range(3):
                for j in range(3):
                    if i != j and m[i][j]:
                        return False
        return True


def _sq_mul(a, b, n, field):
    return [[sum((a[i][t] * b[t][j] for t in range(n)), field.zero)
             for j in range(n)] for i in range(n)]


def _minpoly_square(R, n, field):
    """Minimal polynomial of an n x n matrix by first dependency of powers."""
    eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    powers = [eye]
    for _ in range(n):
        powers.append(_sq_mul(powers[-1], R, n, field))
    flat = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
    for deg in range(1, n + 1):
        cols = [list(r) for r in zip(*flat[:deg])]
        sol = mat_solve(cols, flat[deg], field)
        if sol is not None:
            return poly_trim(list(-c for c in sol) + [field.one])
    raise InvariantViolation("matrix with no minimal polynomial")


def _split_roots(f, field):
    roots = poly_roots(f, field)
    if len(roots) != len(f) - 1:
        raise NotSplitOverBase(
            "minimal polynomial has an irreducible factor over the base field")
    return roots


def split_normalize(mats, field):
    """Change of basis simultaneously diagonalizing commuting 3x3 matrices.

    mats are the matrices over field of a basis of a cubic etale algebra,
    e.g. a basis of L after base change to a field that splits it.
    NotSplitOverBase if the family does not split into three common
    eigenlines over field.  Deterministic eigenvalue ordering makes the
    certificate reproducible.  Column-vector convention throughout.
    """
    # refine the full space into common eigenlines, one basis matrix at a time
    spaces = [[[field.one if i == j else field.zero for i in range(3)]
               for j in range(3)]]  # each space: list of column vectors
    for m in mats:
        new_spaces = []
        for cols in spaces:
            n = len(cols)
            if n == 1:
                new_spaces.append(cols)
                continue
            # restriction R of m to the span: m . cols[j] = sum_i R[i][j] cols[i]
            bmat = [[cols[j][i] for j in range(n)] for i in range(3)]
            R_cols = []
            for v in cols:
                img = [sum((m[i][t] * v[t] for t in range(3)), field.zero)
                       for i in range(3)]
                sol = mat_solve(bmat, img, field)
                if sol is None:
                    raise InvariantViolation("subspace not invariant under L")
                R_cols.append(sol)
            R = [[R_cols[j][i] for j in range(n)] for i in range(n)]
            for lam in _split_roots(_minpoly_square(R, n, field), field):
                shifted = [[R[i][j] - (lam if i == j else field.zero)
                            for j in range(n)] for i in range(n)]
                vecs = [[sum((kv[t] * cols[t][i] for t in range(n)), field.zero)
                         for i in range(3)]
                        for kv in mat_kernel(shifted, n, field)]
                new_spaces.append(vecs)
        spaces = new_spaces
        if all(len(s) == 1 for s in spaces):
            break
    if len(spaces) != 3 or any(len(s) != 1 for s in spaces):
        raise NotSplitOverBase("could not split into three common eigenlines")
    # order eigenlines deterministically by their joint eigenvalue word
    keyed = []
    for s in spaces:
        v = s[0]
        pivot = next(i for i in range(3) if v[i])
        pinv = field.one / v[pivot]
        v = [x * pinv for x in v]
        key = []
        for m in mats:
            img = [sum((m[i][t] * v[t] for t in range(3)), field.zero)
                   for i in range(3)]
            key.append(img[pivot].code)
        keyed.append((tuple(key), v))
    keyed.sort(key=lambda kv: kv[0])
    P_cols = [v for _, v in keyed]
    P = tuple(tuple(P_cols[j][i] for j in range(3)) for i in range(3))
    P_inv_rows = mat_inv_field([list(r) for r in P], field)
    if P_inv_rows is None:
        raise NotSplitOverBase("eigenvectors are not independent")
    c = tuple(tuple(r) for r in P_inv_rows)
    cert = SplitCertificate(conjugator=c, inverse=P)
    if not cert.verify(mats):
        raise InvariantViolation("normalization certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# deterministic generators for the standard cubic subalgebras


def companion_matrix(coeffs, field):
    """Companion of the monic cubic t^3 + c2 t^2 + c1 t + c0 (coeffs c0,c1,c2)."""
    z, o = field.zero, field.one
    c0, c1, c2 = coeffs
    return ((z, z, -c0), (o, z, -c1), (z, o, -c2))


def diagonal_cubic(A):
    """The diagonal subalgebra: monogenic when the field has three distinct
    elements forming a squarefree cubic, idempotent basis otherwise.

    The idempotent basis (over GF(2)) is built without re-checking it: the
    diagonal units e_i are symmetric, e_i e_j = delta_ij e_i, so they commute
    and span a subalgebra closed under products, e_1 + e_2 + e_3 = 1, and
    Trd(e_i e_j) = delta_ij makes the restricted Gram matrix the identity.
    So they span a cubic etale subalgebra isomorphic to F x F x F."""
    f, r = A.field, A.ring
    if f.size >= 3:
        vals = [f.from_code(c) for c in range(3)]
        if A.ctx:
            vals = [A.ctx.embed_base(v) for v in vals]
        return cubic_from_generator(A, m3_from_entries({(i, i): vals[i] for i in range(3)},
                                                       r.zero))
    return CubicSub(A, tuple(m3_unit(i, i, r.one, r.zero) for i in range(3)))


def hermitian_cubic_generator(A, root_counts):
    """Deterministic search for a Hermitian generator whose minimal cubic has
    the requested number of roots in the base field (3, 1 or 0).

    Candidates are walked in code order and the first match is recorded in
    the resulting CubicSub, which keeps serialized surfaces reproducible.
    The code's digits, least significant first, are the three diagonal
    entries (base q) and the (0,1), (0,2), (1,2) entries (base q^2).

    The walk skips a prefix of candidates that cannot match.  A candidate
    with an index whose off-diagonal entries are all zero is block diagonal
    there, so that index's diagonal entry, which lies in F, is a root of its
    characteristic cubic:
    * root_counts == 1 starts at code q^3.  Below it every off-diagonal
      entry is zero, so the cubic is (t - d0)(t - d1)(t - d2) with d_i in F:
      three roots in F, or not squarefree (a repeated d_i).
    * root_counts == 0 starts at code q^5 + q^3.  Below q^5 the (0,2) and
      (1,2) entries are zero and index 2 decouples; on [q^5, q^5 + q^3) only
      the (0,2) entry is nonzero and index 1 decouples.  Either way the cubic
      has a root in F.
    The skipped candidates are exactly those the code-order walk from 0
    would reject, so the first match, and every serialized surface, is the
    same as for a walk from 0 (tests/test_algebra3.py checks both ranges).
    """
    if A.kind != HERMITIAN:
        raise FieldMismatch("expects the hermitian model")
    f = A.field
    ctx = A.ctx
    q = f.size
    start = {1: q ** 3, 0: q ** 5 + q ** 3}.get(root_counts, 0)
    for code in range(start, q ** 3 * ctx.K.size ** 3):
        c = code
        diag = []
        for _ in range(3):
            diag.append(f.from_code(c % q))
            c //= q
        off = []
        for _ in range(3):
            off.append(ctx.K.from_code(c % ctx.K.size))
            c //= ctx.K.size
        entries = {(i, i): ctx.embed_base(diag[i]) for i in range(3)}
        entries[(0, 1)], entries[(1, 0)] = off[0], ctx.conj(off[0])
        entries[(0, 2)], entries[(2, 0)] = off[1], ctx.conj(off[1])
        entries[(1, 2)], entries[(2, 1)] = off[2], ctx.conj(off[2])
        u = m3_from_entries(entries, ctx.zero)
        try:
            L = cubic_from_generator(A, u)
        except DegenerateSubalgebra:
            continue
        roots = poly_roots(L.minpoly, f)
        if len(roots) == root_counts:
            return L
    raise DegenerateSubalgebra("no generator with the requested factorization")
