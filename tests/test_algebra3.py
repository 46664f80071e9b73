import ast
import itertools
import random
from pathlib import Path

import pytest

import dp6kit
from dp6kit.algebra3 import (HERMITIAN, build_hermitian, build_split_exchange,
                             companion_matrix, cubic_from_generator, diagonal_cubic,
                             gram_matrix, hermitian_cubic_generator, m3_from_entries,
                             m3_mul, m3_trace, m3_unit, orth_complement, split_normalize,
                             trace_form)
from dp6kit.dp6 import _parse_prime_power, standard_twists
from dp6kit.errors import DegenerateSubalgebra, NotSplitOverBase
from dp6kit.fields import GF, mat_det_field, poly_is_squarefree, poly_roots, rref


def adjugate(a):
    """Classical adjugate of a 3x3 matrix: adj(a)[i][j] = cofactor_{ji}.  On
    a symmetric element it is the adjoint x#."""
    def cof(r, c):
        r1, r2 = [t for t in range(3) if t != r]
        c1, c2 = [t for t in range(3) if t != c]
        minor = a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1]
        return minor if (r + c) % 2 == 0 else -minor
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


# matrix arithmetic the package does not need, for the identities below


def _add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def _scale(A, c, a):
    """c a for a base-field scalar c (embedded into K in the Hermitian model)."""
    c = A.ctx.embed_base(c) if A.ctx else c
    return tuple(tuple(c * x for x in row) for row in a)


def _is_zero(a):
    return not any(x for row in a for x in row)


def _conj_transpose(B, a):
    return tuple(tuple(B.ctx.conj(a[j][i]) for j in range(3)) for i in range(3))


def _rand_matrix(field, rng):
    return tuple(tuple(field.from_code(rng.randrange(field.size))
                       for _ in range(3)) for _ in range(3))


def test_elements_are_matrices():
    """An element of the symmetric space is its 3x3 matrix over the model's
    coefficient ring, and a Hermitian-model matrix is Hermitian."""
    tree = ast.parse((Path(dp6kit.__file__).parent / "algebra3.py").read_text())
    assert {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} == \
        {"_FiniteQuadExt", "StructureAlgebra", "CubicSub", "SplitCertificate"}
    for q in (2, 3, 4):
        for name, surface in standard_twists(GF(*_parse_prime_power(q))).items():
            A = surface.algebra
            ring = A.ctx.K if A.ctx else A.field
            assert len(A.sym_basis) == 9
            mats = [A.one, *A.sym_basis, *surface.cubic.basis, *surface.coord_basis]
            for m in mats:
                assert isinstance(m, tuple) and len(m) == 3, (q, name)
                for row in m:
                    assert isinstance(row, tuple) and len(row) == 3, (q, name)
                    assert all(x.field is ring for x in row), (q, name)
                if A.kind == HERMITIAN:
                    assert _conj_transpose(A, m) == m, (q, name)


def _rand_base(A, rng):
    return A.field.from_code(rng.randrange(A.field.size))


# the closed forms on the matrix against the matrix arithmetic they replace,
# on both models over GF(2), GF(3), GF(4) and GF(9)
_CLOSED_FORM_ALGEBRAS = [build(f) for build in (build_split_exchange, build_hermitian)
                         for f in (GF(2), GF(3), GF(2, 2), GF(3, 2))]


def _closed_form_id(A):
    return f"{A.kind}-{A.field}"


def _scale_and_add(A, coords):
    """sum c_k e_k over the canonical symmetric basis, one term at a time."""
    acc = _sub(A.one, A.one)
    for c, b in zip(coords, A.sym_basis):
        acc = _add(acc, _scale(A, c, b))
    return acc


@pytest.mark.parametrize("A", _CLOSED_FORM_ALGEBRAS, ids=_closed_form_id)
def test_closed_forms_match_algebra_arithmetic(A):
    rng = random.Random(12)
    for _ in range(30):
        cx, cy = ([_rand_base(A, rng) for _ in range(9)] for _ in range(2))
        x, y = A.sym_from_coords(cx), A.sym_from_coords(cy)
        assert x == _scale_and_add(A, cx) and y == _scale_and_add(A, cy)
        assert A.sym_matrix_coords(x) == tuple(cx)
        assert trace_form(A, x, y) == A.trd_sym(m3_mul(x, y))
        assert A.s_sym(x) == A._to_base(m3_trace(adjugate(x)))


def test_trace_form_examples():
    for A in (build_split_exchange(GF(7)), build_hermitian(GF(7))):
        assert trace_form(A, A.one, A.one) == GF(7).from_int(3)
    A2 = build_split_exchange(GF(2))
    assert trace_form(A2, A2.one, A2.one) == GF(2).one  # 3 = 1 in char 2


def test_trace_form_symmetric_random():
    rng = random.Random(2)
    A = build_split_exchange(GF(7))
    for _ in range(100):
        x, y = _rand_matrix(GF(7), rng), _rand_matrix(GF(7), rng)
        assert trace_form(A, x, y) == trace_form(A, y, x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gram_nondegenerate_finite(p):
    field = GF(p)
    for A in (build_split_exchange(field), build_hermitian(field)):
        g = gram_matrix(A, A.sym_basis)
        assert mat_det_field(g, field)


def test_orth_complement_split_diagonal():
    A = build_split_exchange(GF(3))
    L = diagonal_cubic(A)
    perp = orth_complement(L)
    assert len(perp) == 6
    for m in perp:
        assert all(not m[i][i] for i in range(3))
    # F + Lperp is the space of matrices with all diagonal entries equal
    seven = [A.one] + perp
    assert len(seven) == 7


def test_orth_complement_degenerate_rejected():
    A = build_split_exchange(GF(2))
    # t^2 (t+ ...): a non-squarefree minimal polynomial is rejected upstream
    n = m3_unit(0, 1, GF(2).one, GF(2).zero)
    with pytest.raises(DegenerateSubalgebra):
        cubic_from_generator(A, _add(n, A.one))  # (x - 1)^... nilpotent shift


def test_adjoint_sharp_examples():
    F7 = GF(7)
    A = build_split_exchange(F7)
    assert adjugate(A.one) == A.one
    assert (A.trd_sym(A.one), A.s_sym(A.one), A.nrd_sym(A.one)) == (3, 3, 1)
    e11 = m3_unit(0, 0, F7.one, F7.zero)
    assert _is_zero(adjugate(e11))  # adjugate of a rank-one diagonal


def test_adjoint_matches_cofactor_oracle():
    rng = random.Random(4)
    A = build_split_exchange(GF(7))
    for _ in range(100):
        x = _rand_matrix(GF(7), rng)
        xs = adjugate(x)
        t, s, n = A.trd_sym(x), A.s_sym(x), A.nrd_sym(x)
        # Cayley-Hamilton shape and the norm identity
        assert xs == _add(_sub(m3_mul(x, x), _scale(A, t, x)), _scale(A, s, A.one))
        assert m3_mul(x, xs) == _scale(A, n, A.one)
        assert m3_mul(xs, x) == _scale(A, n, A.one)


def test_adjoint_hermitian_random():
    rng = random.Random(5)
    B = build_hermitian(GF(3))
    ctx = B.ctx
    for _ in range(100):
        m = _rand_matrix(ctx.K, rng)
        x = tuple(tuple(m[i][j] if i < j else
                        (ctx.conj(m[j][i]) if i > j else
                         ctx.embed_base(GF(3).from_code(rng.randrange(3))))
                        for j in range(3)) for i in range(3))
        assert _conj_transpose(B, x) == x
        xs = adjugate(x)
        t, s, n = B.trd_sym(x), B.s_sym(x), B.nrd_sym(x)
        assert _conj_transpose(B, xs) == xs
        assert m3_mul(x, xs) == _scale(B, n, B.one)
        assert m3_mul(xs, x) == _scale(B, n, B.one)
        assert xs == _add(_sub(m3_mul(x, x), _scale(B, t, x)), _scale(B, s, B.one))


def _companion_123(field):
    """The companion of (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6."""
    return companion_matrix(tuple(field.from_int(c) for c in (-6, 11, -6)), field)


def test_cubic_from_generator_minpoly():
    F7 = GF(7)
    A = build_split_exchange(F7)
    L = cubic_from_generator(A, _companion_123(F7))
    assert list(L.minpoly) == [F7.from_int(c) for c in (-6, 11, -6, 1)]
    assert poly_roots(L.minpoly, F7) == [F7.from_int(c) for c in (1, 2, 3)]


def _hermitian_candidates(B):
    """Every candidate of hermitian_cubic_generator's search: Hermitian
    matrices with base-field diagonal."""
    ctx, f = B.ctx, B.field
    for diag in itertools.product(f.elements(), repeat=3):
        for off in itertools.product(ctx.K.elements(), repeat=3):
            entries = {(i, i): ctx.embed_base(diag[i]) for i in range(3)}
            for (i, j), x in zip(((0, 1), (0, 2), (1, 2)), off):
                entries[(i, j)], entries[(j, i)] = x, ctx.conj(x)
            yield m3_from_entries(entries, ctx.zero)


def test_squarefree_charpoly_implies_independent_powers():
    # the reason cubic_from_generator needs no separate rank check
    B = build_hermitian(GF(2))
    accepted = 0
    for u in _hermitian_candidates(B):
        assert _conj_transpose(B, u) == u
        try:
            L = cubic_from_generator(B, u)
        except DegenerateSubalgebra:
            continue
        accepted += 1
        rows = [list(B.sym_matrix_coords(e)) for e in (B.one, u, m3_mul(u, u))]
        assert len(rref(rows, B.field)[1]) == 3
        assert L.basis == (B.one, u, m3_mul(u, u))
    assert accepted


def test_hermitian_degree_two_generator_rejected():
    B = build_hermitian(GF(2))
    e33 = m3_unit(2, 2, B.ctx.one, B.ctx.zero)  # (t - 1) t^2
    assert _conj_transpose(B, e33) == e33
    with pytest.raises(DegenerateSubalgebra):
        cubic_from_generator(B, e33)


def test_diagonal_cubic_f2():
    A = build_split_exchange(GF(2))
    L = diagonal_cubic(A)
    assert L.generator is None  # the split cubic over F_2 is not monogenic
    assert len(L.basis) == 3
    g = gram_matrix(A, L.basis)
    assert mat_det_field(g, GF(2))


def test_split_normalize_identity_case():
    F7 = GF(7)
    A = build_split_exchange(F7)
    L = diagonal_cubic(A)
    mats = list(L.basis)
    cert = split_normalize(mats, F7)
    assert cert.verify(mats)
    # an already-diagonal algebra needs only a permutation, det +-1
    rows = [[c for c in row] for row in cert.conjugator]
    assert mat_det_field(rows, F7) in (F7.one, -F7.one)


def test_split_normalize_companion_F7():
    F7 = GF(7)
    A = build_split_exchange(F7)
    L = cubic_from_generator(A, _companion_123(F7))
    mats = list(L.basis)
    cert = split_normalize(mats, F7)
    assert cert.verify(mats)


def test_split_normalize_not_split_over_base():
    A = build_split_exchange(GF(2))
    cm = companion_matrix((GF(2).one, GF(2).one, GF(2).zero), GF(2))  # t^3+t+1
    L = cubic_from_generator(A, cm)
    with pytest.raises(NotSplitOverBase):
        split_normalize(list(L.basis), GF(2))
    # over F_8 the same cubic splits
    from dp6kit.fields import embed
    F8 = GF(2, 3)
    A8 = build_split_exchange(F8)
    cm8 = tuple(tuple(embed(x, F8) for x in row) for row in cm)
    L8 = cubic_from_generator(A8, cm8)
    mats8 = list(L8.basis)
    assert split_normalize(mats8, F8).verify(mats8)


def test_rank_one_symmetric_elements():
    """u w^T for a line u in V and a line w in the dual: its adjoint
    vanishes, and distinct pairs of projective lines give distinct points."""
    one, zero = GF(2).one, GF(2).zero

    def rank_one(u, w):
        return tuple(tuple(u[i] * w[j] for j in range(3)) for i in range(3))
    el = rank_one((one, zero, zero), (zero, one, zero))
    assert el == m3_unit(0, 1, one, zero)
    assert _is_zero(adjugate(el))  # rank <= 1
    # all 49 pairs of projective lines give 49 distinct projective points
    plane = [(one, zero, zero), (zero, one, zero), (zero, zero, one),
             (one, one, zero), (one, zero, one), (zero, one, one),
             (one, one, one)]
    seen = set()
    for u in plane:
        for w in plane:
            m = rank_one(u, w)
            seen.add(tuple(x.code for row in m for x in row))
    assert len(seen) == 49


def test_hermitian_cubic_generators():
    B = build_hermitian(GF(2))
    mixed = hermitian_cubic_generator(B, 1)
    assert len(poly_roots(mixed.minpoly, GF(2))) == 1
    inert = hermitian_cubic_generator(B, 0)
    assert len(poly_roots(inert.minpoly, GF(2))) == 0
    # deterministic: the same generator is found every time
    again = hermitian_cubic_generator(B, 0)
    assert again.generator == inert.generator


def _candidate_at(B, code):
    """Candidate number `code` of hermitian_cubic_generator's walk, decoded
    independently: three diagonal digits base q, then the (0,1), (0,2) and
    (1,2) entries base q^2, least significant first."""
    ctx, q, Q = B.ctx, B.field.size, B.ctx.K.size
    diag = [B.field.from_code(code // q ** i % q) for i in range(3)]
    off = [ctx.K.from_code(code // (q ** 3 * Q ** i) % Q) for i in range(3)]
    entries = {(i, i): ctx.embed_base(diag[i]) for i in range(3)}
    for (i, j), x in zip(((0, 1), (0, 2), (1, 2)), off):
        entries[(i, j)], entries[(j, i)] = x, ctx.conj(x)
    return diag, m3_from_entries(entries, ctx.zero)


def _first_match(B, root_count):
    """First candidate, walking codes from 0, whose minimal cubic has
    root_count roots in the base field."""
    for code in itertools.count():
        _, u = _candidate_at(B, code)
        try:
            L = cubic_from_generator(B, u)
        except DegenerateSubalgebra:
            continue
        if len(poly_roots(L.minpoly, B.field)) == root_count:
            return code, u


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_zero_root_search_skips_only_candidates_with_a_root(p, k):
    f = GF(p, k)
    q = f.size
    B = build_hermitian(f)
    for code in range(q ** 5 + q ** 3):
        diag, u = _candidate_at(B, code)
        charpoly = [-B.nrd_sym(u), B.s_sym(u), -B.trd_sym(u), f.one]
        roots = poly_roots(charpoly, f)
        # index 2 decouples below q^5, index 1 on [q^5, q^5 + q^3)
        assert diag[2 if code < q ** 5 else 1] in roots
        if code < q ** 3:
            # a diagonal candidate: three roots in F, or a repeated one
            assert len(roots) == 3 or not poly_is_squarefree(charpoly, f)
    # a walk from code 0 finds the same first match as each search
    for root_count, start in ((1, q ** 3), (0, q ** 5 + q ** 3)):
        code, u = _first_match(B, root_count)
        assert code >= start
        assert hermitian_cubic_generator(B, root_count).generator == u
