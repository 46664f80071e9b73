import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from lattice_checks import check_action, check_equivariant, check_group

from dp6kit.errors import CompositionMismatch
from dp6kit.hexagon import (hexagon_group, perm_k, perm_kl, perm_l,
                            pic_lattice, subgroups)
from dp6kit.intlattice import (FiniteGroup, GLattice, IntMat, LatticeMap,
                               equivariant_iso_search, fixed_rank_by_traces,
                               fixed_submodule, h1, is_exact, kernel_basis,
                               row_hnf, smith_normal_form, solve_integer)


def _z2():
    tbl = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return FiniteGroup(["e", "s"], tbl)


def test_snf_examples():
    S, U, V = smith_normal_form(IntMat.identity(3))
    assert S == IntMat.identity(3)
    S, U, V = smith_normal_form(IntMat([[2, 0], [0, 3]]))
    assert [S.data[i][i] for i in range(2)] == [1, 6]
    S, _, _ = smith_normal_form(IntMat.zeros(2, 2))
    assert S == IntMat.zeros(2, 2)


def check_snf(rows):
    """U M V = S with S diagonal, its nonzero entries a positive divisibility
    chain equal to sympy's invariant factors, and U, V unimodular."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    M = IntMat(rows)
    S, U, V = smith_normal_form(M)
    assert U * M * V == S
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    assert all(S.data[i][j] == 0 for i in range(M.rows) for j in range(M.cols) if i != j)
    diag = [S.data[i][i] for i in range(min(M.rows, M.cols))]
    nz = [d for d in diag if d]
    assert diag[:len(nz)] == nz and all(d > 0 for d in nz)
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert [abs(int(d)) for d in factors if d] == nz


def test_snf_random_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        check_snf([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])


small_matrices = st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(rows=small_matrices)
def test_snf_invariants_under_hypothesis(rows):
    check_snf(rows)


def _matrices(rows, cols):
    """rows x cols integer matrices, built through the checking constructor."""
    return st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: IntMat(data, rows=rows, cols=cols))


def _check_built(m):
    """m holds tuple rows of ints of its shape, one per row, and equals the
    matrix the checking constructor builds on its data."""
    assert type(m.data) is tuple
    assert len(m.data) == m.rows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is int for x in row)
    assert m == IntMat(m.data, rows=m.rows, cols=m.cols)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_built_matrices_are_int_tuples_of_their_shape(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    A, A2 = data.draw(_matrices(r, k)), data.draw(_matrices(r, k))
    B = data.draw(_matrices(k, c))
    S, U, V = smith_normal_form(A)
    for m in (A * B, 3 * A, A + A2, A - A2, -A, A.transpose(), IntMat.identity(r),
              IntMat.zeros(r, k), S, U, V, row_hnf(A), kernel_basis(A)):
        _check_built(m)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equal_shapes_and_entries_compare_equal(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    A = data.draw(_matrices(r, c))
    rows = [list(row) for row in A.data]
    for B in (IntMat(rows, rows=r, cols=c), IntMat.trusted(rows, r, c),
              A.transpose().transpose(), A + IntMat.zeros(r, c), 1 * A):
        assert B == A and hash(B) == hash(A)
    # the r x 0 matrix, however it is built: the kernel of an invertible
    # matrix, the constructor with no entries, r empty rows, a transpose
    empty = IntMat.zeros(r, 0)
    for B in (kernel_basis(IntMat.identity(r)), IntMat([], rows=r, cols=0),
              IntMat([[]] * r), IntMat.zeros(0, r).transpose()):
        assert B == empty and hash(B) == hash(empty)


def test_no_entries_for_a_nonempty_shape_is_refused():
    with pytest.raises(ValueError):
        IntMat([], rows=2, cols=3)


@pytest.mark.parametrize("shape", [dict(rows=-1, cols=0), dict(rows=0, cols=-2),
                                   dict(rows=-1), dict(cols=-3)])
def test_negative_stated_shape_is_refused(shape):
    with pytest.raises(ValueError) as info:
        IntMat([], **shape)
    assert str(info.value) == (f"negative shape rows={shape.get('rows')}, "
                               f"cols={shape.get('cols')}")


@pytest.mark.parametrize("shape", [dict(rows=3, cols=5), dict(rows=2),
                                   dict(cols=1), dict(rows=0, cols=2)])
def test_stated_shape_that_disagrees_with_entries_is_refused(shape):
    with pytest.raises(ValueError):
        IntMat([[1, 2]], **shape)
    assert IntMat([[1, 2]], rows=1, cols=2) == IntMat([[1, 2]])


def test_non_int_scalar_is_refused():
    A = IntMat([[1, 3]])
    for s in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            A * s
        with pytest.raises(TypeError):
            s * A
    assert 2 * A == A * 2 == IntMat([[2, 6]])


def test_sum_of_different_shapes_is_refused():
    with pytest.raises(CompositionMismatch):
        IntMat([[1, 2]]) + IntMat([[1], [2]])
    with pytest.raises(CompositionMismatch):
        IntMat([[1, 2]]) - IntMat([[1, 2, 3]])


def test_kernel_examples():
    assert kernel_basis(IntMat.identity(3)).cols == 0
    kb = kernel_basis(IntMat([[1, 1]]))
    assert kb.cols == 1 and kb.col(0) in ([1, -1], [-1, 1])
    M = IntMat([[2, 4], [1, 2]])
    kb = kernel_basis(M)
    assert kb.cols == 1
    assert M.apply(kb.col(0)) == [0, 0]
    # kernels are saturated: the basis vector is primitive
    from math import gcd
    assert gcd(*kb.col(0)) == 1


def test_solve_integer():
    M = IntMat([[2, 0], [0, 3]])
    assert solve_integer(M, [4, 9]) == [2, 3]
    assert solve_integer(M, [1, 0]) is None


def test_row_hnf_canonical():
    a = row_hnf(IntMat([[1, 2], [3, 4]]))
    b = row_hnf(IntMat([[3, 4], [1, 2]]))
    assert a == b


def test_group_verification():
    check_group(_z2())
    with pytest.raises(AssertionError, match="no inverse"):
        check_group(FiniteGroup(["a", "b"], {("a", "a"): "a", ("a", "b"): "b",
                                             ("b", "a"): "b", ("b", "b"): "b"}))


def test_action_check_rejects_non_invertible_and_non_homomorphic_actions():
    G = _z2()
    check_action(GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[-1]])}))
    with pytest.raises(AssertionError, match="not invertible"):
        check_action(GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[2]])}))
    # unimodular, but s * s acts by [[1, 2], [0, 1]], not by the identity
    shear = IntMat([[1, 1], [0, 1]])
    with pytest.raises(AssertionError, match="not the product"):
        check_action(GLattice(2, G, {"e": IntMat.identity(2), "s": shear}))


def test_equivariance_check_rejects_a_map_that_ignores_the_action():
    G = _z2()
    sign = GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[-1]])})
    check_equivariant(LatticeMap(sign, sign, IntMat([[1]])))
    with pytest.raises(AssertionError, match="does not commute"):
        check_equivariant(LatticeMap(GLattice.trivial(1, G), sign, IntMat([[1]])))


def test_fixed_submodule_examples():
    G = _z2()
    sign = GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[-1]])})
    triv = GLattice.trivial(1, G)
    assert fixed_submodule(sign, G).cols == 0
    assert fixed_submodule(triv, G) == IntMat.identity(1)
    trivial_sub = G.subgroup(["e"])
    assert fixed_submodule(sign.restrict(trivial_sub), trivial_sub) == IntMat.identity(1)


def test_h1_examples():
    G = _z2()
    sign = GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[-1]])})
    assert h1(sign, G) == [2]
    assert h1(GLattice.trivial(2, G), G) == []
    trivial_sub = G.subgroup(["e"])
    assert h1(sign.restrict(trivial_sub), trivial_sub) == []


def test_h1_permutation_lattices_trivial():
    # Shapiro: permutation lattices have trivial first cohomology
    for sub in subgroups():
        for lat in (perm_kl(), perm_l(), perm_k()):
            assert h1(lat.restrict(sub), sub) == []


def test_h1_pic_trivial_all_subgroups():
    for sub in subgroups():
        assert h1(pic_lattice().restrict(sub), sub) == []


def test_fixed_rank_matches_trace_average():
    for sub in subgroups():
        for lat in (pic_lattice(), perm_kl(), perm_l(), perm_k()):
            restricted = lat.restrict(sub)
            assert fixed_submodule(restricted, sub).cols == \
                fixed_rank_by_traces(restricted, sub)


def test_is_exact_examples():
    G = _z2()
    z = GLattice(0, G, {g: IntMat([], rows=0, cols=0) for g in G.labels})
    triv = GLattice.trivial(1, G)
    ident = [
        LatticeMap(z, triv, IntMat([], rows=1, cols=0)),
        LatticeMap(triv, triv, IntMat([[1]])),
        LatticeMap(triv, z, IntMat([], rows=0, cols=1)),
    ]
    assert is_exact(ident) is True
    doubling = [
        LatticeMap(z, triv, IntMat([], rows=1, cols=0)),
        LatticeMap(triv, triv, IntMat([[2]])),
        LatticeMap(triv, z, IntMat([], rows=0, cols=1)),
    ]
    assert is_exact(doubling) is False


def test_is_exact_composition_mismatch():
    G = _z2()
    triv1 = GLattice.trivial(1, G)
    triv2 = GLattice.trivial(2, G)
    f = LatticeMap(triv1, triv2, IntMat([[1], [0]]))
    g = LatticeMap(triv1, triv1, IntMat([[1]]))
    with pytest.raises(CompositionMismatch):
        is_exact([f, g])


def test_equivariant_iso_search_examples():
    G = _z2()
    sign = GLattice(1, G, {"e": IntMat([[1]]), "s": IntMat([[-1]])})
    triv = GLattice.trivial(1, G)
    M, _ = equivariant_iso_search(triv, sign)
    assert M is None  # no nonzero intertwiner at all
    M, _ = equivariant_iso_search(sign, sign)
    assert M == IntMat.identity(1)


def test_hexagon_group_structure():
    G = hexagon_group()
    assert G.order == 12
    # six conjugacy classes: the sets {g a g^-1 : g in G}
    inv = {a: next(b for b in G.labels if G.mul(a, b) == G.identity) for a in G.labels}
    classes = {frozenset(G.mul(G.mul(g, a), inv[g]) for g in G.labels) for a in G.labels}
    assert len(classes) == 6
    assert len(subgroups()) == 16
    # the known subgroup census of the order-12 dihedral group
    from collections import Counter
    orders = Counter(s.order for s in subgroups())
    assert orders == Counter({1: 1, 2: 7, 3: 1, 4: 3, 6: 3, 12: 1})

