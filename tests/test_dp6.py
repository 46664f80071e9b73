import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dp6kit.algebra3 import (HERMITIAN, build_hermitian, build_split_exchange,
                             companion_matrix, cubic_from_generator, diagonal_cubic,
                             split_normalize)
from dp6kit import algebra3, dp6, fields
from dp6kit.dp6 import (TWIST_NAMES, build_surface, count_points, expected_frobenius_type,
                        fibration_point_count, find_lines, frobenius_on_lines,
                        predicted_count, raw_point_count, split_model_points,
                        splitting_degree, standard_twists,
                        surface_points, torus_count_check, verify_split_equivalence,
                        zeta_check)
from dp6kit.errors import DegenerateSubalgebra, EnumerationBudgetExceeded
from dp6kit.fields import GF, rref
from dp6kit.hexagon import HexAut


def adjugate(a):
    """Classical adjugate of a 3x3 matrix, by cofactors: the adjoint x# of
    a symmetric element is the adjugate of its matrix."""
    def cof(r, c):
        r1, r2 = [t for t in range(3) if t != r]
        c1, c2 = [t for t in range(3) if t != c]
        minor = a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1]
        return minor if (r + c) % 2 == 0 else -minor
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


@pytest.fixture(scope="module")
def twists2():
    return standard_twists(GF(2))


@pytest.fixture(scope="module")
def twists3():
    return standard_twists(GF(3))


def test_twist_names_match_standard_twists(twists2):
    assert tuple(twists2) == TWIST_NAMES


def _split_surface_F7():
    A = build_split_exchange(GF(7))
    return build_surface(A, diagonal_cubic(A))


def test_build_surface_shape():
    s = _split_surface_F7()
    assert len(s.coord_basis) == 7
    assert len(s.quadrics) == 9
    # the identity direction is not on the surface: 1# = 1 != 0
    pt = [GF(7).one] + [GF(7).zero] * 6
    assert any(s.evaluate(pt, s.field))


def _cofactor_expansion_quadrics(surface):
    """Independent oracle: expand each adjugate entry as a product of the
    entry linear forms (split model: entries are base-field valued)."""
    field = surface.field
    forms = [[{} for _ in range(3)] for _ in range(3)]
    for j, m in enumerate(surface.coord_basis):
        for r in range(3):
            for c in range(3):
                if m[r][c]:
                    forms[r][c][j] = m[r][c]
    out = []
    for i in range(3):
        for j in range(3):
            rows = [t for t in range(3) if t != j]
            cols = [t for t in range(3) if t != i]
            quad = {}

            def add(f1, f2, sgn):
                for v1, a in f1.items():
                    for v2, b in f2.items():
                        key = (min(v1, v2), max(v1, v2))
                        term = a * b
                        if sgn < 0:
                            term = -term
                        quad[key] = quad.get(key, field.zero) + term

            add(forms[rows[0]][cols[0]], forms[rows[1]][cols[1]], +1)
            add(forms[rows[0]][cols[1]], forms[rows[1]][cols[0]], -1)
            if (i + j) % 2:
                quad = {k: -v for k, v in quad.items()}
            out.append({k: v for k, v in quad.items() if v})
    return out


def test_quadrics_match_cofactor_oracle_split_F7():
    s = _split_surface_F7()
    oracle = _cofactor_expansion_quadrics(s)
    assert [dict(f) for f in s.quadrics] == oracle


def test_quadrics_match_cofactor_oracle_companion_F3():
    A = build_split_exchange(GF(3))
    cm = companion_matrix(tuple(GF(3).from_int(c) for c in (1, 2, 0)), GF(3))
    L = cubic_from_generator(A, cm)
    s = build_surface(A, L)
    assert [dict(f) for f in s.quadrics] == _cofactor_expansion_quadrics(s)


def _polarized_adjoint_quadrics(surface):
    """Independent oracle: the quadrics through the polarization of the
    adjoint on symmetric elements, (b_i + b_j)# - b_i# - b_j# for i < j."""
    A = surface.algebra
    basis = surface.coord_basis

    def sharp(x):
        return A.sym_matrix_coords(adjugate(x))

    def add(a, b):
        return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))

    forms = [{} for _ in range(9)]
    for i in range(7):
        for j in range(i, 7):
            x = sharp(basis[i]) if i == j else [
                a - b - c for a, b, c in zip(sharp(add(basis[i], basis[j])),
                                             sharp(basis[i]), sharp(basis[j]))]
            for ell, c in enumerate(x):
                if c:
                    forms[ell][(i, j)] = c
    return forms


def test_quadrics_match_polarized_adjoint(twists2, twists3):
    for tw in (twists2, twists3, standard_twists(GF(2, 2))):
        for name, s in tw.items():
            assert [dict(f) for f in s.quadrics] == _polarized_adjoint_quadrics(s), name


def test_quadrics_pointwise_hermitian(twists2):
    s = twists2["kinert-l3"]
    A = s.algebra
    rng = random.Random(8)
    for _ in range(50):
        coords = [GF(2).from_code(rng.randrange(2)) for _ in range(7)]
        direct = s.evaluate(coords, s.field)
        # sum c_k b_k, entry by entry, with each c_k embedded into K
        cs = [A.ctx.embed_base(c) for c in coords]
        x = tuple(tuple(sum((c * b[r][t] for c, b in zip(cs, s.coord_basis)), A.ring.zero)
                        for t in range(3)) for r in range(3))
        expected = list(A.sym_matrix_coords(adjugate(x)))
        assert direct == expected


def test_quadrics_vanish_on_rank_one_images():
    one, zero = GF(3).one, GF(3).zero
    u, w = (one, one, zero), (zero, one, one)
    el = tuple(tuple(u[i] * w[j] for j in range(3)) for i in range(3))
    assert not any(x for row in adjugate(el) for x in row)


def test_split_model_points_small():
    assert split_model_points(2) == 13
    assert split_model_points(3) == 22
    assert split_model_points(5) == 46
    assert split_model_points(2, 2) == 33  # 16 + 16 + 1
    assert split_model_points(2, 3) == 97
    with pytest.raises(EnumerationBudgetExceeded):
        split_model_points(3, 9)


def test_split_model_points_budget_covers_only_the_double_loop():
    assert split_model_points(9) == 9 * 9 + 4 * 9 + 1
    with pytest.raises(EnumerationBudgetExceeded):
        split_model_points(11)


def test_count_examples(twists2):
    assert raw_point_count(twists2["split"], 1) == 13
    assert raw_point_count(twists2["kinert-lsplit"], 1) == 9
    assert raw_point_count(twists2["ksplit-l3"], 1) == 7
    rec = count_points(twists2["split"], 1)
    assert rec.raw == rec.predicted == 13


def test_fibration_count_matches_enumeration(twists2, twists3):
    cases = [(twists2, k) for k in (1, 2, 3)] + [(twists3, k) for k in (1, 2)]
    cases += [(standard_twists(GF(2, 2)), 1), (standard_twists(GF(5)), 1)]
    for tw, k in cases:
        for name, s in tw.items():
            assert fibration_point_count(s, k) == raw_point_count(s, k), (s, name, k)


_SMALL_FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2)}


@settings(max_examples=40, deadline=None)
@given(qk=st.sampled_from([(2, 1), (2, 2), (3, 1), (4, 1)]), hermitian=st.booleans(),
       codes=st.lists(st.integers(0, 11), min_size=9, max_size=9))
def test_fibration_count_matches_enumeration_on_random_generators(qk, hermitian, codes):
    q, k = qk
    field = _SMALL_FIELDS[q]  # codes below 12 are uniform mod 2, 3 and 4
    A = build_hermitian(field) if hermitian else build_split_exchange(field)
    u = A.sym_from_coords([field.from_code(c) for c in codes])
    try:
        s = build_surface(A, cubic_from_generator(A, u))
    except DegenerateSubalgebra:
        assume(False)
    assert fibration_point_count(s, k) == raw_point_count(s, k)


def _quadric_zeros(surface):
    """Independent oracle: every point of P^6(F_q) in code order (leading 1,
    last coordinate fastest) at which all nine quadrics vanish."""
    field = surface.field
    pts = []
    for lead in range(7):
        for rest in itertools.product(field.elements(), repeat=6 - lead):
            pt = (field.zero,) * lead + (field.one,) + rest
            if not any(surface.evaluate(pt, field)):
                pts.append(pt)
    return pts


def test_point_list_matches_quadric_oracle(twists2, twists3):
    cases = [twists2[name] for name in TWIST_NAMES]
    cases += [twists3["split"], twists3["kinert-l3"]]
    for s in cases:
        pts = surface_points(s, 1)
        assert pts == _quadric_zeros(s)
        assert raw_point_count(s, 1) == len(pts)


def _full_block_masks(surface, k):
    """Reference enumerator: every entry of the point matrix and all nine
    2x2 minors over the whole block, one mask per leading coordinate."""
    import numpy as np
    F = surface.field
    Qp = F.size ** k
    ext = GF(F.p, F.k * k)
    E = GF(F.p, F.k * math.lcm(k, 2)) if surface.algebra.kind == HERMITIAN else ext
    sig = dp6._sigma_matrices(surface, E)
    emb = dp6._embed_table(ext, E)
    add, mul, neg = dp6._tables(E)
    for lead in range(7):
        block = Qp ** (6 - lead)
        coords = []
        for pos in range(7):
            if pos <= lead:
                coords.append(np.full(block, int(pos == lead), dtype=np.int64))
            else:
                col = np.arange(Qp, dtype=np.int64)
                coords.append(np.repeat(np.tile(col, Qp ** (pos - lead - 1)),
                                        Qp ** (6 - pos)))
        coords = [emb[c] for c in coords]
        mm = {}
        for r in range(3):
            for c in range(3):
                acc = np.zeros(block, dtype=np.int64)
                for j in range(7):
                    acc = add[acc, mul[sig[j][r][c].code][coords[j]]]
                mm[r, c] = acc
        good = np.ones(block, dtype=bool)
        for r in range(3):
            r1, r2 = [t for t in range(3) if t != r]
            for c in range(3):
                c1, c2 = [t for t in range(3) if t != c]
                minor = add[mul[mm[r1, c1], mm[r2, c2]], neg[mul[mm[r1, c2], mm[r2, c1]]]]
                good &= minor == 0
        yield good


def test_rank_one_blocks_match_full_block_oracle(twists2, twists3):
    cases = [(twists2[name], k) for name in TWIST_NAMES for k in (1, 2, 3)]
    cases += [(twists3[name], k) for name in ("split", "kinert-l3") for k in (1, 2)]
    for s, k in cases:
        blocks = list(dp6._rank_one_blocks(s, k))
        oracle = list(_full_block_masks(s, k))
        assert [lead for _, lead, _ in blocks] == list(range(7))
        for (_, _, mask), want in zip(blocks, oracle, strict=True):
            assert mask.dtype == want.dtype and mask.shape == want.shape
            assert (mask == want).all()


def test_budget_exceeded(twists2):
    with pytest.raises(EnumerationBudgetExceeded):
        raw_point_count(twists2["split"], 7)


@pytest.mark.parametrize("check", [raw_point_count, surface_points,
                                   fibration_point_count, verify_split_equivalence])
def test_budget_checked_before_the_field_is_built(twists2, monkeypatch, check):
    built = []

    def spy(p, k=1):
        built.append((p, k))
        return GF(p, k)
    monkeypatch.setattr(dp6, "GF", spy)
    with pytest.raises(EnumerationBudgetExceeded):
        check(twists2["split"], 24)
    assert built == []


def test_verify_split_equivalence(twists2, twists3):
    assert verify_split_equivalence(twists2["split"], 1)
    assert verify_split_equivalence(twists3["split"], 1)
    assert verify_split_equivalence(twists2["split"], 2)


def test_splitting_degrees(twists2):
    degrees = {name: splitting_degree(s) for name, s in twists2.items()}
    assert degrees == {"split": 1, "ksplit-l21": 2, "ksplit-l3": 3,
                       "kinert-lsplit": 2, "kinert-l21": 2, "kinert-l3": 6}


def test_find_lines_configuration(twists2):
    for name, s in twists2.items():
        lr = find_lines(s)
        assert set(lr.lines) == {"E1", "E2", "E3", "F1", "F2", "F3"}
        # hexagon adjacency: Ei meets exactly the two Fj with j != i
        for i in "123":
            assert lr.adjacency[f"E{i}"] == {f"F{j}" for j in "123" if j != i}
        # opposite lines span a rank-4 space, adjacent ones rank 3
        e1 = lr.lines["E1"]
        f1, f2 = lr.lines["F1"], lr.lines["F2"]
        stack = [list(r) for r in e1.matrix] + [list(r) for r in f1.matrix]
        _, piv = rref(stack, lr.field)
        assert len(piv) == 4
        stack = [list(r) for r in e1.matrix] + [list(r) for r in f2.matrix]
        _, piv = rref(stack, lr.field)
        assert len(piv) == 3


def test_find_lines_embeds_coefficients_through_K():
    # GF(9) -> GF(81) -> GF(3^8) and GF(9) -> GF(3^8) differ, so the quadric
    # coefficients must reach the line field by the same route as the
    # K-entries of the coordinate matrices
    lr = find_lines(standard_twists(GF(3, 2))["kinert-l21"], 4)
    assert lr.field.size == 3 ** 8
    assert len(set(lr.lines.values())) == 6


def test_find_lines_does_not_rebuild_the_algebra(monkeypatch):
    s = standard_twists(GF(2, 2))["kinert-l3"]

    def refuse(*args):
        raise AssertionError("line finding rebuilt an algebra over the line field")

    monkeypatch.setattr(dp6, "build_split_exchange", refuse)
    lr = find_lines(s)
    assert set(lr.lines) == {"E1", "E2", "E3", "F1", "F2", "F3"}



@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_generator_certificate_diagonalizes_L_on_the_line_field(q):
    F = GF(*dp6._parse_prime_power(q))
    twists = standard_twists(F)
    assert {name for name, s in twists.items() if s.cubic.generator is None} == \
        ({"split", "kinert-lsplit"} if q == 2 else set())
    for name, surface in twists.items():
        big = GF(F.p, F.k * splitting_degree(surface))
        basis = [dp6._embed_matrix(b, big) for b in surface.cubic.basis]
        u = surface.cubic.generator
        if u is None:
            # the diagonal idempotents, which find_lines does not conjugate
            assert not any(m[i][j] for m in basis for i in range(3) for j in range(3)
                           if i != j), name
        else:
            assert split_normalize(dp6._embed_matrix(u, big), big).verify(basis), name


@pytest.mark.parametrize("q", [2, 3, 4])
def test_find_lines_scans_the_line_field_once(q, monkeypatch):
    """The roots of L's generator's cubic are the one exhaustive root search
    over the line field; an L without a generator needs none.  Twists split
    over the base field are skipped: there the line field is also the field
    over which L's Galois type is read."""
    scanned = []

    def counting_roots(f, field):
        scanned.append(field)
        return fields.poly_roots(f, field)

    F = GF(*dp6._parse_prime_power(q))
    twists = standard_twists(F)
    for module in (algebra3, dp6):
        monkeypatch.setattr(module, "poly_roots", counting_roots)
    for name, surface in twists.items():
        m = splitting_degree(surface)
        if m == 1:
            continue
        big = GF(F.p, F.k * m)
        scanned.clear()
        find_lines(surface)
        assert sum(field is big for field in scanned) == \
            (surface.cubic.generator is not None), name

def test_frobenius_examples(twists2):
    assert frobenius_on_lines(twists2["split"]) == HexAut.identity()
    phi = frobenius_on_lines(twists2["kinert-lsplit"])
    assert phi.swap and phi.cycle_type() == (1, 1, 1)
    phi = frobenius_on_lines(twists2["ksplit-l21"])
    assert not phi.swap and phi.cycle_type() == (1, 2)
    phi = frobenius_on_lines(twists2["kinert-l3"])
    assert phi.swap and phi.cycle_type() == (3,)
    powers = [phi]
    while powers[-1] != HexAut.identity():
        powers.append(phi.compose(powers[-1]))
    assert len(powers) == 6  # phi has order 6


def test_expected_frobenius_types(twists2, twists3):
    for tw in (twists2, twists3):
        for s in tw.values():
            phi = frobenius_on_lines(s)
            assert (phi.swap, phi.cycle_type()) == expected_frobenius_type(s)


def test_zeta_checks_sample(twists3):
    recs = zeta_check(twists3["kinert-l21"])
    assert [r.k for r in recs] == [1, 2]
    assert all(r.ok for r in recs)
    assert recs[0].raw == predicted_count(3, 1, frobenius_on_lines(twists3["kinert-l21"]))


def test_torus_counts(twists2):
    r = torus_count_check(twists2["split"])
    assert r["u_count"] == 1 and r["torus_count"] == 1 and r["ok"]
    r = torus_count_check(twists2["kinert-lsplit"])
    assert r["u_count"] == 9 and r["ok"]  # det(2I + I) = 9 for the inversion action


def test_torus_counts_f3(twists3):
    r = torus_count_check(twists3["split"])
    assert r["u_count"] == 4 and r["ok"]  # (3 - 1)^2


def test_provenance_serialization(twists2):
    d = twists2["kinert-l3"].descriptor_json()
    assert d["provenance"]["kind"] == "hermitian"
    assert len(d["quadrics"]) == 9


def test_parse_prime_power_matches_trial_division():
    def by_trial_division(q):
        p = next((d for d in range(2, q + 1) if q % d == 0), None)
        e = 0
        while p and q % p ** (e + 1) == 0:
            e += 1
        return (p, e) if p and p ** e == q else None

    for q in range(-3, 3000):
        try:
            found = dp6._parse_prime_power(q)
        except ValueError:
            found = None
        assert found == by_trial_division(q), q
    m61 = 2**61 - 1
    assert dp6._parse_prime_power(m61 ** 3) == (m61, 3)
    assert dp6._parse_prime_power(3 ** 40) == (3, 40)
    with pytest.raises(ValueError, match="not a prime power"):
        dp6._parse_prime_power(1000000007 * 1000000009)
