import json

import pytest

from lattice_checks import check_action, check_equivariant, check_group

from dp6kit import hexagon, intlattice
from dp6kit.hexagon import (ALL_AUTS, K_CLASS, LINE_LABELS, HexAut,
                            all_subgroup_reports, aut_from_images, aut_from_label,
                            divisor_map, divisor_matrix, first_sequence,
                            hex_action, hexagon_group, is_K_divisible,
                            line_class, pair_triangle_matrix, perm_k,
                            perm_kl, perm_l, pic_lattice, pic_trace,
                            second_sequence, stable_iso_lattices,
                            stable_iso_witness, subgroups, t_hat)
from dp6kit.errors import NotAnAutomorphism
from dp6kit.intlattice import (IntMat, fixed_submodule, is_exact,
                               smith_normal_form)


def intersection(a, b):
    """Intersection number under diag(1, -1, -1, -1)."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def conjugacy_classes(G):
    """The conjugacy classes of a FiniteGroup, from its table."""
    inv = {a: next(b for b in G.labels if G.mul(a, b) == G.identity) for a in G.labels}
    classes = []
    for a in G.labels:
        cls = sorted({G.mul(G.mul(g, a), inv[g]) for g in G.labels}, key=G.labels.index)
        if cls not in classes:
            classes.append(cls)
    return classes


def trace_table():
    """Trace of the Picard action per (swap, cycle type) class of S2 x S3;
    the trace must be a class function."""
    out = {}
    for g in ALL_AUTS:
        key = (g.swap, g.cycle_type())
        assert out.setdefault(key, pic_trace(g)) == pic_trace(g), key
    return out


def test_line_class_examples():
    assert line_class("E1") == (0, 1, 0, 0)
    assert line_class("F1") == (1, 0, -1, -1)
    # F1 is pinned down by its intersection numbers
    f1 = line_class("F1")
    assert intersection(f1, f1) == -1
    assert intersection(f1, K_CLASS) == -1
    assert intersection(f1, line_class("E1")) == 0
    assert intersection(f1, line_class("E2")) == 1


def test_intersection_rules():
    assert intersection(line_class("E1"), line_class("E2")) == 0
    assert intersection(line_class("E1"), line_class("F2")) == 1
    assert intersection(line_class("E1"), line_class("F1")) == 0
    assert intersection(K_CLASS, K_CLASS) == 6
    for lbl in LINE_LABELS:
        c = line_class(lbl)
        assert intersection(c, c) == -1
        assert intersection(c, K_CLASS) == -1


def test_hex_action_examples():
    assert hex_action(HexAut.identity()) == IntMat.identity(4)
    s = HexAut(True, (0, 1, 2))
    m = hex_action(s)
    # E1 goes to F1 = H - E2 - E3
    assert [m.data[i][1] for i in range(4)] == [1, 0, -1, -1]
    # every automorphism preserves the form and fixes the canonical class
    gram = IntMat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    for g in ALL_AUTS:
        mg = hex_action(g)
        assert mg.transpose() * gram * mg == gram
        assert mg.apply(list(K_CLASS)) == list(K_CLASS)


def test_pic_trace_is_the_trace_of_hex_action():
    assert len(ALL_AUTS) == 12
    for g in ALL_AUTS:
        m = hex_action(g)
        assert pic_trace(g) == sum(m.data[i][i] for i in range(4))


def test_action_is_homomorphism():
    for a in ALL_AUTS:
        for b in ALL_AUTS:
            assert hex_action(a.compose(b)) == hex_action(a) * hex_action(b)


def test_trace_table_values():
    tt = trace_table()
    order = [(False, (1, 1, 1)), (True, (1, 1, 1)), (False, (3,)),
             (True, (1, 2)), (True, (3,)), (False, (1, 2))]
    assert [tt[k] for k in order] == [4, 2, 1, 0, -1, 2]
    # sum over classes of |class| * trace = |H| * rank of the fixed module
    G = hexagon_group()
    total = 0
    classes = conjugacy_classes(G)
    assert len(classes) == len(tt) == 6
    for cls in classes:
        g = aut_from_label(cls[0])
        assert {(h.swap, h.cycle_type()) for h in map(aut_from_label, cls)} == \
            {(g.swap, g.cycle_type())}
        total += len(cls) * tt[(g.swap, g.cycle_type())]
    assert total == 12 * 1


def test_divisor_map_examples():
    dm = divisor_matrix()
    # kernel has rank 2
    from dp6kit.intlattice import kernel_basis
    assert kernel_basis(dm).cols == 2
    # the sum of the six line classes is -K
    total = dm.apply([1] * 6)
    assert total == [-x for x in K_CLASS]
    # surjectivity: SNF diagonal is all ones
    S, _, _ = smith_normal_form(dm)
    assert [S.data[i][i] for i in range(4)] == [1, 1, 1, 1]


def test_t_hat_rank_and_action():
    that, incl = t_hat()
    assert that.rank == 2
    assert incl.matrix.cols == 2


def test_every_group_satisfies_the_group_axioms():
    check_group(hexagon_group())
    for sub in subgroups():
        check_group(sub)


def test_every_lattice_action_is_a_homomorphism():
    for lat in (pic_lattice(), perm_kl(), perm_l(), perm_k(), t_hat()[0],
                *stable_iso_lattices()):
        check_action(lat)


def test_every_sequence_map_is_equivariant():
    for sub in subgroups():
        maps = [divisor_map(sub), t_hat(sub)[1], *first_sequence(sub),
                *second_sequence(sub)]
        for f in maps:
            assert f.source.group is sub
            check_action(f.source)
            check_action(f.target)
            check_equivariant(f)


def test_pair_triangle_composite_zero():
    # line E1 maps to (pair 1, E-triangle); the augmentation difference kills it
    m = pair_triangle_matrix()
    col = m.col(0)
    assert col == [1, 0, 0, 1, 0]
    augdiff = IntMat([[1, 1, 1, -1, -1]])
    assert augdiff * m == IntMat.zeros(1, 6)


def test_sequences_exact_all_subgroups():
    for sub in subgroups():
        assert is_exact(first_sequence(sub))
        assert is_exact(second_sequence(sub))


def test_fixed_module_full_group():
    G = hexagon_group()
    fixed = fixed_submodule(pic_lattice(), G)
    assert fixed.cols == 1
    col = fixed.col(0)
    assert col == list(K_CLASS) or col == [-x for x in K_CLASS]
    assert not is_K_divisible(col)
    # trivial subgroup fixes everything
    triv = subgroups()[0]
    assert fixed_submodule(pic_lattice().restrict(triv), triv).cols == 4


def test_is_K_divisible_examples():
    assert not is_K_divisible(K_CLASS)
    assert is_K_divisible((-3,))  # projective plane: K = -3h
    assert is_K_divisible((-2, -2))  # quadric surface: K = -2e1 - 2e2


def test_stable_iso_witness():
    M, bound = stable_iso_witness()
    assert M is not None and M.is_unimodular()
    # the first unimodular combination of the search, found at bound 1
    assert bound == 1
    assert M == IntMat([[1, 1, 0, 0, -1], [1, 0, 1, 0, -1], [1, 0, 0, 1, -1],
                        [-1, 0, 0, 0, 1], [-2, -1, -1, -1, 1]])
    left, right = stable_iso_lattices()
    for lbl in hexagon_group().labels:
        assert M * left.action[lbl] == right.action[lbl] * M
    # the reports check this recorded copy
    assert M.data == hexagon.STABLE_ISO_WITNESS


def test_reports_check_the_recorded_witness_without_searching(monkeypatch):
    def no_search(L1, L2):
        raise AssertionError("a report ran the stable-isomorphism search")
    monkeypatch.setattr(intlattice, "equivariant_iso_search", no_search)
    assert all(r["stable_iso_found"] for r in all_subgroup_reports())
    # twice the witness intertwines but is not unimodular
    twice = tuple(tuple(2 * x for x in row) for row in hexagon.STABLE_ISO_WITNESS)
    monkeypatch.setattr(hexagon, "STABLE_ISO_WITNESS", twice)
    assert [r["stable_iso_found"] for r in all_subgroup_reports()] == [False] * 16
    # the identity is unimodular but intertwines only over the trivial subgroup
    monkeypatch.setattr(hexagon, "STABLE_ISO_WITNESS", IntMat.identity(5).data)
    assert [r["stable_iso_found"] for r in all_subgroup_reports()] == [True] + [False] * 15


def test_subgroup_reports():
    reports = all_subgroup_reports()
    assert len(reports) == 16
    for r in reports:
        assert r["h1"] == []
        assert r["sequences_exact"] is True
        assert r["stable_iso_found"] is True
        assert r["fixed_rank"] == r["fixed_rank_by_traces"]
    # the serialized form is valid JSON and deterministic
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert json.loads(blob) == reports
    assert json.dumps(all_subgroup_reports(), sort_keys=True, separators=(",", ":")) == blob


def test_perm_word_serialization():
    s = HexAut(True, (0, 1, 2))
    assert s.perm_word() == ["F1", "F2", "F3", "E1", "E2", "E3"]
    rot = HexAut(False, (1, 2, 0))
    assert rot.perm_word() == ["E2", "E3", "E1", "F2", "F3", "F1"]


def test_aut_from_images_round_trips():
    for g in ALL_AUTS:
        assert aut_from_images(dict(zip(LINE_LABELS, g.perm_word()))) is g


def test_aut_from_images_refuses_a_non_automorphism():
    # a permutation of the lines that moves E1 and E2 but not F1 and F2
    mapping = dict(zip(LINE_LABELS, LINE_LABELS))
    mapping["E1"], mapping["E2"] = "E2", "E1"
    with pytest.raises(NotAnAutomorphism):
        aut_from_images(mapping)
