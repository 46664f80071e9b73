"""Checks of the facts that dp6kit.intlattice takes as given.

FiniteGroup, GLattice and LatticeMap trust the data they are built from.
These helpers check that data: the group axioms of a multiplication table,
that a lattice's action is a homomorphism into GL(n, Z), and that a map of
lattices commutes with the action.  Each raises AssertionError naming the
first fact that fails.
"""


def check_group(G):
    """Distinct labels, closure, identity, inverses, associativity, and
    generators that generate."""
    labels = set(G.labels)
    assert len(labels) == len(G.labels), "duplicate labels"
    for a in G.labels:
        for b in G.labels:
            assert G.mul(a, b) in labels, f"{a} * {b} leaves the group"
    e = G.identity
    for a in G.labels:
        assert G.mul(e, a) == a == G.mul(a, e), f"{e} is not the identity at {a}"
        assert any(G.mul(a, b) == e for b in G.labels), f"{a} has no inverse"
    for a in G.labels:
        for b in G.labels:
            for c in G.labels:
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c)), \
                    f"({a} {b}) {c} != {a} ({b} {c})"
    assert G._closure(G.generators) == labels, "generators do not generate"


def check_action(L):
    """Every element acts by an invertible integer rank x rank matrix, and
    the action respects the multiplication table."""
    G = L.group
    assert set(L.action) == set(G.labels), "action is not indexed by the group"
    for g in G.labels:
        m = L.action[g]
        assert (m.rows, m.cols) == (L.rank, L.rank), f"{g} acts with the wrong shape"
        assert abs(m.det()) == 1, f"{g} acts by a matrix not invertible over Z"
    for a in G.labels:
        for b in G.labels:
            assert L.action[a] * L.action[b] == L.action[G.mul(a, b)], \
                f"action of {a} * {b} is not the product of the actions"


def check_equivariant(f):
    """f.matrix intertwines the source and target actions of every element."""
    for g in f.source.group.labels:
        assert f.matrix * f.source.action[g] == f.target.action[g] * f.matrix, \
            f"map does not commute with the action of {g}"
