import random
from fractions import Fraction

from dp6kit import dp6, hexagon, selftest
from dp6kit.brauer import hilbert_symbol, index, order


def test_solvability_oracle_known_values():
    assert selftest.solvability_oracle(-1, -1, 2) == -1
    assert selftest.solvability_oracle(5, 7, 3) == 1
    assert selftest.solvability_oracle(7, 7, 7) == -1
    assert selftest.solvability_oracle(2, 3, 2) == hilbert_symbol(2, 3, 2)


def test_index6_corpus_deterministic():
    a = selftest.index6_corpus(10, seed=5)
    b = selftest.index6_corpus(10, seed=5)
    assert a == b
    assert all(index(u) == 6 for u in a)


def test_random_quaternion_K_valid():
    from dp6kit.brauer import QuadField
    rng = random.Random(17)
    for d in (-1, 2, 5, None):
        K = QuadField(d) if d is not None else QuadField.split()
        for _ in range(20):
            u = selftest.random_quaternion_K(rng, K)  # the decoder validates
            assert order(u) <= 2


def test_fault_injection_zeta():
    # corrupting the trace prediction must surface as named failures
    original = dp6.predicted_count

    def corrupted(q, k, phi):
        return original(q, k, phi) + 1

    dp6.predicted_count = corrupted
    try:
        ok, detail = selftest.crit_twisted_zeta()
    finally:
        dp6.predicted_count = original
    assert not ok
    bad = [row for row in detail["checks"] if not row["ok"]]
    assert bad and all("twist" in row and "q" in row for row in bad)
    ok2, _ = selftest.crit_twisted_zeta()
    assert ok2


def test_report_shape():
    report = selftest.run_all(filter_text="brauer")
    assert [r["id"] for r in report["results"]] == ["1", "2", "3"]
    blob = selftest.report_json(report)
    assert isinstance(blob, bytes) and blob.startswith(b"{")


def test_random_reciprocal_vector_valid():
    rng = random.Random(23)
    for _ in range(50):
        u = selftest.random_reciprocal_vector(rng)
        total = u.real + sum((f for _, f in u.primes), Fraction(0))
        assert total.denominator == 1


def test_criterion_5_requires_the_recorded_witness(monkeypatch):
    M, bound = hexagon.stable_iso_witness()
    assert selftest.crit_stable_iso()[0]
    # -M is a unimodular intertwiner too, but not the matrix the reports check
    monkeypatch.setattr(hexagon, "stable_iso_witness", lambda: (-M, bound))
    ok, detail = selftest.crit_stable_iso()
    assert not ok and detail["unimodular"]
