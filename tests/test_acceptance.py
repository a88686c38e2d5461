"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
per-criterion PASS lines).
"""

import random
import time

import pytest

from levelalg import (
    HVector,
    binomial,
    classify,
    construct_plateau_level,
    ek_betti,
    enumerate_o_sequences,
    green_bound,
    lex_betti_window,
    lex_segment_ideal,
    macaulay_bound,
    macaulay_expansion,
)
from levelalg.oracle import colon_and_socle_dims

from _support import (
    LEVEL_VECTORS,
    PAPER_BETTI,
    betti_dict,
    expansion_exhaustive,
    numerator_identity,
    osequence_filter,
    random_o_sequence,
    random_stable_ideal,
    restricted_hf_by_monomials,
)

CORPUS_SEED = 20260810
STABLE_SEED = 1859


@pytest.fixture(scope="module")
def o_corpus():
    """1,000 random O-sequences (h1 = 3, s <= 8, entries <= 30) with their
    lex ideals and resolutions, built once."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for _ in range(1000):
        h = random_o_sequence(rng, max_s=8, cap=30)
        ideal = lex_segment_ideal(h)
        corpus.append((h, ideal, ek_betti(ideal)))
    return corpus


@pytest.fixture(scope="module")
def stable_corpus():
    rng = random.Random(STABLE_SEED)
    return [random_stable_ideal(rng) for _ in range(200)]


def test_criterion_01_reference_betti_tables_exact():
    for entries, expected in PAPER_BETTI.items():
        diagram = betti_dict(ek_betti(lex_segment_ideal(HVector(entries))))
        assert diagram == expected, entries
    print("criterion 1 (reference Betti tables, exact): PASS")


def test_criterion_02_reference_verdicts_exact():
    cases = {
        (1, 3, 6, 10, 15, 16, 18): ("R-31", {}),
        (1, 3, 6, 10, 15, 16, 18, 20): ("R-37", {"delta_hd": 1, "delta_hd1": 2}),
        (1, 3, 6, 10, 15, 15, 16): ("R-42", {"green_hd1": 2, "delta_hd1": 1}),
    }
    for entries, (rule, quantities) in cases.items():
        verdict = classify(HVector(entries))
        assert verdict.kind == "NotLevel", entries
        cert = next(c for c in verdict.certificates if c.rule == rule)
        for key, value in quantities.items():
            assert cert.quantities[key] == value, (entries, key)
    for entries in LEVEL_VECTORS:
        assert classify(HVector(entries)).kind == "Level", entries
    print("criterion 2 (reference verdicts, exact): PASS")


def test_criterion_03_reference_scalars_exact():
    assert green_bound(16, 6) == 2
    assert green_bound(65, 12) == 6
    equal_positions = {
        (1, 3, 6, 10, 15, 16, 18): (5, 2),
        (1, 3, 5, 6, 6, 6, 6): (5, 1),
        (1, 3, 6, 10, 13, 15, 17, 19, 20): (5, 1),
        (1, 3, 6, 10, 12, 14, 16, 18, 19, 20): (4, 1),
        (1, 3, 6, 10, 15, 16, 18, 20): (5, 2),
    }
    for entries, (d, value) in equal_positions.items():
        beta1, beta2, _ = lex_betti_window(HVector(entries), d)
        assert beta1 == beta2 == value, entries
    print("criterion 3 (reference scalar values, exact): PASS")


def test_criterion_04_constructor_regression():
    base, lifted = construct_plateau_level(11, 31)
    assert base.entries == (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 58, 61, 64)
    assert lifted.entries == (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 64, 64, 65)
    assert classify(lifted).kind != "NotLevel"
    print("criterion 4 (constructor regression): PASS")


def test_criterion_05_closed_form_equals_direct(o_corpus):
    checked = 0
    for h, _, (_, b1, b2) in o_corpus:
        for d in range(1, h.socle_degree + 1):
            assert lex_betti_window(h, d) == (b1[d + 2], b2[d + 2], b2[d + 3]), (h, d)
            checked += 1
    assert checked > 1000
    print(f"criterion 5 (closed form == direct, {checked} windows): PASS")


def test_criterion_06_green_equals_restriction(o_corpus):
    for h, ideal, _ in o_corpus:
        restricted = restricted_hf_by_monomials(ideal, h.socle_degree + 1)
        for t in range(1, h.socle_degree + 2):
            assert restricted[t] == green_bound(h.at(t), t), (h, t)
    print("criterion 6 (Green bound == lex restriction): PASS")


def test_criterion_07_numerator_identity(o_corpus, stable_corpus):
    for _, ideal, _ in o_corpus:
        assert numerator_identity(ideal)
    for ideal in stable_corpus:
        assert numerator_identity(ideal)
    print("criterion 7 (Hilbert-series numerator identity): PASS")


def test_criterion_08_socle_duality(o_corpus, stable_corpus):
    ideals = [ideal for _, ideal, _ in o_corpus] + stable_corpus
    for ideal in ideals:
        _, _, b2 = ek_betti(ideal)
        # each ideal is stable and holds every monomial of its top generator
        # degree len(b2) - 3, so the oracle's counts through that degree hold
        # the whole socle
        socle = [n for _, n in colon_and_socle_dims(ideal, len(b2) - 3)]
        assert b2 == [0, 0, 0] + socle[:-1] and socle[-1] == 0, ideal
    print("criterion 8 (socle/Betti duality): PASS")


def test_criterion_09_bound_defect_vanishes():
    cases = 0
    for d in range(1, 26):
        for c in range(d + 1, binomial(d + 2, 2)):
            assert green_bound(c, d) - macaulay_bound(c, d) + c == 0, (c, d)
            cases += 1
    assert cases > 2000
    print(f"criterion 9 (bound defect vanishes, {cases} cases): PASS")


def test_criterion_10_no_contradiction_exhaustive():
    start = time.monotonic()
    total = 0
    for s in range(2, 7):
        for h in enumerate_o_sequences(s, 20):
            verdict = classify(h)
            total += 1
            if verdict.kind == "NotLevel":
                assert not h.is_differentiable(), h
            elif verdict.kind == "Level":
                assert h.is_differentiable(), h
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 10 (no Level/NotLevel contradiction, {total} vectors, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_11_oracle_gates():
    for i in range(1, 9):
        for n in range(0, 5001):
            assert expansion_exhaustive(n, i) == macaulay_expansion(n, i), (n, i)
    for s in range(1, 5):
        for cap in range(3, 11):
            assert osequence_filter(s, cap) == set(enumerate_o_sequences(s, cap)), (
                s,
                cap,
            )
    print("criterion 11 (oracle gates at full oracle scale): PASS")
