import ast
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    enumerate_o_sequences,
    lex_segment_ideal,
    macaulay_expansion,
)
from levelalg import oracle
from levelalg.oracle import colon_and_socle_dims

from _support import (
    PAPER_BETTI,
    colon_dim_by_scan,
    expansion_exhaustive,
    in_ideal_by_scan,
    max_generator_degree,
    monomial_ideals,
    monomials_of_degree,
    osequence_filter,
    random_stable_ideal,
    socle_dim_by_scan,
    staircase_membership,
)


def dims_by_scan(ideal, top):
    return [
        (colon_dim_by_scan(ideal, 3, t), socle_dim_by_scan(ideal, t))
        for t in range(top + 1)
    ]


def test_colon_dim_examples():
    # the square of the maximal ideal: all of degree 1 is colon and socle
    assert colon_and_socle_dims(lex_segment_ideal(HVector((1, 3))), 1) == [
        (0, 0), (3, 3),
    ]
    lexi = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert colon_and_socle_dims(lexi, 4)[4] == (2, 2)
    # u must lie outside the ideal and x3 * u inside; for (x3) every
    # x3-free monomial qualifies, and none is in the socle
    principal = MonomialIdeal([Monomial(0, 0, 1)])
    assert colon_and_socle_dims(principal, 5) == [(t + 1, 0) for t in range(6)]


def test_expansion_exhaustive_examples():
    assert expansion_exhaustive(15, 4).terms == ((6, 4),)
    assert expansion_exhaustive(16, 6) == macaulay_expansion(16, 6)
    assert expansion_exhaustive(1, 3).terms == ((3, 3),)
    assert expansion_exhaustive(0, 2).terms == ()
    with pytest.raises(ValueError):
        expansion_exhaustive(-1, 2)


def test_expansion_exhaustive_matches_greedy_small_range():
    for i in range(1, 7):
        for n in range(0, 301):
            assert expansion_exhaustive(n, i) == macaulay_expansion(n, i)


def test_osequence_filter_examples():
    assert osequence_filter(1, 3) == {HVector((1, 3))}
    assert len(osequence_filter(2, 6)) == 6
    assert osequence_filter(3, 4) == set(enumerate_o_sequences(3, 4))


def test_oracle_socle_matches_primary():
    rng = random.Random(43)
    for _ in range(15):
        ideal = random_stable_ideal(rng, max_trunc=5, max_extras=3)
        # the socle lies below the sum of the pure-power generators' degrees
        top = sum(g.degree for g in ideal.generators() if max(g) == g.degree)
        direct = colon_and_socle_dims(ideal, top)
        assert [n for _, n in direct] == [
            socle_dim_by_scan(ideal, t) for t in range(top + 1)
        ], ideal


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_staircase_membership_matches_divisor_scan(ideal):
    top = max_generator_degree(ideal) + 2
    member = staircase_membership(ideal, top)
    for t in range(top + 1):
        for m in monomials_of_degree(t):
            assert member(m) == in_ideal_by_scan(ideal, m), (ideal, m)
    assert colon_and_socle_dims(ideal, top - 1) == dims_by_scan(ideal, top - 1)


@settings(max_examples=100, deadline=None)
@given(monomial_ideals(), st.integers(0, 8), st.integers(0, 8))
def test_colon_and_socle_dims_prefix_of_larger_top(ideal, low, high):
    low, high = sorted((low, high))
    assert colon_and_socle_dims(ideal, low) == colon_and_socle_dims(ideal, high)[: low + 1]


def test_staircase_membership_examples():
    # x2^2 and x1*x3^3: neither stable nor of finite colength
    ideal = MonomialIdeal([Monomial(0, 2, 0), Monomial(1, 0, 3)])
    member = staircase_membership(ideal, 6)
    assert member(Monomial(0, 2, 0)) and member(Monomial(3, 2, 1))
    assert member(Monomial(1, 0, 3)) and member(Monomial(2, 1, 3))
    assert not member(Monomial(0, 1, 5)) and not member(Monomial(6, 0, 0))
    assert not member(Monomial(1, 1, 2))


def test_direct_counts_match_scan_counts_on_stable_ideals():
    rng = random.Random(47)
    for _ in range(15):
        ideal = random_stable_ideal(rng, max_trunc=5, max_extras=3)
        top = max_generator_degree(ideal) + 1
        assert colon_and_socle_dims(ideal, top) == dims_by_scan(ideal, top)


@pytest.mark.parametrize("entries", sorted(PAPER_BETTI))
def test_direct_counts_match_scan_counts_on_paper_lex_ideals(entries):
    # from below the first generator up to two past the socle degree, where
    # the staircase is widest
    h = HVector(entries)
    ideal = lex_segment_ideal(h)
    top = h.socle_degree + 2
    assert colon_and_socle_dims(ideal, top) == dims_by_scan(ideal, top)


def test_oracle_reads_no_rank_tables():
    # the twin must not share the rank arithmetic it is meant to check, and
    # holds only what --verify runs: the O-sequence filter, which reads
    # hvectors, and the exhaustive expansion search, which reads binomials,
    # are test helpers
    source = inspect.getsource(oracle)
    for name in ("lex_rank", "monomial_at", "members_of_degree"):
        assert name not in source
    imported = {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
    }
    assert not imported & {"hvectors", "binomials"}
