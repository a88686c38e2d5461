import inspect
import random

import pytest
from hypothesis import given, settings

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    enumerate_o_sequences,
    lex_segment_ideal,
    macaulay_expansion,
    monomials_of_degree,
    socle_dims,
)
from levelalg import oracle
from levelalg.oracle import (
    colon_dim_direct,
    expansion_exhaustive,
    osequence_filter,
    socle_dim_direct,
    staircase_membership,
)

from _support import (
    PAPER_BETTI,
    colon_dim_by_scan,
    in_ideal_by_scan,
    monomial_ideals,
    random_stable_ideal,
    socle_dim_by_scan,
)


def test_colon_dim_examples():
    assert colon_dim_direct(lex_segment_ideal(HVector((1, 3))), 3, 1) == 3
    lexi = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert colon_dim_direct(lexi, 3, 4) == 2
    # u must lie outside the ideal and x_v * u inside; for (x1) every
    # x1-free monomial qualifies
    principal = MonomialIdeal([Monomial(1, 0, 0)])
    assert colon_dim_direct(principal, 1, 5) == 6


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


def test_socle_dim_direct_matches_primary():
    rng = random.Random(43)
    for _ in range(15):
        ideal = random_stable_ideal(rng, max_trunc=5, max_extras=3)
        dims = socle_dims(ideal)
        top = max(dims, default=0)
        for t in range(top + 2):
            assert socle_dim_direct(ideal, t) == dims.get(t, 0)


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_staircase_membership_matches_divisor_scan(ideal):
    top = ideal.max_generator_degree() + 2
    member = staircase_membership(ideal, top)
    for t in range(top + 1):
        for m in monomials_of_degree(t):
            assert member(m) == in_ideal_by_scan(ideal, m), (ideal, m)
    for t in range(top):
        assert socle_dim_direct(ideal, t) == socle_dim_by_scan(ideal, t)
        for var in (1, 2, 3):
            assert colon_dim_direct(ideal, var, t) == colon_dim_by_scan(ideal, var, t)


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
        for t in range(ideal.max_generator_degree() + 2):
            assert socle_dim_direct(ideal, t) == socle_dim_by_scan(ideal, t)
            for var in (1, 2, 3):
                assert colon_dim_direct(ideal, var, t) == colon_dim_by_scan(
                    ideal, var, t
                )


@pytest.mark.parametrize("entries", sorted(PAPER_BETTI))
def test_direct_counts_match_scan_counts_on_paper_lex_ideals(entries):
    # from below the first generator up to two past the socle degree, where
    # the staircase is widest
    h = HVector(entries)
    ideal = lex_segment_ideal(h)
    for t in range(h.socle_degree + 3):
        assert socle_dim_direct(ideal, t) == socle_dim_by_scan(ideal, t), t
        for var in (1, 2, 3):
            assert colon_dim_direct(ideal, var, t) == colon_dim_by_scan(
                ideal, var, t
            ), (t, var)


def test_colon_dim_direct_rejects_bad_variable():
    ideal = MonomialIdeal([Monomial(1, 0, 0)])
    for var in (0, 4):
        with pytest.raises(ValueError):
            colon_dim_direct(ideal, var, 2)


def test_oracle_reads_no_rank_tables():
    # the twin must not share the rank arithmetic it is meant to check
    source = inspect.getsource(oracle)
    for name in ("lex_rank", "monomial_at", "members_of_degree"):
        assert name not in source
