import random

import pytest
from hypothesis import given, settings

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    count_gens_div_x3,
    enumerate_o_sequences,
    green_bound,
    lex_compare,
    lex_rank,
    lex_segment_ideal,
    monomial_at,
    monomial_count,
    monomials_of_degree,
    quotient_hf,
    reduction_number_r1_lex,
    restricted_hf,
    socle_dims,
)
from levelalg.monomials import _lex_generators

from _support import (
    in_ideal_by_scan,
    is_stable_by_exchange,
    lex_generators_by_full_scan,
    monomial_ideals,
    random_o_sequence,
    random_stable_ideal,
)


def test_monomial_basics():
    m = Monomial(2, 0, 1)
    assert m.degree == 3
    assert m.max_var() == 3
    assert str(m) == "x1^2*x3"
    assert str(Monomial(0, 0, 0)) == "1"
    assert str(Monomial(1, 1, 0)) == "x1*x2"
    with pytest.raises(ValueError):
        Monomial(0, 0, 0).max_var()


def test_lex_compare():
    assert lex_compare(Monomial(2, 0, 0), Monomial(1, 1, 0)) > 0
    assert lex_compare(Monomial(1, 2, 1), Monomial(1, 1, 2)) > 0
    assert lex_compare(Monomial(1, 1, 0), Monomial(1, 1, 0)) == 0
    with pytest.raises(ValueError):
        lex_compare(Monomial(1, 0, 0), Monomial(2, 0, 0))


def test_degree_two_descending_order():
    assert [str(m) for m in monomials_of_degree(2)] == [
        "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2",
    ]


def test_rank_unrank_bijection():
    for t in range(0, 13):
        ms = monomials_of_degree(t)
        assert len(ms) == monomial_count(t)
        for r, m in enumerate(ms):
            assert lex_rank(m) == r
            assert monomial_at(t, r) == m
    with pytest.raises(IndexError):
        monomial_at(2, 6)


def test_rank_round_trip_at_triangular_boundaries():
    # T_k = k(k+1)/2 is the first rank with tail k; the rank fixes (tail, e3)
    # whatever the degree, so degree 2000 holds every boundary up to 2000
    top = 2000
    for k in range(1, top + 1):
        tri = k * (k + 1) // 2
        assert monomial_at(top, tri) == Monomial(top - k, k, 0)
        assert monomial_at(top, tri - 1) == Monomial(top - k + 1, 0, k - 1)
        for r in (tri - 1, tri):
            assert lex_rank(monomial_at(top, r)) == r
    for t in range(top + 1):
        last = monomial_count(t) - 1
        assert monomial_at(t, last) == Monomial(0, 0, t)
        assert lex_rank(monomial_at(t, last)) == last
        tri = t * (t + 1) // 2
        assert monomial_at(t, tri) == Monomial(0, t, 0)
        with pytest.raises(IndexError):
            monomial_at(t, last + 1)


def test_members_of_degree_matches_divisor_scan_on_non_stable_ideal():
    ideal = MonomialIdeal([Monomial(0, 2, 0), Monomial(1, 0, 3)])
    assert not ideal.is_stable()
    for t in range(8):
        assert ideal.members_of_degree(t) == [
            in_ideal_by_scan(ideal, m) for m in monomials_of_degree(t)
        ]


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_members_of_degree_matches_divisor_scan(ideal):
    for t in range(ideal.max_generator_degree() + 3):
        assert ideal.members_of_degree(t) == [
            in_ideal_by_scan(ideal, m) for m in monomials_of_degree(t)
        ], (ideal, t)


def test_minimal_generators_deduplicated():
    ideal = MonomialIdeal(
        [Monomial(2, 0, 0), Monomial(3, 1, 0), Monomial(0, 2, 0), Monomial(2, 0, 0)]
    )
    assert ideal.generators() == (Monomial(2, 0, 0), Monomial(0, 2, 0))


def test_membership_matches_divisibility():
    rng = random.Random(5)
    for _ in range(30):
        gens = [
            monomial_at(t, rng.randrange(monomial_count(t)))
            for t in rng.sample(range(1, 6), k=rng.randint(1, 3))
        ]
        ideal = MonomialIdeal(gens)
        for t in range(0, 7):
            for m in monomials_of_degree(t):
                assert ideal.contains(m) == any(g.divides(m) for g in gens)


def test_lex_segment_maximal_ideal_square():
    ideal = lex_segment_ideal(HVector((1, 3)))
    assert ideal.generators() == tuple(monomials_of_degree(2))


def test_lex_segment_generators_example_34():
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    by_degree = {d: ideal.generators_of_degree(d) for d in ideal.generator_degrees()}
    assert by_degree[2] == (Monomial(2, 0, 0),)
    assert by_degree[3] == (Monomial(1, 2, 0),)
    assert by_degree[4] == (Monomial(1, 1, 2),)
    assert by_degree[5] == (Monomial(1, 0, 4),)
    assert by_degree[6] == (Monomial(0, 6, 0),)
    assert len(by_degree[7]) == 6


def test_lex_segment_degree_five_generators_example_32():
    ideal = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert ideal.generators_of_degree(5) == (
        Monomial(5, 0, 0),
        Monomial(4, 1, 0),
        Monomial(4, 0, 1),
        Monomial(3, 2, 0),
        Monomial(3, 1, 1),
    )


def test_lex_segment_rejects_invalid_input():
    with pytest.raises(ValueError):
        lex_segment_ideal(HVector((1, 3, 7)))
    with pytest.raises(ValueError):
        lex_segment_ideal(HVector((1, 2, 3)))


def test_stability():
    assert not MonomialIdeal([Monomial(0, 2, 0)]).is_stable()
    assert MonomialIdeal(
        [Monomial(2, 0, 0), Monomial(1, 1, 0), Monomial(0, 2, 0)]
    ).is_stable()


@settings(max_examples=300, deadline=None)
@given(monomial_ideals())
def test_is_stable_matches_exchange_definition(ideal):
    assert ideal.is_stable() == is_stable_by_exchange(ideal), ideal


def test_is_stable_on_stable_and_broken_ideals():
    rng = random.Random(17)
    for _ in range(15):
        ideal = random_stable_ideal(rng, max_trunc=5, max_extras=3)
        assert ideal.is_stable() and is_stable_by_exchange(ideal), ideal
    # (x1, x3) fails only x3 -> x2, (x2) only x2 -> x1, (x3) both x3 exchanges
    for gens in ([(1, 0, 0), (0, 0, 1)], [(0, 1, 0)], [(0, 0, 1)]):
        ideal = MonomialIdeal([Monomial(*g) for g in gens])
        assert not ideal.is_stable() and not is_stable_by_exchange(ideal), ideal
    assert MonomialIdeal([Monomial(0, 0, 0)]).is_stable()


def test_lex_segments_are_stable_via_raw_check():
    rng = random.Random(9)
    for _ in range(25):
        h = random_o_sequence(rng, max_s=6, cap=20)
        lexi = lex_segment_ideal(h)
        rebuilt = MonomialIdeal(lexi.generators())  # no stability flag
        assert rebuilt.is_stable(), h


def test_band_scan_matches_full_rank_scan():
    # compare the band scan's raw output, before MonomialIdeal's minimality
    # filter could hide a non-minimal generator it let in
    for s in range(1, 6):
        for h in enumerate_o_sequences(s, 20):
            band = _lex_generators(h)
            assert band == lex_generators_by_full_scan(h), h
            assert lex_segment_ideal(h).generators() == tuple(band), h
            assert MonomialIdeal(band).generators() == tuple(band), h


def test_segments_are_closed_under_multiplication():
    rng = random.Random(13)
    for _ in range(25):
        h = random_o_sequence(rng, max_s=6, cap=20)
        s = h.socle_degree
        cuts = [monomial_count(t) - h.at(t) for t in range(s + 2)]
        for t in range(s + 1):
            for r in range(cuts[t]):
                m = monomial_at(t, r)
                for v in (1, 2, 3):
                    assert lex_rank(m.mul_var(v)) < cuts[t + 1], (h, m, v)


def test_quotient_hf_reproduces_input():
    rng = random.Random(21)
    for _ in range(20):
        h = random_o_sequence(rng, max_s=7, cap=25)
        s = h.socle_degree
        assert quotient_hf(lex_segment_ideal(h), s + 1) == tuple(
            h.at(t) for t in range(s + 2)
        )


def test_quotient_hf_examples():
    assert quotient_hf(lex_segment_ideal(HVector((1, 3))), 3) == (1, 3, 0, 0)
    gens = [Monomial(2, 0, 0), Monomial(0, 3, 0)] + monomials_of_degree(7)
    assert quotient_hf(MonomialIdeal(gens), 6) == (1, 3, 5, 6, 6, 6, 6)


def test_count_gens_div_x3_examples():
    ideal = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert count_gens_div_x3(ideal, 5) == 2
    assert count_gens_div_x3(ideal, 6) == 1
    assert count_gens_div_x3(lex_segment_ideal(HVector((1, 3))), 2) == 3
    with pytest.raises(ValueError):
        count_gens_div_x3(MonomialIdeal([Monomial(0, 2, 0)]), 2)


def test_socle_dims_examples():
    assert socle_dims(lex_segment_ideal(HVector((1, 3)))) == {1: 3}
    assert socle_dims(lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))) == {
        3: 1, 4: 1, 6: 6,
    }
    assert socle_dims(lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))) == {
        4: 2, 5: 1, 6: 18,
    }


def test_socle_requires_finite_colength():
    with pytest.raises(ValueError):
        socle_dims(MonomialIdeal([Monomial(1, 0, 0)]))


def test_restricted_hf_examples():
    lexi = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    assert restricted_hf(lexi, 6) == (1, 2, 2, 1, 1, 1, 0)
    assert restricted_hf(lex_segment_ideal(HVector((1, 3))), 3) == (1, 2, 0, 0)
    lexi32 = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert restricted_hf(lexi32, 5)[5] == 3


def test_restricted_hf_agrees_with_green_bound():
    rng = random.Random(17)
    for _ in range(25):
        h = random_o_sequence(rng, max_s=8, cap=30)
        s = h.socle_degree
        restricted = restricted_hf(lex_segment_ideal(h), s + 1)
        for t in range(1, s + 2):
            assert restricted[t] == green_bound(h.at(t), t), (h, t)


def test_reduction_number_examples():
    assert reduction_number_r1_lex(HVector((1,))) == 0
    assert reduction_number_r1_lex(HVector((1, 3))) == 1
    # the lex ideal value; other ideals with this h-vector can do better
    assert reduction_number_r1_lex(HVector((1, 3, 5, 6, 6, 6, 6))) == 5


def test_reduction_number_matches_restricted_scan():
    rng = random.Random(29)
    for _ in range(20):
        h = random_o_sequence(rng, max_s=6, cap=18)
        level = reduction_number_r1_lex(h)
        restricted = restricted_hf(lex_segment_ideal(h), h.socle_degree + 1)
        assert restricted[level + 1] == 0
        assert all(restricted[t + 1] > 0 for t in range(level))


def test_render():
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    lines = ideal.render().splitlines()
    assert lines[0] == "deg 2: x1^2"
    assert lines[1] == "deg 3: x1*x2^2"
