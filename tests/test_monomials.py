import random

import pytest
from hypothesis import example, given, settings

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    enumerate_o_sequences,
    green_bound,
    lex_segment_ideal,
    quotient_hf,
)
from levelalg.monomials import lex_rank, monomial_count
from levelalg.oracle import colon_and_socle_dims

from _support import (
    contains,
    divides,
    family_hvector,
    finite_colength_ideals,
    in_ideal_by_scan,
    is_stable_by_exchange,
    lex_compare,
    lex_generators_by_full_scan,
    max_generator_degree,
    max_var,
    members_of_degree,
    minimal_by_divisor_scan,
    monomial_at,
    monomial_ideals,
    monomials_of_degree,
    mul_var,
    o_sequences,
    random_o_sequence,
    random_stable_ideal,
    raw_monomial_lists,
    reduction_number_r1_lex,
    render_ideal,
    restricted_hf_by_monomials,
)


def test_monomial_basics():
    m = Monomial(2, 0, 1)
    assert m.degree == 3
    assert str(m) == "x1^2*x3"
    assert str(Monomial(0, 0, 0)) == "1"
    assert str(Monomial(1, 1, 0)) == "x1*x2"


def test_max_var():
    assert max_var(Monomial(2, 0, 1)) == 3
    with pytest.raises(ValueError):
        max_var(Monomial(0, 0, 0))


def test_lex_compare():
    assert lex_compare(Monomial(2, 0, 0), Monomial(1, 1, 0)) > 0
    assert lex_compare(Monomial(1, 2, 1), Monomial(1, 1, 2)) > 0
    assert lex_compare(Monomial(1, 1, 0), Monomial(1, 1, 0)) == 0
    with pytest.raises(ValueError):
        lex_compare(Monomial(1, 0, 0), Monomial(2, 0, 0))
    # lex order within a degree is tuple order, which lex_rank counts down
    for t in range(5):
        ranked = monomials_of_degree(t)
        for u in ranked:
            for v in ranked:
                assert lex_compare(u, v) == (lex_rank(u) < lex_rank(v)) - (
                    lex_rank(u) > lex_rank(v)
                )


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
        assert members_of_degree(ideal, t) == [
            in_ideal_by_scan(ideal, m) for m in monomials_of_degree(t)
        ]


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_members_of_degree_matches_divisor_scan(ideal):
    for t in range(max_generator_degree(ideal) + 3):
        assert members_of_degree(ideal, t) == [
            in_ideal_by_scan(ideal, m) for m in monomials_of_degree(t)
        ], (ideal, t)


def test_minimal_generators_deduplicated():
    ideal = MonomialIdeal(
        [Monomial(2, 0, 0), Monomial(3, 1, 0), Monomial(0, 2, 0), Monomial(2, 0, 0)]
    )
    assert ideal.generators() == (Monomial(2, 0, 0), Monomial(0, 2, 0))


@settings(max_examples=200, deadline=None)
@given(raw_monomial_lists())
@example([])
@example([Monomial(0, 0, 0), Monomial(1, 0, 0), Monomial(0, 0, 0)])
@example([Monomial(1, 1, 0), Monomial(2, 1, 0), Monomial(1, 1, 0), Monomial(0, 1, 0)])
def test_generators_are_the_divisor_scan_minimal_set(ms):
    # a given monomial is a generator exactly when the row grown from the
    # degree below lacks it
    assert MonomialIdeal(ms).generators() == minimal_by_divisor_scan(ms), ms


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
                assert contains(ideal, m) == any(divides(g, m) for g in gens)


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


def test_lex_generators_match_full_rank_scan():
    for s in range(1, 6):
        for h in enumerate_o_sequences(s, 20):
            gens = lex_segment_ideal(h).generators()
            assert gens == tuple(lex_generators_by_full_scan(h)), h


@settings(max_examples=100, deadline=None)
@given(o_sequences(max_s=24))
@example(family_hvector(20, 8))
@example(family_hvector(20, 12))
@example(family_hvector(24, 8))
@example(family_hvector(24, 12))
def test_lex_generators_match_full_rank_scan_at_verify_sizes(h):
    # the verify workload runs s = 8..24, past the exhaustive check above
    gens = lex_segment_ideal(h).generators()
    assert gens == tuple(lex_generators_by_full_scan(h)), h


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
                    assert lex_rank(mul_var(m, v)) < cuts[t + 1], (h, m, v)


def test_quotient_hf_reproduces_input():
    rng = random.Random(21)
    for _ in range(20):
        h = random_o_sequence(rng, max_s=7, cap=25)
        s = h.socle_degree
        assert quotient_hf(lex_segment_ideal(h), s + 1) == tuple(
            h.at(t) for t in range(s + 2)
        )


@settings(max_examples=200, deadline=None)
@given(monomial_ideals(), finite_colength_ideals())
def test_quotient_hf_matches_divisor_scan(ideal, finite):
    for case in (ideal, finite):
        through = max_generator_degree(case) + 2
        assert quotient_hf(case, through) == tuple(
            sum(not in_ideal_by_scan(case, m) for m in monomials_of_degree(t))
            for t in range(through + 1)
        ), case


def test_quotient_hf_examples():
    assert quotient_hf(lex_segment_ideal(HVector((1, 3))), 3) == (1, 3, 0, 0)
    gens = [Monomial(2, 0, 0), Monomial(0, 3, 0)] + monomials_of_degree(7)
    assert quotient_hf(MonomialIdeal(gens), 6) == (1, 3, 5, 6, 6, 6, 6)


def test_socle_dims_examples():
    # the socle counts of lex ideals, read from the oracle through degree s + 1
    def socle_dims(h):
        dims = colon_and_socle_dims(lex_segment_ideal(HVector(h)), len(h))
        return {t: n for t, (_, n) in enumerate(dims) if n}

    assert socle_dims((1, 3)) == {1: 3}
    assert socle_dims((1, 3, 5, 6, 6, 6, 6)) == {3: 1, 4: 1, 6: 6}
    assert socle_dims((1, 3, 6, 10, 15, 16, 18)) == {4: 2, 5: 1, 6: 18}


def test_negative_degree_raises_before_and_after_rows_are_cached():
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    with pytest.raises(ValueError, match="degree must be non-negative"):
        ideal._ensure_tables(-1)
    quotient_hf(ideal, 3)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        ideal._ensure_tables(-1)


@pytest.mark.parametrize("bad", [2.5, "2", None])
def test_non_integer_degree_raises_before_rows_are_built(bad):
    # construction builds the rows through degree s + 1 = 7; a refused
    # call adds none and changes none, before or after more are built
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    for through in (7, 9):
        quotient_hf(ideal, through)
        rows = list(ideal._member)
        assert len(rows) == through + 1
        with pytest.raises(ValueError, match="degree must be an integer"):
            ideal._ensure_tables(bad)
        assert ideal._member == rows


@pytest.mark.parametrize("bad", [2.5, -1, "2", None])
@pytest.mark.parametrize(
    "reader",
    [
        MonomialIdeal._ensure_tables,
        MonomialIdeal.generators_of_degree,
        quotient_hf,
    ],
    ids=lambda reader: reader.__name__,
)
def test_degree_readers_reject_bad_degrees(reader, bad):
    # every reader of a degree shares the row reader's check, so none
    # returns an empty or zero answer, or a TypeError, for a bad degree
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    with pytest.raises(ValueError, match="^degree must be"):
        reader(ideal, bad)


@pytest.mark.parametrize(
    "bad",
    [Monomial(2, -1, 0), Monomial(1.5, 0.5, 0), Monomial("1", 0, 0), (1, 2), (1, 2, 3, 4)],
)
def test_ideal_rejects_malformed_exponents(bad):
    # unchecked, a plain tuple of the wrong length fails in Monomial(*exponents)
    # with TypeError
    with pytest.raises(ValueError, match="monomial exponents must be"):
        MonomialIdeal([Monomial(0, 0, 2), bad])


def test_restricted_hf_examples():
    lexi = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    assert restricted_hf_by_monomials(lexi, 6) == (1, 2, 2, 1, 1, 1, 0)
    assert restricted_hf_by_monomials(lex_segment_ideal(HVector((1, 3))), 3) == (1, 2, 0, 0)
    lexi32 = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert restricted_hf_by_monomials(lexi32, 5)[5] == 3


def test_restricted_hf_agrees_with_green_bound():
    rng = random.Random(17)
    for _ in range(25):
        h = random_o_sequence(rng, max_s=8, cap=30)
        s = h.socle_degree
        restricted = restricted_hf_by_monomials(lex_segment_ideal(h), s + 1)
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
        restricted = restricted_hf_by_monomials(lex_segment_ideal(h), h.socle_degree + 1)
        assert restricted[level + 1] == 0
        assert all(restricted[t + 1] > 0 for t in range(level))


def test_render():
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    lines = render_ideal(ideal).splitlines()
    assert lines[0] == "deg 2: x1^2"
    assert lines[1] == "deg 3: x1*x2^2"
