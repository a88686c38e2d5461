import random

import pytest

from levelalg import (
    BinomialExpansion,
    binomial,
    green_bound,
    macaulay_bound,
    macaulay_expansion,
    shift,
)

from _support import expansion_exhaustive


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(2, 5) == 0
    assert binomial(4, -1) == 0
    assert binomial(0, 0) == 1


@pytest.mark.parametrize(
    "n,i,terms",
    [
        (3, 1, ((3, 1),)),
        (15, 4, ((6, 4),)),
        (16, 6, ((7, 6), (6, 5), (4, 4), (3, 3), (2, 2))),
        (0, 5, ()),
        (1, 3, ((3, 3),)),
    ],
)
def test_expansion_examples(n, i, terms):
    assert macaulay_expansion(n, i).terms == terms


def test_expansion_rejects_bad_arguments():
    with pytest.raises(ValueError):
        macaulay_expansion(-1, 2)
    with pytest.raises(ValueError):
        macaulay_expansion(4, 0)


def test_expansion_invariants_enforced():
    with pytest.raises(ValueError):
        BinomialExpansion(((2, 3),))  # top below index
    with pytest.raises(ValueError):
        BinomialExpansion(((5, 3), (6, 2)))  # tops not decreasing
    with pytest.raises(ValueError):
        BinomialExpansion(((5, 3), (4, 1)))  # indices skip


def test_expansion_rendering():
    assert str(macaulay_expansion(16, 6)) == "C(7,6)+C(6,5)+C(4,4)+C(3,3)+C(2,2)"
    assert str(macaulay_expansion(0, 2)) == "0"


def test_shift_examples():
    assert shift(macaulay_expansion(16, 6), -1, 0) == 2
    assert shift(macaulay_expansion(65, 12), -1, 0) == 6
    assert shift(macaulay_expansion(3, 1), 1, 1) == 6
    assert shift(macaulay_expansion(0, 4), 1, 1) == 0


def test_macaulay_bound_examples():
    for d in (1, 2, 5, 17):
        assert macaulay_bound(1, d) == 1
    assert macaulay_bound(6, 2) == 10
    assert macaulay_bound(16, 5) == 19
    assert macaulay_bound(0, 3) == 0


def test_green_bound_examples():
    assert green_bound(16, 6) == 2
    assert green_bound(65, 12) == 6
    assert green_bound(18, 6) == 3


def test_defect_examples():
    # green_bound(c, d) - macaulay_bound(c, d) + c vanishes for d < c < C(d+2, 2)
    assert green_bound(16, 6) - macaulay_bound(16, 6) + 16 == 0
    assert green_bound(5, 4) - macaulay_bound(5, 4) + 5 == 0


def test_round_trip_small_exhaustive():
    for i in range(1, 9):
        for n in range(0, 2001):
            assert shift(macaulay_expansion(n, i), 0, 0) == n


def test_round_trip_large_sample():
    rng = random.Random(7)
    for _ in range(5000):
        n = rng.randrange(0, 10**6 + 1)
        i = rng.randint(1, 30)
        assert shift(macaulay_expansion(n, i), 0, 0) == n


def test_greedy_matches_exhaustive_sample():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(0, 2001)
        i = rng.randint(1, 8)
        assert macaulay_expansion(n, i) == expansion_exhaustive(n, i)


def test_bounds_monotone_in_h():
    for d in range(1, 9):
        previous_up = previous_green = 0
        for h in range(0, 400):
            up, green = macaulay_bound(h, d), green_bound(h, d)
            assert up >= previous_up
            assert green >= previous_green
            previous_up, previous_green = up, green


def test_green_vanishes_exactly_up_to_d():
    for d in range(1, 21):
        top = binomial(d + 2, 2) + 10
        for h in range(0, top):
            assert (green_bound(h, d) == 0) == (h <= d), (h, d)


def test_defect_vanishes_on_guaranteed_range_small():
    for d in range(1, 11):
        for c in range(d + 1, binomial(d + 2, 2)):
            assert green_bound(c, d) - macaulay_bound(c, d) + c == 0, (c, d)
