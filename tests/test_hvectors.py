import itertools
import random
import re

import pytest

from levelalg import HVector, enumerate_o_sequences, growth_violation
from levelalg.hvectors import lowest_violation, require_codim3

from _support import osequence_filter


def test_construction_trims_trailing_zeros():
    assert HVector((1, 3, 4, 0, 0)).entries == (1, 3, 4)
    assert HVector((1,)).entries == (1,)
    assert HVector((1, 0)).socle_degree == 0


def test_construction_rejects_bad_entries():
    with pytest.raises(ValueError):
        HVector((1, -2, 3))
    with pytest.raises(ValueError):
        HVector(())


@pytest.mark.parametrize(
    "entries",
    [(1, 3, 5.9, 7.5), (1.0, 3), (1, 3, "6"), ("1", "3", "6")],
)
def test_construction_rejects_non_integer_entries(entries):
    # floats are not truncated and numeric strings are not parsed
    with pytest.raises(ValueError, match="h-vector entries must be integers"):
        HVector(entries)


def test_construction_accepts_integer_like_entries():
    h = HVector((True, 3, 6))
    assert h.entries == (1, 3, 6)
    assert all(type(e) is int for e in h.entries)


def test_parse_and_render():
    h = HVector.parse("1,3,6,10")
    assert h.entries == (1, 3, 6, 10)
    assert str(h) == "1,3,6,10"
    with pytest.raises(ValueError):
        HVector.parse("1,3,x")


@pytest.mark.parametrize(
    "entries, index, message",
    [
        ((1, 3, 6, 10), None, None),
        ((1, 3), None, None),
        ((2, 3, 7), 0, "h0 must be 1"),
        ((0, 4), 0, "h0 must be 1"),
        ((1,), 1, "h1 must be 3"),
        ((1, 2, 1), 1, "h1 must be 3"),
        ((1, 4, 11), 1, "h1 must be 3"),  # h1 outranks the growth violation
        ((1, 3, 7), 2, "violates Macaulay bound at degree 2 (max 6)"),
        ((1, 3, 6, 10, 15, 16, 18, 22), 7, "violates Macaulay bound at degree 7 (max 21)"),
    ],
)
def test_lowest_violation_and_its_message(entries, index, message):
    h = HVector(entries)
    assert lowest_violation(h) == index
    if message is None:
        require_codim3(h)
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            require_codim3(h)


def test_at_reads_zero_beyond_socle():
    h = HVector((1, 3, 2))
    assert h.at(2) == 2
    assert h.at(5) == 0
    for bad in (-1, 2.5, "1"):
        with pytest.raises(ValueError, match="^degree must be"):
            h.at(bad)


@pytest.mark.parametrize(
    "entries,violation",
    [
        ((1, 3, 6, 10), None),
        ((1, 3, 5, 6, 6, 6, 6), None),
        ((1, 3, 7), 2),
        ((2, 3), 0),
        ((1, 3, 0, 1), 3),
        ((1, 100), None),  # h1 is unconstrained
    ],
)
def test_o_sequence_violations(entries, violation):
    assert growth_violation(HVector(entries).entries) == violation


@pytest.mark.parametrize(
    "entries,diff",
    [
        ((1, 3, 6, 10), (1, 2, 3, 4)),
        ((1, 3, 5, 6, 6, 6, 6), (1, 2, 2, 1, 0, 0, 0)),
        ((1, 3, 6, 10, 15, 16, 18, 20), (1, 2, 3, 4, 5, 1, 2, 2)),
    ],
)
def test_first_difference(entries, diff):
    assert HVector(entries).first_difference() == diff


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1, 3, 6, 10, 13, 15, 17, 19, 20), True),
        ((1, 3, 5, 6, 6, 6, 6), True),
        ((1, 3, 6, 10, 15, 16, 18), False),
        ((1, 4, 2), False),  # difference goes negative
    ],
)
def test_is_differentiable(entries, expected):
    assert HVector(entries).is_differentiable() is expected


def test_enumerate_socle_one():
    assert [h.entries for h in enumerate_o_sequences(1, 3)] == [(1, 3)]


def test_enumerate_socle_two():
    got = [h.entries for h in enumerate_o_sequences(2, 6)]
    assert got == [(1, 3, k) for k in range(1, 7)]


def test_enumerate_agrees_with_filter_oracle():
    got = set(enumerate_o_sequences(3, 4))
    assert got == osequence_filter(3, 4)
    assert len(got) == 11


def test_enumerate_is_sorted_and_valid():
    veced = [h.entries for h in enumerate_o_sequences(4, 8)]
    assert veced == sorted(veced)
    assert all(growth_violation(v) is None for v in veced)
    assert all(v[-1] > 0 and len(v) == 5 for v in veced)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_o_sequences(0, 5))
    with pytest.raises(ValueError):
        list(enumerate_o_sequences(3, 2))


def test_difference_of_o_sequence_implies_o_sequence():
    # checked by brute force, not assumed: growth bounds are superadditive here
    for s in range(1, 6):
        for tail in itertools.product(range(13), repeat=s):
            seq = (1,) + tail
            if growth_violation([seq[0]] + [seq[i] - seq[i - 1] for i in range(1, s + 1)]) is None:
                assert growth_violation(seq) is None, seq


def test_first_difference_inverts_prefix_sum():
    rng = random.Random(3)
    for _ in range(200):
        entries = [1] + [rng.randrange(0, 30) for _ in range(rng.randint(1, 9))]
        if entries[-1] == 0:
            entries[-1] = 1
        h = HVector(tuple(entries))
        total, rebuilt = 0, []
        for delta in h.first_difference():
            total += delta
            rebuilt.append(total)
        assert tuple(rebuilt) == h.entries
