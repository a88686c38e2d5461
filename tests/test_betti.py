import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    binomial,
    classify,
    count_gens_div_x3,
    ek_betti,
    enumerate_o_sequences,
    lex_betti,
    lex_betti_window,
    lex_segment_ideal,
    macaulay_bound,
    numerator_check,
    render_diagram,
    socle_dims,
)

from levelalg import betti
from levelalg.hvectors import require_codim3

from _support import (
    PAPER_BETTI,
    betti_dict,
    ek_betti_by_generator,
    family_hvector,
    o_sequences,
    random_o_sequence,
    random_stable_ideal,
)


def test_diagram_invariants_enforced():
    # render_diagram is the public reader of a table: three columns of
    # non-negative integers, and nothing else
    with pytest.raises(ValueError, match="must be non-negative"):
        render_diagram(([0, 0, 1], [0, 0, 0, -1], []))
    for shape in (([1], [1]), ([1], [1], [1], [1]), 5, None):
        with pytest.raises(ValueError, match="three columns"):
            render_diagram(shape)


@pytest.mark.parametrize(
    "entries",
    [([0, 0, 1.5], [], []), ([], [0, 2.0], []), ([], [], ["0"]), ([None], [], [])],
)
def test_diagram_rejects_non_integer_entries(entries):
    with pytest.raises(ValueError, match="Betti number must be an integer"):
        render_diagram(entries)


def test_diagram_stores_integers():
    # operator.index reads True as 1, so it prints as 1, not as True
    assert render_diagram(([0, 0, True], [0, 0, 0, 2], [])) == render_diagram(
        ([0, 0, 1], [0, 0, 0, 2], [])
    ) == "total: 1 1 2 .\n    0: 1 . . .\n    1: . 1 2 ."


def test_ek_betti_maximal_ideal_square():
    columns = ek_betti(lex_segment_ideal(HVector((1, 3))))
    assert columns == ([0, 0, 6, 0, 0], [0, 0, 0, 8, 0], [0, 0, 0, 0, 3])


@pytest.mark.parametrize("entries", sorted(PAPER_BETTI))
def test_ek_betti_reproduces_reference_tables(entries):
    diagram = ek_betti(lex_segment_ideal(HVector(entries)))
    assert betti_dict(diagram) == PAPER_BETTI[entries]


def test_ek_betti_matches_per_generator_reference():
    rng = random.Random(61)
    for _ in range(40):
        ideal = random_stable_ideal(rng, max_trunc=7, max_extras=6)
        assert betti_dict(ek_betti(ideal)) == ek_betti_by_generator(ideal), ideal
    for _ in range(20):
        ideal = lex_segment_ideal(random_o_sequence(rng, max_s=10, cap=40))
        assert betti_dict(ek_betti(ideal)) == ek_betti_by_generator(ideal), ideal


def test_ek_betti_rejects_non_stable():
    with pytest.raises(ValueError):
        ek_betti(MonomialIdeal([Monomial(0, 2, 0)]))


def test_unit_ideal_table_and_numerator():
    # the constant generator counts in the (1, 0, 0) row: beta_{0,0} = 1 and
    # nothing else, and 1 - 1 is (1-t)^3 times the zero Hilbert series
    unit = MonomialIdeal([Monomial(0, 0, 0)])
    assert ek_betti(unit) == ([1, 0, 0], [0, 0, 0], [0, 0, 0])
    assert numerator_check(unit)
    # the quotient's table sits one stratum below the ring's
    assert render_diagram(ek_betti(unit)) == "total: 1 1 . .\n   -1: . 1 . .\n    0: 1 . . ."


def test_zero_ideal_table():
    assert ek_betti(MonomialIdeal([])) == ([], [], [])


@pytest.mark.parametrize("s", range(1, 7))
def test_lex_betti_equals_resolution_exhaustive(s):
    for h in enumerate_o_sequences(s, 20):
        columns = lex_betti(h)
        # the columns classify reads, entry by entry with zeros included
        assert columns == ek_betti(lex_segment_ideal(h)), h
        assert [len(column) for column in columns] == [s + 4] * 3, h


@pytest.mark.parametrize(
    "bound,wrong",
    [
        ("green_bound", lambda n, d: n + 100),  # x1x2 count below zero
        ("macaulay_bound", lambda n, d: 0),  # x3 count below zero
    ],
)
def test_negative_generator_count_raises(monkeypatch, bound, wrong):
    # a wrong bound makes a generator count negative: the columns must
    # refuse it instead of handing a negative Betti number to the rules
    monkeypatch.setattr(betti, bound, wrong)
    h = HVector((1, 3, 6, 10, 15, 16, 18))
    for compute in (classify, lex_betti, lambda h: lex_betti_window(h, 5)):
        with pytest.raises(ValueError, match="negative lex generator count"):
            compute(h)


@st.composite
def near_o_sequences(draw):
    """Socle degree 2..6 and positive entries past h_0: h_0 and h_1 are mostly
    1 and 3, and each later entry lands under, on or just over its growth
    bound, so any mix of a bad h_0, h_1 != 3 and growth violations occurs."""
    entries = [draw(st.sampled_from((1, 1, 1, 0, 2))), draw(st.sampled_from((3, 3, 3, 2, 4)))]
    for i in range(2, draw(st.integers(3, 7))):
        bound = macaulay_bound(entries[-1], i - 1)
        entries.append(
            draw(st.one_of(st.integers(1, bound), st.integers(bound + 1, bound + 3)))
        )
    return HVector(tuple(entries))


def _outcome(compute, h):
    try:
        compute(h)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(near_o_sequences())
@example(HVector((2, 3, 6)))  # bad h_0
@example(HVector((0, 3, 6, 10)))
@example(HVector((1, 2, 3)))  # h_1 != 3
@example(HVector((1, 4, 10, 20)))
@example(HVector((1, 3, 7)))  # growth violation at the first step
@example(HVector((1, 3, 6, 10, 15, 16, 18, 22)))  # ... at the last
@example(HVector((1, 2, 3, 5)))  # h_1 != 3 and a later violation
@example(HVector((1, 3, 6, 10, 15, 16, 18)))  # valid
def test_fused_validation_raises_what_require_codim3_raises(h):
    # the column loop validates h itself, and must refuse exactly the
    # vectors require_codim3 refuses, with its message
    expected = _outcome(require_codim3, h)
    for compute in (classify, lex_betti, lambda h: lex_betti_window(h, 1)):
        assert _outcome(compute, h) == expected, (h, compute)


@settings(max_examples=60, deadline=None)
@given(o_sequences())
@example(family_hvector(20, 8))  # the verify benchmark's largest tiers
@example(family_hvector(24, 12))
def test_lex_betti_equals_resolution_property(h):
    ideal = lex_segment_ideal(h)
    assert lex_betti(h) == ek_betti(ideal)
    assert numerator_check(ideal)


def test_lex_betti_rejects_invalid_input():
    with pytest.raises(ValueError, match="violates Macaulay bound at degree 2"):
        lex_betti(HVector((1, 3, 7)))
    with pytest.raises(ValueError, match="h1 must be 3"):
        lex_betti(HVector((1, 2, 1)))


@pytest.mark.parametrize(
    "entries,d,window",
    [
        ((1, 3, 6, 10, 15, 16, 18), 5, (2, 2, 1)),
        ((1, 3, 6, 10, 15, 16, 18, 20), 5, (2, 2, 1)),
        ((1, 3, 6, 10, 12, 14, 16, 18, 19, 20), 4, (1, 1, 0)),
        ((1, 3, 5, 6, 6, 6, 6), 5, (1, 1, 0)),
        ((1, 3, 6, 10, 13, 15, 17, 19, 20), 5, (1, 1, 0)),
    ],
)
def test_lex_betti_window_examples(entries, d, window):
    assert lex_betti_window(HVector(entries), d) == window


def test_lex_betti_window_falls_back_when_ring_is_full():
    h = HVector((1, 3, 6, 10))
    _, b1, b2 = ek_betti(lex_segment_ideal(h))
    for d in range(1, 4):
        assert h.at(d) == binomial(d + 2, 2)  # the whole ring in degree d
        assert lex_betti_window(h, d) == (b1[d + 2], b2[d + 2], b2[d + 3])


def test_lex_betti_window_bounds_checked():
    with pytest.raises(ValueError):
        lex_betti_window(HVector((1, 3, 4)), 0)
    with pytest.raises(ValueError):
        lex_betti_window(HVector((1, 3, 4)), 3)


@pytest.mark.parametrize("bad", [2.5, "2", None])
def test_lex_betti_window_rejects_non_integer_d(bad):
    with pytest.raises(ValueError, match="^d must be an integer"):
        lex_betti_window(HVector((1, 3, 6, 10, 15, 16, 18)), bad)


def test_window_agrees_with_resolution_everywhere():
    rng = random.Random(31)
    for _ in range(40):
        h = random_o_sequence(rng, max_s=7, cap=25)
        _, b1, b2 = ek_betti(lex_segment_ideal(h))
        for d in range(1, h.socle_degree + 1):
            assert lex_betti_window(h, d) == (b1[d + 2], b2[d + 2], b2[d + 3]), (h, d)


def test_numerator_identity():
    assert numerator_check(lex_segment_ideal(HVector((1, 3))))
    assert numerator_check(lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6))))
    with pytest.raises(ValueError):
        numerator_check(MonomialIdeal([Monomial(1, 0, 0)]))


def test_numerator_identity_reads_the_hilbert_function_it_is_given():
    ideal = lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6)))
    columns = ek_betti(ideal)
    assert betti._numerator_identity((1, 3, 5, 6, 6, 6, 6, 0), columns)
    assert not betti._numerator_identity((1, 3, 5, 6, 6, 6, 5, 0), columns)
    assert not betti._numerator_identity((1, 3, 5, 6, 6, 6), columns)


def test_socle_duality_and_colon_link():
    rng = random.Random(37)
    for _ in range(30):
        ideal = random_stable_ideal(rng)
        _, _, b2 = ek_betti(ideal)
        dims = socle_dims(ideal)
        assert len(b2) > max(dims) + 3, ideal
        for j, mult in enumerate(b2):
            assert mult == dims.get(j - 3, 0), (ideal, j)
        for g in ideal.generator_degrees():
            assert b2[g + 2] == count_gens_div_x3(ideal, g)


def test_render_maximal_ideal_square():
    diagram = ek_betti(lex_segment_ideal(HVector((1, 3))))
    assert render_diagram(diagram) == "\n".join(
        [
            "total: 1 6 8 3",
            "    0: 1 . . .",
            "    1: . 6 8 3",
        ]
    )


def test_render_empty_diagram():
    assert render_diagram(([], [], [])) == "\n".join(
        [
            "total: 1 . . .",
            "    0: 1 . . .",
        ]
    )


def test_render_plateau_window_rows():
    # h_d = 3d+2 and h_{d+1} = 3d+3 at d = 6: the stratum rows around d
    diagram = ek_betti(lex_segment_ideal(HVector((1, 3, 6, 10, 15, 20, 20, 21))))
    rows = {
        line.split(":")[0].strip(): line.split(":")[1].split()
        for line in render_diagram(diagram).splitlines()
    }
    assert rows["6"] == [".", "2", "4", "2"]
    assert rows["5"][-1] == "3"
