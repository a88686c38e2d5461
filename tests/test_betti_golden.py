"""Golden output of ``levelalg betti`` for the reference h-vectors.

Every byte of the text and ``--json`` forms is pinned, for each vector in
``_support.PAPER_BETTI``, together with the rendering of the zero ideal's
table, whose quotient is the whole ring.
"""

import pytest

from levelalg import MonomialIdeal, ek_betti, render_diagram
from levelalg.cli import run

from _support import PAPER_BETTI

BETTI_TEXT = {
    "1,3,5,6,6,6,6": (
        'total: 1 11 18 8\n'
        '    0: 1  .  . .\n'
        '    1: .  1  . .\n'
        '    2: .  1  1 .\n'
        '    3: .  1  2 1\n'
        '    4: .  1  2 1\n'
        '    5: .  1  1 .\n'
        '    6: .  6 12 6\n'
    ),
    "1,3,6,10,12,14,16,18,19,20": (
        'total: 1 28 50 23\n'
        '    0: 1  .  .  .\n'
        '    1: .  .  .  .\n'
        '    2: .  .  .  .\n'
        '    3: .  3  3  1\n'
        '    4: .  1  1  .\n'
        '    5: .  .  .  .\n'
        '    6: .  .  .  .\n'
        '    7: .  1  2  1\n'
        '    8: .  1  2  1\n'
        '    9: . 22 42 20\n'
    ),
    "1,3,6,10,13,15,17,19,20": (
        'total: 1 27 48 22\n'
        '    0: 1  .  .  .\n'
        '    1: .  .  .  .\n'
        '    2: .  .  .  .\n'
        '    3: .  2  1  .\n'
        '    4: .  1  2  1\n'
        '    5: .  1  1  .\n'
        '    6: .  .  .  .\n'
        '    7: .  1  2  1\n'
        '    8: . 22 42 20\n'
    ),
    "1,3,6,10,15,16,18": (
        'total: 1 27 47 21\n'
        '    0: 1  .  .  .\n'
        '    1: .  .  .  .\n'
        '    2: .  .  .  .\n'
        '    3: .  .  .  .\n'
        '    4: .  5  6  2\n'
        '    5: .  1  2  1\n'
        '    6: . 21 39 18\n'
    ),
    "1,3,6,10,15,16,18,20": (
        'total: 1 29 51 23\n'
        '    0: 1  .  .  .\n'
        '    1: .  .  .  .\n'
        '    2: .  .  .  .\n'
        '    3: .  .  .  .\n'
        '    4: .  5  6  2\n'
        '    5: .  1  2  1\n'
        '    6: .  1  1  .\n'
        '    7: . 22 42 20\n'
    ),
}

BETTI_JSON = {
    "1,3,5,6,6,6,6": (
        '[{"mult": 1, "q": 0, "shift": 2}, '
        '{"mult": 1, "q": 0, "shift": 3}, '
        '{"mult": 1, "q": 0, "shift": 4}, '
        '{"mult": 1, "q": 0, "shift": 5}, '
        '{"mult": 1, "q": 0, "shift": 6}, '
        '{"mult": 6, "q": 0, "shift": 7}, '
        '{"mult": 1, "q": 1, "shift": 4}, '
        '{"mult": 2, "q": 1, "shift": 5}, '
        '{"mult": 2, "q": 1, "shift": 6}, '
        '{"mult": 1, "q": 1, "shift": 7}, '
        '{"mult": 12, "q": 1, "shift": 8}, '
        '{"mult": 1, "q": 2, "shift": 6}, '
        '{"mult": 1, "q": 2, "shift": 7}, '
        '{"mult": 6, "q": 2, "shift": 9}]\n'
    ),
    "1,3,6,10,12,14,16,18,19,20": (
        '[{"mult": 3, "q": 0, "shift": 4}, '
        '{"mult": 1, "q": 0, "shift": 5}, '
        '{"mult": 1, "q": 0, "shift": 8}, '
        '{"mult": 1, "q": 0, "shift": 9}, '
        '{"mult": 22, "q": 0, "shift": 10}, '
        '{"mult": 3, "q": 1, "shift": 5}, '
        '{"mult": 1, "q": 1, "shift": 6}, '
        '{"mult": 2, "q": 1, "shift": 9}, '
        '{"mult": 2, "q": 1, "shift": 10}, '
        '{"mult": 42, "q": 1, "shift": 11}, '
        '{"mult": 1, "q": 2, "shift": 6}, '
        '{"mult": 1, "q": 2, "shift": 10}, '
        '{"mult": 1, "q": 2, "shift": 11}, '
        '{"mult": 20, "q": 2, "shift": 12}]\n'
    ),
    "1,3,6,10,13,15,17,19,20": (
        '[{"mult": 2, "q": 0, "shift": 4}, '
        '{"mult": 1, "q": 0, "shift": 5}, '
        '{"mult": 1, "q": 0, "shift": 6}, '
        '{"mult": 1, "q": 0, "shift": 8}, '
        '{"mult": 22, "q": 0, "shift": 9}, '
        '{"mult": 1, "q": 1, "shift": 5}, '
        '{"mult": 2, "q": 1, "shift": 6}, '
        '{"mult": 1, "q": 1, "shift": 7}, '
        '{"mult": 2, "q": 1, "shift": 9}, '
        '{"mult": 42, "q": 1, "shift": 10}, '
        '{"mult": 1, "q": 2, "shift": 7}, '
        '{"mult": 1, "q": 2, "shift": 10}, '
        '{"mult": 20, "q": 2, "shift": 11}]\n'
    ),
    "1,3,6,10,15,16,18": (
        '[{"mult": 5, "q": 0, "shift": 5}, '
        '{"mult": 1, "q": 0, "shift": 6}, '
        '{"mult": 21, "q": 0, "shift": 7}, '
        '{"mult": 6, "q": 1, "shift": 6}, '
        '{"mult": 2, "q": 1, "shift": 7}, '
        '{"mult": 39, "q": 1, "shift": 8}, '
        '{"mult": 2, "q": 2, "shift": 7}, '
        '{"mult": 1, "q": 2, "shift": 8}, '
        '{"mult": 18, "q": 2, "shift": 9}]\n'
    ),
    "1,3,6,10,15,16,18,20": (
        '[{"mult": 5, "q": 0, "shift": 5}, '
        '{"mult": 1, "q": 0, "shift": 6}, '
        '{"mult": 1, "q": 0, "shift": 7}, '
        '{"mult": 22, "q": 0, "shift": 8}, '
        '{"mult": 6, "q": 1, "shift": 6}, '
        '{"mult": 2, "q": 1, "shift": 7}, '
        '{"mult": 1, "q": 1, "shift": 8}, '
        '{"mult": 42, "q": 1, "shift": 9}, '
        '{"mult": 2, "q": 2, "shift": 7}, '
        '{"mult": 1, "q": 2, "shift": 8}, '
        '{"mult": 20, "q": 2, "shift": 10}]\n'
    ),
}


def test_reference_vectors_are_all_pinned():
    keys = {",".join(map(str, entries)) for entries in PAPER_BETTI}
    assert set(BETTI_TEXT) == set(BETTI_JSON) == keys


@pytest.mark.parametrize("arg", sorted(BETTI_TEXT))
def test_betti_text_bytes(capsys, arg):
    assert run(["betti", arg]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (BETTI_TEXT[arg], "")


@pytest.mark.parametrize("arg", sorted(BETTI_JSON))
def test_betti_json_bytes(capsys, arg):
    assert run(["betti", arg, "--json"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (BETTI_JSON[arg], "")


def test_render_zero_ideal():
    assert render_diagram(ek_betti(MonomialIdeal([]))) == "total: 1 . . .\n    0: 1 . . ."
