"""Golden output of ``levelalg lex`` for the reference h-vectors.

Every byte of the text and ``--json`` forms is pinned, for each vector in
``_support.PAPER_BETTI``, together with one ``--degree`` selection.
"""

import pytest

from levelalg.cli import run

from _support import PAPER_BETTI

LEX_TEXT = {
    '1,3,5,6,6,6,6': (
        'deg 2: x1^2\n'
        'deg 3: x1*x2^2\n'
        'deg 4: x1*x2*x3^2\n'
        'deg 5: x1*x3^4\n'
        'deg 6: x2^6\n'
        'deg 7: x2^5*x3^2, x2^4*x3^3, x2^3*x3^4, x2^2*x3^5, x2*x3^6, x3^7\n'
    ),
    '1,3,6,10,12,14,16,18,19,20': (
        'deg 4: x1^4, x1^3*x2, x1^3*x3\n'
        'deg 5: x1^2*x2^3\n'
        'deg 8: x1^2*x2^2*x3^4\n'
        'deg 9: x1^2*x2*x3^6\n'
        'deg 10: x1^2*x3^8, x1*x2^9, x1*x2^8*x3, x1*x2^7*x3^2, x1*x2^6*x3^3, '
        'x1*x2^5*x3^4, x1*x2^4*x3^5, x1*x2^3*x3^6, x1*x2^2*x3^7, x1*x2*x3^8, '
        'x1*x3^9, x2^10, x2^9*x3, x2^8*x3^2, x2^7*x3^3, x2^6*x3^4, x2^5*x3^5, '
        'x2^4*x3^6, x2^3*x3^7, x2^2*x3^8, x2*x3^9, x3^10\n'
    ),
    '1,3,6,10,13,15,17,19,20': (
        'deg 4: x1^4, x1^3*x2\n'
        'deg 5: x1^3*x3^2\n'
        'deg 6: x1^2*x2^4\n'
        'deg 8: x1^2*x2^3*x3^3\n'
        'deg 9: x1^2*x2^2*x3^5, x1^2*x2*x3^6, x1^2*x3^7, x1*x2^8, x1*x2^7*x3, '
        'x1*x2^6*x3^2, x1*x2^5*x3^3, x1*x2^4*x3^4, x1*x2^3*x3^5, x1*x2^2*x3^6, '
        'x1*x2*x3^7, x1*x3^8, x2^9, x2^8*x3, x2^7*x3^2, x2^6*x3^3, x2^5*x3^4, '
        'x2^4*x3^5, x2^3*x3^6, x2^2*x3^7, x2*x3^8, x3^9\n'
    ),
    '1,3,6,10,15,16,18': (
        'deg 5: x1^5, x1^4*x2, x1^4*x3, x1^3*x2^2, x1^3*x2*x3\n'
        'deg 6: x1^3*x3^3\n'
        'deg 7: x1^2*x2^5, x1^2*x2^4*x3, x1^2*x2^3*x3^2, x1^2*x2^2*x3^3, '
        'x1^2*x2*x3^4, x1^2*x3^5, x1*x2^6, x1*x2^5*x3, x1*x2^4*x3^2, '
        'x1*x2^3*x3^3, x1*x2^2*x3^4, x1*x2*x3^5, x1*x3^6, x2^7, x2^6*x3, '
        'x2^5*x3^2, x2^4*x3^3, x2^3*x3^4, x2^2*x3^5, x2*x3^6, x3^7\n'
    ),
    '1,3,6,10,15,16,18,20': (
        'deg 5: x1^5, x1^4*x2, x1^4*x3, x1^3*x2^2, x1^3*x2*x3\n'
        'deg 6: x1^3*x3^3\n'
        'deg 7: x1^2*x2^5\n'
        'deg 8: x1^2*x2^4*x3^2, x1^2*x2^3*x3^3, x1^2*x2^2*x3^4, x1^2*x2*x3^5, '
        'x1^2*x3^6, x1*x2^7, x1*x2^6*x3, x1*x2^5*x3^2, x1*x2^4*x3^3, '
        'x1*x2^3*x3^4, x1*x2^2*x3^5, x1*x2*x3^6, x1*x3^7, x2^8, x2^7*x3, '
        'x2^6*x3^2, x2^5*x3^3, x2^4*x3^4, x2^3*x3^5, x2^2*x3^6, x2*x3^7, x3^8\n'
    ),
}

LEX_JSON = {
    '1,3,5,6,6,6,6': (
        '{"generators": [{"degree": 2, "monomials": ["x1^2"]}, {"degree": 3, '
        '"monomials": ["x1*x2^2"]}, {"degree": 4, "monomials": ["x1*x2*x3^2"]}, '
        '{"degree": 5, "monomials": ["x1*x3^4"]}, {"degree": 6, '
        '"monomials": ["x2^6"]}, {"degree": 7, "monomials": ["x2^5*x3^2", '
        '"x2^4*x3^3", "x2^3*x3^4", "x2^2*x3^5", "x2*x3^6", "x3^7"]}], '
        '"hvector": [1, 3, 5, 6, 6, 6, 6]}\n'
    ),
    '1,3,6,10,12,14,16,18,19,20': (
        '{"generators": [{"degree": 4, "monomials": ["x1^4", "x1^3*x2", '
        '"x1^3*x3"]}, {"degree": 5, "monomials": ["x1^2*x2^3"]}, {"degree": 8, '
        '"monomials": ["x1^2*x2^2*x3^4"]}, {"degree": 9, '
        '"monomials": ["x1^2*x2*x3^6"]}, {"degree": 10, '
        '"monomials": ["x1^2*x3^8", "x1*x2^9", "x1*x2^8*x3", "x1*x2^7*x3^2", '
        '"x1*x2^6*x3^3", "x1*x2^5*x3^4", "x1*x2^4*x3^5", "x1*x2^3*x3^6", '
        '"x1*x2^2*x3^7", "x1*x2*x3^8", "x1*x3^9", "x2^10", "x2^9*x3", '
        '"x2^8*x3^2", "x2^7*x3^3", "x2^6*x3^4", "x2^5*x3^5", "x2^4*x3^6", '
        '"x2^3*x3^7", "x2^2*x3^8", "x2*x3^9", "x3^10"]}], "hvector": [1, 3, 6, '
        '10, 12, 14, 16, 18, 19, 20]}\n'
    ),
    '1,3,6,10,13,15,17,19,20': (
        '{"generators": [{"degree": 4, "monomials": ["x1^4", "x1^3*x2"]}, '
        '{"degree": 5, "monomials": ["x1^3*x3^2"]}, {"degree": 6, '
        '"monomials": ["x1^2*x2^4"]}, {"degree": 8, '
        '"monomials": ["x1^2*x2^3*x3^3"]}, {"degree": 9, '
        '"monomials": ["x1^2*x2^2*x3^5", "x1^2*x2*x3^6", "x1^2*x3^7", "x1*x2^8", '
        '"x1*x2^7*x3", "x1*x2^6*x3^2", "x1*x2^5*x3^3", "x1*x2^4*x3^4", '
        '"x1*x2^3*x3^5", "x1*x2^2*x3^6", "x1*x2*x3^7", "x1*x3^8", "x2^9", '
        '"x2^8*x3", "x2^7*x3^2", "x2^6*x3^3", "x2^5*x3^4", "x2^4*x3^5", '
        '"x2^3*x3^6", "x2^2*x3^7", "x2*x3^8", "x3^9"]}], "hvector": [1, 3, 6, '
        '10, 13, 15, 17, 19, 20]}\n'
    ),
    '1,3,6,10,15,16,18': (
        '{"generators": [{"degree": 5, "monomials": ["x1^5", "x1^4*x2", '
        '"x1^4*x3", "x1^3*x2^2", "x1^3*x2*x3"]}, {"degree": 6, '
        '"monomials": ["x1^3*x3^3"]}, {"degree": 7, "monomials": ["x1^2*x2^5", '
        '"x1^2*x2^4*x3", "x1^2*x2^3*x3^2", "x1^2*x2^2*x3^3", "x1^2*x2*x3^4", '
        '"x1^2*x3^5", "x1*x2^6", "x1*x2^5*x3", "x1*x2^4*x3^2", "x1*x2^3*x3^3", '
        '"x1*x2^2*x3^4", "x1*x2*x3^5", "x1*x3^6", "x2^7", "x2^6*x3", '
        '"x2^5*x3^2", "x2^4*x3^3", "x2^3*x3^4", "x2^2*x3^5", "x2*x3^6", '
        '"x3^7"]}], "hvector": [1, 3, 6, 10, 15, 16, 18]}\n'
    ),
    '1,3,6,10,15,16,18,20': (
        '{"generators": [{"degree": 5, "monomials": ["x1^5", "x1^4*x2", '
        '"x1^4*x3", "x1^3*x2^2", "x1^3*x2*x3"]}, {"degree": 6, '
        '"monomials": ["x1^3*x3^3"]}, {"degree": 7, "monomials": ["x1^2*x2^5"]}, '
        '{"degree": 8, "monomials": ["x1^2*x2^4*x3^2", "x1^2*x2^3*x3^3", '
        '"x1^2*x2^2*x3^4", "x1^2*x2*x3^5", "x1^2*x3^6", "x1*x2^7", "x1*x2^6*x3", '
        '"x1*x2^5*x3^2", "x1*x2^4*x3^3", "x1*x2^3*x3^4", "x1*x2^2*x3^5", '
        '"x1*x2*x3^6", "x1*x3^7", "x2^8", "x2^7*x3", "x2^6*x3^2", "x2^5*x3^3", '
        '"x2^4*x3^4", "x2^3*x3^5", "x2^2*x3^6", "x2*x3^7", "x3^8"]}], '
        '"hvector": [1, 3, 6, 10, 15, 16, 18, 20]}\n'
    ),
}

DEGREE_ARGV = ["lex", "1,3,6,10,15,16,18", "--degree", "5"]
DEGREE_TEXT = "deg 5: x1^5, x1^4*x2, x1^4*x3, x1^3*x2^2, x1^3*x2*x3\n"
DEGREE_JSON = (
    '{"generators": [{"degree": 5, "monomials": ["x1^5", "x1^4*x2", '
    '"x1^4*x3", "x1^3*x2^2", "x1^3*x2*x3"]}], '
    '"hvector": [1, 3, 6, 10, 15, 16, 18]}\n'
)


def test_reference_vectors_are_all_pinned():
    keys = {",".join(map(str, entries)) for entries in PAPER_BETTI}
    assert set(LEX_TEXT) == set(LEX_JSON) == keys


def _output(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


@pytest.mark.parametrize("arg", sorted(LEX_TEXT))
def test_lex_text_bytes(capsys, arg):
    assert _output(capsys, ["lex", arg]) == (LEX_TEXT[arg], "")


@pytest.mark.parametrize("arg", sorted(LEX_JSON))
def test_lex_json_bytes(capsys, arg):
    assert _output(capsys, ["lex", arg, "--json"]) == (LEX_JSON[arg], "")


def test_lex_degree_bytes(capsys):
    assert _output(capsys, DEGREE_ARGV) == (DEGREE_TEXT, "")
    assert _output(capsys, DEGREE_ARGV + ["--json"]) == (DEGREE_JSON, "")
