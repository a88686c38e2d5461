import json
import os
import subprocess
import sys
from pathlib import Path

from levelalg import BettiDiagram, cli
from levelalg.cli import run


def test_expand_default(capsys):
    assert run(["expand", "16", "6"]) == 0
    assert capsys.readouterr().out.strip() == "C(7,6)+C(6,5)+C(4,4)+C(3,3)+C(2,2)"


def test_expand_bounds(capsys):
    assert run(["expand", "16", "6", "--green"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["expand", "16", "5", "--up"]) == 0
    assert capsys.readouterr().out.strip() == "19"


def test_expand_json(capsys):
    assert run(["expand", "6", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "n": 6,
        "i": 2,
        "expansion": "C(4,2)",
        "terms": [[4, 2]],
        "up": 10,
        "green": 3,
    }


def test_expand_rejects_bad_arguments(capsys):
    assert run(["expand", "-4", "2"]) == 2
    assert run(["expand", "4", "0"]) == 2
    capsys.readouterr()


def test_validate_ok(capsys):
    assert run(["validate", "1,3,6,10"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_violation(capsys):
    assert run(["validate", "1,3,7"]) == 3
    out = capsys.readouterr().out.strip()
    assert out == "violates Macaulay bound at degree 2 (max 6)"


def test_validate_bad_leading_entry(capsys):
    assert run(["validate", "2,3"]) == 3
    assert "h0" in capsys.readouterr().out


def test_validate_parse_error(capsys):
    assert run(["validate", "1,3,x"]) == 2
    capsys.readouterr()


def test_lex_listing(capsys):
    assert run(["lex", "1,3,5,6,6,6,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "deg 2: x1^2"
    assert lines[1] == "deg 3: x1*x2^2"
    assert run(["lex", "1,3,5,6,6,6,6", "--degree", "4"]) == 0
    assert capsys.readouterr().out.strip() == "deg 4: x1*x2*x3^2"


def test_lex_invalid_hvector_goes_to_stderr(capsys):
    assert run(["lex", "1,3,7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index 2" in captured.err


def test_betti_diagram(capsys):
    assert run(["betti", "1,3"]) == 0
    assert capsys.readouterr().out == "\n".join(
        ["total: 1 6 8 3", "    0: 1 . . .", "    1: . 6 8 3", ""]
    )


def test_betti_json_triples(capsys):
    assert run(["betti", "1,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"q": 0, "shift": 2, "mult": 6},
        {"q": 1, "shift": 3, "mult": 8},
        {"q": 2, "shift": 4, "mult": 3},
    ]


def test_betti_window(capsys):
    assert run(["betti", "1,3,6,10,15,16,18", "--window", "5"]) == 0
    assert capsys.readouterr().out.strip() == "beta1_d2=2 beta2_d2=2 beta2_d3=1"
    assert run(["betti", "1,3,4", "--window", "9"]) == 3
    capsys.readouterr()


def test_classify_text(capsys):
    assert run(["classify", "1,3,6,10,15,16,18"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "NotLevel"
    assert any(line.startswith("  R-31 at d=5:") for line in lines[1:])


def test_classify_quiet(capsys):
    assert run(["classify", "1,3,5,6,6,6,6", "--quiet"]) == 0
    assert capsys.readouterr().out.strip() == "Level"


def test_classify_json_schema(capsys):
    assert run(["classify", "1,3,6,10,15,15,16", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hvector"] == [1, 3, 6, 10, 15, 15, 16]
    assert data["verdict"] == "NotLevel"
    r42 = next(c for c in data["certificates"] if c["rule"] == "R-42")
    assert r42["d"] == 5
    assert r42["quantities"] == {"delta_hd": 0, "delta_hd1": 1, "green_hd1": 2}


def test_classify_with_verification(capsys):
    assert run(["classify", "1,3,6,10,15,16,18", "--verify", "--quiet"]) == 0
    assert capsys.readouterr().out.strip() == "NotLevel"


def test_classify_verify_json_bytes(capsys):
    assert run(["classify", "1,3,6,10,15,16,18", "--verify", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"certificates": [{"d": 5, "quantities": {"beta1_d2": 2, "beta2_d2": 2, '
        '"beta2_d3": 1}, "rule": "R-31"}, {"d": 5, "quantities": {"beta1_d2": 2, '
        '"beta2_d2": 2, "delta_hd": 1, "delta_hd1": 2}, "rule": "R-37"}], '
        '"hvector": [1, 3, 6, 10, 15, 16, 18], "verdict": "NotLevel"}\n'
    )
    assert run(["classify", "1,3,5,6,6,6,6", "--verify", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"certificates": [{"d": 6, "quantities": {"delta_0": 1, "delta_1": 2, '
        '"delta_2": 2, "delta_3": 1, "delta_4": 0, "delta_5": 0, "delta_6": 0}, '
        '"rule": "R-LEVEL-DIFF"}], "hvector": [1, 3, 5, 6, 6, 6, 6], '
        '"verdict": "Level"}\n'
    )


def test_classify_verification_catches_wrong_betti_numbers(capsys, monkeypatch):
    wrong = BettiDiagram.from_dict({(0, 2): 1})
    monkeypatch.setattr(cli, "lex_betti", lambda h: wrong)
    assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure" in captured.err


def test_classify_invalid_input(capsys):
    assert run(["classify", "1,3,7"]) == 3
    capsys.readouterr()


def test_construct_iarrobino(capsys):
    assert run(["construct", "iarrobino", "--base", "1,3,3"]) == 0
    assert capsys.readouterr().out.strip() == "1,3,4"


def test_construct_iarrobino_rejects_invalid_base(capsys):
    for base in ("1,3,7", "1,2,1"):
        assert run(["construct", "iarrobino", "--base", base]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err, base


def test_construct_t44b(capsys):
    assert run(["construct", "t44b", "--d", "11", "--ell", "31"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "base: 1,3,6,10,15,21,28,36,45,55,58,61,64"
    assert lines[1] == "lift: 1,3,6,10,15,21,28,36,45,55,64,64,65"


def test_construct_t44b_json(capsys):
    assert run(["construct", "t44b", "--d", "7", "--ell", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["base"] == [1, 3, 6, 10, 15, 18, 21, 24, 27]
    assert data["hvector"] == [1, 3, 6, 10, 15, 21, 27, 27, 28]
    assert data["asserted_level"] is True


def test_construct_t44b_degenerate(capsys):
    assert run(["construct", "t44b", "--d", "2", "--ell", "3"]) == 3
    assert "plateau" in capsys.readouterr().err


def test_enumerate_listing(capsys):
    assert run(["enumerate", "--socle", "2", "--cap", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1,3,1", "1,3,2", "1,3,3", "1,3,4"]


def test_enumerate_stats(capsys):
    assert run(["enumerate", "--socle", "3", "--cap", "6", "--stats"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.splitlines())
    total = int(lines["total"])
    assert total == sum(int(lines[k]) for k in ("Level", "NotLevel", "Unknown"))
    assert "R-31" in lines and "R-LEVEL-DIFF" in lines


def test_enumerate_stats_json(capsys):
    assert run(["enumerate", "--socle", "2", "--cap", "6", "--stats", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == 6
    assert set(data["verdicts"]) == {"Level", "NotLevel", "Unknown"}


def test_output_is_deterministic(capsys):
    assert run(["classify", "1,3,6,10,15,16,18,20", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", "1,3,6,10,15,16,18,20", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


PARSER_REUSE_CALLS = [
    (["classify", "1,3,5,6,6,6,6", "--verify", "--json"], 0),
    (["classify", "1,3,6,10,15,16,18", "--verify", "--json"], 0),
    (["classify", "1,3,7"], 3),
    (["frobnicate"], 2),
    (["--help"], 0),
    (["classify", "1,3,6,10,15,16,18"], 0),
]


def test_parser_reuse_matches_fresh_parser(capsys):
    fresh = []
    for argv, _ in PARSER_REUSE_CALLS:
        cli._shared_parser.cache_clear()
        code = run(argv)
        fresh.append((code, capsys.readouterr()))
    assert [code for code, _ in fresh] == [code for _, code in PARSER_REUSE_CALLS]
    cli._shared_parser.cache_clear()
    reused = []
    for argv, _ in PARSER_REUSE_CALLS:
        code = run(argv)
        reused.append((code, capsys.readouterr()))
    assert reused == fresh
    info = cli._shared_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(PARSER_REUSE_CALLS) - 1)


def test_parser_is_not_built_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from levelalg import cli; "
        "assert cli._shared_parser.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_build_parser_returns_a_fresh_parser(capsys):
    mine = cli.build_parser()
    mine.add_argument("--extra")
    assert cli.build_parser() is not mine
    assert run(["classify", "1,3,6", "--extra", "x"]) == 2
    capsys.readouterr()
