import importlib
import itertools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from levelalg import HVector, betti, cli, ek_betti, lex_segment_ideal, oracle
from levelalg.cli import run
from levelalg.hvectors import lowest_violation

from cli_corpus import digest


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
    # argparse only parses; the range is macaulay_expansion's to refuse
    assert run(["expand", "-4", "2"]) == 3
    assert capsys.readouterr() == ("", "n must be non-negative, got -4\n")
    assert run(["expand", "4", "0"]) == 3
    assert capsys.readouterr() == ("", "i must be at least 1, got 0\n")
    assert run(["expand", "4", "x"]) == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("entries", ["1,4,10", "1,2,1", "1", "1,2,7"])
def test_validate_requires_h1_equal_3(capsys, entries):
    # as classify, lex and betti do; h1 = 2 outranks the growth violation
    # at index 2 of 1,2,7
    assert run(["validate", entries]) == 3
    assert capsys.readouterr().out == "h1 must be 3\n"
    assert run(["validate", entries, "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "hvector": [int(e) for e in entries.split(",")],
        "ok": False,
        "index": 1,
    }


def test_validate_reports_h0_before_h1(capsys):
    assert run(["validate", "2,4", "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["index"] == 0


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
    assert captured.err == "violates Macaulay bound at degree 2 (max 6)\n"


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
    assert capsys.readouterr().err == "d must be at most the socle degree 2, got 9\n"
    # h is validated before d, as `betti H` alone does
    for argv in (["betti", "1", "--window", "1"], ["betti", "1,4,11", "--window", "9"]):
        assert run(argv) == 3
        assert capsys.readouterr() == ("", "h1 must be 3\n")


REFUSING_COMMANDS = [
    ["classify", "H"],
    ["lex", "H"],
    ["betti", "H"],
    ["betti", "H", "--window", "1"],
    ["construct", "iarrobino", "--base", "H"],
]


def test_every_subcommand_refuses_as_validate_reports(capsys):
    # one owner for h-vector validity: validate's index is the library's,
    # and every other subcommand refuses an invalid vector with validate's
    # text, naming the lowest violating index
    vectors = {
        HVector(entries)
        for length in range(1, 5)
        for entries in itertools.product(range(8), repeat=length)
    }
    for h in sorted(vectors, key=lambda h: h.entries):
        text = str(h)
        code = run(["validate", text, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report.get("index") == lowest_violation(h), text
        if report["ok"]:
            assert code == 0, text
            continue
        assert code == 3, text
        assert run(["validate", text]) == 3
        message = capsys.readouterr().out
        for command in REFUSING_COMMANDS:
            argv = [text if arg == "H" else arg for arg in command]
            assert run(argv) == 3, argv
            assert capsys.readouterr() == ("", message), argv


@pytest.mark.parametrize(
    "argv, name",
    [
        (["expand", "-1", "2"], "n"),
        (["expand", "4", "0"], "i"),
        (["lex", "1,3,6", "--degree", "-1"], "degree"),
        (["betti", "1,3,6", "--window", "0"], "d"),
        (["enumerate", "--socle", "0", "--cap", "5"], "s"),
        (["enumerate", "--socle", "3", "--cap", "2"], "cap"),
        (["construct", "t44b", "--d", "1", "--ell", "5"], "d"),
        (["construct", "t44b", "--d", "5", "--ell", "2"], "ell"),
    ],
)
def test_out_of_range_numbers_are_the_library_refusal(capsys, argv, name):
    # argparse reads every number as a plain int; the library entry point
    # checks its range, and its message names the argument
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{name} must be "), captured.err


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
    wrong = ([0, 0, 1], [], [])
    monkeypatch.setattr(betti, "lex_betti", lambda h: wrong)
    assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure" in captured.err


def test_classify_verification_covers_the_columns_the_rules_read(capsys, monkeypatch):
    # the rules and the --verify cross-check read the same lex columns: one
    # wrong Betti number changes the verdict and fails against the
    # resolution of the lex ideal
    real = betti._lex_column

    def wrong(h_prev, h_g, g):
        total, beta1, beta2 = real(h_prev, h_g, g)
        return total, beta1 + (g == 6), beta2

    for module in (betti, importlib.import_module("levelalg.classify")):
        monkeypatch.setattr(module, "_lex_column", wrong)
    assert run(["classify", "1,3,6,10,15,16,18", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] != "NotLevel"
    assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure" in captured.err


VERIFY_VECTORS = ["1,3,6,10,15,16,18", "1,3,5,6,6,6,6", "1,3,6,10,12,14,16,18,19,20"]


SOCLE_MUTANTS = {
    "empty": lambda dims: {},
    "top-degree-dropped": lambda dims: {t: n for t, n in dims.items() if t != max(dims)},
    "extra-degree": lambda dims: {**dims, max(dims) + 1: 1},
    "value-changed": lambda dims: {**dims, min(dims): dims[min(dims)] + 1},
}


@pytest.mark.parametrize("mutant", sorted(SOCLE_MUTANTS))
@pytest.mark.parametrize("entries", VERIFY_VECTORS)
def test_classify_verification_catches_wrong_socle_dims(
    capsys, monkeypatch, entries, mutant
):
    # each mutant changes the oracle's socle column and leaves its colon
    # column alone; the degrees checked come from h, not from the counts
    # under test, so a dropped top degree leaves its beta_2 entry without a
    # socle counterpart and must still fail
    real = oracle.colon_and_socle_dims

    def mutated(ideal, top):
        dims = real(ideal, top)
        socle = SOCLE_MUTANTS[mutant]({t: n for t, (_, n) in enumerate(dims) if n})
        assert max(socle, default=0) <= top  # the mutant is within the counts
        return [(colon, socle.get(t, 0)) for t, (colon, _) in enumerate(dims)]

    monkeypatch.setattr(oracle, "colon_and_socle_dims", mutated)
    assert run(["classify", entries, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "socle/Betti duality" in captured.err


def test_classify_verification_matches_every_second_syzygy(capsys, monkeypatch):
    # zeroing the oracle's socle count in any one degree where it is nonzero
    # leaves that degree's beta_2 entry without a socle counterpart
    real = oracle.colon_and_socle_dims
    lexi = lex_segment_ideal(HVector((1, 3, 6, 10, 15, 16, 18)))
    degrees = [t for t, (_, n) in enumerate(real(lexi, 7)) if n]
    assert degrees == [4, 5, 6]
    for dropped in degrees:

        def without_degree(ideal, top):
            dims = real(ideal, top)
            dims[dropped] = (dims[dropped][0], 0)
            return dims

        monkeypatch.setattr(oracle, "colon_and_socle_dims", without_degree)
        assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "socle/Betti duality" in captured.err


def test_classify_verification_builds_one_staircase(capsys, monkeypatch):
    builds = []
    real = oracle._staircase

    def counted(ideal, top):
        builds.append(top)
        return real(ideal, top)

    monkeypatch.setattr(oracle, "_staircase", counted)
    for entries in VERIFY_VECTORS:
        builds.clear()
        assert run(["classify", entries, "--verify", "--json"]) == 0
        assert len(builds) == 1, entries
    capsys.readouterr()


def test_classify_verification_checks_numerator_of_its_resolution(capsys, monkeypatch):
    # the numerator identity runs on the one resolution the verifier holds:
    # dropping its last second syzygy must fail that identity first
    def short_resolution(ideal):
        b0, b1, b2 = ek_betti(ideal)
        b2[max(j for j, mult in enumerate(b2) if mult)] = 0
        return b0, b1, b2

    monkeypatch.setattr(betti, "ek_betti", short_resolution)
    assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerator mismatch" in captured.err


def test_classify_verification_ties_the_ideal_to_h(capsys, monkeypatch):
    # an ideal and Betti numbers that agree with each other, but belong to
    # another h-vector of the same socle degree, must still fail
    other = HVector.parse("1,3,1,1,1,1,1")
    real_ideal, real_betti = betti.lex_segment_ideal, betti.lex_betti
    monkeypatch.setattr(betti, "lex_segment_ideal", lambda h: real_ideal(other))
    monkeypatch.setattr(betti, "lex_betti", lambda h: real_betti(other))
    assert run(["classify", "1,3,6,10,15,16,18", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Hilbert function" in captured.err


def test_classify_refuses_before_verifying(capsys, monkeypatch):
    # the verdict comes first: socle degree 1 is refused without building,
    # resolving or cross-checking the lex ideal
    calls = []

    def record(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(betti, "lex_segment_ideal", record("lex_segment_ideal"))
    monkeypatch.setattr(oracle, "colon_and_socle_dims", record("colon_and_socle_dims"))
    monkeypatch.setattr(betti, "macaulay_expansion", record("macaulay_expansion"))
    assert run(["classify", "1,3", "--verify"]) == 3
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert "socle degree at least 2" in captured.err


def test_classify_invalid_input(capsys):
    assert run(["classify", "1,3,7"]) == 3
    capsys.readouterr()


def test_construct_iarrobino(capsys):
    assert run(["construct", "iarrobino", "--base", "1,3,3"]) == 0
    assert capsys.readouterr().out.strip() == "1,3,4"


def test_construct_iarrobino_json(capsys):
    # the document states no levelness claim: nothing checks that the base
    # is level, and the lift of a base that is not level need not be level
    assert run(["construct", "iarrobino", "--base", "1,3,3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "base": [1, 3, 3],
        "hvector": [1, 3, 4],
    }


def test_construct_group_takes_no_json(capsys):
    # --json belongs to the leaf parser alone: on the group, the leaf's
    # default would overwrite it
    assert run(["construct", "--json", "iarrobino", "--base", "1,3,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --json" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "16", "6"],
        ["lex", "1,3,5"],
        ["betti", "1,3,5"],
        ["construct", "iarrobino", "--base", "1,3,3"],
        ["construct", "t44b", "--d", "7", "--ell", "6"],
        ["enumerate", "--socle", "2", "--cap", "4"],
    ],
)
def test_quiet_only_where_it_is_read(capsys, argv):
    assert run(argv + ["--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --quiet" in captured.err


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
    assert json.loads(capsys.readouterr().out) == {
        "d": 7,
        "ell": 6,
        "base": [1, 3, 6, 10, 15, 18, 21, 24, 27],
        "hvector": [1, 3, 6, 10, 15, 21, 27, 27, 28],
    }


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


def test_enumerate_stats_pins_the_benchmark_sweep(capsys):
    # the sweep-s7 benchmark's space; CI checks the installed console script
    # against the same document
    assert run(["enumerate", "--socle", "7", "--cap", "20", "--stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "total": 16047,
        "verdicts": {"Level": 152, "NotLevel": 11514, "Unknown": 4381},
        "rules": {
            "R-CANCEL": 12199,
            "R-31": 1768,
            "R-33": 1748,
            "R-37": 20,
            "R-42": 1817,
            "R-44A": 173,
            "R-AS": 2246,
            "R-LEVEL-DIFF": 152,
        },
    }


def test_output_is_deterministic(capsys):
    assert run(["classify", "1,3,6,10,15,16,18,20", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", "1,3,6,10,15,16,18,20", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_unknown_command_is_usage_error(capsys):
    # argparse words the list of choices differently across patch releases,
    # so this checks only the part every release shares; the corpus digest
    # leaves the record out for the same reason
    assert run(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'frobnicate'" in captured.err


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


@pytest.mark.parametrize("entries", VERIFY_VECTORS)
def test_classify_verification_catches_wrong_x3_colon_counts(
    capsys, monkeypatch, entries
):
    real = oracle.colon_and_socle_dims

    def colon_plus_one(ideal, top):
        return [(colon + 1, socle) for colon, socle in real(ideal, top)]

    monkeypatch.setattr(oracle, "colon_and_socle_dims", colon_plus_one)
    assert run(["classify", entries, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x3-colon counts" in captured.err


@pytest.mark.parametrize("entries", VERIFY_VECTORS)
def test_classify_verification_catches_wrong_expansion(capsys, monkeypatch, entries):
    # the expansion of n + 1 differs from that of n, by uniqueness
    real = betti.macaulay_expansion
    monkeypatch.setattr(betti, "macaulay_expansion", lambda n, i: real(n + 1, i))
    assert run(["classify", entries, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expansion mismatch" in captured.err


def test_classify_verification_catches_expansion_wrong_above_degree_8(
    capsys, monkeypatch
):
    # the expansion check runs at every degree: a bug that shows only past
    # degree 8 fails at d = 9 of this socle-degree-9 vector
    real = betti.macaulay_expansion
    monkeypatch.setattr(
        betti,
        "macaulay_expansion",
        lambda n, i: real(n + 1, i) if i > 8 else real(n, i),
    )
    assert run(["classify", "1,3,6,10,12,14,16,18,19,20", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expansion mismatch for (20, 9)" in captured.err


def test_cli_corpus_bytes_unchanged():
    # sha256 over (argv, exit code, stdout, stderr) of every invocation in
    # cli_corpus, re-recorded when the `construct` help dropped its level
    # claim and the invalid-subcommand record left the corpus (the corpus
    # without those two records kept its digest): any changed byte of any
    # subcommand's output moves it.  The same under CPython 3.10.13, 3.11.7,
    # 3.12.1, 3.13.0 and 3.13.13
    assert digest() == (
        "6d8018bd817c159e73b7a95e486405e2ad5879696fccda7598f6913c4edbc99d",
        10513,
    )


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_the_command_quietly():
    # as `levelalg enumerate ... | head -1` does; the listing at socle 7 is
    # several times a pipe buffer, so the command is still writing when the
    # reader goes away
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "levelalg.cli", "enumerate", "--socle", "7", "--cap", "20"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"1,3,1,1,1,1,1,1\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""
