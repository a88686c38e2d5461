"""A fixed corpus of ``levelalg`` invocations and one digest over their output.

Every invocation runs in process through :func:`levelalg.cli.run`; the digest
is a sha256 over the JSON line ``[argv, exit code, stdout, stderr]`` of each,
in corpus order, so any changed byte of any output moves it.
``test_cli.test_cli_corpus_bytes_unchanged`` pins the digest.  Run this file
as a script, with ``src`` on the path, to print the digest and the number of
invocations::

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from collections.abc import Iterator
from unittest import mock

from levelalg.cli import run
from levelalg.hvectors import enumerate_o_sequences


def _o_sequences() -> Iterator[str]:
    for s in range(2, 6):
        for h in enumerate_o_sequences(s, 12 if s == 5 else 20):
            yield str(h)


def corpus() -> Iterator[list[str]]:
    for h in _o_sequences():
        yield ["classify", h]
        yield ["classify", h, "--quiet"]
        yield ["classify", h, "--json"]
        yield ["validate", h, "--json"]
        for json_flag in ([], ["--json"]):
            yield ["lex", h, *json_flag]
            yield ["betti", h, *json_flag]
            yield ["betti", h, "--window", "2", *json_flag]
    for triple in itertools.product(range(8), repeat=3):
        h = ",".join(map(str, triple))
        yield ["validate", h]
        yield ["validate", h, "--json"]
        yield ["validate", h, "--quiet"]
        yield ["classify", h]
        yield ["lex", h, "--degree", "2"]
    for n, i in itertools.product(range(-1, 25, 3), range(0, 7)):
        for flags in ([], ["--up"], ["--green"], ["--json"], ["--up", "--json"]):
            yield ["expand", str(n), str(i), *flags]
    yield ["expand", "4", "2", "--up", "--green"]
    for base in ("1,3,3", "1,3,6,4", "1,3,5,7,9", "1,3,6,10,11", "1,3,7", "1,2,1", "1"):
        for json_flag in ([], ["--json"]):
            yield ["construct", "iarrobino", "--base", base, *json_flag]
    for d, ell in itertools.product(range(1, 10), range(2, 14, 2)):
        for json_flag in ([], ["--json"]):
            yield ["construct", "t44b", "--d", str(d), "--ell", str(ell), *json_flag]
    for s, cap in ((0, 5), (1, 3), (2, 4), (3, 6), (3, 2), (4, 8)):
        for flags in ([], ["--json"], ["--stats"], ["--stats", "--json"]):
            yield ["enumerate", "--socle", str(s), "--cap", str(cap), *flags]
    # no invalid subcommand: argparse words its list of choices differently
    # across patch releases, and test_unknown_command_is_usage_error checks
    # the part they share
    yield ["--help"]


def digest() -> tuple[str, int]:
    """sha256 of the corpus's ``[argv, code, stdout, stderr]`` lines, and their count."""
    hasher = hashlib.sha256()
    count = 0
    # argparse wraps help and usage text to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            record = [argv, code, out.getvalue(), err.getvalue()]
            hasher.update(json.dumps(record).encode() + b"\n")
            count += 1
    return hasher.hexdigest(), count


if __name__ == "__main__":
    print(*digest())
