"""Command-line interface.

Subcommands expose the library operations one-to-one; all input arrives via
argv and results go to stdout (diagnostics to stderr).  The CLI only parses:
argparse turns argv into integers and h-vectors, and every range or validity
check is the library's, whose ValueError message is printed as is.  Exit
codes: 0 on success, 2 when argv does not parse, 3 when the library refuses
a value (an invalid h-vector or an out-of-range number), 1 when an internal
cross-check disagrees.

Each ``_cmd_*`` handler prints nothing and returns ``(exit code, JSON
document, text)``; :func:`run` alone prints, the document under ``--json``
and otherwise the text when it is not empty.  Only the ``enumerate`` listing
prints as it goes, so that a sweep is never held whole; its document is
``None``.  A handler that fails raises, and :func:`run` prints the message
to stderr and maps ``ValueError`` to 3 and ``ConsistencyError`` to 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .binomials import green_bound, macaulay_bound, macaulay_expansion
from .betti import lex_betti, lex_betti_window, render_diagram, verify_lex
from .classify import (
    LEVEL,
    NOT_LEVEL,
    NOT_LEVEL_RULES,
    R_LEVEL_DIFF,
    UNKNOWN,
    classify,
    construct_plateau_level,
    iarrobino_lift,
)
from .errors import ConsistencyError
from .hvectors import HVector, enumerate_o_sequences, lowest_violation, require_codim3
from .monomials import lex_segment_ideal

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _hvector_arg(text: str) -> HVector:
    try:
        return HVector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelalg",
        description="Exact level/non-level tests for codimension-3 h-vectors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    terse = argparse.ArgumentParser(add_help=False, parents=[common])
    terse.add_argument("--quiet", action="store_true", help="result only, no detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="Macaulay binomial expansion")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--up", action="store_true", help="print the growth bound")
    mode.add_argument("--green", action="store_true", help="print the restriction bound")

    p = sub.add_parser("validate", parents=[terse], help="check the O-sequence conditions")
    p.add_argument("hvector", type=_hvector_arg)

    p = sub.add_parser("lex", parents=[common], help="lex-segment ideal generators")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("betti", parents=[common], help="Betti diagram of the lex ideal")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--window", type=int, default=None, metavar="D")

    p = sub.add_parser("classify", parents=[terse], help="Level / NotLevel / Unknown")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--verify", action="store_true", help="re-run brute-force cross-checks")

    p = sub.add_parser("construct", help="build candidate h-vectors (no level claim)")
    construct_sub = p.add_subparsers(dest="method", required=True)
    pi = construct_sub.add_parser("iarrobino", parents=[common])
    pi.add_argument("--base", type=_hvector_arg, required=True)
    pt = construct_sub.add_parser("t44b", parents=[common])
    pt.add_argument("--d", type=int, required=True)
    pt.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("enumerate", parents=[common], help="stream O-sequences with h1=3")
    p.add_argument("--socle", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--stats", action="store_true", help="classify and tally instead of listing")
    return parser


def _cmd_expand(args) -> tuple:
    expansion = macaulay_expansion(args.n, args.i)
    document = {
        "n": args.n,
        "i": args.i,
        "expansion": str(expansion),
        "terms": [list(term) for term in expansion.terms],
        "up": macaulay_bound(args.n, args.i),
        "green": green_bound(args.n, args.i),
    }
    shown = "up" if args.up else "green" if args.green else "expansion"
    return EXIT_OK, document, str(document[shown])


def _cmd_validate(args) -> tuple:
    h = args.hvector
    try:
        require_codim3(h)
    except ValueError as refusal:
        # the text every other subcommand prints to stderr, on stdout
        index = lowest_violation(h)
        document = {"hvector": list(h), "ok": False, "index": index}
        if index >= 2:
            document["max"] = macaulay_bound(h[index - 1], index - 1)
        return EXIT_REFUSED, document, str(refusal)
    return EXIT_OK, {"hvector": list(h), "ok": True}, "" if args.quiet else "ok"


def _cmd_lex(args) -> tuple:
    ideal = lex_segment_ideal(args.hvector)
    degrees = ideal.generator_degrees()
    if args.degree is not None:
        # generators_of_degree checks the degree
        degrees = (args.degree,) if ideal.generators_of_degree(args.degree) else ()
    generators = [
        {"degree": d, "monomials": [str(m) for m in ideal.generators_of_degree(d)]}
        for d in degrees
    ]
    text = "\n".join(f"deg {g['degree']}: " + ", ".join(g["monomials"]) for g in generators)
    return EXIT_OK, {"hvector": list(args.hvector), "generators": generators}, text


def _cmd_betti(args) -> tuple:
    if args.window is not None:
        window = lex_betti_window(args.hvector, args.window)
        betas = dict(zip(("beta1_d2", "beta2_d2", "beta2_d3"), window))
        document = {"hvector": list(args.hvector), "d": args.window, **betas}
        return EXIT_OK, document, " ".join(f"{k}={v}" for k, v in betas.items())
    columns = lex_betti(args.hvector)
    triples = [
        {"q": q, "shift": j, "mult": mult}
        for q, column in enumerate(columns)
        for j, mult in enumerate(column)
        if mult
    ]
    return EXIT_OK, triples, render_diagram(columns)


def _cmd_classify(args) -> tuple:
    verdict = classify(args.hvector)
    if args.verify:
        verify_lex(args.hvector)
    document = {"hvector": list(args.hvector), **verdict.as_dict()}
    lines = [verdict.kind]
    if not args.quiet:
        for cert in verdict.certificates:
            quantities = " ".join(f"{k}={v}" for k, v in cert.quantities.items())
            lines.append(f"  {cert.rule} at d={cert.d}: {quantities}")
    return EXIT_OK, document, "\n".join(lines)


def _cmd_construct(args) -> tuple:
    if args.method == "iarrobino":
        base, lifted = args.base, iarrobino_lift(args.base)
        document = {}
        text = str(lifted)
    else:
        base, lifted = construct_plateau_level(args.d, args.ell)
        document = {"d": args.d, "ell": args.ell}
        text = f"base: {base}\nlift: {lifted}"
    document.update(base=list(base), hvector=list(lifted))
    return EXIT_OK, document, text


def _cmd_enumerate(args) -> tuple:
    stream = enumerate_o_sequences(args.socle, args.cap)
    if not args.stats:
        for h in stream:
            print(json.dumps(list(h)) if args.json else str(h))
        return EXIT_OK, None, ""
    tally = dict.fromkeys((LEVEL, NOT_LEVEL, UNKNOWN), 0)
    rule_counts = dict.fromkeys(NOT_LEVEL_RULES + (R_LEVEL_DIFF,), 0)
    total = 0
    for h in stream:
        verdict = classify(h)
        total += 1
        tally[verdict.kind] += 1
        for cert in verdict.certificates:
            rule_counts[cert.rule] += 1
    document = {"total": total, "verdicts": tally, "rules": rule_counts}
    lines = [f"total: {total}"]
    for counts in (tally, rule_counts):
        lines.extend(f"{key}: {n}" for key, n in counts.items())
    return EXIT_OK, document, "\n".join(lines)


_HANDLERS = {
    "expand": _cmd_expand,
    "validate": _cmd_validate,
    "lex": _cmd_lex,
    "betti": _cmd_betti,
    "classify": _cmd_classify,
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
}


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for :func:`run`, built on its first call.

    Parsing leaves no state in the parser, so a process that calls
    :func:`run` many times (a library caller, a test suite, a benchmark)
    builds it once.  The ``levelalg`` command calls :func:`run` once per
    process and gains nothing.  :func:`build_parser` still returns a fresh
    parser, so a caller that changes its copy does not change :func:`run`.
    """
    return build_parser()


def run(argv: list[str]) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, document, text = _HANDLERS[args.command](args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_REFUSED
    if args.json and document is not None:
        print(json.dumps(document, sort_keys=True))
    elif text:
        print(text)
    return code


def main() -> None:
    # imported here, not at module level: run() and its in-process callers
    # never need it
    import signal

    # a closed stdout (`levelalg enumerate ... | head`) ends the process
    # quietly, as it does other Unix filters, instead of with a traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
