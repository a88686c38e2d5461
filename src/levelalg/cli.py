"""Command-line interface.

Subcommands expose the library operations one-to-one; all input arrives via
argv and results go to stdout (diagnostics to stderr).  Exit codes: 0 on
success, 2 on argument parse errors, 3 on an invalid h-vector, 1 when an
internal cross-check disagrees.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import oracle
from .binomials import green_bound, macaulay_bound, macaulay_expansion
from .betti import (
    ek_betti,
    lex_betti,
    lex_betti_window,
    numerator_check,
    render_diagram,
)
from .classify import (
    NOT_LEVEL_RULES,
    R_LEVEL_DIFF,
    classify,
    construct_plateau_level,
    iarrobino_lift,
)
from .errors import ConsistencyError
from .hvectors import HVector, enumerate_o_sequences
from .monomials import count_gens_div_x3, lex_segment_ideal, socle_dims

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_BAD_HVECTOR = 3


def _hvector_arg(text: str) -> HVector:
    try:
        return HVector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelalg",
        description="Exact level/non-level tests for codimension-3 h-vectors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--quiet", action="store_true", help="result only, no detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="Macaulay binomial expansion")
    p.add_argument("n", type=_nonnegative)
    p.add_argument("i", type=_positive)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--up", action="store_true", help="print the growth bound")
    mode.add_argument("--green", action="store_true", help="print the restriction bound")

    p = sub.add_parser("validate", parents=[common], help="check the O-sequence conditions")
    p.add_argument("hvector", type=_hvector_arg)

    p = sub.add_parser("lex", parents=[common], help="lex-segment ideal generators")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--degree", type=_nonnegative, default=None)

    p = sub.add_parser("betti", parents=[common], help="Betti diagram of the lex ideal")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--window", type=_positive, default=None, metavar="D")

    p = sub.add_parser("classify", parents=[common], help="Level / NotLevel / Unknown")
    p.add_argument("hvector", type=_hvector_arg)
    p.add_argument("--verify", action="store_true", help="re-run brute-force cross-checks")

    p = sub.add_parser("construct", parents=[common], help="build level sequences")
    construct_sub = p.add_subparsers(dest="method", required=True)
    pi = construct_sub.add_parser("iarrobino", parents=[common])
    pi.add_argument("--base", type=_hvector_arg, required=True)
    pt = construct_sub.add_parser("t44b", parents=[common])
    pt.add_argument("--d", type=_positive, required=True)
    pt.add_argument("--ell", type=_positive, required=True)

    p = sub.add_parser("enumerate", parents=[common], help="stream O-sequences with h1=3")
    p.add_argument("--socle", type=_positive, required=True)
    p.add_argument("--cap", type=_positive, required=True)
    p.add_argument("--stats", action="store_true", help="classify and tally instead of listing")
    return parser


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _cmd_expand(args) -> int:
    expansion = macaulay_expansion(args.n, args.i)
    up = macaulay_bound(args.n, args.i)
    green = green_bound(args.n, args.i)
    if args.up:
        text = str(up)
    elif args.green:
        text = str(green)
    else:
        text = str(expansion)
    payload = {
        "n": args.n,
        "i": args.i,
        "expansion": str(expansion),
        "terms": [list(term) for term in expansion.terms],
        "up": up,
        "green": green,
    }
    _emit(payload, args.json, text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    violation = args.hvector.o_sequence_violation()
    if violation is None:
        _emit({"hvector": list(args.hvector), "ok": True}, args.json, "" if args.quiet else "ok")
        return EXIT_OK
    if violation == 0:
        text = "h0 must be 1"
        payload = {"hvector": list(args.hvector), "ok": False, "index": 0}
    else:
        limit = macaulay_bound(args.hvector[violation - 1], violation - 1)
        text = f"violates Macaulay bound at degree {violation} (max {limit})"
        payload = {
            "hvector": list(args.hvector),
            "ok": False,
            "index": violation,
            "max": limit,
        }
    _emit(payload, args.json, text)
    return EXIT_BAD_HVECTOR


def _cmd_lex(args) -> int:
    ideal = lex_segment_ideal(args.hvector)
    degrees = ideal.generator_degrees()
    if args.degree is not None:
        degrees = tuple(d for d in degrees if d == args.degree)
    payload = {
        "hvector": list(args.hvector),
        "generators": [
            {"degree": d, "monomials": [str(m) for m in ideal.generators_of_degree(d)]}
            for d in degrees
        ],
    }
    lines = [
        f"deg {d}: " + ", ".join(str(m) for m in ideal.generators_of_degree(d))
        for d in degrees
    ]
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _cmd_betti(args) -> int:
    if args.window is not None:
        d = args.window
        if d > args.hvector.socle_degree:
            print(f"window degree {d} exceeds socle degree", file=sys.stderr)
            return EXIT_BAD_HVECTOR
        beta1, beta2, beta2_next = lex_betti_window(args.hvector, d)
        payload = {
            "hvector": list(args.hvector),
            "d": d,
            "beta1_d2": beta1,
            "beta2_d2": beta2,
            "beta2_d3": beta2_next,
        }
        text = f"beta1_d2={beta1} beta2_d2={beta2} beta2_d3={beta2_next}"
        _emit(payload, args.json, text)
        return EXIT_OK
    diagram = lex_betti(args.hvector)
    if args.json:
        print(json.dumps(diagram.triples(), sort_keys=True))
    else:
        print(render_diagram(diagram))
    return EXIT_OK


def _verify_against_oracles(h: HVector) -> None:
    ideal = lex_segment_ideal(h)
    if not numerator_check(ideal):
        raise ConsistencyError(f"Hilbert-series numerator mismatch for lex({h})")
    betti = ek_betti(ideal)
    h_only = lex_betti(h)
    if h_only != betti:
        raise ConsistencyError(
            f"h-only Betti numbers {h_only.as_dict()} != resolution of lex({h}) "
            f"{betti.as_dict()}"
        )
    for g in ideal.generator_degrees():
        fast = count_gens_div_x3(ideal, g)
        direct = oracle.colon_dim_direct(ideal, 3, g - 1)
        if fast != direct:
            raise ConsistencyError(
                f"colon count mismatch at degree {g}: {fast} vs {direct}"
            )
    dims = socle_dims(ideal)
    top = max(dims, default=0) + 1
    for t in range(top + 1):
        direct = oracle.socle_dim_direct(ideal, t)
        if dims.get(t, 0) != direct:
            raise ConsistencyError(
                f"socle dimension mismatch in degree {t}: {dims.get(t, 0)} vs {direct}"
            )
        if betti.beta(2, t + 3) != direct:
            raise ConsistencyError(
                f"socle/Betti duality fails in degree {t}: "
                f"{betti.beta(2, t + 3)} vs {direct}"
            )
    for d in range(1, h.socle_degree + 1):
        if h.at(d) <= 5000 and d <= 8:
            if oracle.expansion_exhaustive(h.at(d), d) != macaulay_expansion(h.at(d), d):
                raise ConsistencyError(f"expansion mismatch for ({h.at(d)}, {d})")


def _certificate_text(cert) -> str:
    quantities = " ".join(f"{k}={v}" for k, v in cert.quantities.items())
    return f"  {cert.rule} at d={cert.d}: {quantities}"


def _cmd_classify(args) -> int:
    if args.verify:
        _verify_against_oracles(args.hvector)
    verdict = classify(args.hvector)
    payload = {"hvector": list(args.hvector), **verdict.as_dict()}
    if args.quiet:
        text = verdict.kind
    else:
        lines = [verdict.kind]
        lines.extend(_certificate_text(c) for c in verdict.certificates)
        text = "\n".join(lines)
    _emit(payload, args.json, text)
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.method == "iarrobino":
        lifted = iarrobino_lift(args.base)
        payload = {
            "base": list(args.base),
            "hvector": list(lifted),
            "asserted_level": True,
        }
        _emit(payload, args.json, str(lifted))
        return EXIT_OK
    base, lifted = construct_plateau_level(args.d, args.ell)
    payload = {
        "d": args.d,
        "ell": args.ell,
        "base": list(base),
        "hvector": list(lifted),
        "asserted_level": True,
    }
    _emit(payload, args.json, f"base: {base}\nlift: {lifted}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    stream = enumerate_o_sequences(args.socle, args.cap)
    if not args.stats:
        for h in stream:
            print(json.dumps(list(h)) if args.json else str(h))
        return EXIT_OK
    tally = {"Level": 0, "NotLevel": 0, "Unknown": 0}
    rule_counts = {rule: 0 for rule in NOT_LEVEL_RULES + (R_LEVEL_DIFF,)}
    total = 0
    for h in stream:
        verdict = classify(h)
        total += 1
        tally[verdict.kind] += 1
        for cert in verdict.certificates:
            rule_counts[cert.rule] += 1
    payload = {"total": total, "verdicts": tally, "rules": rule_counts}
    lines = [f"total: {total}"]
    lines.extend(f"{kind}: {tally[kind]}" for kind in ("Level", "NotLevel", "Unknown"))
    lines.extend(f"{rule}: {rule_counts[rule]}" for rule in NOT_LEVEL_RULES + (R_LEVEL_DIFF,))
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


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
        return _HANDLERS[args.command](args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_HVECTOR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
