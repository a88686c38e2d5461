"""Every integer argument passes the one check in :mod:`levelalg.errors`,
every h-vector argument the one type check in :mod:`levelalg.hvectors`, and
every ideal argument the one in :mod:`levelalg.monomials`.

A bad value raises ValueError naming the argument, or for an h-vector, an
ideal or a certificate its type; no entry point raises TypeError,
AttributeError or RecursionError for it or returns an answer.  The degree readers of :mod:`levelalg.monomials`
are covered by ``test_monomials.py::test_degree_readers_reject_bad_degrees``.
"""

import pytest

from levelalg import (
    Certificate,
    HVector,
    MonomialIdeal,
    classify,
    construct_plateau_level,
    ek_betti,
    enumerate_o_sequences,
    green_bound,
    iarrobino_lift,
    lex_betti,
    lex_betti_window,
    lex_segment_ideal,
    macaulay_bound,
    macaulay_expansion,
    quotient_hf,
    replay_certificate,
    verify_lex,
)
from levelalg.classify import R_31, R_44A, R_CANCEL
from levelalg.hvectors import require_codim3
from levelalg.oracle import colon_and_socle_dims

from _support import expansion_exhaustive, osequence_filter


def _replay_r31(d):
    return replay_certificate(
        Certificate(R_31, d, {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": 1})
    )


def _replay_r_cancel(beta2):
    return replay_certificate(Certificate(R_CANCEL, 2, {"beta1_d2": 1, "beta2_d2": beta2}))


# entry point with one argument open -> (the name its message gives that
# argument, the largest value below its bound, or None when it has none).
# macaulay_bound and green_bound leave the check to macaulay_expansion, so
# their h and d are reported as n and i; the non-integral float 2.5 is never
# a cached key, so it reaches that check.
ENTRIES = {
    "macaulay_expansion-n": (lambda v: macaulay_expansion(v, 2), "n", -1),
    "macaulay_expansion-i": (lambda v: macaulay_expansion(7, v), "i", 0),
    # the tests' slow twin of macaulay_expansion refuses the same n and i
    "expansion_exhaustive-n": (lambda v: expansion_exhaustive(v, 2), "n", -1),
    "expansion_exhaustive-i": (lambda v: expansion_exhaustive(7, v), "i", 0),
    "macaulay_bound-h": (lambda v: macaulay_bound(v, 2), "n", -1),
    "macaulay_bound-d": (lambda v: macaulay_bound(7, v), "i", 0),
    "green_bound-h": (lambda v: green_bound(v, 2), "n", -1),
    "green_bound-d": (lambda v: green_bound(7, v), "i", 0),
    "enumerate_o_sequences-s": (lambda v: list(enumerate_o_sequences(v, 10)), "s", 0),
    "enumerate_o_sequences-cap": (lambda v: list(enumerate_o_sequences(3, v)), "cap", 2),
    # the tests' slow twin of enumerate_o_sequences refuses the same s and cap
    "osequence_filter-s": (lambda v: osequence_filter(v, 10), "s", 0),
    "osequence_filter-cap": (lambda v: osequence_filter(3, v), "cap", 2),
    "colon_and_socle_dims-top": (
        lambda v: colon_and_socle_dims(lex_segment_ideal(HVector((1, 3, 5, 6, 6, 6, 6))), v),
        "top",
        -1,
    ),
    "construct_plateau_level-d": (lambda v: construct_plateau_level(v, 4), "d", 1),
    "construct_plateau_level-ell": (lambda v: construct_plateau_level(4, v), "ell", 2),
    "lex_betti_window-d": (
        lambda v: lex_betti_window(HVector((1, 3, 6, 10, 15, 16, 18)), v),
        "d",
        0,
    ),
    "replay_certificate-d": (_replay_r31, "d", None),
    "replay_certificate-quantity": (_replay_r_cancel, "beta2_d2", None),
}

CASES = [
    pytest.param(entry, bad, id=f"{entry}-{label}")
    for entry, (_, _, below) in ENTRIES.items()
    for label, bad in [("2.5", 2.5), ("str", "2"), ("None", None), ("below", below)]
    if label != "below" or below is not None
]


@pytest.mark.parametrize("entry, bad", CASES)
def test_integer_arguments_reject_bad_values(entry, bad):
    call, name, _ = ENTRIES[entry]
    with pytest.raises(
        ValueError, match=rf"^{name} must be (an integer|non-negative|at least \d+), got "
    ):
        call(bad)


@pytest.mark.parametrize(
    "cert",
    [
        Certificate(R_CANCEL, 2, {"beta1_d2": "10", "beta2_d2": "9"}),
        Certificate(R_44A, 3, {"delta_hd": 0, "delta_hd1": 0.5, "h_d": 7.5, "bound": 8}),
        Certificate(R_31, 2.5, {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": True}),
    ],
    ids=["string-order", "floats", "float-d"],
)
def test_replay_rejects_values_no_integer_computation_gives(cert):
    # each of these replayed True when only the quantity names were checked
    with pytest.raises(ValueError, match="must be an integer"):
        replay_certificate(cert)


def test_replay_counts_true_as_one():
    # operator.index accepts bools, as HVector and render_diagram do
    assert replay_certificate(
        Certificate(R_31, 5, {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": True})
    )


# entry points that take an h-vector; each is valid for HVector((1, 3, 6))
HVECTOR_ENTRIES = {
    "classify": classify,
    "lex_betti": lex_betti,
    "lex_betti_window": lambda h: lex_betti_window(h, 2),
    "lex_segment_ideal": lex_segment_ideal,
    "verify_lex": verify_lex,
    "iarrobino_lift": iarrobino_lift,
    "require_codim3": require_codim3,
}


WRONG_TYPES = pytest.mark.parametrize(
    "bad, type_name",
    [((1, 3, 6), "tuple"), ([1, 3, 6], "list"), (None, "NoneType")],
    ids=["tuple", "list", "None"],
)


@WRONG_TYPES
@pytest.mark.parametrize("entry", list(HVECTOR_ENTRIES))
def test_hvector_arguments_reject_other_types(entry, bad, type_name):
    # unchecked, each fails later with "object has no attribute 'entries'"
    call = HVECTOR_ENTRIES[entry]
    call(HVector((1, 3, 6)))
    with pytest.raises(ValueError, match=rf"^h must be an HVector, got {type_name}$"):
        call(bad)


def _lex_ideal():
    return lex_segment_ideal(HVector((1, 3, 6)))


# entry points that take an ideal or a certificate -> (the call, a valid
# argument, the start of the refusal)
TYPED_ENTRIES = {
    "ek_betti": (ek_betti, _lex_ideal, "ideal must be a MonomialIdeal"),
    "quotient_hf": (
        lambda i: quotient_hf(i, 2),
        _lex_ideal,
        "ideal must be a MonomialIdeal",
    ),
    "colon_and_socle_dims": (
        lambda i: colon_and_socle_dims(i, 2),
        _lex_ideal,
        "ideal must be a MonomialIdeal",
    ),
    "replay_certificate": (
        replay_certificate,
        lambda: Certificate(R_CANCEL, 2, {"beta1_d2": 1, "beta2_d2": 2}),
        "cert must be a Certificate",
    ),
}


@WRONG_TYPES
@pytest.mark.parametrize("entry", list(TYPED_ENTRIES))
def test_ideal_and_certificate_arguments_reject_other_types(entry, bad, type_name):
    # unchecked, each fails later with "object has no attribute ..."
    call, valid, refusal = TYPED_ENTRIES[entry]
    call(valid())
    with pytest.raises(ValueError, match=rf"^{refusal}, got {type_name}$"):
        call(bad)


@pytest.mark.parametrize("bad", [None, 5])
def test_ideal_rejects_generators_that_are_not_iterable(bad):
    # unchecked, iterating them raises TypeError
    with pytest.raises(ValueError, match=rf"^generators must be iterable: {bad}$"):
        MonomialIdeal(bad)


@pytest.mark.parametrize(
    "quantities", [5, None, [1, 2], ["ab", "abc"]], ids=["int", "None", "ints", "str-3"]
)
def test_certificate_rejects_quantities_that_are_not_pairs(quantities):
    # unchecked, dict(quantities) raises TypeError or, for a string of
    # length 3, its own ValueError
    pattern = r"^quantities must be a mapping or \(name, value\) pairs: "
    with pytest.raises(ValueError, match=pattern):
        Certificate(R_31, 2, quantities)
