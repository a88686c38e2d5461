"""Every integer argument passes the one check in :mod:`levelalg.errors`.

A bad value raises ValueError naming the argument; no entry point raises
TypeError or RecursionError for it or returns an answer.  The degree readers
of :mod:`levelalg.monomials` are covered by
``test_monomials.py::test_degree_readers_reject_bad_degrees``.
"""

import pytest

from levelalg import (
    Certificate,
    HVector,
    construct_plateau_level,
    enumerate_o_sequences,
    green_bound,
    lex_betti_window,
    macaulay_bound,
    macaulay_expansion,
    replay_certificate,
)
from levelalg.classify import R_31, R_44A, R_CANCEL
from levelalg.oracle import expansion_exhaustive, osequence_filter


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
    "expansion_exhaustive-n": (lambda v: expansion_exhaustive(v, 2), "n", -1),
    "expansion_exhaustive-i": (lambda v: expansion_exhaustive(7, v), "i", 0),
    "macaulay_bound-h": (lambda v: macaulay_bound(v, 2), "n", -1),
    "macaulay_bound-d": (lambda v: macaulay_bound(7, v), "i", 0),
    "green_bound-h": (lambda v: green_bound(v, 2), "n", -1),
    "green_bound-d": (lambda v: green_bound(7, v), "i", 0),
    "enumerate_o_sequences-s": (lambda v: list(enumerate_o_sequences(v, 10)), "s", 0),
    "enumerate_o_sequences-cap": (lambda v: list(enumerate_o_sequences(3, v)), "cap", 2),
    "osequence_filter-s": (lambda v: osequence_filter(v, 10), "s", 0),
    "osequence_filter-cap": (lambda v: osequence_filter(3, v), "cap", 2),
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
