"""Exact decision tools for level O-sequences in codimension 3.

Given a candidate Hilbert function H = (1, 3, h_2, ..., h_s), the package
computes the graded Betti numbers of the lex-segment ideal with that Hilbert
function from H alone, as three integer columns (b0, b1, b2) indexed by
shift, and applies obstruction and construction criteria to decide whether
an Artinian level algebra with Hilbert function H can exist.
All arithmetic is exact.  The lex-segment ideal itself is built only to
verify those Betti numbers, and the brute-force :mod:`levelalg.oracle`
module re-derives the key quantities independently.
"""

from .binomials import (
    BinomialExpansion,
    binomial,
    green_bound,
    macaulay_bound,
    macaulay_expansion,
    shift,
)
from .hvectors import HVector, enumerate_o_sequences, growth_violation
from .monomials import (
    Monomial,
    MonomialIdeal,
    lex_segment_ideal,
    quotient_hf,
)
from .betti import (
    ek_betti,
    lex_betti,
    lex_betti_window,
    render_diagram,
    verify_lex,
)
from .classify import (
    Certificate,
    Verdict,
    classify,
    construct_plateau_level,
    iarrobino_lift,
    replay_certificate,
)
from .errors import ConsistencyError

__all__ = [
    "BinomialExpansion",
    "Certificate",
    "ConsistencyError",
    "HVector",
    "Monomial",
    "MonomialIdeal",
    "Verdict",
    "binomial",
    "classify",
    "construct_plateau_level",
    "ek_betti",
    "enumerate_o_sequences",
    "green_bound",
    "growth_violation",
    "iarrobino_lift",
    "lex_betti",
    "lex_betti_window",
    "lex_segment_ideal",
    "macaulay_bound",
    "macaulay_expansion",
    "quotient_hf",
    "render_diagram",
    "replay_certificate",
    "shift",
    "verify_lex",
]
