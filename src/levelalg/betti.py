"""Graded Betti numbers of lex-segment and other stable monomial ideals.

A Betti table is three integer columns ``(b0, b1, b2)`` indexed by shift:
``bq[j]`` is beta_{q,j} of the ideal, zeros included.  In three variables
the projective dimension of an ideal is at most 2, so q runs over 0, 1, 2,
and the Cancellation Principle compares b1 and b2 at the same shift.

The minimal free resolution of a stable ideal is combinatorial: each minimal
generator T of degree g contributes C(m(T)-1, q) to beta_{q, g+q}, m(T) its
largest variable.  For the lex-segment ideal of an h-vector the generator
counts by degree and largest variable follow from h alone, through the
Macaulay and Green bounds, so :func:`lex_betti` never builds the ideal.
:func:`ek_betti` resolves an explicit ideal and, applied to
:func:`~levelalg.monomials.lex_segment_ideal`, is the slow twin that
verifies it; :func:`verify_lex` runs that check, the Hilbert-series
numerator identity, the brute-force :mod:`levelalg.oracle` counts and the
definition of each Macaulay expansion the bounds read.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import oracle
from .binomials import _CACHE_ENTRIES, green_bound, macaulay_bound, macaulay_expansion
from .errors import ConsistencyError, _integer
from .hvectors import HVector, _hvector, require_codim3
from .monomials import MonomialIdeal, _ideal, lex_segment_ideal, quotient_hf

Columns = tuple[list[int], list[int], list[int]]


def ek_betti(ideal: MonomialIdeal) -> Columns:
    """Betti columns of a stable monomial ideal.

    Each column runs over shifts 0..g+2, g the top generator degree (empty
    for the zero ideal).  A generator adds the row (1, 0, 0), (1, 1, 0) or
    (1, 2, 1) at shifts (g, g+1, g+2) by its largest variable x1, x2 or x3;
    the constant generator of the unit ideal counts as x1's.
    """
    if not _ideal(ideal).is_stable():
        raise ValueError("ek_betti requires a stable ideal")
    degrees = ideal.generator_degrees()
    size = degrees[-1] + 3 if degrees else 0
    b0, b1, b2 = [0] * size, [0] * size, [0] * size
    for gen in ideal.generators():
        g = gen.degree
        b0[g] += 1
        if gen.e3:
            b1[g + 1] += 2
            b2[g + 2] += 1
        elif gen.e2:
            b1[g + 1] += 1
    return b0, b1, b2


@lru_cache(maxsize=_CACHE_ENTRIES)
def _lex_column(h_prev: int, h_g: int, g: int) -> tuple[int, int, int]:
    """(beta_{0,g}, beta_{1,g+1}, beta_{2,g+2}) added by the lex ideal's
    minimal generators of degree g >= 2, from h_{g-1} and h_g alone.

    There are macaulay_bound(h_{g-1}, g-1) - h_g of them.  With
    r_t = green_bound(h_t, t), the lex quotient's Hilbert function modulo
    x3, (g+1 - r_g) - (g - r_{g-1} + 1 if g > r_{g-1} else 0) of them avoid
    x3, x1^g among them when degree g-1 of the quotient is the whole ring and
    degree g is not.  By Eliahou-Kervaire a generator with largest variable x2
    adds 1 to beta_1, and one with x3 adds 2 to beta_1 and 1 to beta_2.  A
    negative count (invalid h or wrong bound) raises ValueError.
    """
    r_prev = green_bound(h_prev, g - 1)
    total = macaulay_bound(h_prev, g - 1) - h_g
    in_x2 = g + 1 - green_bound(h_g, g)  # avoiding x3, x1^g not yet taken off
    if g > r_prev:
        in_x2 -= g - r_prev + 1
    in_x3 = total - in_x2
    if h_prev == g * (g + 1) // 2 and h_g < h_prev + g + 1:  # C(g+1, 2)
        in_x2 -= 1  # x1^g
    if in_x2 < 0 or in_x3 < 0:  # in_x2 + in_x3 <= total
        raise ValueError(f"negative lex generator count in degree {g}")
    return total, in_x2 + 2 * in_x3, in_x3


def lex_betti(h: HVector) -> Columns:
    """Betti columns of the lex-segment ideal of h, from h alone.

    Each column runs over shifts 0..s+3.  With h_{s+1} = 0, each degree
    g = 2..s+1 adds the Betti numbers of :func:`_lex_column`; h_1 = 3
    leaves no linear generators.

    The same pass validates h, so callers need no separate
    :func:`~levelalg.hvectors.require_codim3`: h_0 = 1 and h_1 = 3 are
    checked up front, and a growth violation at degree g makes the
    generator total negative, so the x1x2 or the x3 count with it.  On any
    failure ``require_codim3`` runs and raises its message for an invalid h;
    for a valid h a negative count can only mean a wrong bound, and raises
    ValueError rather than return a negative Betti number.  Anything but an
    HVector raises ValueError naming its type.
    """
    padded = _hvector(h).entries + (0,)
    if padded[0] != 1 or len(padded) < 3 or padded[1] != 3:
        require_codim3(h)  # raises: h_0 or h_1 is at fault
    size = len(padded) + 2
    b0, b1, b2 = [0] * size, [0] * size, [0] * size
    try:
        for g in range(2, len(padded)):
            b0[g], b1[g + 1], b2[g + 2] = _lex_column(padded[g - 1], padded[g], g)
    except ValueError as exc:
        require_codim3(h)  # raises for an invalid h
        raise ValueError(f"{exc} for {h}") from None
    return b0, b1, b2


def lex_betti_window(h: HVector, d: int) -> tuple[int, int, int]:
    """(beta_1 at d+2, beta_2 at d+2, beta_2 at d+3) for the lex ideal of h.

    A slice of :func:`lex_betti`, so it comes from h alone, and h is
    validated before d.
    """
    _, b1, b2 = lex_betti(h)
    d = _integer(d, "d", 1)
    if d > h.socle_degree:
        raise ValueError(f"d must be at most the socle degree {h.socle_degree}, got {d}")
    return b1[d + 2], b2[d + 2], b2[d + 3]


def _numerator_identity(hf: tuple[int, ...], columns: Columns) -> bool:
    """Hilbert-series numerator identity for a Hilbert function hf, zero past
    its last entry, and the Betti columns of the ideal.

    Compares 1 - beta_0(t) + beta_1(t) - beta_2(t) against (1-t)^3 times the
    Hilbert series, coefficient by coefficient.
    """
    size = max(len(hf) + 3, *map(len, columns))
    lhs = [0] * size
    lhs[0] = 1
    for sign, column in zip((-1, 1, -1), columns):
        for j, mult in enumerate(column):
            lhs[j] += sign * mult

    cube = [1, -3, 3, -1]  # coefficients of (1-t)^3
    rhs = [0] * size
    for t, value in enumerate(hf):
        for k, c in enumerate(cube):
            rhs[t + k] += value * c
    return lhs == rhs


def verify_lex(h: HVector) -> None:
    """Cross-check the lex ideal of h and :func:`lex_betti` against the slow twins.

    In order: the ideal's Hilbert function against h, the numerator identity
    of its :func:`ek_betti` resolution, that resolution against
    :func:`lex_betti`, its beta_2 against the oracle's x3-colon counts and
    then against the oracle's socle counts, and at every degree d = 1..s the
    Macaulay expansion of h_d against its definition: its first index is d
    and its binomials sum to h_d.  Raises ConsistencyError at the first
    disagreement.
    """
    ideal = lex_segment_ideal(h)
    # The quotient vanishes from degree s + 1 on, so degrees 0..s+1 hold its
    # whole Hilbert function and every colon and socle count; the range comes
    # from h, not from the counts under test.
    top = h.socle_degree + 1
    hf = quotient_hf(ideal, top)
    if hf != h.entries + (0,):
        raise ConsistencyError(f"Hilbert function {hf} of R/lex({h}) is not h")
    betti = ek_betti(ideal)
    if not _numerator_identity(hf, betti):
        raise ConsistencyError(f"Hilbert-series numerator mismatch for lex({h})")
    h_only = lex_betti(h)
    if h_only != betti:
        raise ConsistencyError(
            f"h-only Betti columns {h_only} != resolution of lex({h}) {betti}"
        )
    # For a stable ideal, beta_{2,t+3} counts the generators of degree t + 1
    # divisible by x3, which is both dim (J : x3)/J and the socle dimension
    # in degree t.
    beta2 = {j - 3: mult for j, mult in enumerate(betti[2]) if mult}
    direct = oracle.colon_and_socle_dims(ideal, top)
    colon = [beta2.get(t, 0) for t in range(top + 1)]
    direct_colon = [c for c, _ in direct]
    if colon != direct_colon:
        raise ConsistencyError(
            f"x3-colon counts by degree {colon} vs oracle {direct_colon}"
        )
    direct_socle = {t: n for t, (_, n) in enumerate(direct) if n}
    if beta2 != direct_socle:
        raise ConsistencyError(
            f"socle/Betti duality fails: beta_2 by socle degree {beta2} "
            f"vs oracle socle {direct_socle}"
        )
    # An expansion that starts at index d and sums to n is the d-binomial
    # expansion of n, by uniqueness: BinomialExpansion enforces the rest of
    # the definition.  The sum uses math.comb, not binomials.shift, so the
    # check shares no code with the bounds it vouches for.
    for d in range(1, h.socle_degree + 1):
        n = h[d]
        terms = macaulay_expansion(n, d).terms
        if not terms or terms[0][1] != d or sum(comb(t, i) for t, i in terms) != n:
            raise ConsistencyError(f"expansion mismatch for ({n}, {d})")


def render_diagram(columns: Columns) -> str:
    """Text form of Betti columns in the quotient convention.

    The quotient's resolution is the ideal's shifted one step with a rank-1
    module at the origin, so column c holds the ideal's b_{c-1}.  Rows are
    strata r = shift - c; zeros print as dots.  Raises ValueError unless
    ``columns`` is three columns of non-negative integers.
    """
    try:
        b0, b1, b2 = columns
        ideal_columns = [list(b0), list(b1), list(b2)]
    except (TypeError, ValueError):
        raise ValueError("a Betti table is three columns (b0, b1, b2)") from None
    quotient = [[1]] + [
        [_integer(m, "Betti number", 0) for m in column] for column in ideal_columns
    ]
    table = {
        (c, j): mult
        for c, column in enumerate(quotient)
        for j, mult in enumerate(column)
        if mult
    }
    strata = [j - c for c, j in table]
    cols = range(4)

    def cell(value: int) -> str:
        return str(value) if value else "."

    grid = [("total:", [cell(sum(column)) for column in quotient])]
    for r in range(min(strata), max(strata) + 1):
        grid.append((f"{r}:", [cell(table.get((c, r + c), 0)) for c in cols]))
    label_width = max(len(label) for label, _ in grid)
    widths = [max(len(row[c]) for _, row in grid) for c in cols]
    lines = [
        " ".join(
            [label.rjust(label_width)] + [row[c].rjust(widths[c]) for c in cols]
        )
        for label, row in grid
    ]
    return "\n".join(lines)
