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
verifies it.
"""

from __future__ import annotations

from .binomials import green_bound, macaulay_bound
from .errors import _integer
from .hvectors import HVector, require_codim3
from .monomials import MonomialIdeal, quotient_hf

Columns = tuple[list[int], list[int], list[int]]


def ek_betti(ideal: MonomialIdeal) -> Columns:
    """Betti columns of a stable monomial ideal.

    Each column runs over shifts 0..g+2, g the top generator degree (empty
    for the zero ideal).  A generator adds the row (1, 0, 0), (1, 1, 0) or
    (1, 2, 1) at shifts (g, g+1, g+2) by its largest variable x1, x2 or x3;
    the constant generator of the unit ideal counts as x1's.
    """
    if not ideal.is_stable():
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


def lex_betti(h: HVector) -> Columns:
    """Betti columns of the lex-segment ideal of h, from h alone.

    Each column runs over shifts 0..s+3.  Let r_t = green_bound(h_t, t),
    the Hilbert function of the lex ideal modulo x3, and h_{s+1} = 0.  In
    each degree g = 2..s+1 the ideal has macaulay_bound(h_{g-1}, g-1) - h_g
    minimal generators.  Of these, (g+1 - r_g) - (g - r_{g-1} + 1 if
    g > r_{g-1} else 0) avoid x3, and x1^g is one exactly at the first g
    with h_g < C(g+2, 2).  Eliahou-Kervaire turns these counts by largest
    variable into Betti numbers.  h_1 = 3 leaves no linear generators, so
    the loop starts at g = 2 with r_1 = green_bound(h_1, 1) and
    C(g+1, 2) = C(3, 2) = 3.

    The same pass validates h, so callers need no separate
    :func:`~levelalg.hvectors.require_codim3`: h_0 = 1 and h_1 = 3 are
    checked up front, and a growth violation at degree g makes the
    generator total negative, so the x1x2 or the x3 count with it.  On any
    failure ``require_codim3`` runs and raises its message for an invalid h;
    for a valid h a negative count can only mean a wrong bound, and raises
    ValueError rather than return a negative Betti number.
    """
    padded = h.entries + (0,)
    if padded[0] != 1 or len(padded) < 3 or padded[1] != 3:
        require_codim3(h)  # raises: h_0 or h_1 is at fault
    size = len(padded) + 2
    b0, b1, b2 = [0] * size, [0] * size, [0] * size
    r_prev = green_bound(padded[1], 1)
    full_prev = 3  # C(g+1, 2), the whole ring in degree g-1
    for g in range(2, len(padded)):
        h_prev, h_g = padded[g - 1], padded[g]
        full = full_prev + g + 1  # C(g+2, 2)
        r_g = green_bound(h_g, g)
        total = macaulay_bound(h_prev, g - 1) - h_g
        in_x1x2 = (g + 1 - r_g) - (g - r_prev + 1 if g > r_prev else 0)
        in_x1 = int(h_g < full and h_prev == full_prev)
        in_x2, in_x3 = in_x1x2 - in_x1, total - in_x1x2
        if in_x2 < 0 or in_x3 < 0:  # in_x2 + in_x3 <= total
            require_codim3(h)  # raises for an invalid h
            raise ValueError(f"negative lex generator count in degree {g} for {h}")
        b0[g] = total
        b1[g + 1] = in_x2 + 2 * in_x3
        b2[g + 2] = in_x3
        r_prev, full_prev = r_g, full
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


def numerator_check(ideal: MonomialIdeal) -> bool:
    """Hilbert-series numerator identity as an independent consistency check.

    Compares 1 - beta_0(t) + beta_1(t) - beta_2(t) against (1-t)^3 times the
    quotient Hilbert series, coefficient by coefficient.
    """
    columns = ek_betti(ideal)
    return _numerator_identity(quotient_hf(ideal, ideal._vanishing_degree()), columns)


def _numerator_identity(hf: tuple[int, ...], columns: Columns) -> bool:
    """The identity of :func:`numerator_check` for a Hilbert function hf,
    zero past its last entry, and Betti columns the caller already holds."""
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
