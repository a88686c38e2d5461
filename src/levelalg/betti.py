"""Graded Betti numbers of lex-segment and other stable monomial ideals.

The minimal free resolution of a stable ideal is combinatorial: each minimal
generator T of degree g contributes C(m(T)-1, q) to the Betti number in
homological degree q and shift g + q.  In three variables the projective
dimension of an ideal is at most 2, so diagrams carry q in {0, 1, 2}.

For the lex-segment ideal of an h-vector the generator counts by degree and
maximal variable follow from h alone, through the Macaulay and Green bounds,
so :func:`lex_betti` never builds the ideal.  :func:`ek_betti` resolves an
explicit ideal and, applied to :func:`~levelalg.monomials.lex_segment_ideal`,
is the slow twin that verifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .binomials import green_bound, macaulay_bound
from .errors import _integer
from .hvectors import HVector, require_codim3
from .monomials import MonomialIdeal, quotient_hf


@dataclass(frozen=True, eq=True)
class BettiDiagram:
    """Map (homological index q, shift j) -> multiplicity, for an ideal.

    q, shift and multiplicity must be integers and are stored as ``int``.
    Zero entries are absent, and ``entries`` is kept sorted, so equality and
    hashing do not depend on the order the entries came in.  Shifts are
    minimal: every entry in homological degree q >= 1 sits strictly above
    some entry in degree q - 1.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        table: dict[tuple[int, int], int] = {}
        lowest: dict[int, int] = {}
        for entry in self.entries:
            (q, j), mult = entry
            try:
                q, j, mult = index(q), index(j), index(mult)
            except TypeError:
                raise ValueError(
                    f"Betti diagram entries must be integers: {entry!r}"
                ) from None
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if not 0 <= q <= 2:
                raise ValueError("homological index must be 0, 1, or 2")
            if (q, j) in table:
                raise ValueError("duplicate (q, shift) entry")
            table[(q, j)] = mult
            lowest[q] = min(j, lowest.get(q, j))
        for (q, j) in table:
            if q >= 1 and not lowest.get(q - 1, j) < j:
                raise ValueError(f"shift {j} at q={q} has no earlier syzygy below it")
        object.__setattr__(self, "entries", tuple(sorted(table.items())))
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_dict(cls, data: dict[tuple[int, int], int]) -> "BettiDiagram":
        return cls(tuple((key, mult) for key, mult in data.items() if mult))

    def beta(self, q: int, j: int) -> int:
        return self._table.get((q, j), 0)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._table)

    def max_shift(self) -> int:
        return max((j for (_, j), _ in self.entries), default=0)

    def triples(self) -> list[dict[str, int]]:
        """Sorted ``{"q": ..., "shift": ..., "mult": ...}`` records."""
        return [
            {"q": q, "shift": j, "mult": mult}
            for (q, j), mult in self.entries
        ]


def ek_betti(ideal: MonomialIdeal) -> BettiDiagram:
    """Graded Betti numbers of a stable monomial ideal."""
    if not ideal.is_stable():
        raise ValueError("ek_betti requires a stable ideal")
    entries: dict[tuple[int, int], int] = {}
    for g in ideal.generator_degrees():
        n = [0, 0, 0, 0]  # degree-g generators by largest variable x_m, m = 1..3
        for gen in ideal.generators_of_degree(g):
            n[gen.max_var()] += 1
        # each adds C(m-1, q) to beta_{q, g+q}: the rows (1, 0, 0), (1, 1, 0)
        # and (1, 2, 1) for m = 1, 2, 3, summed here column by column
        entries[(0, g)] = n[1] + n[2] + n[3]
        entries[(1, g + 1)] = n[2] + 2 * n[3]
        entries[(2, g + 2)] = n[3]
    return BettiDiagram.from_dict(entries)


def _lex_betti_columns(h: HVector) -> tuple[list[int], list[int], list[int]]:
    """Betti numbers of the lex-segment ideal of h as columns (b0, b1, b2).

    ``bq[j]`` is beta_{q,j} for 0 <= j <= s+3, zeros included.  Let
    r_t = green_bound(h_t, t), the Hilbert function of the lex ideal modulo
    x3, and h_{s+1} = 0.  In each degree g = 2..s+1 the ideal has
    macaulay_bound(h_{g-1}, g-1) - h_g minimal generators.  Of these,
    (g+1 - r_g) - (g - r_{g-1} + 1 if g > r_{g-1} else 0) avoid x3, and x1^g
    is one exactly at the first g with h_g < C(g+2, 2).  Eliahou-Kervaire
    turns these counts by maximal variable into Betti numbers.  h_1 = 3
    leaves no linear generators, so the loop starts at g = 2 with
    r_1 = green_bound(h_1, 1) and C(g+1, 2) = C(3, 2) = 3.

    The same pass validates h, so callers need no separate
    :func:`~levelalg.hvectors.require_codim3`: h_0 = 1 and h_1 = 3 are
    checked up front, and a growth violation at degree g makes the
    generator total negative, so the x1x2 or the x3 count with it.  On any
    failure ``require_codim3`` runs and raises its message for an invalid h;
    for a valid h a negative count can only mean a wrong bound, and raises
    ValueError rather than break the invariants :class:`BettiDiagram`
    checks.
    """
    padded = h.entries + (0,)
    if padded[0] != 1 or len(padded) < 3 or padded[1] != 3:
        _refuse(h, "h-vector must have h_0 = 1 and h_1 = 3")
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
            _refuse(h, f"negative lex generator count in degree {g} for {h}")
        b0[g] = total
        b1[g + 1] = in_x2 + 2 * in_x3
        b2[g + 2] = in_x3
        r_prev, full_prev = r_g, full
    return b0, b1, b2


def _refuse(h: HVector, problem: str) -> None:
    """Raise require_codim3's message if h is invalid, else ValueError(problem)."""
    require_codim3(h)
    raise ValueError(problem)


def lex_betti(h: HVector) -> BettiDiagram:
    """Graded Betti numbers of the lex-segment ideal of h, from h alone.

    The diagram form of the per-degree integer columns that
    :func:`~levelalg.classify.classify` reads directly; see
    :func:`_lex_betti_columns` for the formula.  Requires an O-sequence with
    h_1 = 3.
    """
    columns = _lex_betti_columns(h)
    return BettiDiagram.from_dict(
        {(q, j): mult for q, column in enumerate(columns) for j, mult in enumerate(column)}
    )


def lex_betti_window(h: HVector, d: int) -> tuple[int, int, int]:
    """(beta_1 at d+2, beta_2 at d+2, beta_2 at d+3) for the lex ideal of h.

    A slice of the columns behind :func:`lex_betti`, so it comes from h alone.
    """
    d = _integer(d, "degree", 1)
    if d > h.socle_degree:
        raise ValueError("d must satisfy 1 <= d <= socle degree")
    _, b1, b2 = _lex_betti_columns(h)
    return b1[d + 2], b2[d + 2], b2[d + 3]


def numerator_check(ideal: MonomialIdeal) -> bool:
    """Hilbert-series numerator identity as an independent consistency check.

    Compares 1 - beta_0(t) + beta_1(t) - beta_2(t) against (1-t)^3 times the
    quotient Hilbert series, coefficient by coefficient.
    """
    diagram = ek_betti(ideal)
    return _numerator_identity(quotient_hf(ideal, ideal._vanishing_degree()), diagram)


def _numerator_identity(hf: tuple[int, ...], diagram: BettiDiagram) -> bool:
    """The identity of :func:`numerator_check` for a Hilbert function hf,
    zero past its last entry, and a diagram the caller already holds."""
    size = max(diagram.max_shift(), len(hf) + 2) + 1
    lhs = [0] * size
    lhs[0] = 1
    for (q, j), mult in diagram.entries:
        lhs[j] += mult * (-1) ** (q + 1)

    cube = [1, -3, 3, -1]  # coefficients of (1-t)^3
    rhs = [0] * size
    for t, value in enumerate(hf):
        for k, c in enumerate(cube):
            rhs[t + k] += value * c
    return lhs == rhs


def render_diagram(diagram: BettiDiagram) -> str:
    """Text form of the diagram in the quotient convention.

    The quotient's resolution is the ideal's shifted one step with a rank-1
    module at the origin, so column q' holds the ideal's entries for q'-1.
    Rows are strata r = shift - q'; zeros print as dots.
    """
    quotient = {(0, 0): 1}
    for (q, j), mult in diagram.entries:
        quotient[(q + 1, j)] = mult
    max_stratum = max(j - q for (q, j) in quotient)
    cols = range(4)
    totals = [sum(mult for (q, _), mult in quotient.items() if q == c) for c in cols]

    def cell(value: int) -> str:
        return str(value) if value else "."

    grid = [("total:", [cell(v) for v in totals])]
    for r in range(max_stratum + 1):
        grid.append((f"{r}:", [cell(quotient.get((c, r + c), 0)) for c in cols]))
    label_width = max(len(label) for label, _ in grid)
    widths = [max(len(row[c]) for _, row in grid) for c in cols]
    lines = [
        " ".join(
            [label.rjust(label_width)] + [row[c].rjust(widths[c]) for c in cols]
        )
        for label, row in grid
    ]
    return "\n".join(lines)
