"""Brute-force verifier, the slow twin that ``classify --verify`` runs.

Everything here recomputes from first principles, independent of the main
computational paths.  Ideal membership reads a staircase table built from
the generator list alone, not the lex-rank tables of
:mod:`levelalg.monomials`.  The x3-colon and socle counts come from one
table up to the top degree asked for: every monomial of each degree is
enumerated as a raw exponent triple and tested, with its multiples, against
that table, linear in the number of monomials and with no monomial objects
built.
"""

from __future__ import annotations

from .errors import _integer
from .monomials import MonomialIdeal, _ideal


def _staircase(ideal: MonomialIdeal, top: int) -> list[list[int]]:
    """corner[a][b] for a + b <= top: the least e3 over the generators with
    e1 <= a and e2 <= b, or top + 1 when there is none.

    A 2-D prefix minimum over a triangle: row a has length top + 1 - a.
    Some generator divides a monomial m of degree at most top exactly when
    corner[m.e1][m.e2] <= m.e3.  Reads only the generator list, which is
    ordered by degree, so the fill stops at the first generator of degree
    above top: it divides nothing of degree at most top.
    """
    size = top + 1
    by_e1: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for g in ideal.generators():
        if g.e1 + g.e2 + g.e3 > top:
            break
        by_e1[g.e1].append((g.e2, g.e3))
    # Row a is row a - 1, cut to length, with each generator (a, b, e3)
    # lowering the entries from b on to e3.  Rows never increase along b,
    # so the lowering stops at the first entry already at most e3.
    corner = []
    row = [size] * size
    for a, gens in enumerate(by_e1):
        width = size - a
        row = row[:width]
        for b, e3 in gens:
            while b < width and row[b] > e3:
                row[b] = e3
                b += 1
        corner.append(row)
    return corner


def colon_and_socle_dims(ideal: MonomialIdeal, top: int) -> list[tuple[int, int]]:
    """(dim (J : x3)/J, socle dimension) of the quotient in each degree 0..top.

    Full enumeration over one staircase table: a degree-t monomial u outside
    the ideal counts towards the colon when x3*u is inside, and towards the
    socle when x1*u and x2*u are inside too.
    """
    top = _integer(top, "top", 0)
    # u = (e1, e2, e3) is in J when corner[e1][e2] <= e3; x1*u, x2*u and
    # x3*u are when corner[e1 + 1][e2], corner[e1][e2 + 1] <= e3 and
    # corner[e1][e2] <= e3 + 1
    corner = _staircase(_ideal(ideal), top + 1)
    dims = []
    for t in range(top + 1):
        colon = socle = 0
        for e1 in range(t + 1):
            row, up = corner[e1], corner[e1 + 1]
            for e2 in range(t - e1 + 1):
                e3 = t - e1 - e2
                if e3 < row[e2] <= e3 + 1:
                    colon += 1
                    socle += up[e2] <= e3 and row[e2 + 1] <= e3
        dims.append((colon, socle))
    return dims

