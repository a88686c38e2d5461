"""Brute-force verifiers, the slow twins that ``classify --verify`` runs.

Everything here recomputes from first principles, independent of the main
computational paths.  Ideal membership reads a staircase table built from
the generator list alone, not the lex-rank tables of
:mod:`levelalg.monomials`.  The x3-colon and socle counts come from one
table up to the top degree asked for: every monomial of each degree is
enumerated as a raw exponent triple and tested, with its multiples, against
that table, linear in the number of monomials and with no monomial objects
built.  Expansions are found by exhaustive search over index sequences
rather than greedily, which is slow on purpose.
"""

from __future__ import annotations

from math import comb

from .binomials import BinomialExpansion
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


def expansion_exhaustive(n: int, i: int) -> BinomialExpansion:
    """Find the i-binomial expansion of n by searching all index sequences.

    Walks every strictly decreasing assignment n_i > n_{i-1} > ... >= index,
    keeping a branch only while the remaining indices can still reach the
    remaining sum (an exact feasibility bound, not a heuristic).  Exactly one
    assignment must survive; anything else is a bug, since existence and
    uniqueness are a theorem.
    """
    n, i = _integer(n, "n", 0), _integer(i, "i", 1)
    if n == 0:
        return BinomialExpansion(())

    def max_reachable(idx: int, cap: int) -> int:
        # largest sum from tops strictly below cap at indices idx, idx-1, ..., 1
        total = 0
        for u in range(idx, 0, -1):
            top = cap - 1 - (idx - u)
            if top >= u:
                total += comb(top, u)
        return total

    solutions: list[tuple[tuple[int, int], ...]] = []

    def search(remaining: int, idx: int, cap: int, chosen: list[tuple[int, int]]):
        if remaining == 0:
            solutions.append(tuple(chosen))
            return
        if idx == 0 or max_reachable(idx, cap) < remaining:
            return
        top = idx
        while top < cap - 1 and comb(top + 1, idx) <= remaining:
            top += 1
        for value in range(top, idx - 1, -1):
            if comb(value, idx) + max_reachable(idx - 1, value) < remaining:
                break  # smaller tops reach even less
            chosen.append((value, idx))
            search(remaining - comb(value, idx), idx - 1, value, chosen)
            chosen.pop()

    search(n, i, n + i + 1, [])
    if len(solutions) != 1:
        raise RuntimeError(
            f"expansion search for ({n}, {i}) found {len(solutions)} representations"
        )
    return BinomialExpansion(solutions[0])

