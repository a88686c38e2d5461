"""Brute-force verifiers, independent of the main computational paths.

Everything here recomputes from first principles.  Ideal membership reads a
staircase table built from the generator list alone, not the lex-rank
tables of :mod:`levelalg.monomials`.  The colon and socle counts enumerate
every monomial of the degree as a raw exponent triple and test it and its
multiples against that table: linear in the number of monomials, with no
monomial objects built.  Expansions are found by exhaustive search over
index sequences rather than greedily, and O-sequences by filtering the full
integer box; those two are slow on purpose.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Callable

from .binomials import BinomialExpansion
from .hvectors import HVector
from .monomials import Monomial, MonomialIdeal


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


def staircase_membership(
    ideal: MonomialIdeal, top: int
) -> Callable[[Monomial], bool]:
    """Membership test for monomials of degree at most top.

    Some generator divides m exactly when corner[m.e1][m.e2] <= m.e3, with
    the staircase table of :func:`_staircase`.  Reads only the generator list.
    """
    corner = _staircase(ideal, top)
    return lambda m: corner[m.e1][m.e2] <= m.e3


def colon_dim_direct(ideal: MonomialIdeal, var: int, t: int) -> int:
    """dim of (J : x_var)/J in degree t, by full enumeration.

    Counts degree-t monomials u outside the ideal with x_var * u inside.
    """
    if var not in (1, 2, 3):
        raise ValueError(f"variable index must be 1, 2 or 3, not {var}")
    # u = (e1, e2, e3) is in J when corner[e1][e2] <= e3; x1*u, x2*u and
    # x3*u are when corner[e1 + 1][e2], corner[e1][e2 + 1] <= e3 and
    # corner[e1][e2] <= e3 + 1
    corner = _staircase(ideal, t + 1)
    count = 0
    for e1 in range(t + 1):
        row, up = corner[e1], corner[e1 + 1]
        for e2 in range(t - e1 + 1):
            e3 = t - e1 - e2
            if row[e2] <= e3:
                continue
            if var == 1:
                count += up[e2] <= e3
            elif var == 2:
                count += row[e2 + 1] <= e3
            else:
                count += row[e2] <= e3 + 1
    return count


def socle_dim_direct(ideal: MonomialIdeal, t: int) -> int:
    """Socle dimension of the quotient in degree t, by full enumeration.

    Counts degree-t monomials u outside the ideal with x1*u, x2*u and x3*u
    inside, read off the staircase as in :func:`colon_dim_direct`.
    """
    corner = _staircase(ideal, t + 1)
    count = 0
    for e1 in range(t + 1):
        row, up = corner[e1], corner[e1 + 1]
        for e2 in range(t - e1 + 1):
            e3 = t - e1 - e2
            if e3 < row[e2] <= e3 + 1 and up[e2] <= e3 and row[e2 + 1] <= e3:
                count += 1
    return count


def expansion_exhaustive(n: int, i: int) -> BinomialExpansion:
    """Find the i-binomial expansion of n by searching all index sequences.

    Walks every strictly decreasing assignment n_i > n_{i-1} > ... >= index,
    keeping a branch only while the remaining indices can still reach the
    remaining sum (an exact feasibility bound, not a heuristic).  Exactly one
    assignment must survive; anything else is a bug, since existence and
    uniqueness are a theorem.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if i < 1:
        raise ValueError("i must be positive")
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


def osequence_filter(s: int, cap: int) -> set[HVector]:
    """All O-sequences (1, 3, ..., h_s) with entries <= cap and h_s > 0.

    Generate-and-filter over the full integer box; no incremental pruning.
    """
    if s == 1:
        return {HVector((1, 3))} if cap >= 3 else set()
    found = set()
    for middle in product(range(cap + 1), repeat=s - 2):
        for last in range(1, cap + 1):
            candidate = HVector((1, 3) + middle + (last,))
            if candidate.is_o_sequence():
                found.add(candidate)
    return found
