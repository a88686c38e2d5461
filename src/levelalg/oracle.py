"""Brute-force verifiers, independent of the main computational paths.

Everything here recomputes from first principles: ideal membership reads a
staircase table built from the generator list alone instead of the rank
tables, monomials come from raw nested loops, and expansions are found by
exhaustive search over index sequences rather than greedily.  Slow on
purpose, apart from the membership test, which is linear in the table size.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import comb
from typing import Callable

from .binomials import BinomialExpansion
from .hvectors import HVector
from .monomials import Monomial, MonomialIdeal


def _degree_monomials(t: int) -> list[Monomial]:
    out = []
    for e1 in range(t, -1, -1):
        for e2 in range(t - e1, -1, -1):
            out.append(Monomial(e1, e2, t - e1 - e2))
    return out


def staircase_membership(
    ideal: MonomialIdeal, top: int
) -> Callable[[Monomial], bool]:
    """Membership test for monomials of degree at most top.

    Builds corner[a][b], the least e3 over the generators with e1 <= a and
    e2 <= b (a 2-D prefix minimum; top + 1 when there is none).  Some
    generator divides m exactly when corner[m.e1][m.e2] <= m.e3.  Reads only
    the generator list.
    """
    size = top + 1
    least = [[size] * size for _ in range(size)]
    for g in ideal.generators():
        if g.e1 < size and g.e2 < size and g.e3 < least[g.e1][g.e2]:
            least[g.e1][g.e2] = g.e3
    # corner[a][b] = min(least[a][b'] for b' <= b, corner[a-1][b])
    corner = []
    above = [size] * size
    for row in least:
        above = list(map(min, accumulate(row, min), above))
        corner.append(above)
    return lambda m: corner[m.e1][m.e2] <= m.e3


def colon_dim_direct(ideal: MonomialIdeal, var: int, t: int) -> int:
    """dim of (J : x_var)/J in degree t, by full enumeration.

    Counts degree-t monomials u outside the ideal with x_var * u inside.
    """
    member = staircase_membership(ideal, t + 1)
    return sum(
        1
        for u in _degree_monomials(t)
        if not member(u) and member(u.mul_var(var))
    )


def socle_dim_direct(ideal: MonomialIdeal, t: int) -> int:
    """Socle dimension of the quotient in degree t, by full enumeration."""
    member = staircase_membership(ideal, t + 1)
    return sum(
        1
        for u in _degree_monomials(t)
        if not member(u) and all(member(u.mul_var(v)) for v in (1, 2, 3))
    )


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
