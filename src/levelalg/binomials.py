"""Macaulay binomial expansions and the growth/restriction bounds built on them.

Every quantity here is exact: coefficients come from ``math.comb`` on Python
integers, and ``C(m, k)`` is taken to be 0 whenever ``m < k`` or ``k < 0`` so
that shifted expansions are total functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import _integer


def binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k), zero for m < k or k < 0."""
    if k < 0 or m < k:
        return 0
    return comb(m, k)


@dataclass(frozen=True)
class BinomialExpansion:
    """The unique representation n = C(n_i, i) + C(n_{i-1}, i-1) + ... + C(n_j, j).

    ``terms`` lists pairs (n_t, t) with consecutive descending lower indices
    i, i-1, ..., j >= 1 and strictly decreasing tops n_i > n_{i-1} > ... >
    n_j >= j.  The empty expansion represents 0.  The constructor enforces
    all of this, so by uniqueness an expansion whose first index is i and
    whose binomials sum to n is the i-binomial expansion of n: that is the
    whole of :func:`~levelalg.betti.verify_lex`'s expansion check.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev_top = prev_idx = None
        for top, idx in self.terms:
            if idx < 1 or top < idx:
                raise ValueError(f"invalid term C({top},{idx})")
            if prev_idx is not None and (idx != prev_idx - 1 or top >= prev_top):
                raise ValueError("indices must descend consecutively with strictly decreasing tops")
            prev_top, prev_idx = top, idx

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(f"C({top},{idx})" for top, idx in self.terms)


def _largest_top(n: int, i: int) -> int:
    # largest m >= i with C(m, i) <= n, for n >= 1
    lo, hi = i, i + 1
    while comb(hi, i) <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, i) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_expansion(n: int, i: int) -> BinomialExpansion:
    """Greedy i-binomial expansion of the non-negative integer n.

    Picks the largest C(n_i, i) <= n, then recurses on the remainder with
    index i - 1; the classical uniqueness argument guarantees the result has
    strictly decreasing tops and never runs past index 1.
    """
    n, i = _integer(n, "n", 0), _integer(i, "i", 1)
    terms = []
    rem, idx = n, i
    while rem > 0:
        top = _largest_top(rem, idx)
        terms.append((top, idx))
        rem -= comb(top, idx)
        idx -= 1
    return BinomialExpansion(tuple(terms))


def shift(expansion: BinomialExpansion, a: int, b: int) -> int:
    """Sum of C(n_t + a, t + b) over the expansion, with C(m, k) = 0 for m < k."""
    return sum(binomial(top + a, idx + b) for top, idx in expansion.terms)


# The bound of every cache here and of betti._lex_column: sweeps meet the
# same arguments again and again, and a fixed bound keeps a long one at
# large s or cap from growing memory without limit.
_CACHE_ENTRIES = 1 << 16


@lru_cache(maxsize=_CACHE_ENTRIES)
def macaulay_bound(h: int, d: int) -> int:
    """Largest legal value in degree d+1 after h in degree d (tops and indices up by 1).

    A cache miss checks h and d in :func:`macaulay_expansion` (as n and i); a
    float equal to a cached int key hits and returns that int's answer."""
    return shift(macaulay_expansion(h, d), 1, 1)


@lru_cache(maxsize=_CACHE_ENTRIES)
def green_bound(h: int, d: int) -> int:
    """Restriction of h in degree d to a general hyperplane (tops down by 1).

    For lex-segment ideals this is the exact Hilbert function of the quotient
    by the last variable, not merely an upper bound.  Checks h and d as
    :func:`macaulay_bound` does, with the same cache hits.
    """
    return shift(macaulay_expansion(h, d), -1, 0)
