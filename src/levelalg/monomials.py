"""Monomials and monomial ideals in k[x1, x2, x3].

The variable count is fixed at three throughout.  Degree-t monomials are
indexed by their position in descending lexicographic order (x1 > x2 > x3),
which makes lex segments plain prefixes: membership in a segment is a rank
comparison, and per-degree membership of an arbitrary ideal is one Python
int used as a bitset, bit r set when the monomial of rank r is a member.

A monomial's rank is r = T(tail) + e3, with tail = e2 + e3 and
T(k) = k(k+1)/2, independent of its degree.  So its neighbours one degree
away have ranks known by arithmetic: dividing by x1, x2, x3 gives ranks r,
r - tail, r - tail - 1, and multiplying by them gives r, r + tail + 1,
r + tail + 2.  The ranks of one tail form a block of tail + 1 bits starting
at T(tail), so each of these offsets is one shift of a whole block, and the
rows are built and read a block at a time.

An ideal's minimal generators are read off its rows: a given monomial of
degree t is one exactly when the row grown from degree t - 1 lacks it.  Rows
are built at construction up to the top generator degree, and lazily beyond.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, NamedTuple

from .binomials import binomial
from .errors import _integer
from .hvectors import HVector, require_codim3


class Monomial(NamedTuple):
    """Exponent triple (e1, e2, e3)."""

    e1: int
    e2: int
    e3: int

    @property
    def degree(self) -> int:
        return self.e1 + self.e2 + self.e3

    def __str__(self) -> str:
        parts = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(self, start=1)
            if e > 0
        ]
        return "*".join(parts) if parts else "1"


def _checked(m: Monomial) -> Monomial:
    """m with its exponents checked: three non-negative integers, as Monomial."""
    try:
        exponents = tuple(map(index, m))
    except TypeError:
        raise ValueError(f"monomial exponents must be integers: {m!r}") from None
    if len(exponents) != 3:
        raise ValueError(f"monomial exponents must be three integers: {m!r}")
    if min(exponents) < 0:
        raise ValueError(f"monomial exponents must be non-negative: {m!r}")
    return Monomial(*exponents)


def monomial_count(t: int) -> int:
    """Number of degree-t monomials in three variables: C(t+2, 2)."""
    return binomial(t + 2, 2)


def lex_rank(m: Monomial) -> int:
    """Position of m in the descending lex list of its degree (0 = largest)."""
    tail = m.e2 + m.e3
    return tail * (tail + 1) // 2 + m.e3


class MonomialIdeal:
    """A monomial ideal, kept as its minimal generators and membership rows.

    Immutable after construction; exponents must be non-negative integers.
    Membership rows (one int bitset per degree, bit r set when the monomial
    of lex rank r is a member) are built at construction up to the top
    generator degree, and lazily beyond it.
    """

    def __init__(self, generators: Iterable[Monomial]):
        if not isinstance(generators, Iterable):
            raise ValueError(f"generators must be iterable: {generators!r}")
        given: dict[int, int] = {}
        for m in map(_checked, generators):
            given[m.degree] = given.get(m.degree, 0) | 1 << lex_rank(m)
        self._build([given.get(t, 0) for t in range(max(given, default=-1) + 1)])

    def _build(self, given: list[int]) -> None:
        """The ideal of the monomials whose bits are set in given[t], degree t.

        Row t is the row grown from row t - 1 plus the given bits; the given
        bits the grown row lacks are the minimal generators of degree t.
        """
        rows: list[int] = []
        by_degree: dict[int, tuple[Monomial, ...]] = {}
        for t, bits in enumerate(given):
            grown = _grown_row(rows)
            minimal = bits & ~grown
            if minimal:
                by_degree[t] = tuple(_decode(minimal, t))
            rows.append(grown | bits)
        self._generators = tuple(m for ms in by_degree.values() for m in ms)
        self._gens_by_degree = by_degree
        self._member = rows

    def generators(self) -> tuple[Monomial, ...]:
        """All minimal generators, by ascending degree then descending lex."""
        return self._generators

    def generators_of_degree(self, d: int) -> tuple[Monomial, ...]:
        return self._gens_by_degree.get(_integer(d, "degree", 0), ())

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(self._gens_by_degree)

    def _ensure_tables(self, through: int) -> int:
        """The membership row of degree `through`, built with every row below it.

        The one reader of the row cache: a degree that is not a non-negative
        integer raises ValueError before any row is built.
        """
        through = _integer(through, "degree", 0)
        rows = self._member
        while len(rows) <= through:
            rows.append(_grown_row(rows))
        return rows[through]

    def is_stable(self) -> bool:
        """Closed under the exchanges x_i * T / x_{m(T)} for i < m(T).

        The exchanges of a generator of rank r lie in its own degree's row:
        x3 -> x2 and x3 -> x1 at ranks r - 1 and r - tail - 1 when e3 > 0,
        x2 -> x1 at rank r - tail when e3 = 0 < e2.
        """
        return all(
            self._exchanges_are_members(d, gens)
            for d, gens in self._gens_by_degree.items()
        )

    def _exchanges_are_members(self, d: int, gens: tuple[Monomial, ...]) -> bool:
        """Whether the degree-d row holds every exchange of the degree-d
        generators, tested as one mask."""
        need = 0
        for gen in gens:
            r, tail = lex_rank(gen), gen.e2 + gen.e3
            if gen.e3 > 0:
                need |= (1 << (r - 1)) | (1 << (r - tail - 1))
            elif gen.e2 > 0:
                need |= 1 << (r - tail)
        return self._ensure_tables(d) & need == need

    def __repr__(self) -> str:
        return f"MonomialIdeal({', '.join(str(m) for m in self.generators())})"


def _grown_row(rows: list[int]) -> int:
    """The members of degree t = len(rows) that are multiples of row t - 1.

    A monomial is such a multiple when one of its parents m/x1, m/x2, m/x3
    is a member.  The x1 parents are the previous row itself; block
    tail - 1 of it (tail bits from T(tail - 1) = start) holds the x2
    parents of block tail shifted down by tail, and the x3 parents shifted
    down by tail + 1.
    """
    if not rows:
        return 0
    rest = row = rows[-1]
    start = 0
    for tail in range(1, len(rows) + 1):
        if not rest:
            break
        block = rest & ((1 << tail) - 1)
        row |= (block | block << 1) << start + tail
        rest >>= tail
        start += tail
    return row


def _decode(bits: int, t: int) -> Iterator[Monomial]:
    """The degree-t monomials whose ranks are set in bits, in rank order.

    Block tail, tail + 1 bits from rank T(tail), holds
    x1^(t - tail) * x2^(tail - e3) * x3^e3 at offset e3.
    """
    for tail in range(t + 1):
        if not bits:
            break
        block = bits & ((1 << tail + 1) - 1)
        while block:
            e3 = (block & -block).bit_length() - 1
            yield Monomial(t - tail, tail - e3, e3)
            block &= block - 1
        bits >>= tail + 1


def _ideal(ideal) -> MonomialIdeal:
    """ideal itself; ValueError naming its type unless it is a MonomialIdeal."""
    if not isinstance(ideal, MonomialIdeal):
        raise ValueError(f"ideal must be a MonomialIdeal, got {type(ideal).__name__}")
    return ideal


def lex_segment_ideal(h: HVector) -> MonomialIdeal:
    """The lex-segment ideal whose quotient has Hilbert function h.

    In each degree t the ideal consists of the top C(t+2,2) - h_t monomials
    in descending lex order, truncated by all of degree s+1 beyond the
    socle degree s.  Requires an O-sequence with h_1 = 3; anything else
    would not produce an ideal.
    """
    require_codim3(h)
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._build(
        [(1 << monomial_count(t) - e) - 1 for t, e in enumerate(h.entries + (0,))]
    )
    return ideal


def quotient_hf(ideal: MonomialIdeal, through: int) -> tuple[int, ...]:
    """Hilbert function of the quotient ring in degrees 0..through."""
    row = _ideal(ideal)._ensure_tables
    return tuple(
        monomial_count(t) - row(t).bit_count()
        for t in range(_integer(through, "degree", 0) + 1)
    )

