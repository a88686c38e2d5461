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
"""

from __future__ import annotations

from operator import index
from typing import Iterable, NamedTuple, Optional

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

    def divides(self, other: "Monomial") -> bool:
        return self.e1 <= other.e1 and self.e2 <= other.e2 and self.e3 <= other.e3

    def __str__(self) -> str:
        parts = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(self, start=1)
            if e > 0
        ]
        return "*".join(parts) if parts else "1"


def _checked(m: Monomial) -> Monomial:
    """m with its exponents checked: non-negative integers, as Monomial."""
    try:
        exponents = tuple(map(index, m))
    except TypeError:
        raise ValueError(f"monomial exponents must be integers: {m!r}") from None
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
    """A monomial ideal given by its minimal generators.

    Immutable after construction; exponents must be non-negative integers.
    Membership rows (one int bitset per degree, bit r set when the monomial
    of lex rank r is a member) are built lazily from the generators alone
    and cached.
    """

    def __init__(self, generators: Iterable[Monomial]):
        gens = sorted(
            {_checked(m) for m in generators}, key=lambda m: (m.degree, lex_rank(m))
        )
        minimal: list[Monomial] = []
        for m in gens:
            if not any(g.divides(m) for g in minimal):
                minimal.append(m)
        self._set_generators(minimal)

    @classmethod
    def _from_minimal(cls, minimal: list[Monomial]) -> "MonomialIdeal":
        """The ideal of generators already minimal and ordered by degree then
        lex rank, without the quadratic minimality filter of the constructor.
        """
        ideal = cls.__new__(cls)
        ideal._set_generators(minimal)
        return ideal

    def _set_generators(self, minimal: list[Monomial]) -> None:
        self._generators = tuple(minimal)
        by_degree: dict[int, list[Monomial]] = {}
        powers: set[int] = set()  # variables with a pure power among the generators
        for m in minimal:
            d = m.e1 + m.e2 + m.e3
            by_degree.setdefault(d, []).append(m)
            if d in m:  # a pure power; the unit monomial is one of every variable
                powers.update(v for v, e in enumerate(m) if e == d)
        self._gens_by_degree = {d: tuple(ms) for d, ms in by_degree.items()}
        self._finite_colength = len(powers) == 3
        self._member: list[int] = []
        self._stable: Optional[bool] = None

    def generators(self) -> tuple[Monomial, ...]:
        """All minimal generators, by ascending degree then descending lex."""
        return self._generators

    def generators_of_degree(self, d: int) -> tuple[Monomial, ...]:
        return self._gens_by_degree.get(_integer(d, "degree", 0), ())

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._gens_by_degree))

    def _ensure_tables(self, through: int) -> int:
        """The membership row of degree `through`, built with every row below it.

        The one reader of the row cache: a degree that is not a non-negative
        integer raises ValueError before any row is built.
        """
        through = _integer(through, "degree", 0)
        rows = self._member
        while len(rows) <= through:
            t = len(rows)
            row = 0
            for m in self._gens_by_degree.get(t, ()):
                row |= 1 << lex_rank(m)
            if t > 0:
                # a non-generator is a member when one of its parents m/x1,
                # m/x2, m/x3 is.  The x1 parents are the previous row itself;
                # block tail - 1 of it (T(tail - 1) = start, tail bits) holds
                # the x2 parents of block tail shifted down by tail, and the
                # x3 parents shifted down by tail + 1.
                prev = rows[-1]
                row |= prev
                start = 0
                for tail in range(1, t + 1):
                    block = prev & (((1 << tail) - 1) << start)
                    row |= (block | (block << 1)) << tail
                    start += tail
            rows.append(row)
        return rows[through]

    def is_stable(self) -> bool:
        """Closed under the exchanges x_i * T / x_{m(T)} for i < m(T).

        The exchanges of a generator of rank r lie in its own degree's row:
        x3 -> x2 and x3 -> x1 at ranks r - 1 and r - tail - 1 when e3 > 0,
        x2 -> x1 at rank r - tail when e3 = 0 < e2.
        """
        if self._stable is None:
            self._stable = all(
                self._exchanges_are_members(d, gens)
                for d, gens in self._gens_by_degree.items()
            )
        return self._stable

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

    def _vanishing_degree(self) -> int:
        """Least degree in which every monomial lies in the ideal."""
        if not self._finite_colength:
            raise ValueError("ideal does not have finite colength")
        t = 0
        while self._ensure_tables(t) != (1 << monomial_count(t)) - 1:
            t += 1
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self._gens_by_degree == other._gens_by_degree

    def __repr__(self) -> str:
        return f"MonomialIdeal({', '.join(str(m) for m in self.generators())})"


def lex_segment_ideal(h: HVector) -> MonomialIdeal:
    """The lex-segment ideal whose quotient has Hilbert function h.

    In each degree t the ideal consists of the top C(t+2,2) - h_t monomials
    in descending lex order, truncated by all of degree s+1 beyond the
    socle degree s.  Requires an O-sequence with h_1 = 3; anything else
    would not produce an ideal.
    """
    require_codim3(h)
    return MonomialIdeal._from_minimal(_lex_generators(h))


def _lex_generators(h: HVector) -> list[Monomial]:
    """Minimal generators of the lex-segment ideal of h, by degree then rank."""
    cuts = [monomial_count(t) - e for t, e in enumerate(h.entries + (0,))]
    gens = []
    tail = start = 0  # the block holding rank lo, which starts at T(tail)
    for t in range(1, len(cuts)):
        # A rank r < lo has tail < t, so its parent m/x1 (rank r) lies in the
        # segment: only the new band [lo, hi) can hold generators.
        lo, hi = cuts[t - 1], cuts[t]
        while start + tail < lo:  # block tail ends below lo
            start += tail + 1
            tail += 1
        k, block_start = tail, start
        while block_start < hi:
            # In block k, m/x2 has rank base + e3 and m/x3 rank base + e3 - 1,
            # base = T(k - 1).  Both lie outside the segment (>= lo) for
            # every e3 when base >= lo; otherwise e3 = 0 fails on m/x2 and
            # e3 >= 1 needs base + e3 - 1 >= lo.  m/x1 has rank r >= lo.
            base = block_start - k
            first = 0 if base >= lo else lo - base + 1
            last = min(k, hi - 1 - block_start)
            gens.extend(Monomial(t - k, k - e3, e3) for e3 in range(first, last + 1))
            block_start += k + 1
            k += 1
    return gens


def quotient_hf(ideal: MonomialIdeal, through: int) -> tuple[int, ...]:
    """Hilbert function of the quotient ring in degrees 0..through."""
    return tuple(
        monomial_count(t) - ideal._ensure_tables(t).bit_count()
        for t in range(_integer(through, "degree", 0) + 1)
    )


def restricted_hf(ideal: MonomialIdeal, through: int) -> tuple[int, ...]:
    """Hilbert function of the quotient by the ideal plus (x3), degrees 0..through.

    Counts the monomials in x1, x2 only that stay out of the ideal; the one
    x1^a * x2^k of degree a + k has rank T(k).
    """
    out = []
    corners = 0  # bits T(0), ..., T(t)
    for t in range(_integer(through, "degree", 0) + 1):
        corners |= 1 << (t * (t + 1) // 2)
        out.append(t + 1 - (ideal._ensure_tables(t) & corners).bit_count())
    return tuple(out)


def count_gens_div_x3(ideal: MonomialIdeal, g: int) -> int:
    """Number of degree-g minimal generators divisible by x3.

    For a stable ideal this equals the dimension of (J : x3)/J in degree
    g - 1; the equality is meaningless otherwise, so non-stable input is
    rejected.
    """
    if not ideal.is_stable():
        raise ValueError("count_gens_div_x3 requires a stable ideal")
    return sum(1 for m in ideal.generators_of_degree(g) if m.e3 > 0)


def socle_dims(ideal: MonomialIdeal) -> dict[int, int]:
    """Dimensions of the quotient's socle by degree (zero entries omitted).

    A degree-t monomial u outside the ideal is a socle element when all of
    x1*u, x2*u, x3*u fall inside.  Requires finite colength.
    """
    dims: dict[int, int] = {}
    after = ideal._ensure_tables(0)
    for t in range(ideal._vanishing_degree()):
        members, after = after, ideal._ensure_tables(t + 1)
        # u of rank r in block tail has x1*u, x2*u, x3*u at ranks r,
        # r + tail + 1, r + tail + 2: the x2 and x3 multiples of block tail
        # are block tail + 1 of the next row, read at offsets 0 and 1;
        # `multiples` marks the u with both of them in the ideal
        multiples = 0
        start = 0  # T(tail)
        for tail in range(t + 1):
            above = after >> (start + tail + 1)
            multiples |= (above & (above >> 1) & ((1 << (tail + 1)) - 1)) << start
            start += tail + 1
        count = (multiples & after & ~members).bit_count()
        if count:
            dims[t] = count
    return dims
