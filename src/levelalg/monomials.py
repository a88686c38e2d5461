"""Monomials and monomial ideals in k[x1, x2, x3].

The variable count is fixed at three throughout.  Degree-t monomials are
indexed by their position in descending lexicographic order (x1 > x2 > x3),
which makes lex segments plain prefixes: membership in a segment is a rank
comparison, and per-degree membership of an arbitrary ideal is a dense
boolean table over ranks.

A monomial's rank is r = T(tail) + e3, with tail = e2 + e3 and
T(k) = k(k+1)/2, independent of its degree.  So its neighbours one degree
away have ranks known by arithmetic: dividing by x1, x2, x3 gives ranks r,
r - tail, r - tail - 1, and multiplying by them gives r, r + tail + 1,
r + tail + 2.  The tables are built from these offsets alone.
"""

from __future__ import annotations

from math import isqrt
from operator import index
from typing import Iterable, NamedTuple, Optional

from .binomials import binomial
from .hvectors import HVector, require_codim3


class Monomial(NamedTuple):
    """Exponent triple (e1, e2, e3)."""

    e1: int
    e2: int
    e3: int

    @property
    def degree(self) -> int:
        return self.e1 + self.e2 + self.e3

    def max_var(self) -> int:
        """Largest variable index with positive exponent (undefined for 1)."""
        if self.e3 > 0:
            return 3
        if self.e2 > 0:
            return 2
        if self.e1 > 0:
            return 1
        raise ValueError("max_var of the constant monomial is undefined")

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


def monomial_at(t: int, rank: int) -> Monomial:
    """Inverse of :func:`lex_rank` within degree t."""
    if not 0 <= rank < monomial_count(t):
        raise IndexError(f"rank {rank} out of range for degree {t}")
    # the largest tail with T(tail) <= rank, where T(k) = k(k+1)/2
    tail = (isqrt(8 * rank + 1) - 1) // 2
    e3 = rank - tail * (tail + 1) // 2
    return Monomial(t - tail, tail - e3, e3)


class MonomialIdeal:
    """A monomial ideal given by its minimal generators.

    Immutable after construction; exponents must be non-negative integers.
    Membership tables (one dense bitset per degree, indexed by lex rank) are
    built lazily and cached.
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
        for m in minimal:
            by_degree.setdefault(m.degree, []).append(m)
        self._gens_by_degree = {d: tuple(ms) for d, ms in by_degree.items()}
        # a pure power of every variable among the generators
        self._finite_colength = all(
            any(m[v] == m.degree for m in minimal) for v in range(3)
        )
        self._member: list[list[bool]] = []
        self._stable: Optional[bool] = None

    def generators(self) -> tuple[Monomial, ...]:
        """All minimal generators, by ascending degree then descending lex."""
        return self._generators

    def generators_of_degree(self, d: int) -> tuple[Monomial, ...]:
        return self._gens_by_degree.get(d, ())

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._gens_by_degree))

    def max_generator_degree(self) -> int:
        return max(self._gens_by_degree, default=0)

    def _ensure_tables(self, through: int) -> list[bool]:
        """The membership row of degree `through`, built with every row below it.

        The one reader of the row cache: a negative degree raises ValueError.
        Callers read the returned row and must not change it.
        """
        if through < 0:
            raise ValueError(f"degree must be non-negative, got {through}")
        while len(self._member) <= through:
            t = len(self._member)
            row = [False] * monomial_count(t)
            for m in self._gens_by_degree.get(t, ()):
                row[lex_rank(m)] = True
            if t > 0:
                # a non-generator is a member when one of its parents m/x1,
                # m/x2, m/x3 (ranks r, r - tail, r - tail - 1) is
                prev = self._member[t - 1]
                r = 0
                for tail in range(t + 1):
                    for e3 in range(tail + 1):
                        row[r] = (
                            row[r]
                            or (tail < t and prev[r])
                            or (e3 < tail and prev[r - tail])
                            or (e3 > 0 and prev[r - tail - 1])
                        )
                        r += 1
            self._member.append(row)
        return self._member[through]

    def members_of_degree(self, t: int) -> list[bool]:
        """Membership bitset for degree t, indexed by lex rank."""
        return list(self._ensure_tables(t))

    def is_stable(self) -> bool:
        """Closed under the exchanges x_i * T / x_{m(T)} for i < m(T).

        The exchanges of a generator of rank r lie in its own degree's row:
        x3 -> x2 and x3 -> x1 at ranks r - 1 and r - tail - 1 when e3 > 0,
        x2 -> x1 at rank r - tail when e3 = 0 < e2.
        """
        if self._stable is None:
            self._stable = all(
                self._exchanges_are_members(gen) for gen in self._generators
            )
        return self._stable

    def _exchanges_are_members(self, gen: Monomial) -> bool:
        row = self._ensure_tables(gen.degree)
        r, tail = lex_rank(gen), gen.e2 + gen.e3
        if gen.e3 > 0:
            return row[r - 1] and row[r - tail - 1]
        return gen.e2 == 0 or row[r - tail]

    def _vanishing_degree(self) -> int:
        """Least degree in which every monomial lies in the ideal."""
        if not self._finite_colength:
            raise ValueError("ideal does not have finite colength")
        t = 0
        while not all(self._ensure_tables(t)):
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
    s = h.socle_degree
    cuts = [monomial_count(t) - h.at(t) for t in range(s + 2)]
    gens = []
    for t in range(1, s + 2):
        # A rank r < cuts[t-1] has tail < t, so its parent m/x1 (rank r)
        # lies in the segment: only the new band can hold generators.
        lo = cuts[t - 1]
        for r in range(lo, cuts[t]):
            m = monomial_at(t, r)
            tail = m.e2 + m.e3
            # m/x1 has rank r >= lo; m/x2 and m/x3 have ranks r - tail and r - tail - 1
            if (m.e2 == 0 or r - tail >= lo) and (m.e3 == 0 or r - tail - 1 >= lo):
                gens.append(m)
    return gens


def quotient_hf(ideal: MonomialIdeal, through: int) -> tuple[int, ...]:
    """Hilbert function of the quotient ring in degrees 0..through."""
    return tuple(ideal._ensure_tables(t).count(False) for t in range(through + 1))


def restricted_hf(ideal: MonomialIdeal, through: int) -> tuple[int, ...]:
    """Hilbert function of the quotient by the ideal plus (x3), degrees 0..through.

    Counts the monomials in x1, x2 only that stay out of the ideal; the one
    x1^a * x2^k of degree a + k has rank T(k).
    """
    out = []
    for t in range(through + 1):
        row = ideal._ensure_tables(t)
        out.append(sum(not row[k * (k + 1) // 2] for k in range(t + 1)))
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
    for t in range(ideal._vanishing_degree()):
        members, after = ideal._ensure_tables(t), ideal._ensure_tables(t + 1)
        count = 0
        r = 0
        for tail in range(t + 1):
            for _ in range(tail + 1):
                # x1*u, x2*u, x3*u have ranks r, r + tail + 1, r + tail + 2
                if (
                    not members[r]
                    and after[r]
                    and after[r + tail + 1]
                    and after[r + tail + 2]
                ):
                    count += 1
                r += 1
        if count:
            dims[t] = count
    return dims
