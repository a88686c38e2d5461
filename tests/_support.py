"""Shared fixtures: reference Betti tables, seeded random generators, and
monomial helpers and slow twins that only the tests use."""

from itertools import product
from math import comb, isqrt

from hypothesis import strategies as st

from levelalg import (
    BinomialExpansion,
    HVector,
    Monomial,
    MonomialIdeal,
    ek_betti,
    green_bound,
    growth_violation,
    macaulay_bound,
    quotient_hf,
)
from levelalg.betti import _numerator_identity, lex_betti
from levelalg.classify import (
    LEVEL,
    NOT_LEVEL,
    R_44A,
    R_AS,
    R_LEVEL_DIFF,
    RULES,
    UNKNOWN,
    Certificate,
    Verdict,
)
from levelalg.errors import _integer
from levelalg.monomials import lex_rank, monomial_count
from levelalg.oracle import _staircase

# Graded Betti numbers (ideal convention) of the lex-segment ideals of the
# regression h-vectors; entries are {(q, shift): multiplicity}.  Verified
# against the Hilbert-series numerator identity and the brute-force socle
# and colon counts.
PAPER_BETTI = {
    (1, 3, 6, 10, 15, 16, 18): {
        (0, 5): 5, (0, 6): 1, (0, 7): 21,
        (1, 6): 6, (1, 7): 2, (1, 8): 39,
        (2, 7): 2, (2, 8): 1, (2, 9): 18,
    },
    (1, 3, 5, 6, 6, 6, 6): {
        (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1, (0, 7): 6,
        (1, 4): 1, (1, 5): 2, (1, 6): 2, (1, 7): 1, (1, 8): 12,
        (2, 6): 1, (2, 7): 1, (2, 9): 6,
    },
    (1, 3, 6, 10, 13, 15, 17, 19, 20): {
        (0, 4): 2, (0, 5): 1, (0, 6): 1, (0, 8): 1, (0, 9): 22,
        (1, 5): 1, (1, 6): 2, (1, 7): 1, (1, 9): 2, (1, 10): 42,
        (2, 7): 1, (2, 10): 1, (2, 11): 20,
    },
    (1, 3, 6, 10, 12, 14, 16, 18, 19, 20): {
        (0, 4): 3, (0, 5): 1, (0, 8): 1, (0, 9): 1, (0, 10): 22,
        (1, 5): 3, (1, 6): 1, (1, 9): 2, (1, 10): 2, (1, 11): 42,
        (2, 6): 1, (2, 10): 1, (2, 11): 1, (2, 12): 20,
    },
    (1, 3, 6, 10, 15, 16, 18, 20): {
        (0, 5): 5, (0, 6): 1, (0, 7): 1, (0, 8): 22,
        (1, 6): 6, (1, 7): 2, (1, 8): 1, (1, 9): 42,
        (2, 7): 2, (2, 8): 1, (2, 10): 20,
    },
}

NOT_LEVEL_VECTORS = [
    (1, 3, 6, 10, 15, 16, 18),
    (1, 3, 6, 10, 15, 16, 18, 20),
    (1, 3, 6, 10, 15, 15, 16),
]

LEVEL_VECTORS = [
    (1, 3, 5, 6, 6, 6, 6),
    (1, 3, 6, 10, 13, 15, 17, 19, 20),
    (1, 3, 6, 10, 12, 14, 16, 18, 19, 20),
]


def lex_compare(u, v):
    """Three-way lex comparison of equal-degree monomials (+1 when u is larger).

    Lex order within a degree is plain tuple order on exponents.
    """
    if u.degree != v.degree:
        raise ValueError("lex comparison requires equal degrees")
    return (u > v) - (u < v)


def monomial_at(t, rank):
    """Inverse of :func:`~levelalg.monomials.lex_rank` within degree t."""
    if not 0 <= rank < monomial_count(t):
        raise IndexError(f"rank {rank} out of range for degree {t}")
    # the largest tail with T(tail) <= rank, where T(k) = k(k+1)/2
    tail = (isqrt(8 * rank + 1) - 1) // 2
    e3 = rank - tail * (tail + 1) // 2
    return Monomial(t - tail, tail - e3, e3)


def members_of_degree(ideal, t):
    """Membership of the degree-t monomials, indexed by lex rank, read from
    the ideal's bitset row."""
    row = ideal._ensure_tables(t)
    return [bit == "1" for bit in reversed(f"{row:0{monomial_count(t)}b}")]


def max_generator_degree(ideal):
    return max(ideal.generator_degrees(), default=0)


def monomials_of_degree(t):
    """All degree-t monomials, descending lex."""
    return [monomial_at(t, r) for r in range(monomial_count(t))]


def staircase_membership(ideal, top):
    """Membership test for monomials of degree at most top, read off the
    oracle's staircase table: some generator divides m exactly when
    corner[m.e1][m.e2] <= m.e3."""
    corner = _staircase(ideal, top)
    return lambda m: corner[m.e1][m.e2] <= m.e3


def mul_var(m, var):
    """m * x_var."""
    e = list(m)
    e[var - 1] += 1
    return Monomial(*e)


def divides(g, m):
    """Whether the monomial g divides m."""
    return all(a <= b for a, b in zip(g, m))


def minimal_by_divisor_scan(monomials):
    """Reference minimal generators: the distinct monomials, by degree then
    lex rank, that no earlier kept monomial divides."""
    ranked = sorted(set(monomials), key=lambda m: (m.degree, lex_rank(m)))
    minimal = []
    for m in ranked:
        if not any(divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(minimal)


def max_var(m):
    """Largest variable index with positive exponent (undefined for 1)."""
    for var in (3, 2, 1):
        if m[var - 1] > 0:
            return var
    raise ValueError("max_var of the constant monomial is undefined")


def div_var(m, var):
    """m / x_var; ValueError when x_var does not divide m."""
    e = list(m)
    if e[var - 1] == 0:
        raise ValueError(f"x{var} does not divide {m}")
    e[var - 1] -= 1
    return Monomial(*e)


def contains(ideal, m):
    """Membership read from the ideal's rank tables, not by divisor scan."""
    return members_of_degree(ideal, m.degree)[lex_rank(m)]


def restricted_hf_by_monomials(ideal, through):
    """Hilbert function of the quotient by the ideal plus (x3), degrees
    0..through: builds each x1^a * x2^(t-a) as a Monomial and reads its
    membership at its lex_rank."""
    out = []
    for t in range(through + 1):
        members = members_of_degree(ideal, t)
        out.append(
            sum(1 for a in range(t + 1) if not members[lex_rank(Monomial(a, t - a, 0))])
        )
    return tuple(out)


def numerator_identity(ideal):
    """The Hilbert-series numerator identity of a finite-colength ideal: its
    quotient's whole Hilbert function against its ek_betti columns.

    With x1^a1, x2^a2, x3^a3 the pure-power generators, a monomial outside
    the ideal has degree at most a1 + a2 + a3 - 3, so the quotient is zero
    from degree a1 + a2 + a3 - 2 on and reading through a1 + a2 + a3 covers
    it.  An ideal that lacks a pure power of some variable raises ValueError.
    """
    gens = ideal.generators()
    powers = [
        min((g.degree for g in gens if g[v] == g.degree), default=None) for v in range(3)
    ]
    if None in powers:
        raise ValueError("ideal does not have finite colength")
    hf = quotient_hf(ideal, sum(powers))
    return _numerator_identity(hf, ek_betti(ideal))


def osequence_filter(s, cap):
    """All O-sequences (1, 3, ..., h_s) with entries <= cap and h_s > 0.

    Generate-and-filter over the full integer box, with no incremental
    pruning: the slow twin of enumerate_o_sequences, whose s and cap checks
    it shares.
    """
    s, cap = _integer(s, "s", 1), _integer(cap, "cap", 3)
    found = set()
    for tail in product(range(cap + 1), repeat=s - 1):
        candidate = HVector((1, 3) + tail)
        if candidate.socle_degree == s and growth_violation(candidate.entries) is None:
            found.add(candidate)
    return found


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


def render_ideal(ideal):
    """One line per generator degree, monomials in descending lex."""
    return "\n".join(
        f"deg {d}: " + ", ".join(str(m) for m in ideal.generators_of_degree(d))
        for d in ideal.generator_degrees()
    )


def reduction_number_r1_lex(h):
    """First degree after which the lex quotient restricted to x3 = 0 vanishes.

    Computed as min{l : green_bound(h_{l+1}, l+1) = 0}, which for the
    lex-segment ideal agrees with scanning ``restricted_hf_by_monomials``.  This is an
    invariant of the lex ideal specifically: other ideals with the same
    Hilbert function can have a smaller reduction number.
    """
    if growth_violation(h.entries) is not None:
        raise ValueError(f"{h} is not an O-sequence")
    level = 0
    while green_bound(h.at(level + 1), level + 1) > 0:
        level += 1
    return level


def random_o_sequence(rng, max_s=8, cap=30):
    """Random walk under the growth bound; h1 = 3, socle degree in 2..max_s."""
    s = rng.randint(2, max_s)
    entries = [1, 3]
    for i in range(1, s):
        entries.append(rng.randint(1, min(cap, macaulay_bound(entries[i], i))))
    return HVector(tuple(entries))


def random_stable_ideal(rng, max_trunc=6, max_extras=4):
    """A finite-colength stable ideal: random seed monomials, then closure."""
    k = rng.randint(2, max_trunc)
    gens = set(monomials_of_degree(k))
    for _ in range(rng.randint(0, max_extras)):
        t = rng.randint(1, k - 1)
        gens.add(monomial_at(t, rng.randrange(monomial_count(t))))
    # A round that does not return adds a monomial of degree <= k to the
    # ideal, which holds every monomial of degree k, so with correct
    # membership the closure settles within this many rounds.
    rounds = comb(k + 3, 3)
    for _ in range(rounds):
        ideal = MonomialIdeal(gens)
        missing = {
            exchanged
            for gen in ideal.generators()
            for exchanged in exchanges(gen)
            if not contains(ideal, exchanged)
        }
        if not missing:
            return ideal
        gens = set(ideal.generators()) | missing
    raise AssertionError(f"exchange closure did not settle in {rounds} rounds")


def exchanges(gen):
    """The monomials x_i * gen / x_m for i < m, m the largest variable of gen."""
    if gen.degree == 0:
        return []
    top = max_var(gen)
    return [mul_var(div_var(gen, top), i) for i in range(1, top)]


def is_stable_by_exchange(ideal):
    """Reference stability: every exchange of every generator is a member."""
    return all(
        in_ideal_by_scan(ideal, exchanged)
        for gen in ideal.generators()
        for exchanged in exchanges(gen)
    )


def in_ideal_by_scan(ideal, m):
    """Reference membership: some minimal generator divides m."""
    return any(divides(g, m) for g in ideal.generators())


def colon_dim_by_scan(ideal, var, t):
    """dim of (J : x_var)/J in degree t, with membership by divisor scan."""
    return sum(
        1
        for u in monomials_of_degree(t)
        if not in_ideal_by_scan(ideal, u) and in_ideal_by_scan(ideal, mul_var(u, var))
    )


def socle_dim_by_scan(ideal, t):
    """Socle dimension in degree t, with membership by divisor scan."""
    return sum(
        1
        for u in monomials_of_degree(t)
        if not in_ideal_by_scan(ideal, u)
        and all(in_ideal_by_scan(ideal, mul_var(u, v)) for v in (1, 2, 3))
    )


def betti_dict(columns):
    """{(q, shift): multiplicity} of the non-zero entries of Betti columns
    (b0, b1, b2), the form of PAPER_BETTI."""
    return {
        (q, j): mult
        for q, column in enumerate(columns)
        for j, mult in enumerate(column)
        if mult
    }


def ek_betti_by_generator(ideal):
    """Reference Eliahou-Kervaire table: each generator T adds C(m(T) - 1, q)
    to beta_{q, deg T + q}, m(T) its largest variable."""
    table = {}
    for gen in ideal.generators():
        for q in range(3):
            mult = comb(max_var(gen) - 1, q)
            if mult:
                key = (q, gen.degree + q)
                table[key] = table.get(key, 0) + mult
    return table


def family_hvector(s, c):
    """h_i = min(C(i+2, 2), 3i + c) for 1 <= i <= s: differentiable, so Level."""
    return HVector((1,) + tuple(min(comb(i + 2, 2), 3 * i + c) for i in range(1, s + 1)))


def lex_generators_by_full_scan(h):
    """Lex-segment generators from every rank below each cut, parents by lex_rank."""
    s = h.socle_degree
    cuts = [monomial_count(t) - h.at(t) for t in range(s + 2)]
    gens = []
    for t in range(1, s + 2):
        for r in range(cuts[t]):
            m = monomial_at(t, r)
            if all(
                lex_rank(div_var(m, v)) >= cuts[t - 1] for v in (1, 2, 3) if m[v - 1] > 0
            ):
                gens.append(m)
    return gens


@st.composite
def o_sequences(draw, max_s=18):
    """h_1 = 3, then each step grows fully, plateaus, drops or lands anywhere."""
    s = draw(st.integers(1, max_s))
    entries = [1, 3]
    for i in range(2, s + 1):
        prev = entries[-1]
        bound = macaulay_bound(prev, i - 1)
        entries.append(
            draw(
                st.one_of(
                    st.just(bound),
                    st.just(prev),
                    st.integers(1, max(prev - 1, 1)),
                    st.integers(1, bound),
                )
            )
        )
    return HVector(tuple(entries))


@st.composite
def family_and_walk_vectors(draw, max_s=96):
    """The shapes of the classify-large benchmark: a family_hvector, or a
    walk that follows one to a peak and then plateaus, drops or climbs by
    one, within the growth bound."""
    s = draw(st.integers(2, max_s))
    h = family_hvector(s, draw(st.integers(0, 3 * max_s)))
    if draw(st.booleans()):
        return h
    entries = list(h.entries[: draw(st.integers(2, s)) + 1])
    for i in range(len(entries), s + 1):
        prev = entries[-1]
        step = draw(st.sampled_from((0, 0, -1, -3, -8, 1)))
        entries.append(max(1, min(macaulay_bound(prev, i - 1), prev + step)))
    return HVector(tuple(entries))


@st.composite
def monomials(draw, max_degree=6):
    t = draw(st.integers(0, max_degree))
    e1 = draw(st.integers(0, t))
    e2 = draw(st.integers(0, t - e1))
    return Monomial(e1, e2, t - e1 - e2)


@st.composite
def raw_monomial_lists(draw, max_degree=4):
    """Generator lists as a caller may pass them: possibly empty, with
    repeats, multiples of other entries and the unit monomial mixed in."""
    ms = draw(st.lists(monomials(max_degree), max_size=6))
    for m in list(ms):
        if draw(st.booleans()):
            ms.append(m)
        if draw(st.booleans()):
            ms.append(mul_var(m, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        ms.append(Monomial(0, 0, 0))
    return draw(st.permutations(ms))


def monomial_ideals(max_degree=6, max_gens=6):
    """Arbitrary monomial ideals: not necessarily stable or of finite colength."""
    return st.lists(monomials(max_degree), min_size=1, max_size=max_gens).map(
        MonomialIdeal
    )


@st.composite
def finite_colength_ideals(draw, max_degree=6):
    """monomial_ideals() plus a pure power of every variable, so of finite
    colength; a degree-0 generator among the drawn ones gives the unit ideal."""
    a1, a2, a3 = (draw(st.integers(1, max_degree)) for _ in range(3))
    powers = (Monomial(a1, 0, 0), Monomial(0, a2, 0), Monomial(0, 0, a3))
    return MonomialIdeal(draw(monomial_ideals(max_degree)).generators() + powers)


def classify_by_columns(h):
    """The declarative slow twin of :func:`~levelalg.classify.classify`.

    At each 2 <= d <= s-1 it builds every quantity of the README's
    certificate schema from the :func:`~levelalg.betti.lex_betti` columns,
    read by index, and h, and fires each rule whose ``RULES`` row holds on
    them, in ``RULES`` order; R-44A and R-AS only at d = s-1, with ``bound``
    3d+2 and 2d+3.  Level needs no firing and ``h.is_differentiable()``.  So
    :func:`classify` must fire exactly the rules whose certificate replays.
    """
    _, b1, b2 = lex_betti(h)  # validates h
    e = h.entries
    s = h.socle_degree
    if s < 2:
        raise ValueError("classification requires socle degree at least 2")

    fired = []
    for d in range(2, s):  # d + 1 <= s, so e[d + 1] needs no zero padding
        quantities = {
            "beta1_d2": b1[d + 2],
            "beta2_d2": b2[d + 2],
            "beta2_d3": b2[d + 3],
            "h_dm1": e[d - 1],
            "h_d": e[d],
            "h_dp1": e[d + 1],
            "delta_hd": e[d] - e[d - 1],
            "delta_hd1": e[d + 1] - e[d],
            "green_hd1": green_bound(e[d + 1], d + 1),
        }
        for rule, (names, holds) in RULES.items():
            if rule in (R_44A, R_AS):
                if d != s - 1:
                    continue
                quantities["bound"] = 3 * d + 2 if rule == R_44A else 2 * d + 3
            values = [quantities[name] for name in names]
            if holds(d, *values):
                fired.append(Certificate(rule, d, zip(names, values)))

    if fired:
        return Verdict(NOT_LEVEL, tuple(fired))
    if h.is_differentiable():
        quantities = {f"delta_{i}": value for i, value in enumerate(h.first_difference())}
        return Verdict(LEVEL, (Certificate(R_LEVEL_DIFF, s, quantities),))
    return Verdict(UNKNOWN, ())
