"""Shared fixtures: reference Betti tables and seeded random generators."""

from math import comb

from hypothesis import strategies as st

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    lex_rank,
    macaulay_bound,
    monomial_at,
    monomial_count,
    monomials_of_degree,
)

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
            if not ideal.contains(exchanged)
        }
        if not missing:
            return ideal
        gens = set(ideal.generators()) | missing
    raise AssertionError(f"exchange closure did not settle in {rounds} rounds")


def exchanges(gen):
    """The monomials x_i * gen / x_m for i < m, m the largest variable of gen."""
    if gen.degree == 0:
        return []
    top = gen.max_var()
    return [gen.div_var(top).mul_var(i) for i in range(1, top)]


def is_stable_by_exchange(ideal):
    """Reference stability: every exchange of every generator is a member."""
    return all(
        in_ideal_by_scan(ideal, exchanged)
        for gen in ideal.generators()
        for exchanged in exchanges(gen)
    )


def in_ideal_by_scan(ideal, m):
    """Reference membership: some minimal generator divides m."""
    return any(g.divides(m) for g in ideal.generators())


def colon_dim_by_scan(ideal, var, t):
    """dim of (J : x_var)/J in degree t, with membership by divisor scan."""
    return sum(
        1
        for u in monomials_of_degree(t)
        if not in_ideal_by_scan(ideal, u) and in_ideal_by_scan(ideal, u.mul_var(var))
    )


def socle_dim_by_scan(ideal, t):
    """Socle dimension in degree t, with membership by divisor scan."""
    return sum(
        1
        for u in monomials_of_degree(t)
        if not in_ideal_by_scan(ideal, u)
        and all(in_ideal_by_scan(ideal, u.mul_var(v)) for v in (1, 2, 3))
    )


def lex_generators_by_full_scan(h):
    """Lex-segment generators from every rank below each cut, parents by lex_rank."""
    s = h.socle_degree
    cuts = [monomial_count(t) - h.at(t) for t in range(s + 2)]
    gens = []
    for t in range(1, s + 2):
        for r in range(cuts[t]):
            m = monomial_at(t, r)
            if all(
                lex_rank(m.div_var(v)) >= cuts[t - 1] for v in (1, 2, 3) if m[v - 1] > 0
            ):
                gens.append(m)
    return gens


@st.composite
def monomials(draw, max_degree=6):
    t = draw(st.integers(0, max_degree))
    e1 = draw(st.integers(0, t))
    e2 = draw(st.integers(0, t - e1))
    return Monomial(e1, e2, t - e1 - e2)


def monomial_ideals(max_degree=6, max_gens=6):
    """Arbitrary monomial ideals: not necessarily stable or of finite colength."""
    return st.lists(monomials(max_degree), min_size=1, max_size=max_gens).map(
        MonomialIdeal
    )
