"""Level / NotLevel / Unknown classification of codimension-3 h-vectors.

Each obstruction rule inspects the graded Betti numbers of the lex-segment
ideal, which :func:`~levelalg.betti._lex_column` computes degree by degree
from two entries of h, the same numbers :func:`~levelalg.betti.lex_betti`
assembles (the ideal itself is built only to verify them), or the h-vector
window around a degree d.  When a rule fires it records a certificate
holding every integer it compared, so the verdict can be replayed from the
certificate alone.  If no obstruction fires and the vector is
differentiable, it is a level O-sequence: any differentiable O-sequence is
the truncation of a Gorenstein one.  Otherwise the honest answer is Unknown;
the implemented criteria are not a complete classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .binomials import binomial, green_bound, macaulay_bound
from .hvectors import HVector, _hvector, growth_violation, require_codim3
from .betti import _lex_column
from .errors import _integer

R_CANCEL = "R-CANCEL"
R_31 = "R-31"
R_33 = "R-33"
R_37 = "R-37"
R_42 = "R-42"
R_44A = "R-44A"
R_AS = "R-AS"
R_LEVEL_DIFF = "R-LEVEL-DIFF"

# Each obstruction rule: the names of the integers its certificate stores,
# in the order they are printed, and holds(d, *values), the rule's
# inequality on d and those integers, its parameters named after them, which
# the replay evaluates.  R-LEVEL-DIFF is not here: it stores the first
# difference of h.
RULES: dict[str, tuple[tuple[str, ...], Callable[..., bool]]] = {
    R_CANCEL: (("beta1_d2", "beta2_d2"), lambda d, beta1_d2, beta2_d2: beta2_d2 > beta1_d2),
    R_31: (
        ("beta1_d2", "beta2_d2", "beta2_d3"),
        lambda d, beta1_d2, beta2_d2, beta2_d3: beta1_d2 == beta2_d2 > 0 and beta2_d3 > 0,
    ),
    R_33: (
        ("beta1_d2", "beta2_d2", "h_dm1", "h_d", "h_dp1"),
        lambda d, beta1_d2, beta2_d2, h_dm1, h_d, h_dp1: beta1_d2 == beta2_d2 > 0
        and not h_dm1 == h_d == h_dp1 == d + 1
        and not h_dm1 < h_d < h_dp1,
    ),
    R_37: (
        ("beta1_d2", "beta2_d2", "delta_hd", "delta_hd1"),
        lambda d, beta1_d2, beta2_d2, delta_hd, delta_hd1: beta1_d2 == beta2_d2 > 0
        and 0 < delta_hd and 0 < delta_hd1 and delta_hd != delta_hd1,
    ),
    R_42: (
        ("delta_hd", "delta_hd1", "green_hd1"),
        lambda d, delta_hd, delta_hd1, green_hd1: delta_hd == 0
        and delta_hd1 > 0 and green_hd1 <= 2 * delta_hd1,
    ),
    R_44A: (
        ("delta_hd", "delta_hd1", "h_d", "bound"),
        lambda d, delta_hd, delta_hd1, h_d, bound: delta_hd == 0 < delta_hd1
        and h_d <= bound == 3 * d + 2,
    ),
    R_AS: (
        ("delta_hd", "delta_hd1", "h_d", "bound"),
        lambda d, delta_hd, delta_hd1, h_d, bound: delta_hd < 0 == delta_hd1
        and h_d <= bound == 2 * d + 3,
    ),
}

NOT_LEVEL_RULES = tuple(RULES)

LEVEL = "Level"
NOT_LEVEL = "NotLevel"
UNKNOWN = "Unknown"


@dataclass(frozen=True, init=False)
class Certificate:
    """A fired rule, its position d, and the integers it compared.

    ``quantities`` is a mapping or (name, value) pairs (:func:`classify` zips
    a ``RULES`` row's names with its values); anything else raises ValueError.
    The certificate keeps a read-only view of its own dict, so it cannot
    change after it is made.  Pickling and ``copy.deepcopy`` go through a
    plain dict; ``dataclasses.asdict`` cannot copy the view, so use
    :meth:`as_dict` instead.
    """

    rule: str
    d: int
    quantities: Mapping[str, int]

    def __init__(
        self, rule: str, d: int, quantities: Mapping[str, int] | Iterable[tuple[str, int]]
    ):
        try:
            quantities = MappingProxyType(dict(quantities))
        except (TypeError, ValueError):
            raise ValueError(
                f"quantities must be a mapping or (name, value) pairs: {quantities!r}"
            ) from None
        # One write per field: the generated __init__ followed by a
        # __post_init__ rewrite made each certificate about 0.25 us dearer,
        # which a classify-only sweep pays on every fired rule.
        _set = object.__setattr__
        _set(self, "rule", rule)
        _set(self, "d", d)
        _set(self, "quantities", quantities)

    def __hash__(self):
        # as == does, ignore the order of the quantities; the view itself
        # cannot be hashed
        return hash((self.rule, self.d, frozenset(self.quantities.items())))

    def __reduce__(self):
        return (Certificate, (self.rule, self.d, dict(self.quantities)))

    def as_dict(self) -> dict:
        return {"rule": self.rule, "d": self.d, "quantities": dict(self.quantities)}


@dataclass(frozen=True)
class Verdict:
    kind: str
    certificates: tuple[Certificate, ...]

    def as_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "certificates": [c.as_dict() for c in self.certificates],
        }


def _delta_names(n: int) -> tuple[str, ...]:
    """R-LEVEL-DIFF's quantity names for n entries of Delta h: delta_0 .. delta_{n-1}."""
    return tuple(f"delta_{i}" for i in range(n))


def replay_certificate(cert: Certificate) -> bool:
    """Re-evaluate a certificate's inequality from its stored quantities.

    Raises ValueError for anything but a Certificate, an unknown rule, or
    quantity names that are not exactly the rule's: its ``RULES`` row's, or
    ``delta_0`` .. ``delta_{n-1}`` for R-LEVEL-DIFF, in any order, so a
    certificate read back from sorted JSON replays too.  Then a non-integer
    ``d`` or quantity raises ValueError naming it; True counts as 1.  An
    obstruction certificate with d < 2 or a negative quantity but a delta
    replays False, and otherwise its row's ``holds`` decides, which fixes
    ``bound`` at 3d+2 for R-44A and 2d+3 for R-AS.  R-LEVEL-DIFF's ``d`` must
    be its last delta index, the socle degree.
    """
    if not isinstance(cert, Certificate):
        raise ValueError(f"cert must be a Certificate, got {type(cert).__name__}")
    q = cert.quantities
    if cert.rule == R_LEVEL_DIFF:
        names = _delta_names(len(q))
    elif cert.rule in RULES:
        names, holds = RULES[cert.rule]
    else:
        raise ValueError(f"unknown rule {cert.rule!r}")
    if q.keys() != set(names):
        raise ValueError(
            f"{cert.rule} certificate stores {sorted(q)}, expected {sorted(names)}"
        )
    d = _integer(cert.d, "d")
    q = {name: _integer(value, name) for name, value in q.items()}
    if cert.rule == R_LEVEL_DIFF:
        return d == len(names) - 1 and growth_violation([q[n] for n in names]) is None
    # obstruction rules fire only at d >= 2; only first differences can be < 0
    signs = all(v >= 0 for name, v in q.items() if not name.startswith("delta"))
    return d >= 2 and signs and holds(d, **q)


def classify(h: HVector) -> Verdict:
    """Classify a codimension-3 O-sequence as Level, NotLevel, or Unknown.

    Obstruction rules run at every interior position 2 <= d <= s-1 (the two
    end-restricted rules only at d = s-1) and all firing certificates are
    collected.  The Betti numbers at d come from the cached degree-d and
    degree-(d+1) entries of :func:`~levelalg.betti._lex_column`, the ones
    :func:`~levelalg.betti.lex_betti` assembles, each read once per vector.
    After h_0 and h_1, their generator counts validate degrees 2..s of h
    (integers by construction of :class:`~levelalg.hvectors.HVector`): an
    invalid h raises the ``require_codim3`` ValueError, and a valid one is
    never checked twice.  The same loop over d tracks whether the first
    difference grows within the Macaulay bound, which decides R-LEVEL-DIFF
    when nothing fires.
    """
    e = _hvector(h).entries
    if e[0] != 1 or len(e) < 2 or e[1] != 3:
        require_codim3(h)  # raises: h_0 or h_1 is at fault
    s = len(e) - 1
    if s < 2:
        raise ValueError("classification requires socle degree at least 2")

    fired: list[Certificate] = []

    def fire(rule: str, d: int, *values: int) -> None:
        fired.append(Certificate(rule, d, zip(RULES[rule][0], values)))

    # Delta h = (1, 2, h_2 - 3, ...) is an O-sequence: h_2 <= 6 caps its
    # degree-2 entry, and the loop checks each later step
    differentiable = e[2] >= 3
    try:
        beta2_next = _lex_column(3, e[2], 2)[2]  # checks degree 2 when s = 2
        for d in range(2, s):  # d + 1 <= s, so e[d + 1] needs no zero padding
            h_dm1, h_d, h_dp1 = e[d - 1], e[d], e[d + 1]
            beta2 = beta2_next  # degree d's column: each is read once
            _, beta1, beta2_next = _lex_column(h_d, h_dp1, d + 1)
            delta_hd, delta_hd1 = h_d - h_dm1, h_dp1 - h_d
            if differentiable:
                differentiable = 0 <= delta_hd1 <= macaulay_bound(delta_hd, d)

            if beta2 > beta1:
                fire(R_CANCEL, d, beta1, beta2)
            elif beta1 == beta2 > 0:
                if beta2_next > 0:
                    fire(R_31, d, beta1, beta2, beta2_next)
                increasing = h_dm1 < h_d < h_dp1
                if not increasing and not (h_dm1 == h_d == h_dp1 == d + 1):
                    fire(R_33, d, beta1, beta2, h_dm1, h_d, h_dp1)
                if increasing and delta_hd != delta_hd1:
                    fire(R_37, d, beta1, beta2, delta_hd, delta_hd1)
            if h_dm1 == h_d < h_dp1:
                green_next = green_bound(h_dp1, d + 1)
                if green_next <= 2 * delta_hd1:
                    fire(R_42, d, delta_hd, delta_hd1, green_next)
            if d + 1 == s:
                if h_dm1 == h_d < h_dp1 and h_d <= 3 * d + 2:
                    fire(R_44A, d, delta_hd, delta_hd1, h_d, 3 * d + 2)
                if h_dm1 > h_d == h_dp1 and h_d <= 2 * d + 3:
                    fire(R_AS, d, delta_hd, delta_hd1, h_d, 2 * d + 3)
    except ValueError as exc:  # a negative generator count
        require_codim3(h)  # raises for an invalid h
        raise ValueError(f"{exc} for {h}") from None

    if fired:
        return Verdict(NOT_LEVEL, tuple(fired))
    if differentiable:
        deltas = zip(_delta_names(s + 1), h.first_difference())
        return Verdict(LEVEL, (Certificate(R_LEVEL_DIFF, s, deltas),))
    return Verdict(UNKNOWN, ())


def iarrobino_lift(base: HVector) -> HVector:
    """Adjoin a general form of top degree: entrywise min-with-cap lift.

    For a base with socle degree s the result has H_0 = 1 and
    H_i = min(h_i + C(2+s-i, s-i), C(2+i, i)) for 1 <= i <= s.  When the base
    is the Hilbert function of a level algebra, so is the lift; that claim is
    inherited, not checked, since levelness is not determined by the base
    h-vector alone.  The base must be an O-sequence with h_1 = 3.
    """
    require_codim3(base)
    s = base.socle_degree
    lifted = [1]
    for i in range(1, s + 1):
        lifted.append(min(base.at(i) + binomial(2 + s - i, s - i), binomial(2 + i, i)))
    return HVector(tuple(lifted))


def construct_plateau_level(d: int, ell: int) -> tuple[HVector, HVector]:
    """Build a level O-sequence with H_{d-1} = H_d = 3d+ell < H_{d+1}.

    Starts from the differentiable base h_i = min(C(i+2,2), 3i + ell - 3)
    of socle degree d+1 and lifts it.  Returns (base, lift).  Raises
    ValueError when the base fails to be differentiable or when the lift
    misses the plateau postconditions H_{d-1} = H_d = 3d+ell and
    H_{d+1} = 3d+ell+1 (the caps bind for small d relative to ell, where no
    such plateau exists).
    """
    d, ell = _integer(d, "d", 2), _integer(ell, "ell", 3)
    base = HVector(
        (1,) + tuple(min(binomial(i + 2, 2), 3 * i + ell - 3) for i in range(1, d + 2))
    )
    if not base.is_differentiable():
        raise ValueError(f"base {base} is not differentiable for d={d}, ell={ell}")
    lifted = iarrobino_lift(base)
    target = 3 * d + ell
    if not (
        lifted.at(d - 1) == lifted.at(d) == target
        and lifted.at(d + 1) == target + 1
    ):
        raise ValueError(
            f"lift {lifted} misses the plateau {target},{target},{target + 1} "
            f"at degrees {d - 1}..{d + 1} for d={d}, ell={ell}"
        )
    return base, lifted
