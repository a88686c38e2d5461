"""Candidate Hilbert functions: validation, differences, and enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterator, Optional, Sequence

from .binomials import macaulay_bound
from .errors import _integer


def growth_violation(seq: Sequence[int]) -> Optional[int]:
    """Index of the first entry breaking the O-sequence conditions, or None.

    A sequence qualifies when it starts with 1, has no negative entries, and
    every step from degree i >= 1 respects the Macaulay growth bound.  The
    first entry is index 0; a bad leading entry reports index 0.
    """
    if not seq or seq[0] != 1:
        return 0
    for i in range(1, len(seq)):
        if seq[i] < 0:
            return i
        if i >= 2 and seq[i] > macaulay_bound(seq[i - 1], i - 1):
            return i
    return None


@dataclass(frozen=True)
class HVector:
    """A finite sequence of non-negative integers (h_0, h_1, ..., h_s).

    Entries must be integers (anything ``operator.index`` accepts); floats and
    strings raise ValueError rather than being truncated or parsed.  Trailing
    zeros are trimmed on construction, so the socle degree is always the last
    index.  Construction does not require the sequence to be an O-sequence;
    use :func:`growth_violation` or, with h_1 = 3, :func:`require_codim3`.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        try:
            entries = tuple(map(index, self.entries))
        except TypeError:
            raise ValueError("h-vector entries must be integers") from None
        if not entries:
            raise ValueError("h-vector must have at least one entry")
        if min(entries) < 0:
            raise ValueError("h-vector entries must be non-negative")
        if entries[-1] == 0:
            size = len(entries)
            while size > 1 and entries[size - 1] == 0:
                size -= 1
            entries = entries[:size]
        object.__setattr__(self, "entries", entries)

    @classmethod
    def parse(cls, text: str) -> "HVector":
        """Parse a comma-separated list of decimal integers, e.g. ``"1,3,6,10"``."""
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"cannot parse h-vector {text!r}: {exc}") from None

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    def at(self, t: int) -> int:
        """Entry in degree t, reading 0 beyond the socle degree."""
        t = _integer(t, "degree", 0)
        return self.entries[t] if t < len(self.entries) else 0

    def first_difference(self) -> tuple[int, ...]:
        """(h_0, h_1 - h_0, h_2 - h_1, ...); entries may be negative."""
        return (self.entries[0],) + tuple(
            self.entries[i] - self.entries[i - 1] for i in range(1, len(self.entries))
        )

    def is_differentiable(self) -> bool:
        """True when the first difference is itself an O-sequence."""
        return growth_violation(self.first_difference()) is None

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, t: int) -> int:
        return self.entries[t]

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def _hvector(h) -> HVector:
    """h itself; ValueError naming its type unless it is an HVector."""
    if not isinstance(h, HVector):
        raise ValueError(f"h must be an HVector, got {type(h).__name__}")
    return h


def lowest_violation(h: HVector) -> Optional[int]:
    """Lowest index at which h fails to be an O-sequence with h_1 = 3, or None.

    0 when h_0 != 1, 1 when h_1 is missing or not 3, else the first growth
    violation of :func:`growth_violation`.  Anything but an HVector raises ValueError.
    """
    e = _hvector(h).entries
    if e[0] != 1:
        return 0
    if len(e) < 2 or e[1] != 3:
        return 1
    return growth_violation(e)


def require_codim3(h: HVector) -> None:
    """Raise ValueError unless h is an O-sequence with h_1 = 3.

    The message names the index :func:`lowest_violation` reports.
    """
    i = lowest_violation(h)
    if i is None:
        return
    if i < 2:
        raise ValueError(("h0 must be 1", "h1 must be 3")[i])
    limit = macaulay_bound(h.entries[i - 1], i - 1)
    raise ValueError(f"violates Macaulay bound at degree {i} (max {limit})")


def enumerate_o_sequences(s: int, cap: int) -> Iterator[HVector]:
    """All O-sequences with h_1 = 3, socle degree exactly s, entries <= cap.

    Yields in ascending lexicographic order of entries.  Socle degree exactly
    s forces every entry through degree s to be positive, so the search walks
    values 1..min(cap, growth bound) at each level.
    """
    s, cap = _integer(s, "s", 1), _integer(cap, "cap", 3)

    def extend(prefix: list[int]) -> Iterator[HVector]:
        i = len(prefix) - 1
        if i == s:
            yield HVector(tuple(prefix))
            return
        top = min(cap, macaulay_bound(prefix[-1], i))
        for value in range(1, top + 1):
            prefix.append(value)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([1, 3])
