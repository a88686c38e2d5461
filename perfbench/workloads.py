"""Seeded inputs, operations and output checks for the levelalg benchmark.

Inputs are generated here with the harness's own Macaulay bound, so they never
depend on the code under test, and the library only ever sees the generated
h-vectors.  Pools are stratified: every seed gets the same socle degrees and
the same bands of entry sizes, and the seed only picks values inside each
band.  That keeps the cost of a pass nearly identical across seeds, which is
what lets runs with different seeds be compared against one bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import comb

CLASSIFY_LARGE = "classify-large"
SWEEP = "sweep-s7"
VERIFY = "verify"
WORKLOADS = (CLASSIFY_LARGE, SWEEP, VERIFY)

# A pass is a list of tiers (inputs, socle degree, band of the family
# constant), half family vectors and half walks.  Inputs within a tier cost
# about the same, and the tier sizes put p50 and p90 in the middle of a tier:
# single calls on this kind of machine vary by +-15%, so a quantile that fell
# between two sizes would jump with that noise, while one inside a block of
# like inputs is a median of many of them.  Each pass has 100 inputs, enough
# for p90 to have ten samples beyond it.
LARGE_TIERS = (  # classify-large: about 9 s per pass at the seed code
    (20, 32, 0, 40),  # ranks 1-20
    (40, 40, 0, 40),  # 21-60, p50
    (20, 48, 0, 40),  # 61-80
    (16, 64, 10, 20),  # 81-96, p90
    (2, 80, 10, 20),  # 97-98
    (2, 96, 10, 20),  # 99-100
)
VERIFY_TIERS = (  # verify: about 9 s per pass; the oracles scale with the entries as much as with s
    (20, 8, 0, 30),  # ranks 1-20
    (40, 12, 0, 10),  # 21-60, p50
    (20, 14, 8, 12),  # 61-80
    (16, 20, 8, 12),  # 81-96, p90
    (4, 24, 8, 12),  # 97-100
)
SMOKE_LARGE_TIERS = ((2, 10, 0, 10), (2, 14, 0, 10))
SMOKE_VERIFY_TIERS = ((2, 5, 0, 10), (2, 7, 0, 10))

SWEEP_SIZE = (7, 20)  # enumerate_o_sequences(7, 20): the `enumerate --stats` path
SMOKE_SWEEP_SIZE = (4, 6)
# The sweep runs this many enumeration streams, each over a quarter of the
# vectors, taking one vector from each in turn.  Lexicographic order groups
# vectors by cost, so with a single stream a slow spell on the machine would
# always land on the same kind of vector and move p50 far more than the mean.
SWEEP_STREAMS = 4

# Samples needed so that p90 has at least ten samples beyond it.
MIN_SAMPLES = 100


def macaulay_bound(h: int, d: int) -> int:
    """Largest value allowed in degree d+1 after h in degree d (harness copy)."""
    total, rem, idx = 0, h, d
    while rem > 0:
        top = idx
        while comb(top + 1, idx) <= rem:
            top += 1
        total += comb(top + 1, idx + 1)
        rem -= comb(top, idx)
        idx -= 1
    return total


def is_o_sequence(seq) -> bool:
    if not seq or seq[0] != 1 or any(e < 0 for e in seq):
        return False
    return all(seq[i] <= macaulay_bound(seq[i - 1], i - 1) for i in range(2, len(seq)))


def is_differentiable(h) -> bool:
    diff = [h[0]] + [h[i] - h[i - 1] for i in range(1, len(h))]
    return is_o_sequence(diff)


def family_vector(s: int, c: int) -> tuple[int, ...]:
    """h_i = min(C(i+2,2), 3i+c): differentiable, hence Level."""
    return (1,) + tuple(min(comb(i + 2, 2), 3 * i + c) for i in range(1, s + 1))


def walk_vector(rng: random.Random, s: int, c: int) -> tuple[int, ...]:
    """A family prefix, then a random tail of plateaus and drops.

    Most of these are NotLevel (R-CANCEL, R-31, R-33, R-AS) and the rest
    Unknown, so both the rule pass and the differentiability test run.
    """
    peak = rng.randint(int(0.7 * s), int(0.95 * s))
    h = list(family_vector(peak, c))
    for i in range(peak + 1, s + 1):
        prev = h[-1]
        step = rng.choice((0, -1, -3, -5, -8))
        h.append(max(1, min(macaulay_bound(prev, i - 1), prev + step)))
    return tuple(h)


def pool(workload: str, seed: int, smoke: bool = False) -> list[tuple[int, ...]]:
    """The h-vectors one pass of classify-large or verify runs, in pass order."""
    if workload == CLASSIFY_LARGE:
        tiers = SMOKE_LARGE_TIERS if smoke else LARGE_TIERS
    else:
        tiers = SMOKE_VERIFY_TIERS if smoke else VERIFY_TIERS
    rng = random.Random(f"{workload}:{seed}")
    vectors = []
    for count, s, lo, hi in tiers:
        for _ in range(count // 2):
            vectors.append(family_vector(s, rng.randint(lo, hi)))
            vectors.append(walk_vector(rng, s, rng.randint(lo, hi)))
    rng.shuffle(vectors)
    return vectors


def sweep_offset(seed: int, total: int) -> int:
    """Where the seed starts the sweep; each pass still covers every vector."""
    return random.Random(f"{SWEEP}:{seed}").randrange(total)


def sweep_total(socle: int, cap: int) -> int:
    """Number of O-sequences (1, 3, ..., h_socle) with entries in 1..cap."""
    count = 0

    def walk(prev: int, i: int) -> None:
        nonlocal count
        if i == socle:
            count += 1
            return
        for value in range(1, min(cap, macaulay_bound(prev, i)) + 1):
            walk(value, i + 1)

    walk(3, 1)
    return count


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


class Session:
    """One workload bound to one import of levelalg.

    ``call(k)`` performs operation k of a pass and returns its raw output;
    ``check(k, out)`` returns (digest, problems) for it, outside the timing.
    The library is reached through module attributes at call time, so the
    tracer's wrappers take effect once installed.
    """

    def __init__(self, lib, workload: str, seed: int, smoke: bool, expected):
        self.lib = lib
        self.workload = workload
        self.expected = expected
        if workload == SWEEP:
            self.size = SMOKE_SWEEP_SIZE if smoke else SWEEP_SIZE
            self.pass_size = sweep_total(*self.size)
            self.offset = sweep_offset(seed, self.pass_size)
            cuts = [j * self.pass_size // SWEEP_STREAMS for j in range(SWEEP_STREAMS + 1)]
            self.starts = cuts[:-1]
            # (stream, position) of each operation of a pass, round robin
            self.schedule = [
                (j, (self.offset + cuts[j] + i) % self.pass_size)
                for i in range(max(b - a for a, b in zip(cuts, cuts[1:])))
                for j in range(SWEEP_STREAMS)
                if cuts[j] + i < cuts[j + 1]
            ]
            self.restart()
        else:
            self.vectors = pool(workload, seed, smoke)
            self.pass_size = len(self.vectors)
            self.hvectors = [lib.hvectors.HVector(h) for h in self.vectors]
            self.argvs = [
                ["classify", ",".join(map(str, h)), "--verify", "--json"]
                for h in self.vectors
            ]

    def restart(self) -> None:
        """Position every sweep stream at the start of its quarter (untimed)."""
        self.streams = []
        for start in self.starts:
            stream = self.lib.hvectors.enumerate_o_sequences(*self.size)
            for _ in range((self.offset + start) % self.pass_size):
                next(stream)
            self.streams.append(stream)

    def warmup_index(self) -> int:
        """The operation set-up runs once: the pass's smallest input."""
        if self.workload == SWEEP:
            return 0
        return min(range(self.pass_size), key=lambda k: (len(self.vectors[k]), self.vectors[k]))

    def position(self, k: int) -> int:
        """Index of operation k's input in the expected table."""
        return self.schedule[k][1] if self.workload == SWEEP else k

    def call(self, k: int):
        if self.workload == CLASSIFY_LARGE:
            return self.lib.classify.classify(self.hvectors[k])
        if self.workload == SWEEP:
            j = self.schedule[k][0]
            h = next(self.streams[j], None)
            if h is None:
                self.streams[j] = self.lib.hvectors.enumerate_o_sequences(*self.size)
                h = next(self.streams[j])
            if k == self.pass_size - 1:
                # each stream now stands at the start of the next one's quarter
                self.streams.insert(0, self.streams.pop())
            return h, self.lib.classify.classify(h)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.run(self.argvs[k])
        return code, buf.getvalue()

    def input_of(self, k: int, out) -> tuple[int, ...]:
        """The h-vector operation k ran on (unknown for a sweep step that raised)."""
        if self.workload != SWEEP:
            return self.vectors[k]
        return () if isinstance(out, Exception) else tuple(out[0])

    def check(self, k: int, out) -> tuple[str, list[str]]:
        if isinstance(out, Exception):
            return digest(repr(out)), [f"raised {out!r}"]
        h = self.input_of(k, out)
        if self.workload == VERIFY:
            code, text = out
            if code != 0:
                return digest(f"exit {code}"), [f"exit code {code}"]
            text_digest = digest(text)
            try:
                payload = json.loads(text)
            except ValueError:
                return text_digest, ["output is not JSON"]
            problems = [] if payload.get("hvector") == list(h) else ["wrong hvector"]
            problems += self._verdict_problems(h, payload)
        else:
            verdict = out[1] if self.workload == SWEEP else out
            payload = verdict.as_dict()
            text_digest = digest(json.dumps({"hvector": list(h), **payload}, sort_keys=True))
            problems = self._verdict_problems(h, payload)
        if self.workload == SWEEP:
            if not (len(h) == self.size[0] + 1 and h[1] == 3 and is_o_sequence(h)
                    and max(h) <= self.size[1] and min(h) >= 1):
                problems.append("stream yielded a vector outside the sweep")
        expected = None if self.expected is None else self.expected[self.position(k)]
        if expected is not None and expected != text_digest:
            problems.append(f"digest {text_digest} != expected {expected}")
        return text_digest, problems

    def _verdict_problems(self, h, payload: dict) -> list[str]:
        classify = self.lib.classify
        kind, certs = payload.get("verdict"), payload.get("certificates", [])
        problems = []
        for c in certs:
            try:
                replays = classify.replay_certificate(
                    classify.Certificate(c["rule"], c["d"], c["quantities"]))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"certificate {c!r} cannot be replayed: {exc!r}")
                continue
            if not replays:
                problems.append(f"{c['rule']} at d={c['d']} does not replay")
        differentiable = is_differentiable(h)
        if kind == classify.LEVEL:
            if not differentiable:
                problems.append("Level verdict on a non-differentiable vector")
        elif kind == classify.NOT_LEVEL:
            if differentiable:
                problems.append("NotLevel verdict on a differentiable vector")
            if not certs or any(c.get("rule") not in classify.NOT_LEVEL_RULES for c in certs):
                problems.append("NotLevel without obstruction certificates")
        elif kind == classify.UNKNOWN:
            if differentiable or certs:
                problems.append("Unknown verdict that should have been decided")
        else:
            problems.append(f"unknown verdict kind {kind!r}")
        return problems
