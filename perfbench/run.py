#!/usr/bin/env python3
"""Benchmark for levelalg: classify latency, sweep throughput and verify cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-large --seed 1 --seconds 30 --trace 0

It imports ``levelalg`` from ``src/`` of that checkout, runs one workload in a
closed loop with one caller, checks every output, and prints a JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run (see spans.py).  ``--workload all`` runs every workload in
both modes, each in its own process, and prints every metric with its unit.
``--smoke`` uses tiny inputs.  A human-readable report goes to stderr, and the
full result, with the environment and the raw spans, to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
LAYERS = ("binomials", "hvectors", "monomials", "betti", "classify", "oracle", "cli")
SETUP_REPEATS = 11
SPANS_WRITTEN = 50_000

END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "monomials.lex_segment_ideal_ms": "ms/op",
    "monomials.lex_monomials_scanned": "count/op",
    "monomials.generators": "count/op",
    "monomials.socle_dims_ms": "ms/op",
    "betti.ek_betti_ms": "ms/op",
    "betti.lex_betti_window_ms": "ms/op",
    "betti.window_fallbacks": "count/op",
    "betti.numerator_check_ms": "ms/op",
    "classify.rules_self_ms": "ms/op",
    "classify.certificates": "count/op",
    "classify.decided_share": "ratio",
    "hvectors.enumerate_self_ms": "ms/op",
    "hvectors.validate_ms": "ms/op",
    "binomials.bound_cache.hit_ratio": "ratio",
    "binomials.bound_cache.entries": "count",
    "binomials.macaulay_expansion_us": "us/call",
    "oracle.colon_dim_direct_ms": "ms/op",
    "oracle.socle_dim_direct_ms": "ms/op",
    "oracle.expansion_exhaustive_ms": "ms/op",
    "cli.run_self_ms": "ms/op",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.prediction_mismatches": "count",
}

# Spans that only the --verify path should produce.
VERIFY_ONLY = (
    "betti.numerator_check",
    "monomials.socle_dims",
    "oracle.colon_dim_direct",
    "oracle.socle_dim_direct",
    "oracle.expansion_exhaustive",
    "cli.run",
)
# Predicted share of traced operation time, as (spans, "min" or "max", bound).
# A name ending in ":self" means that span's self time.
PREDICTIONS = {
    wl.CLASSIFY_LARGE: (
        (("monomials.lex_segment_ideal",), "min", 0.5),
        (("hvectors.enumerate_o_sequences",) + VERIFY_ONLY, "max", 0.0),
    ),
    wl.SWEEP: (
        (("monomials.lex_segment_ideal",), "min", 0.3),
        (("betti.ek_betti", "betti.lex_betti_window"), "min", 0.02),
        (("classify.classify:self",), "min", 0.01),
        (("hvectors.enumerate_o_sequences",), "min", 0.005),
        (VERIFY_ONLY, "max", 0.0),
    ),
    wl.VERIFY: (
        (("betti.numerator_check", "oracle.colon_dim_direct",
          "oracle.socle_dim_direct", "oracle.expansion_exhaustive"), "min", 0.5),
        (("monomials.lex_segment_ideal",), "max", 0.1),
        (("hvectors.enumerate_o_sequences",), "max", 0.0),
    ),
}


def load_levelalg():
    """Import a fresh copy of levelalg from this checkout's src/ (caches cold)."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "levelalg" or n.startswith("levelalg.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{layer: importlib.import_module(f"levelalg.{layer}") for layer in LAYERS}
    )
    for module in vars(lib).values():
        if Path(module.__file__).resolve().parent != SRC / "levelalg":
            raise ImportError(f"{module.__name__} was not loaded from {SRC}")
    return lib


def bound_cache(lib) -> tuple[int, int, int]:
    """(hits, misses, entries) of the cached Macaulay and Green bounds."""
    infos = [lib.binomials.macaulay_bound.cache_info(), lib.binomials.green_bound.cache_info()]
    return tuple(sum(getattr(i, f) for i in infos) for f in ("hits", "misses", "currsize"))


def load_expected(workload: str, seed: int, smoke: bool):
    """Per-position digests recorded from the seed code, or None if not recorded."""
    if smoke:
        return None
    table = json.loads((HERE / "expected.json").read_text()).get(workload)
    if workload == wl.SWEEP:
        return table.split() if table else None
    return table[str(seed)].split() if table and str(seed) in table else None


class Run:
    """Operations, failures and digests accumulated over the timed phases."""

    def __init__(self, session: wl.Session):
        self.session = session
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_pass: dict[int, str] = {}

    def record(self, k: int, out) -> None:
        text_digest, problems = self.session.check(k, out)
        self.attempted += 1
        previous = self.first_pass.setdefault(self.session.position(k), text_digest)
        if previous != text_digest:
            problems.append(f"output changed between passes ({previous} -> {text_digest})")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                h = ",".join(map(str, self.session.input_of(k, out))) or f"position {k}"
                self.problems.append(f"{h}: {'; '.join(problems)}")

    def absorb(self, other: "Run") -> None:
        """Count another run's checks here, without keeping its session alive."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def pool_digest(self) -> str:
        joined = " ".join(self.first_pass[p] for p in sorted(self.first_pass))
        return hashlib.blake2b(joined.encode(), digest_size=8).hexdigest()

    def passes(self, seconds: float, min_samples: int, tracer=None, after_op=None) -> array:
        """Whole passes over the workload; returns per-operation latencies in ns.

        The pass count comes from the first pass: enough to fill ``seconds``
        and to collect ``min_samples``, so every run covers the same inputs
        equally often.
        """
        session = self.session
        latencies = array("q")
        target = None
        while target is None or len(latencies) < target * session.pass_size:
            pass_ns = 0
            for k in range(session.pass_size):
                if tracer is not None:
                    tracer.op = len(latencies)
                start = time.perf_counter_ns()
                try:
                    out = session.call(k)
                except Exception as exc:  # a raising operation fails; the run goes on
                    out = exc
                elapsed = time.perf_counter_ns() - start
                if tracer is not None:
                    tracer.op = -1
                latencies.append(elapsed)
                pass_ns += elapsed
                self.record(k, out)
                if after_op is not None:
                    after_op()
            if target is None:
                target = max(
                    math.ceil(min_samples / session.pass_size),
                    round(seconds * 1e9 / max(pass_ns, 1)),
                    1,
                )
        return latencies


def set_up(workload: str, seed: int, smoke: bool, expected) -> tuple[float, object, Run]:
    """Import levelalg fresh and run one warm-up operation.

    Returns the time taken, the library and a Run holding the warm-up check.
    The warm-up input is the pass's smallest, so its cost does not depend on
    the seed.  Building the harness's inputs is not part of the user's set-up.
    """
    gc.collect()
    start = time.perf_counter_ns()
    lib = load_levelalg()
    imported = time.perf_counter_ns()
    session = wl.Session(lib, workload, seed, smoke, expected)
    k = session.warmup_index()
    start_warm = time.perf_counter_ns()
    try:
        out = session.call(k)
    except Exception as exc:  # counted as a failed operation by the check below
        out = exc
    seconds = (imported - start + time.perf_counter_ns() - start_warm) / 1e9
    warm = Run(session)
    warm.record(k, out)
    return seconds, lib, warm


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload, seed, seconds, smoke, expected) -> tuple[dict, dict, Run, list[Run]]:
    first, lib, warm = set_up(workload, seed, smoke, expected)
    run = Run(wl.Session(lib, workload, seed, smoke, expected))
    setup_times = [first]
    # The other set-ups are spread over the first pass, so their median covers
    # the machine's state over seconds, not over one moment.  Each imports a
    # fresh copy, dropped after its warm-up is checked; the timed session
    # keeps the modules it was built from.
    every = max(1, run.session.pass_size // SETUP_REPEATS)
    ops = 0
    # Peak memory is read once the first pass is done: later passes repeat
    # the same inputs, and only the harness's latency list would still grow,
    # which would make a faster program (more passes) look bigger.
    peak_rss_mb = None

    def after_op():
        nonlocal ops, peak_rss_mb
        ops += 1
        if ops % every == 0 and len(setup_times) < SETUP_REPEATS:
            took, _, more = set_up(workload, seed, smoke, expected)
            setup_times.append(took)
            warm.absorb(more)
        if ops == run.session.pass_size:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gc.collect()
    latencies = run.passes(seconds, 1 if smoke else wl.MIN_SAMPLES, after_op=after_op)
    ordered = sorted(latencies)
    metrics = {
        "latency_ms.p50": statistics.median(latencies) / 1e6,
        "latency_ms.p90": percentile(ordered, 0.9) / 1e6,
        "throughput_per_s": len(latencies) / (sum(latencies) / 1e9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(latencies)
    samples = {
        "latency_ms.p50": n,
        "latency_ms.p90": n,
        "latency_ms.p90_beyond": n - math.ceil(0.9 * n),
        "throughput_per_s": n,
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
    }
    return metrics, samples, run, [warm, run]


def lex_scanned(h) -> int:
    """Monomials lex_segment_ideal walks: sum over t of C(t+2,2) - h_t."""
    s = len(h) - 1
    return sum(math.comb(t + 2, 2) - (h[t] if t <= s else 0) for t in range(1, s + 2))


def window_fallbacks(h) -> int:
    """Degrees d in 2..s-1 where h_d = C(d+2,2) and the closed-form window fails."""
    return sum(1 for d in range(2, len(h) - 1) if h[d] == math.comb(d + 2, 2))


def expansion_probe(lib, session, smoke: bool) -> float:
    """Mean microseconds per uncached macaulay_expansion on this workload's values."""
    if session.workload == wl.SWEEP:
        socle, cap = session.size
        pairs = [(v, d) for d in range(1, socle + 1) for v in range(1, cap + 1)]
    else:
        pairs = sorted({(h[d], d) for h in session.vectors for d in range(1, len(h))})
    expand = lib.binomials.macaulay_expansion
    budget = 0.02 if smoke else 0.3
    calls = 0
    start = time.perf_counter_ns()
    while True:
        for n, d in pairs:
            expand(n, d)
        calls += len(pairs)
        elapsed = time.perf_counter_ns() - start
        if elapsed >= budget * 1e9:
            return elapsed / calls / 1e3


def per_layer(workload, seed, seconds, smoke, expected) -> tuple[dict, dict, Run, list[Run], dict]:
    _, lib, warm = set_up(workload, seed, smoke, expected)
    run = Run(wl.Session(lib, workload, seed, smoke, expected))
    # bound-cache counts over the warm-up and the first untraced pass, which
    # start from the cold caches of a fresh import: they repeat exactly
    cold = []

    def first_pass_end():
        if len(run.first_pass) == run.session.pass_size and not cold:
            cold.extend(bound_cache(lib))

    gc.collect()
    plain = run.passes(seconds / 2, 1, after_op=first_pass_end)
    hits, misses, entries = cold

    tracer = spans.Tracer()
    counts = {"scanned": 0, "generators": 0, "fallbacks": 0, "certificates": 0,
              "decided": 0, "classified": 0}
    lex_calls = tracer.kept["monomials.lex_segment_ideal"]
    classify_calls = tracer.kept["classify.classify"]

    def after_op():
        for (h, *_), ideal in lex_calls:
            counts["scanned"] += lex_scanned(tuple(h))
            counts["generators"] += len(ideal.generators())
        for (h, *_), verdict in classify_calls:
            counts["fallbacks"] += window_fallbacks(tuple(h))
            counts["certificates"] += len(verdict.certificates)
            counts["decided"] += verdict.kind != lib.classify.UNKNOWN
            counts["classified"] += 1
        lex_calls.clear()
        classify_calls.clear()

    tracer.install(lib)
    try:
        if workload == wl.SWEEP:
            run.session.restart()
        gc.collect()
        traced = run.passes(seconds / 2, 1, tracer=tracer, after_op=after_op)
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    per_name = summary["per_name"]
    n = len(traced)
    wall_ns = sum(traced)

    def incl_ms(*names):
        return sum(per_name.get(name, (0, 0, 0))[1] for name in names) / n / 1e6

    def self_ms(name):
        return per_name.get(name, (0, 0, 0))[2] / n / 1e6

    def share(names):
        total = 0
        for name in names:
            base, _, part = name.partition(":")
            total += per_name.get(base, (0, 0, 0))[2 if part == "self" else 1]
        return total / wall_ns

    mismatches = []
    for names, kind, bound in PREDICTIONS[workload]:
        value = share(names)
        if (kind == "min" and value < bound) or (kind == "max" and value > bound):
            mismatches.append(f"share of {'+'.join(names)} = {value:.4f}, predicted {kind} {bound}")

    layer_self = {layer: 0 for layer in LAYERS}
    for name, (_, _, self_ns) in per_name.items():
        layer_self[name.split(".", 1)[0]] += self_ns

    metrics = {
        "monomials.lex_segment_ideal_ms": incl_ms("monomials.lex_segment_ideal"),
        "monomials.lex_monomials_scanned": counts["scanned"] / n,
        "monomials.generators": counts["generators"] / n,
        "monomials.socle_dims_ms": incl_ms("monomials.socle_dims"),
        "betti.ek_betti_ms": incl_ms("betti.ek_betti"),
        "betti.lex_betti_window_ms": incl_ms("betti.lex_betti_window"),
        "betti.window_fallbacks": counts["fallbacks"] / n,
        "betti.numerator_check_ms": incl_ms("betti.numerator_check"),
        "classify.rules_self_ms": self_ms("classify.classify"),
        "classify.certificates": counts["certificates"] / n,
        "classify.decided_share": counts["decided"] / max(counts["classified"], 1),
        "hvectors.enumerate_self_ms": self_ms("hvectors.enumerate_o_sequences"),
        "hvectors.validate_ms": incl_ms("hvectors.o_sequence_violation", "hvectors.is_differentiable"),
        "binomials.bound_cache.hit_ratio": hits / max(hits + misses, 1),
        "binomials.bound_cache.entries": entries,
        "binomials.macaulay_expansion_us": expansion_probe(lib, run.session, smoke),
        "oracle.colon_dim_direct_ms": incl_ms("oracle.colon_dim_direct"),
        "oracle.socle_dim_direct_ms": incl_ms("oracle.socle_dim_direct"),
        "oracle.expansion_exhaustive_ms": incl_ms("oracle.expansion_exhaustive"),
        "cli.run_self_ms": self_ms("cli.run"),
        **{f"share.{layer}": layer_self[layer] / wall_ns for layer in LAYERS},
        "trace.coverage": sum(summary["root_ns"].values()) / wall_ns,
        "trace.overhead_ratio": (wall_ns / n) / (sum(plain) / len(plain)),
        "trace.prediction_mismatches": len(mismatches),
    }
    samples = {name: n for name in metrics}
    samples["binomials.bound_cache.hit_ratio"] = hits + misses
    samples["trace.overhead_ratio"] = len(plain) + n
    detail = {
        "prediction_mismatches": mismatches,
        "calls": {name: v[0] for name, v in per_name.items()},
        "trace": tracer.export(SPANS_WRITTEN),
    }
    return metrics, samples, run, [warm, run], detail


def environment(args) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "levelalg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.machine(),
        "git_commit": commit,
        "source_digest": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_one(args) -> int:
    if not (SRC / "levelalg" / "__init__.py").is_file():
        print(f"levelalg sources not found under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected(args.workload, args.seed, args.smoke)
    if args.trace:
        metrics, samples, run, checks, detail = per_layer(
            args.workload, args.seed, args.seconds, args.smoke, expected)
        units = PER_LAYER
    else:
        metrics, samples, run, checks = end_to_end(
            args.workload, args.seed, args.seconds, args.smoke, expected)
        detail = {}
        units = END_TO_END
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    if args.smoke:
        recorded = "not recorded (smoke inputs)"
    elif expected is None:
        recorded = "not recorded for this seed: compare pool_digest across commits"
    else:
        recorded = "checked against expected.json"
    result = {
        "environment": environment(args),
        "samples": samples,
        "failed_ratio": failed / attempted,
        "problems": [line for c in checks for line in c.problems][:20],
        "pool_digest": run.pool_digest(),
        "expected": recorded,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **{k: v for k, v in detail.items() if k != "trace"},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **detail}, indent=1))

    report = [f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{attempted} attempted, {failed} failed, failed_ratio={failed / attempted} ratio, "
              f"pool_digest={result['pool_digest']} ({recorded})"]
    report += [f"  {name} = {metrics[name]:.6g} {units[name]}  (n={samples[name]})" for name in units]
    report += [f"  MISMATCH {line}" for line in detail.get("prediction_mismatches", [])]
    report += [f"  FAILED {line}" for line in result["problems"]]
    print("\n".join(report), file=sys.stderr)

    print(json.dumps({k: result[k] for k in ("environment", "samples", "failed_ratio",
                                             "pool_digest", "expected")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
                print(f"{workload:15} {name:36} {metric['value']:>14.6g} {metric['unit']}")
            print(f"{workload:15} {'failed_ratio':36} "
                  f"{result['failed'] / result['attempted']:>14.6g} ratio")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics (ignored by 'all')")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
