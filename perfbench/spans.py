"""In-memory spans around calls into levelalg's layers, recorded from outside.

The tracer replaces each traced function, wherever a levelalg module holds a
reference to it, with a wrapper that records (name, parent span, operation,
start, end).  Nothing in the package changes on disk, and uninstalling puts
every original reference back.  Cached helpers such as ``macaulay_bound`` are
deliberately not wrapped: they run thousands of times per operation, and
their cache statistics are read from ``cache_info()`` instead.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

# layer -> public functions whose calls get a span.  "Class.method" names a
# method.  A name missing from the package is skipped, so the benchmark keeps
# running when a later change removes or renames a function.
TRACED = {
    "binomials": ("macaulay_expansion",),
    "hvectors": (
        "enumerate_o_sequences",
        "HVector.o_sequence_violation",
        "HVector.is_differentiable",
    ),
    "monomials": ("lex_segment_ideal", "quotient_hf", "socle_dims"),
    "betti": ("ek_betti", "lex_betti_window", "numerator_check"),
    "classify": ("classify",),
    "oracle": ("colon_dim_direct", "socle_dim_direct", "expansion_exhaustive"),
    "cli": ("run",),
}

# Calls whose arguments and results are kept for the per-layer counts.
KEEP = ("monomials.lex_segment_ideal", "classify.classify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, parent index, op, start ns, end ns)
        self.stack: list[int] = []
        self.op = -1  # -1 outside an operation; such spans are dropped
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        kept = self.kept.get(name)

        def open_span() -> int:
            index = len(spans)
            spans.append(None)
            stack.append(index)
            return index

        def close_span(index: int, start: int) -> None:
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (name_id, stack[-1] if stack else -1, self.op, start, end)

        if inspect.isgeneratorfunction(fn):
            # one span per item, so a streamed layer is timed where it works
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index, start)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                index = open_span()
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(index, start)
                if kept is not None:
                    kept.append((args, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lib) -> None:
        modules = [m for n, m in sys.modules.items() if n == "levelalg" or n.startswith("levelalg.")]
        for layer, functions in TRACED.items():
            home = getattr(lib, layer)
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    fn = getattr(owner, attr, None) if owner is not None else None
                    if fn is None:
                        continue
                    wrapper = self._wrap(fn, f"{layer}.{attr}")
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; plus root ns per op.

        A span's self time is its duration minus the durations of its direct
        children.  Spans recorded outside an operation are ignored.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
        per_name = {name: [0, 0, 0] for name in self.names}
        root_ns: dict[int, int] = {}
        for index, (name_id, parent, op, start, end) in enumerate(self.spans):
            if op < 0:
                continue
            entry = per_name[self.names[name_id]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
            if parent < 0:
                root_ns[op] = root_ns.get(op, 0) + end - start
        return {"per_name": per_name, "root_ns": root_ns}

    def export(self, limit: int) -> dict:
        """The first ``limit`` spans inside operations, for the trace file."""
        rows = []
        for index, (name_id, parent, op, start, end) in enumerate(self.spans):
            if op >= 0:
                rows.append([index, name_id, parent, op, start, end - start])
                if len(rows) == limit:
                    break
        base = rows[0][4] if rows else 0
        for row in rows:
            row[4] -= base
        return {
            "names": self.names,
            "columns": ["span", "name", "parent_span", "op", "start_ns", "duration_ns"],
            "spans_total": sum(1 for span in self.spans if span[2] >= 0),
            "spans": rows,
        }
