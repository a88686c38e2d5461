#!/usr/bin/env python3
"""Record the output digests that run.py checks every operation against.

    python3 perfbench/record_expected.py --workloads classify-large,verify --seeds 0-31

For classify-large and verify the table holds, per seed, one digest per input
of a pass in pass order; for sweep-s7 it holds one digest per vector of the
whole enumeration, in enumeration order, whatever the seed.  Results are
merged into perfbench/expected.json.

The committed table was recorded from code whose outputs every later change
must reproduce.  Re-record it only for a change that is meant to alter a
verdict or certificate, and say so.  An input that fails the harness's own
checks (certificate replay, differentiability) aborts the recording.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl
from repeat import seed_list


def digests(session: wl.Session) -> list[str]:
    """One digest per position of a pass, in position order."""
    by_position = [""] * session.pass_size
    for k in range(session.pass_size):
        out = session.call(k)
        text_digest, problems = session.check(k, out)
        if problems:
            h = ",".join(map(str, session.input_of(k, out)))
            raise SystemExit(f"{session.workload} {h}: {'; '.join(problems)}")
        by_position[session.position(k)] = text_digest
    return by_position


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-31"))
    args = parser.parse_args()

    lib = run.load_levelalg()
    recorded = {}
    for workload in args.workloads.split(","):
        if workload == wl.SWEEP:
            recorded[workload] = " ".join(digests(wl.Session(lib, workload, 0, False, None)))
            continue
        recorded[workload] = {
            str(seed): " ".join(digests(wl.Session(lib, workload, seed, False, None)))
            for seed in args.seeds
        }
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}", file=sys.stderr)

    path = run.HERE / "expected.json"
    table = json.loads(path.read_text())
    for workload, value in recorded.items():
        if isinstance(value, dict):
            table.setdefault(workload, {}).update(value)
        else:
            table[workload] = value
    for workload, value in table.items():
        if isinstance(value, dict):
            table[workload] = dict(sorted(value.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
