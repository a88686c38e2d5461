"""Smoke tests for the benchmark: tiny inputs, every metric printed with its unit.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def declared(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}


def test_declared_metrics_match_the_harness():
    assert NAMES == list(wl.WORKLOADS)
    assert declared(0) == run.END_TO_END
    assert declared(1) == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared(trace)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} = " in proc.stderr and metric["unit"] in proc.stderr
    if trace == 0:
        assert all(result["metrics"][name]["value"] > 0 for name in units)
    else:
        assert result["metrics"]["trace.prediction_mismatches"]["value"] == 0
        assert 0.9 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_all_runs_every_workload_in_both_modes():
    proc = bench(ROOT, "--workload", "all", "--seed", "2", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    combined = json.loads(lines[-1])
    assert combined["correct"] is True and combined["failed"] == 0
    for workload in NAMES:
        for name, unit in {**declared(0), **declared(1), "failed_ratio": "ratio"}.items():
            assert any(line.split()[:2] == [workload, name] and line.split()[-1] == unit
                       for line in lines[:-1]), (workload, name)


def test_inputs_depend_only_on_the_seed():
    for workload in (wl.CLASSIFY_LARGE, wl.VERIFY):
        first = wl.pool(workload, 5)
        assert first == wl.pool(workload, 5)
        assert first != wl.pool(workload, 6)
        assert all(wl.is_o_sequence(h) and h[1] == 3 for h in first)
        assert sorted(len(h) for h in first) == sorted(len(h) for h in wl.pool(workload, 6))
    assert wl.sweep_offset(5, 1000) == wl.sweep_offset(5, 1000)


def test_a_wrong_output_counts_as_failed():
    lib = run.load_levelalg()
    total = wl.sweep_total(*wl.SMOKE_SWEEP_SIZE)
    session = wl.Session(lib, wl.SWEEP, 0, True, ["00000000"] * total)
    checks = run.Run(session)
    for k in range(3):
        checks.record(k, session.call(k))
    assert checks.attempted == 3 and checks.failed == 3
    assert "expected 00000000" in checks.problems[0]


def test_a_raising_operation_counts_as_failed(monkeypatch):
    lib = run.load_levelalg()
    session = wl.Session(lib, wl.CLASSIFY_LARGE, 0, True, None)

    def broken(h):
        raise RuntimeError("boom")

    monkeypatch.setattr(lib.classify, "classify", broken)
    checks = run.Run(session)
    checks.passes(0, 1)
    assert checks.attempted == checks.failed == session.pass_size
    assert "raised RuntimeError('boom')" in checks.problems[0]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "sweep-s7", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
