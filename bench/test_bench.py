"""Checks of the benchmark itself. Run from the repository root with

    python3 -m pytest bench/test_bench.py

They take about a minute: each workload's pass 0 runs once untraced and
twice traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def traced_pass0(workload: str, seed: int, out: Path) -> tuple[dict, dict, float]:
    tracer = Tracer()
    ledger = run.Ledger()
    ops = workloads.WORKLOADS[workload](seed, 0, out)
    with tracer.installed(0):
        record = run.run_pass(ops, ledger, run.SpeedSampler(), "traced0")
    assert not ledger.failures
    ops = record["ops"]
    totals = tracer.layer_totals(0, [r["start"] for r in ops], [r["ref_unit_s"] for r in ops])
    # the sampler's slices run inside spans, so compare with the raw wall time
    wall_ref = sum((r["wall_s"] + r["sampler_s"]) / r["ref_unit_s"] for r in ops)
    return totals, dict(tracer.counts[0]), wall_ref


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    # the benchmark traces after untraced passes have warmed the process
    run.run_pass(workloads.WORKLOADS[workload](11, 0, tmp_path), run.Ledger(),
                 run.SpeedSampler(), "pass0")
    first, second = (traced_pass0(workload, 11, tmp_path) for _ in range(2))
    calls = [{name: c for name, (c, _) in totals.items()} for totals, _, _ in (first, second)]
    assert calls[0] == calls[1]
    assert first[1] == second[1]  # eigensolver, svd and optimizer-evaluation counts
    totals, _, wall = first
    self_times = [s for _, s in totals.values()]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "verify-qubit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
