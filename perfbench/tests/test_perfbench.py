"""The benchmark's own checks, at a tiny scale.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.hierarchy import FrameCacheStats, HierarchyConfig
from repro.core.l2_cache import L2FrameResult
from repro.core.tlb import TLBFrameResult

from perfbench import harness
from perfbench.gate import law_violations
from perfbench.workloads import L1_2KB, WORKLOADS, Size

ROOT = Path(__file__).resolve().parents[2]
TINY = Size(width=64, height=48, frames=4, detail=0.25)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    result, report = harness.run(name, seed=3, seconds=0.0, trace=True, size=TINY)
    declared = harness.declared_metrics()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared["per_layer"]
    assert set(report["end_to_end"]) == set(declared["end_to_end"])
    assert all(v > 0 for v in report["end_to_end"].values()), report["end_to_end"]
    assert 0.0 < report["per_layer"]["bench.span_coverage"] <= 1.0


def test_gate_counts_a_perturbed_stats_frame():
    def perturb(units, traced):
        frame = traced.stats[0][1]
        traced.stats[0][1] = dataclasses.replace(frame, l1_misses=frame.l1_misses + 1)

    result, report = harness.run(
        "terrain-vt", seed=3, seconds=0.0, trace=False, size=TINY, gate_hook=perturb
    )
    assert result["failed"] == 1
    assert not result["correct"]
    assert any("digest" in r for r in report["failures"])


def test_gate_counts_a_unit_that_raised(monkeypatch):
    workload = WORKLOADS["terrain-vt"]
    calls = []

    def flaky(setup, tracer):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return type(workload).run_unit(workload, setup, tracer)

    monkeypatch.setattr(workload, "run_unit", flaky)
    result, report = harness.run(
        "terrain-vt", seed=3, seconds=0.0, trace=False, size=TINY
    )
    assert result["failed"] == TINY.frames * 2  # one unit, both design points
    assert any("injected" in r for r in report["failures"])


def test_accounting_laws_catch_broken_counts():
    config = HierarchyConfig(l1=L1_2KB, l2=TINY.l2_2mb(), tlb_entries=16)
    good = FrameCacheStats(
        texel_reads=40,
        l1_accesses=10,
        l1_misses=4,
        l2=L2FrameResult(accesses=4, full_hits=2, partial_hits=1, full_misses=1, evictions=0),
        tlb=TLBFrameResult(accesses=4, hits=3),
    )
    assert law_violations(good, 10, config) == []
    assert law_violations(good, 11, config)  # L1 accesses != refs
    split = dataclasses.replace(good, l2=dataclasses.replace(good.l2, full_hits=3))
    assert law_violations(split, 10, config)  # full + partial + miss != accesses


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "village-walk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
