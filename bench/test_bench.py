"""Tests of the benchmark's own code: the FFT input generator, the span
summaries, the workload runner at tiny primes, and its refusal to run
without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fftgen
import spans
from k3batman import build_trace_table, is_prime, make_context
from run import END_TO_END, run_workload
from workloads import WORKLOADS, expected_digests

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PRIMES = {"cold_p25013": 101, "warm_p1000003": 1009, "brackets_p1000003": 1009}


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)] + [1009])
def test_generator_matches_direct_kernel(p):
    fast = fftgen.generate_trace_table(p, seed=p)
    direct = build_trace_table(make_context(p))
    assert np.array_equal(fast.traces, direct.traces)
    assert np.array_equal(fast.signs, direct.signs)


def test_generator_spot_check_rejects_a_wrong_table(monkeypatch):
    monkeypatch.setattr(fftgen, "clausen_trace", lambda ctx, lam: 10**6)
    with pytest.raises(ArithmeticError, match="direct trace"):
        fftgen.generate_trace_table(101, seed=0)


def test_self_time_subtracts_children():
    recorded = [
        {"name": "cli.cmd_hist", "parent": None, "counts": {}, "start": 0.0, "end": 10.0},
        {"name": "svg.render_histogram", "parent": 0, "counts": {}, "start": 1.0, "end": 4.0},
        {"name": "svg.histogram_counts", "parent": 1, "counts": {}, "start": 1.5, "end": 3.0},
        {"name": "field.make_context", "parent": 0, "counts": {}, "start": 5.0, "end": 6.0},
    ]
    metrics = spans.pass_metrics(recorded)
    assert metrics["cli.hist.self_s"] == pytest.approx(6.0)
    assert metrics["svg.render_histogram.s"] == pytest.approx(3.0)
    assert metrics["field.make_context.calls"] == 1


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_digests_cover_every_seed_independent_output():
    for workload in WORKLOADS.values():
        recorded = expected_digests(workload.p)
        for command in workload.commands:
            assert command.seeded or command.label in recorded, (workload.name, command.label)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke_at_tiny_prime(name, trace):
    workload = WORKLOADS[name].at(TINY_PRIMES[name])
    result = run_workload(workload, seed=3, seconds=0, trace=trace, root=ROOT,
                          setup_repeats=1, log=lambda line: None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert set(END_TO_END) == set(result["metrics"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold_p25013", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
