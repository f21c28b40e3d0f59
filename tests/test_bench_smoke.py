"""Smoke tests of the benchmark script bench/run.py against the program.

bench/run.py wraps program functions by name to trace them and tags ingest
spans with the length of what ingest_logs returns, so a renamed target or
an ingest result without len() breaks --trace 1. These run the smallest
traced offline workload and the traced online workload and check that
their output checks pass and their per-layer counters moved, the tick
tags (trigger, switch) included.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("checks passed") for line in lines), proc.stdout
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def test_traced_continuous_load_run_passes_its_checks():
    result = traced_run("continuous-load")
    assert result["metrics"]["logs.ingest_calls"]["value"] == 2
    assert result["metrics"]["logs.entries_per_s"]["value"] > 0


def test_traced_online_tune_run_passes_its_checks():
    # a renamed tuner or simulator target reads as zero here, and so do the
    # tick tags if a shared holding result loses .triggered or .action
    result = traced_run("online-tune")
    metrics = result["metrics"]
    for name in ("tuner.ticks", "tuner.classify_s", "tuner.triggers",
                 "tuner.switches"):
        assert metrics[name]["value"] > 0, name
