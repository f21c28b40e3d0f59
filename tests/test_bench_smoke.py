"""Smoke tests of the benchmark script bench/run.py against the program.

bench/run.py wraps program functions by name to trace them and tags ingest
spans with the length of what ingest_logs returns, so a renamed target or
an ingest result without len() breaks --trace 1. The first test resolves
every trace target by name without running the benchmark. The traced ones
run the smallest offline workload and the online workload and check that
their output checks pass and their per-layer counters moved, the tick tags
(trigger, switch) included. A traced run returns before the answer-quality
metrics, so one untraced run of the smallest offline workload checks that
it reports every end-to-end metric BENCHMARK.json names, the prediction
errors that score predict_energy and predict_throughput included.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_target_names_a_program_function():
    # the tracer takes a function with getattr and a method from its class's
    # own __dict__; a module's vars() and a class's vars() are exactly those
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, (modname, attr) in tracing.TARGETS.items():
        owner = importlib.import_module(modname)
        *classes, fn = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or fn not in vars(owner):
            missing.append(f"{name} ({modname}.{attr})")
    assert not missing, f"trace targets missing from the program: {', '.join(missing)}"


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("checks passed") for line in lines), proc.stdout
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def test_traced_continuous_load_run_passes_its_checks():
    # a renamed clustering target or a changed partition fails here too
    metrics = bench_run("continuous-load", trace=1)["metrics"]
    assert metrics["logs.ingest_calls"]["value"] == 2
    assert metrics["logs.entries_per_s"]["value"] > 0
    assert metrics["clustering.stratify_s"]["value"] > 0
    # tier 1 clusters bandwidth alone, one value on the one route; the
    # jittered loads reach only the load bands
    assert metrics["clustering.distinct_tier1_points"]["value"] == 1
    assert metrics["clustering.strata"]["value"] == 3


def test_traced_online_tune_run_passes_its_checks():
    # a renamed tuner or simulator target reads as zero here, and so do the
    # tick tags if a shared holding result loses .triggered or .action
    result = bench_run("online-tune", trace=1)
    metrics = result["metrics"]
    for name in ("tuner.ticks", "tuner.classify_s", "tuner.triggers",
                 "tuner.switches"):
        assert metrics[name]["value"] > 0, name


def test_untraced_continuous_load_run_reports_every_end_to_end_metric():
    metrics = bench_run("continuous-load", trace=0)["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
    assert not missing, f"end-to-end metrics missing: {', '.join(missing)}"
