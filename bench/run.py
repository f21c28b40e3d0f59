"""xfertune benchmark: the offline chain, continuous-load stratification and
online tuning, with output checks and answer-quality metrics.

    python3 bench/run.py --workload multiroute-noisy --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root (the program is imported from ./src). Each
workload runs in one process on one thread. With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run. The lines before it print every
metric with its unit and sample count, the environment and the artifact
digests. Details go to .bench_out/, scratch files to .bench_work/.
Workloads, metrics and their meaning are described in bench/README.md.
"""
from __future__ import annotations

import os

# pin BLAS/OpenMP pools to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("multiroute-noisy", "continuous-load", "online-tune")
OFFLINE = ("multiroute-noisy", "continuous-load")
# offline set-up rounds last at least this long; online-tune sets up
# ONLINE_SETUP_ROUNDS times before its ops (each takes seconds)
SETUP_ROUND_S = 0.3
ONLINE_SETUP_ROUNDS = 3
SETUP_MAX_REPEATS = 50
MIN_OFFLINE_OPS = 2
# online ops come in blocks: one scenario under each of the four SLAs
MIN_ONLINE_BLOCKS = 6
# per-layer numbers of online-tune come from this many traced blocks
TRACE_WINDOW_BLOCKS = 16
COMPARE_SCENARIOS = 8
TAIL_MIN_BEYOND = 10
SETUP_OP_BASE = -1          # set-up repeat r traces as op -1 - r
QUALITY_OP = -100


@dataclass
class Metric:
    value: float
    unit: str
    n: int
    note: str = ""


class Run:
    """Everything one workload run measures and checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, Metric] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list] = {}

    def put(self, name, value, unit, n, note=""):
        self.metrics[name] = Metric(float(value), unit, int(n), note)

    def problem(self, msg: str) -> None:
        self.problems.append(msg)
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    def op_failed(self, msg: str) -> None:
        self.failed += 1
        self.problem(msg)


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **{v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up --------------------------------------------------------------------

class SetupTimer:
    """Times repeats of a workload's set-up and checks that every repeat
    writes the same bytes. The set-up runs in rounds, each repeating it until
    a round has taken min_s (once at least); offline runs hold a round before
    the first op and after every op, so setup_s spans the whole run rather
    than its first second."""

    def __init__(self, run: Run, tracer, fn):
        self.run, self.tracer, self.fn = run, tracer, fn
        self.times: list[float] = []
        self.digests: set = set()

    def round(self, min_s: float):
        spent = 0.0
        while True:
            with traced(self.tracer, SETUP_OP_BASE - len(self.times)):
                t0 = time.perf_counter()
                result, digest = self.fn()
                dt = time.perf_counter() - t0
            self.times.append(dt)
            self.digests.add(digest)
            spent += dt
            if spent >= min_s or len(self.times) >= SETUP_MAX_REPEATS:
                return result

    def finish(self) -> None:
        if len(self.digests) != 1:
            self.run.problem("set-up outputs differ between repeats")
        self.run.put("setup_s", median(self.times), "s", len(self.times))
        self.run.samples["setup_s"] = self.times


def offline_setup(run: Run, workdir: Path):
    """Set-up of an offline workload: generate and serialize the corpus."""
    import workloads as wl
    make = {"multiroute-noisy": wl.multiroute_noisy_corpus,
            "continuous-load": wl.continuous_load_corpus}[run.workload]

    def fn():
        entries = make(run.seed)
        path = wl.write_corpus(entries, workdir)
        return (entries, path), wl.sha256_file(path)
    return fn


def online_setup(run: Run, workdir: Path, chain_times: list):
    """Set-up of online-tune: the default corpus through the CLI chain into
    a four-SLA table, read back."""
    import workloads as wl

    def fn():
        entries = wl.default_corpus(run.seed)
        path = wl.write_corpus(entries, workdir)
        chain_s, digests = wl.timed(wl.run_chain, path, workdir)
        chain_times.append(chain_s)
        config, strata, models, table = wl.load_artifacts(workdir)
        setup = {"entries": entries, "config": config, "strata": strata,
                 "models": models, "table": table}
        return setup, tuple(sorted(digests.items()))
    return fn


@contextlib.contextmanager
def traced(tracer, op: int):
    """Record spans under an op id while the block runs; no-op without a
    tracer."""
    if tracer is None:
        yield
        return
    tracer.op = op
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


# -- checks ----------------------------------------------------------------------

def check_table(run: Run, art: dict) -> None:
    """Every row ok or infeasible; ok params on the stratum's lattice."""
    models, table = art["models"], art["table"]
    for sid, rows in sorted(table.rows.items()):
        axes = models[sid].lattice_axes()
        for sla_id, row in sorted(rows.items()):
            if row["status"] == "infeasible":
                continue
            if row["status"] != "ok":
                run.problem(f"row ({sid}, {sla_id}) has status {row['status']!r}")
                continue
            params = row["result"]["params"]
            off = [k for k, v in params.items() if v not in axes[k]]
            if off:
                run.problem(f"row ({sid}, {sla_id}) params off the lattice: {off}")


def check_transfer(report) -> str | None:
    if not report.completed:
        return "transfer did not complete"
    if len(report.classes) != 3:
        return f"transfer moved {len(report.classes)} classes, expected 3"
    total = sum(c["energy_joules"] for c in report.classes)
    if abs(total - report.energy_joules) > 1e-9 * max(1.0, report.energy_joules):
        return (f"class energies sum to {total!r}, "
                f"transfer total is {report.energy_joules!r}")
    if any(abs(c["bytes_moved"] - c["bytes"]) > 1e-9 * c["bytes"]
           for c in report.classes):
        return "a class moved a different byte count than it holds"
    return None


def report_ticks(report, interval_s: float) -> int:
    """Monitor ticks of a transfer, from its report: every tick but a class's
    last spans one full interval."""
    return sum(math.ceil(c["duration_s"] / interval_s - 1e-9) for c in report.classes)


# -- offline workloads ----------------------------------------------------------

def run_offline(run: Run, seconds: float, workdir: Path) -> None:
    import quality
    import workloads as wl
    from tracing import Tracer
    tracer = Tracer() if run.trace else None
    setup = SetupTimer(run, tracer, offline_setup(run, workdir))
    entries, logs_path = setup.round(SETUP_ROUND_S)

    times = {False: [], True: []}
    digests = []
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = run.trace and k % 2 == 1
        run.attempted += 1
        try:
            with traced(tracer if is_traced else None, k):
                dt, dig = wl.timed(wl.run_chain, logs_path, workdir)
        except Exception:  # an op that raises is counted and the run goes on
            run.op_failed(f"op {k} raised:\n{traceback.format_exc()}")
        else:
            times[is_traced].append(dt)
            digests.append(dig)
        setup.round(SETUP_ROUND_S)
        k += 1
        enough = k >= MIN_OFFLINE_OPS and (not run.trace or k % 2 == 0)
        if enough and time.perf_counter() - start >= seconds:
            break

    setup.finish()
    run.digests["logs.jsonl"] = next(iter(setup.digests))
    run.samples["op_s"] = times[False]
    run.samples["traced_op_s"] = times[True]
    if not digests:
        return
    if any(d != digests[0] for d in digests):
        run.problem("artifact bytes differ between repeats"
                    + (" (traced vs untraced)" if run.trace else ""))
    run.digests.update(digests[0])
    art = dict(zip(("config", "strata", "models", "table"), wl.load_artifacts(workdir)))
    check_table(run, art)

    if run.trace:
        window = {1}
        layer_metrics(run, tracer, window, entries, art, times)
        tracer.save(out_dir() / f"spans-{run.workload}.npz")
        return
    run.put("op_ms_p50", 1000.0 * median(times[False]), "ms", len(times[False]),
            "one CLI chain stratify -> fit -> optimize")
    run.put("chain_s", median(times[False]), "s", len(times[False]))
    offline_quality(run, entries, art, quality)


def offline_quality(run: Run, entries, art, quality) -> None:
    e_err, t_err = quality.prediction_errors(entries, art["strata"], art["models"])
    run.put("pred_err_energy_pct", 100.0 * median(e_err), "%", len(e_err))
    run.put("pred_err_tput_pct", 100.0 * median(t_err), "%", len(t_err))
    tq = quality.table_quality(entries, art["strata"], art["models"], art["table"])
    run.put("table_regret_pct", 100.0 * median(tq["regret"]), "%", len(tq["regret"]))
    if tq["bounded"]:
        run.put("sla_violation_share", tq["violations"] / tq["bounded"], "share",
                tq["bounded"])


# -- online workload --------------------------------------------------------------

def run_online(run: Run, seconds: float, workdir: Path) -> None:
    import quality
    import workloads as wl
    from tracing import Tracer
    from xfertune.tuner import SWITCH_CAP
    tracer = Tracer() if run.trace else None
    chain_times: list[float] = []
    timer = SetupTimer(run, tracer, online_setup(run, workdir, chain_times))
    for _ in range(ONLINE_SETUP_ROUNDS):
        setup = timer.round(0.0)
    timer.finish()
    run.digests.update(dict(next(iter(timer.digests))))
    run.put("chain_s", median(chain_times), "s", len(chain_times),
            "set-up chain on the default corpus")
    run.samples["chain_s"] = chain_times
    check_table(run, setup)
    slas = list(setup["table"].slas)
    stream = wl.ScenarioStream(run.seed)

    times = {False: [], True: []}
    ticks = window_ticks = capped = 0
    misses, bounded = 0, 0
    block_bytes = []
    start = time.perf_counter()
    b = 0
    while True:
        scenario = stream.get(b)
        untraced_docs = {}
        for is_traced in ((False, True) if run.trace else (False,)):
            for sla in slas:
                run.attempted += 1
                try:
                    with traced(tracer if is_traced else None, b):
                        dt, report = wl.timed(wl.run_transfer_op, setup, scenario, sla)
                except Exception:  # counted, the run goes on
                    run.op_failed(f"block {b} sla {sla.id} raised:\n"
                                  f"{traceback.format_exc()}")
                    continue
                bad = check_transfer(report)
                if bad:
                    run.op_failed(f"block {b} sla {sla.id}: {bad}")
                    continue
                times[is_traced].append(dt)
                doc = wl.transfer_bytes(scenario, sla, report)
                if is_traced:
                    if b < TRACE_WINDOW_BLOCKS:
                        window_ticks += report_ticks(report, wl.ONLINE_INTERVAL_S)
                        capped += report.switch_count >= SWITCH_CAP
                    if doc != untraced_docs.get(sla.id):
                        run.problem(f"block {b} sla {sla.id}: traced transfer "
                                    "differs from the untraced one")
                    continue
                untraced_docs[sla.id] = doc
                if b < MIN_ONLINE_BLOCKS:
                    block_bytes.append(doc)
                ticks += report_ticks(report, wl.ONLINE_INTERVAL_S)
                missed = quality.breaks_bound(sla, report.avg_throughput_mbps,
                                              report.energy_joules)
                if missed is not None:
                    bounded += 1
                    misses += missed
        b += 1
        min_blocks = TRACE_WINDOW_BLOCKS if run.trace else MIN_ONLINE_BLOCKS
        if b >= min_blocks and time.perf_counter() - start >= seconds:
            break

    # repeat the first block: the same inputs must give the same bytes
    first = stream.get(0)
    for j, sla in enumerate(slas):
        again = wl.transfer_bytes(first, sla, wl.run_transfer_op(setup, first, sla))
        if j >= len(block_bytes) or again != block_bytes[j]:
            run.problem(f"block 0 sla {sla.id}: repeated transfer differs")
    run.digests["transfers[first blocks]"] = hashlib.sha256(
        b"".join(block_bytes)).hexdigest()

    with traced(tracer, QUALITY_OP):
        docs = [wl.pipeline.compare_policies(
            wl.simulator.ENDPOINTS[wl.ONLINE_ENDPOINT], stream.get(i),
            setup["config"], setup["strata"], setup["models"], setup["table"],
            interval_s=wl.ONLINE_INTERVAL_S) for i in range(COMPARE_SCENARIOS)]

    if run.trace:
        art = {k: setup[k] for k in ("config", "strata", "models", "table")}
        window = set(range(TRACE_WINDOW_BLOCKS))
        layer_metrics(run, tracer, window, setup["entries"], art, times,
                      window_ticks, capped)
        tracer.save(out_dir() / f"spans-{run.workload}.npz")
        return

    lat = times[False]
    run.put("op_ms_p50", 1000.0 * median(lat), "ms", len(lat),
            "one tuned transfer of three classes")
    run.put("transfer_ms_p50", 1000.0 * median(lat), "ms", len(lat))
    q = tail_percentile(len(lat))
    if q is not None:
        run.put(f"transfer_ms_p{q:g}", 1000.0 * float(np.percentile(lat, q)), "ms",
                len(lat), f"highest percentile with >= {TAIL_MIN_BEYOND} samples beyond")
    run.put("ticks_per_s", ticks / sum(lat), "1/s", len(lat),
            f"{ticks} ticks counted from the reports")
    tput, energy = [], []
    for doc in docs:
        t, e = quality.compare_ratios(doc)
        tput += t
        energy += e
    run.put("tput_vs_oracle", median(tput), "ratio", len(tput))
    run.put("energy_vs_oracle", median(energy), "ratio", len(energy))
    run.put("sla_miss_share", misses / bounded if bounded else math.nan, "share", bounded)
    offline_quality(run, setup["entries"], setup, quality)


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(run: Run, tracer, window, entries, art, times,
                  window_report_ticks: int = 0, capped: int = 0) -> None:
    """Per-layer numbers of a traced run over a fixed window of ops: totals
    of seconds and counts over the window, percentiles over its spans."""
    import quality
    from tracing import (TICK_ACTION, TICK_NUDGE, TICK_SWITCH, TICK_TRIGGERED,
                         SpanView)
    from xfertune import clustering
    v = SpanView(tracer, window)
    n_ops = len(window) * (len(art["table"].slas) if run.workload == "online-tune" else 1)

    def put(name, value, unit, n=n_ops):
        run.put(name, value, unit, n)

    ingest_s = v.total_s("logs.ingest_logs")
    put("logs.ingest_s", ingest_s, "s")
    put("logs.ingest_calls", v.count("logs.ingest_logs"), "count")
    put("logs.entries_per_s", v.tag_sum("logs.ingest_logs") / ingest_s if ingest_s else 0.0,
        "1/s")
    put("clustering.stratify_s", v.total_s("clustering.stratify"), "s")
    cfg = art["config"]
    put("clustering.distinct_tier1_points",
        len({clustering.tier1_vector(e.network, cfg) for e in entries}), "count", 1)
    put("clustering.strata", len(art["strata"]), "count", 1)
    put("clustering.assign_us_p50", v.percentile_us("clustering.assign_stratum", 50), "us",
        v.count("clustering.assign_stratum"))
    fits = ("spline.fit_natural_spline", "spline.fit_bicubic_surface")
    put("spline.fit_s", sum(v.total_s(f) for f in fits), "s")
    put("spline.fits", sum(v.count(f) for f in fits), "count")
    put("surfaces.fit_s", v.total_s("surfaces.fit_stratum_models",
                                    parent_not="surfaces.rmse_holdout"), "s")
    put("surfaces.holdout_s", v.total_s("surfaces.rmse_holdout"), "s")
    preds = ("surfaces.predict_energy", "surfaces.predict_throughput")
    put("surfaces.predict_calls", sum(v.count(p) for p in preds), "count")
    put("surfaces.predict_s", sum(v.total_s(p) for p in preds), "s")
    put("optimizer.optimize_s", v.total_s("optimizer.build_param_table"), "s")
    put("optimizer.critical_points_s", v.total_s("optimizer.find_critical_points"), "s")
    put("optimizer.critical_point_calls", v.count("optimizer.find_critical_points"), "count")
    for name, value in quality.table_counters(art["models"], art["table"]).items():
        put(name, value, "count", 1)
    put("tuner.tick_us_p50", v.percentile_us("tuner.tick", 50), "us", v.count("tuner.tick"))
    put("tuner.tick_us_p99", v.percentile_us("tuner.tick", 99), "us", v.count("tuner.tick"))
    put("tuner.ticks", v.count("tuner.tick"), "count")
    put("tuner.triggers", v.tag_count("tuner.tick", TICK_TRIGGERED), "count")
    put("tuner.actions", v.tag_count("tuner.tick", TICK_ACTION), "count")
    put("tuner.switches", v.tag_count("tuner.tick", TICK_SWITCH), "count")
    put("tuner.nudges", v.tag_count("tuner.tick", TICK_NUDGE), "count")
    put("tuner.capped_transfers", capped, "count")
    put("tuner.classify_s", v.total_s("tuner.cluster_files")
        + v.total_s("tuner.dataset_meta_for"), "s")
    put("simulator.step_us_p50", v.percentile_us("simulator.step", 50), "us",
        v.count("simulator.step"))
    put("simulator.steps", v.count("simulator.step"), "count")
    gen = [SpanView(tracer, {SETUP_OP_BASE - r}).total_s("simulator.generate_training_logs")
           for r in range(len(run.samples["setup_s"]))]
    put("simulator.generate_s", median(gen), "s", len(gen))
    put("pipeline.artifact_write_s", v.total_s("pipeline.write_json_artifact"), "s")
    put("pipeline.artifact_read_s", v.total_s("pipeline.read_json_artifact"), "s")
    put("pipeline.artifact_bytes", v.tag_sum("pipeline.write_json_artifact"), "bytes")
    qv = SpanView(tracer, {QUALITY_OP})
    put("pipeline.compare_s", qv.total_s("pipeline.compare_policies"), "s",
        qv.count("pipeline.compare_policies"))
    put("cli.stratify_s", v.self_s("cli.cmd_stratify"), "s")
    put("cli.fit_s", v.self_s("cli.cmd_fit"), "s")
    put("cli.optimize_s", v.self_s("cli.cmd_optimize"), "s")
    untraced, traced_ = sum(times[False]), sum(times[True])
    put("trace.overhead_pct", 100.0 * (traced_ / untraced - 1.0) if untraced else 0.0, "%",
        len(times[True]))
    if run.workload == "online-tune":
        # each class ends with one step that returns no sample and no tick
        ticks = v.count("tuner.tick")
        if ticks + 3 * n_ops != v.count("simulator.step"):
            run.problem("traced tick and step counts disagree")
        if ticks != window_report_ticks:
            run.problem(f"traced ticks {ticks} != {window_report_ticks} "
                        "counted from the window's reports")


# -- driver -------------------------------------------------------------------------

def out_dir() -> Path:
    d = ROOT / ".bench_out"
    d.mkdir(exist_ok=True)
    return d


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    run = Run(workload, seed, trace)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        if workload in OFFLINE:
            run_offline(run, seconds, workdir)
        else:
            run_online(run, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        run.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    run.put("failed_share", run.failed / run.attempted if run.attempted else 1.0,
            "share", run.attempted)

    env = environment()
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in sorted(run.digests.items()):
        print(f"sha256 {name} {digest}")
    for name, m in run.metrics.items():
        note = f"  ({m.note})" if m.note else ""
        print(f"{name:<36} {m.value:>16.6g} {m.unit:<6} n={m.n}{note}")
    missing = [n for n in wanted if n not in run.metrics
               or not math.isfinite(run.metrics[n].value)]
    for name in missing:
        run.problem(f"metric {name} was not measured")
    correct = not run.problems
    print(f"checks {'passed' if correct else 'FAILED: ' + str(len(run.problems))}"
          f"  ops attempted {run.attempted}  failed {run.failed}")
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "digests": run.digests, "problems": run.problems,
              "samples": run.samples,
              "metrics": {k: vars(m) for k, m in run.metrics.items()}}
    (out_dir() / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {n: {"value": run.metrics[n].value, "unit": run.metrics[n].unit}
                          for n in wanted if n not in missing}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        print()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xfertune" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'xfertune'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
