"""Seeded inputs of the three workloads and the ops they time.

Every input is made here from the seed; the program only ever sees the
generated corpus file or the generated load scenarios. Program calls go
through module attributes (``cli.main``, ``pipeline.run_tuned_transfer``)
so that the tracer's wrappers, when installed, see them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from xfertune import cli, logs, pipeline, simulator

# The four SLAs of every table: the two presets, an energy cap and a
# throughput floor. With these bounds every stratum of the default corpus
# has an ok row under all four SLAs (36 ok rows, none infeasible, when the
# benchmark was written), so the online tuner never meets an infeasible
# row. On the 1 Gbps routes of multiroute-noisy the floor is out of reach
# and those rows are infeasible, which exercises the optimizer's infeasible
# path with real answers.
ENERGY_CAP_J = 100_000.0
THROUGHPUT_FLOOR_MBPS = 3_000.0
SLA_ARGS = ("max-tput", "min-energy",
            f"cap100k=energy-constrained:{ENERGY_CAP_J:g}",
            f"floor3g=throughput-guarantee:{THROUGHPUT_FLOOR_MBPS:g}")

ARTIFACTS = ("strata.json", "models.json", "table.json")

ONLINE_ENDPOINT = "chameleon"
ONLINE_INTERVAL_S = 0.1
# load-change times fall in (1, 30) s: tuned max-throughput transfers on
# chameleon take roughly 45-90 simulated seconds, so most changes land
# inside a transfer, and the medium and large classes see several
SCENARIO_CHANGE_WINDOW_S = (1.0, 30.0)
LOW_LOADS = (0.05, 0.25)
HIGH_LOADS = (0.45, 0.7)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def multiroute_noisy_corpus(seed: int):
    """chameleon, cloudlab and intercloud x 2 sweeps, noise 0.02:
    23,328 entries in 27 strata."""
    specs = [simulator.ENDPOINTS[n] for n in ("chameleon", "cloudlab", "intercloud")]
    return simulator.generate_training_logs(specs=specs, sweeps=2, noise=0.02,
                                            seed=seed)


def continuous_load_corpus(seed: int):
    """Full chameleon lattice, small class, three training loads, each
    entry's ext_load jittered uniformly by +-0.02 and its throughput, power
    and energy recomputed: 1,296 entries, 1,296 distinct tier-1 points."""
    spec = simulator.ENDPOINTS["chameleon"]
    small = simulator.DATASET_CLASSES["small"]
    base = simulator.generate_training_logs(specs=[spec], classes={"small": small},
                                            seed=seed)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.02, 0.02, len(base))
    out = []
    for e, dj in zip(base, jitter):
        load = e.network.ext_load + float(dj)
        tput = simulator.throughput_mbps(spec, e.params, load,
                                         e.dataset.avg_file_size_bytes)
        power = simulator.power_above_base_watts(spec, e.params, tput)
        duration = e.dataset.total_size_bytes * 8.0 / 1e6 / tput
        out.append(dataclasses.replace(
            e, network=dataclasses.replace(e.network, ext_load=load),
            throughput_mbps=tput, avg_power_watts=power,
            energy_joules=power * duration, duration_s=duration))
    return out


def default_corpus(seed: int):
    """The generator's default corpus (3,888 entries, 9 strata). It is
    noise-free, so every seed gives the same bytes."""
    return simulator.generate_training_logs(seed=seed)


def write_corpus(entries, workdir: Path) -> Path:
    path = workdir / "logs.jsonl"
    logs.serialize_logs(entries, path)
    return path


class CliFailure(RuntimeError):
    pass


def _cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailure(f"xfertune {argv[0]} exited {code}: {err.getvalue().strip()}")


def run_chain(logs_path: Path, workdir: Path) -> dict:
    """One offline op: the CLI chain stratify -> fit (with holdout) ->
    optimize with the four SLAs. Returns the artifacts' sha256 digests."""
    strata, models, table = (workdir / name for name in ARTIFACTS)
    _cli(["stratify", "--logs", str(logs_path), "--out", str(strata)])
    _cli(["fit", "--logs", str(logs_path), "--strata", str(strata),
          "--out", str(models)])
    sla_flags = [flag for sla in SLA_ARGS for flag in ("--sla", sla)]
    _cli(["optimize", "--models", str(models), "--out", str(table), *sla_flags])
    return {name: sha256_file(workdir / name) for name in ARTIFACTS}


def load_artifacts(workdir: Path):
    """(config, strata, models, table) read back through the program's
    artifact readers."""
    config, strata = pipeline.load_strata(
        pipeline.read_json_artifact(workdir / "strata.json", "strata"))
    models = pipeline.load_models(
        pipeline.read_json_artifact(workdir / "models.json", "models"))
    table = pipeline.load_table(
        pipeline.read_json_artifact(workdir / "table.json", "table"))
    return config, strata, models, table


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


class ScenarioStream:
    """Seeded piecewise-constant load scenarios, one per block of ops.

    Each has 1-6 segments whose loads alternate between a low band and a
    high band, starting low. The tuner probes at zero load and pins its
    reference load at a class's first tick, so a transfer that starts under
    high load cannot switch; starting low makes every change a band
    crossing, and scenarios with five or six segments exhaust the
    three-switch cap so the heuristic-nudge path runs.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 1])
        self._made: list = []

    def get(self, block: int):
        while len(self._made) <= block:
            self._made.append(self._next())
        return self._made[block]

    def _next(self):
        rng = self._rng
        n = int(rng.integers(1, 7))
        lo, hi = SCENARIO_CHANGE_WINDOW_S
        starts = [0.0] + sorted(float(x) for x in rng.uniform(lo, hi, n - 1))
        loads = [float(rng.uniform(*(HIGH_LOADS if k % 2 else LOW_LOADS)))
                 for k in range(n)]
        return simulator.LoadScenario(tuple(zip(starts, loads)))


def run_transfer_op(setup, scenario, sla):
    """One online op: a tuned transfer of all three file classes."""
    spec = simulator.ENDPOINTS[ONLINE_ENDPOINT]
    return pipeline.run_tuned_transfer(
        spec, scenario, setup["config"], setup["strata"], setup["models"],
        setup["table"], sla, interval_s=ONLINE_INTERVAL_S)


def transfer_bytes(scenario, sla, report) -> bytes:
    spec = simulator.ENDPOINTS[ONLINE_ENDPOINT]
    doc = pipeline.transfer_doc(spec, scenario, sla, report)
    return json.dumps(doc, sort_keys=True).encode()
