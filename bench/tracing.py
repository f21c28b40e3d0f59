"""In-process span tracing around the program's layer boundaries.

The tracer wraps public functions and methods of each xfertune module
inside the benchmark process only: every module attribute that refers to a
wrapped function is swapped for the wrapper while installed, and restored
afterwards, so the untraced ops of a traced run execute unmodified code.
Spans (name, start, end, parent, op id, tag) are kept in memory in flat
arrays and written out when the benchmark ends.
"""
from __future__ import annotations

import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> (module, attribute); a dotted attribute is Class.method
TARGETS = {
    "logs.ingest_logs": ("xfertune.logs", "ingest_logs"),
    "logs.serialize_logs": ("xfertune.logs", "serialize_logs"),
    "clustering.stratify": ("xfertune.clustering", "stratify"),
    "clustering.cut_dendrogram": ("xfertune.clustering", "cut_dendrogram"),
    "clustering.assign_stratum": ("xfertune.clustering", "assign_stratum"),
    "spline.fit_natural_spline": ("xfertune.spline", "fit_natural_spline"),
    "spline.fit_bicubic_surface": ("xfertune.spline", "fit_bicubic_surface"),
    "surfaces.fit_stratum_models": ("xfertune.surfaces", "fit_stratum_models"),
    "surfaces.rmse_holdout": ("xfertune.surfaces", "rmse_holdout"),
    "surfaces.predict_energy": ("xfertune.surfaces", "StratumModels.predict_energy"),
    "surfaces.predict_throughput": ("xfertune.surfaces",
                                    "StratumModels.predict_throughput"),
    "optimizer.build_param_table": ("xfertune.optimizer", "build_param_table"),
    "optimizer.optimize_stratum": ("xfertune.optimizer", "optimize_stratum"),
    "optimizer.find_critical_points": ("xfertune.optimizer", "find_critical_points"),
    "tuner.run_transfer": ("xfertune.tuner", "run_transfer"),
    "tuner.start_class": ("xfertune.tuner", "OnlineTuner.start_class"),
    "tuner.tick": ("xfertune.tuner", "OnlineTuner.tick"),
    "tuner.cluster_files": ("xfertune.tuner", "cluster_files"),
    "tuner.dataset_meta_for": ("xfertune.tuner", "dataset_meta_for"),
    "simulator.generate_training_logs": ("xfertune.simulator", "generate_training_logs"),
    "simulator.step": ("xfertune.simulator", "SimEndpoint.step"),
    "pipeline.write_json_artifact": ("xfertune.pipeline", "write_json_artifact"),
    "pipeline.read_json_artifact": ("xfertune.pipeline", "read_json_artifact"),
    "pipeline.fit_all_strata": ("xfertune.pipeline", "fit_all_strata"),
    "pipeline.optimize_all": ("xfertune.pipeline", "optimize_all"),
    "pipeline.run_tuned_transfer": ("xfertune.pipeline", "run_tuned_transfer"),
    "pipeline.compare_policies": ("xfertune.pipeline", "compare_policies"),
    "cli.main": ("xfertune.cli", "main"),
    "cli.cmd_stratify": ("xfertune.cli", "cmd_stratify"),
    "cli.cmd_fit": ("xfertune.cli", "cmd_fit"),
    "cli.cmd_optimize": ("xfertune.cli", "cmd_optimize"),
}

# tags on tuner.tick spans
TICK_TRIGGERED, TICK_ACTION, TICK_SWITCH, TICK_NUDGE = 1, 2, 4, 8


def _tick_tag(args, result) -> int:
    tag = TICK_TRIGGERED if result.triggered else 0
    if result.action is not None:
        tag |= TICK_ACTION
        tag |= TICK_SWITCH if result.action.startswith("switch") else TICK_NUDGE
    return tag


def _ingest_tag(args, result) -> int:
    return len(result)


def _write_tag(args, result) -> int:
    return Path(args[0]).stat().st_size


TAGGERS = {"tuner.tick": _tick_tag, "logs.ingest_logs": _ingest_tag,
           "pipeline.write_json_artifact": _write_tag}


class Tracer:
    """Span recorder; install() wraps the TARGETS, uninstall() restores them."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.tag_col = array("q")
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        tagger = TAGGERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start_col)
            self.name_col.append(nid)
            self.parent_col.append(self._stack[-1] if self._stack else -1)
            self.op_col.append(self.op)
            self.tag_col.append(0)
            self.end_col.append(math.nan)
            self._stack.append(idx)
            self.start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_col[idx] = clock()
                self._stack.pop()
            if tagger is not None:
                self.tag_col[idx] = tagger(args, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items()
                if n == "xfertune" or n.startswith("xfertune.")]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._patches.append((m, key, orig))
                    setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name_col, dtype=np.uint16),
                "start": np.frombuffer(self.start_col, dtype=np.float64),
                "end": np.frombuffer(self.end_col, dtype=np.float64),
                "parent": np.frombuffer(self.parent_col, dtype=np.int64),
                "op": np.frombuffer(self.op_col, dtype=np.int64),
                "tag": np.frombuffer(self.tag_col, dtype=np.int64)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanView:
    """Per-layer aggregates over the spans of a chosen set of ops."""

    def __init__(self, tracer: Tracer, ops):
        cols = tracer.arrays()
        n = len(cols["start"])
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        keep = np.isin(cols["op"], np.asarray(sorted(ops), dtype=np.int64))
        self._names = tracer.names
        self._name = cols["name"][keep]
        self._dur = dur[keep]
        self._self = (dur - child)[keep]
        self._tag = cols["tag"][keep]
        self._parent_name = np.where(
            has_parent, cols["name"][np.where(has_parent, cols["parent"], 0)],
            np.iinfo(np.uint16).max)[keep]

    def _sel(self, name: str, parent_not: str | None = None):
        sel = self._name == self._names.index(name)
        if parent_not is not None:
            sel &= self._parent_name != self._names.index(parent_not)
        return sel

    def count(self, name: str) -> int:
        return int(self._sel(name).sum())

    def total_s(self, name: str, parent_not: str | None = None) -> float:
        return float(self._dur[self._sel(name, parent_not)].sum())

    def self_s(self, name: str) -> float:
        return float(self._self[self._sel(name)].sum())

    def percentile_us(self, name: str, q: float) -> float:
        d = self._dur[self._sel(name)]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def tag_sum(self, name: str) -> int:
        return int(self._tag[self._sel(name)].sum())

    def tag_count(self, name: str, bit: int) -> int:
        return int(((self._tag[self._sel(name)] & bit) != 0).sum())
