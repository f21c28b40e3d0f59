"""End-to-end orchestration and JSON artifact formats.

The offline chain is ingest -> stratify -> fit -> optimize, each stage
reading the previous stage's artifact. Artifacts are schema-tagged JSON
written with sorted keys and fixed indentation so equal inputs give
byte-identical files: a small recursive encoder writes the bytes that
json.dumps(..., sort_keys=True, indent=2) writes, without the pure-Python
encoder that indent selects, and writes a list of finite floats or of ints
with one join. A float +inf is written as the string "inf"; -inf and NaN
have no artifact form and are refused with their key path, and a dict key
that is not a str is refused with TypeError. The online side
wires the tuner to a simulated endpoint and compares policies per file
class.
"""
from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from .clustering import TIER_FEATURE_NAMES, ClusterError, StratifyConfig, Stratum
from .logs import LogTable, ParamConfig, ParamLattice, as_log_table
from .optimizer import SLA, OptimizationResult, ParamTable, build_param_table
from .simulator import (DATASET_CLASSES, EndpointSpec, LoadScenario,
                        SimEndpoint, baseline_config, default_lattice,
                        synth_file_sizes, throughput_mbps,
                        power_above_base_watts)
from .surfaces import StratumModels, fit_stratum_models, rmse_holdout
from .tuner import (FILE_CLASSES, FixedController, OnlineTuner, TransferReport,
                    dataset_meta_for, run_transfer)

SCHEMAS = {
    "strata": "xfertune/strata-v1",
    "models": "xfertune/models-v3",
    "table": "xfertune/table-v1",
    "transfer": "xfertune/transfer-v1",
    "compare": "xfertune/compare-v1",
}


class PipelineError(ValueError):
    pass


class _NonFinite(Exception):
    """A float with no artifact form; keys holds its path, innermost first."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.keys: list = []


def _json_text(obj, newline: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, nested at
    the level whose line break and indent is newline; but +inf as the string
    "inf", -inf or NaN raising _NonFinite, and a dict key that is not a str
    raising TypeError (artifact keys are ids, labels and field names).
    Branches run in json's order: bools before ints, float and int
    subclasses (np.float64) by the base repr."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        if obj == math.inf:
            return '"inf"'
        raise _NonFinite(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        elif types == {int}:
            items = map(int.__repr__, obj)
        else:
            items = []
            for i, v in enumerate(obj):
                try:
                    items.append(_json_text(v, inner))
                except _NonFinite as exc:
                    exc.keys.append(i)
                    raise
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            try:
                items.append(_escape(k) + ": " + _json_text(v, inner))
            except _NonFinite as exc:
                exc.keys.append(k)
                raise
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def write_json_artifact(path: str | Path, obj: dict) -> None:
    try:
        text = _json_text(obj, "\n")
    except _NonFinite as exc:
        where = "".join(f"[{k!r}]" for k in reversed(exc.keys))
        raise PipelineError(f"{path}: {float(exc.value)!r} at {where or 'the top'} "
                            f"has no JSON form") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_json_artifact(path: str | Path, schema_key: str) -> dict:
    def refuse(token):   # json.load would read it as a float no artifact holds
        raise PipelineError(f"{path}: malformed JSON: {token} is not a JSON value")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"{path}: malformed JSON: {exc.msg}") from exc
    want = SCHEMAS[schema_key]
    got = obj.get("schema") if isinstance(obj, dict) else None
    if got != want:
        raise PipelineError(f"{path}: expected schema {want}, found {got!r}")
    return obj


# The shapes of artifact bodies, down to the values their readers convert
# themselves; a class whose as_dict() an artifact holds declares that part as
# its SHAPE. A dict lists required keys (readers ignore any others),
# {str: shape} is an object with any keys, [shape] an array of shape, a type
# or a tuple of types is a value other than a boolean, and object is any
# value.
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _check_body(value, shape, kind: str, where: str = "") -> None:
    """Raise PipelineError naming the kind of artifact and the key path of
    the first value, in document order, that departs from shape."""
    if shape is object:
        return
    want = type(shape) if isinstance(shape, (dict, list)) else shape
    here = f"{kind} artifact: {where or 'the body'}"
    if isinstance(value, bool) or not isinstance(value, want):
        found = _JSON_KINDS.get(type(value), type(value).__name__)
        wanted = " or ".join(map(_JSON_KINDS.get, want if isinstance(want, tuple) else (want,)))
        raise PipelineError(f"{here} is {found}, not {wanted}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check_body(item, shape[0], kind, f"{where}[{i}]")
    elif isinstance(shape, dict) and str in shape:
        for k, item in value.items():
            _check_body(item, shape[str], kind, f"{where}[{k!r}]")
    elif isinstance(shape, dict):
        for k, sub in shape.items():
            if k not in value:
                raise PipelineError(f"{here} is missing key {k!r}")
            _check_body(value[k], sub, kind, f"{where}[{k!r}]")


# -- strata ------------------------------------------------------------------

def strata_doc(config: StratifyConfig, strata) -> dict:
    return {"schema": SCHEMAS["strata"],
            "config": config.as_dict(),
            "strata": [s.as_dict() for s in strata]}


_STRATA_BODY = {"config": dict, "strata": [Stratum.SHAPE]}


def load_strata(doc: dict):
    """(config, strata) of a strata artifact; a body of another shape, a
    config StratifyConfig refuses, a load band outside [0, 1] or a centroid
    unfit for the config or not finite raises PipelineError."""
    _check_body(doc, _STRATA_BODY, "strata")
    try:
        config = StratifyConfig.from_dict(doc["config"])
    except ClusterError as exc:
        raise PipelineError(f"strata artifact: ['config']: {exc}") from None
    for i, d in enumerate(doc["strata"]):
        where = f"strata artifact: ['strata'][{i}]"
        band = d["ext_load_interval"]
        if not (len(band) == 2 and 0.0 <= band[0] <= band[1] <= 1.0):
            raise PipelineError(f"{where}['ext_load_interval'] of stratum {d['id']} is "
                                f"{band}, not two numbers 0 <= lo <= hi <= 1")
        for tier in TIER_FEATURE_NAMES:
            centroid, want = d["centroids"][tier], len(getattr(config, f"{tier}_features"))
            if len(centroid) != want:
                raise PipelineError(f"{where}['centroids'][{tier!r}] of stratum {d['id']} "
                                    f"has length {len(centroid)} for {want} features")
            for j, value in enumerate(centroid):
                if not abs(value) <= sys.float_info.max:   # NaN, +-inf, ints beyond floats
                    raise PipelineError(f"{where}['centroids'][{tier!r}][{j}] of stratum "
                                        f"{d['id']} is {value!r}, not a finite float")
    return config, [Stratum.from_dict(d) for d in doc["strata"]]


# -- models ------------------------------------------------------------------

def _member_rows(table: LogTable, s: Stratum) -> np.ndarray:
    """The stratum's member indices as an array, checked against the log:
    each must be an int row of the table whose route is the stratum's and
    whose ext_load is in its band (stratify guarantees both, so a mismatch
    means another log). Raises PipelineError for the first bad member."""
    members, n = s.members, len(table)
    in_log = np.array([type(i) is int and 0 <= i < n for i in members], dtype=bool)
    rows = np.array([i if ok else 0 for i, ok in zip(members, in_log)], dtype=np.int64)
    code = table.routes.index(s.route) if s.route in table.routes else -1
    other_route = in_log & (table.route[rows] != code)
    outside = in_log & ~s.contains_load(table.ext_load[rows])
    bad = np.flatnonzero(~in_log | other_route | outside)
    if not len(bad):
        return rows
    k = int(bad[0])
    i = members[k]
    if not in_log[k]:
        raise PipelineError(f"stratum {s.id}: member index {i!r} is not "
                            f"in the log of {n} entries")
    if other_route[k]:
        route = table.routes[table.route[i]]
        raise PipelineError(
            f"stratum {s.id}: member {i} has route {'->'.join(route)}, "
            f"not the stratum's {'->'.join(s.route)}")
    raise PipelineError(
        f"stratum {s.id}: member {i} has ext_load {float(table.ext_load[i])!r} "
        f"outside the stratum's band {list(s.ext_load_interval)}")


def fit_all_strata(entries, strata, with_holdout: bool = True):
    """Fit per-stratum models on the log (a LogTable or a list of
    TransferLogEntry); optionally attach holdout RMSE reports."""
    table = as_log_table(entries)
    models: dict[str, StratumModels] = {}
    holdout: dict[str, dict] = {}
    for s in strata:
        members = table.take(_member_rows(table, s))
        models[s.id] = fit_stratum_models(members, s.id)
        if with_holdout:
            holdout[s.id] = rmse_holdout(members)
    return models, holdout


def models_doc(models: dict, holdout: dict | None = None) -> dict:
    doc = {"schema": SCHEMAS["models"],
           "strata": {sid: m.as_dict() for sid, m in models.items()}}
    if holdout:
        doc["holdout"] = holdout
    return doc


_MODELS_BODY = {"strata": {str: StratumModels.SHAPE}}


def load_models(doc: dict) -> dict:
    """Stratum id -> StratumModels of a models artifact, refitted from its
    knots and grids; a body of another shape raises PipelineError, knots or
    grids the fit cannot take SurfaceFitError."""
    _check_body(doc, _MODELS_BODY, "models")
    return {sid: StratumModels.from_dict(d) for sid, d in doc["strata"].items()}


# -- table -------------------------------------------------------------------

def table_doc(table: ParamTable) -> dict:
    return {"schema": SCHEMAS["table"], "table": table.as_dict()}


_TABLE_BODY = {"table": {"slas": [SLA.SHAPE], "rows": {str: {str: {"status": str}}}}}
_OK_ROW = {"result": OptimizationResult.SHAPE}
_INFEASIBLE_ROW = {"reason": str}


def load_table(doc: dict) -> ParamTable:
    """The ParamTable of a table artifact; a body of another shape raises
    PipelineError. A row whose status is not ok must give its reason."""
    _check_body(doc, _TABLE_BODY, "table")
    for sid, rows in doc["table"]["rows"].items():
        for sla_id, row in rows.items():
            _check_body(row, _OK_ROW if row["status"] == "ok" else _INFEASIBLE_ROW,
                        "table", f"['table']['rows'][{sid!r}][{sla_id!r}]")
    return ParamTable.from_dict(doc["table"])


def optimize_all(models: dict, slas) -> ParamTable:
    return build_param_table(models, list(slas))


# -- online runs ---------------------------------------------------------------

def _class_sizes(classes) -> np.ndarray:
    for c in classes:
        if c not in DATASET_CLASSES:
            raise PipelineError(f"unknown file class {c!r}")
    ordered = [c for c in FILE_CLASSES if c in classes]
    return np.concatenate([np.zeros(0, dtype=np.int64)] +
                          [synth_file_sizes(DATASET_CLASSES[c]) for c in ordered])


def run_tuned_transfer(spec: EndpointSpec, scenario: LoadScenario, config,
                       strata, models: dict, table: ParamTable, sla: SLA,
                       classes=FILE_CLASSES, interval_s: float = 1.0,
                       fail_at_s: float | None = None) -> TransferReport:
    endpoint = SimEndpoint(spec, scenario, interval_s=interval_s,
                           fail_at_s=fail_at_s)
    tuner = OnlineTuner(strata, table, models, sla, config=config)
    return run_transfer(endpoint, _class_sizes(classes), tuner)


def transfer_doc(spec, scenario, sla, report: TransferReport) -> dict:
    return {"schema": SCHEMAS["transfer"], "endpoint": spec.as_dict(),
            "scenario": scenario.as_dict(), "sla": sla.as_dict(),
            "report": report.as_dict()}


def _analytic_fixed_run(spec: EndpointSpec, cfg: ParamConfig,
                        scenario: LoadScenario, avg_file_size: float,
                        total_bytes: float):
    """Exact duration and energy of a fixed configuration over a piecewise
    constant load trace, no stepping."""
    remaining_mbit = total_bytes * 8.0 / 1e6
    t = 0.0
    energy = 0.0
    # the last segment never ends, so the transfer completes in it at the latest
    ends = [start for start, _ in scenario.segments[1:]] + [math.inf]
    for (_, load), end in zip(scenario.segments, ends):
        tput = throughput_mbps(spec, cfg, load, avg_file_size)
        power = power_above_base_watts(spec, cfg, tput)
        need = remaining_mbit / tput
        if t + need <= end:
            return t + need, energy + power * need
        energy += power * (end - t)
        remaining_mbit -= tput * (end - t)
        t = end


def _static_optimal_row(spec, scenario, lattice: ParamLattice, cname: str) -> dict:
    meta = dataset_meta_for(synth_file_sizes(DATASET_CLASSES[cname]))
    mbit = meta.total_size_bytes * 8.0 / 1e6
    runs = [(cfg, *_analytic_fixed_run(spec, cfg, scenario, meta.avg_file_size_bytes,
                                       meta.total_size_bytes))
            for cfg in lattice.configs()]
    # max and min keep the first of equals, in lexicographic lattice order
    fastest = max(runs, key=lambda run: mbit / run[1])
    frugal = min(runs, key=lambda run: run[2])
    return {
        "policy": "static-optimal", "class": cname,
        "throughput_mbps": mbit / fastest[1], "energy_joules": frugal[2],
        "duration_s": fastest[1], "stratum_id": "",
        "params": {"max_tput": fastest[0].as_dict(),
                   "min_energy": frugal[0].as_dict()},
        "switch_count": 0,
    }


def compare_policies(spec: EndpointSpec, scenario: LoadScenario, config,
                     strata, models: dict, table: ParamTable,
                     classes=FILE_CLASSES, interval_s: float = 1.0) -> dict:
    """Run every policy over the same file set and report per-class rows.

    static-optimal is an oracle row: the best achievable throughput and the
    lowest achievable energy over the endpoint's whole default lattice,
    generally two different configurations.
    """
    sizes = _class_sizes(classes)

    # the stepped policies' controllers, all built before any transfer runs,
    # so a table that cannot serve the preset SLAs fails first
    stepped = {"fixed-baseline": FixedController(baseline_config(spec)),
               "hla-max-tput": OnlineTuner(strata, table, models, SLA.max_throughput(),
                                           config=config),
               "hla-min-energy": OnlineTuner(strata, table, models, SLA.min_energy(),
                                             config=config)}
    rows = []
    totals = {}
    for policy, controller in stepped.items():
        endpoint = SimEndpoint(spec, scenario, interval_s=interval_s)
        report = run_transfer(endpoint, sizes, controller)
        for crow in report.classes:
            rows.append({
                "policy": policy, "class": crow["class"],
                "throughput_mbps": crow["avg_throughput_mbps"],
                "energy_joules": crow["energy_joules"],
                "duration_s": crow["duration_s"],
                "stratum_id": crow["stratum_id"],
                "params": crow["final_params"],
                "switch_count": report.switch_count,
            })
        totals[policy] = {
            "duration_s": report.duration_s,
            "energy_joules": report.energy_joules,
            "avg_throughput_mbps": report.avg_throughput_mbps,
            "switch_count": report.switch_count,
            "warnings": list(report.warnings),
        }
    lattice = default_lattice(spec)
    for crow in report.classes:
        rows.append(_static_optimal_row(spec, scenario, lattice, crow["class"]))
    return {"schema": SCHEMAS["compare"], "endpoint": spec.as_dict(),
            "scenario": scenario.as_dict(), "interval_s": interval_s,
            "rows": rows, "totals": totals}
