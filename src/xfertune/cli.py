"""Command-line pipeline: generate, ingest, stratify, fit, optimize, tune,
compare.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 infeasible
SLA.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .clustering import StratifyConfig, stratify
from .logs import ingest_logs, serialize_logs, unique_rows
from .optimizer import SLA, InfeasibleSLAError
from .pipeline import (PipelineError, compare_policies, fit_all_strata,
                       load_models, load_strata, load_table, models_doc,
                       optimize_all, read_json_artifact, run_tuned_transfer,
                       strata_doc, table_doc, transfer_doc,
                       write_json_artifact)
from .simulator import ENDPOINTS, LoadScenario, generate_training_logs
from .tuner import FILE_CLASSES, EndpointFailure

PRESET_SLAS = {"max-tput": SLA.max_throughput, "min-energy": SLA.min_energy}
# ingest lists the distinct loads up to this many, else their count and range
LISTED_LOAD_LEVELS = 12


def parse_sla(text: str) -> SLA:
    """'max-tput', 'min-energy', or custom 'id=kind:bound', e.g.
    'cap500=energy-constrained:500'."""
    if text in PRESET_SLAS:
        return PRESET_SLAS[text]()
    if "=" not in text or ":" not in text:
        raise PipelineError(f"bad --sla {text!r}: want preset name or id=kind:bound")
    sla_id, rest = text.split("=", 1)
    kind, _, bound = rest.rpartition(":")
    try:
        value = float(bound)
    except ValueError:
        raise PipelineError(f"bad --sla bound {bound!r}") from None
    return SLA(id=sla_id, kind=kind, bound=value)


def parse_scenario(text: str) -> LoadScenario:
    """'constant:LOAD' or 'step:BEFORE:AFTER:AT_S'."""
    parts = text.split(":")
    try:
        if parts[0] == "constant" and len(parts) == 2:
            return LoadScenario.constant(float(parts[1]))
        if parts[0] == "step" and len(parts) == 4:
            return LoadScenario.step(float(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise PipelineError(f"bad --scenario {text!r}: {exc}") from exc
    raise PipelineError(f"bad --scenario {text!r}: want constant:L or step:B:A:T")


def _endpoint(name: str):
    if name not in ENDPOINTS:
        raise PipelineError(
            f"unknown endpoint {name!r}; have {', '.join(sorted(ENDPOINTS))}")
    return ENDPOINTS[name]


def _classes(text: str):
    # pipeline._class_sizes rejects unknown names
    return [c for c in text.split(",") if c]


def _load_config(path: str | None) -> StratifyConfig:
    if path is None:
        return StratifyConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return StratifyConfig.from_dict(json.load(fh))


def cmd_generate(args) -> int:
    specs = [_endpoint(n) for n in args.endpoints.split(",") if n]
    loads = tuple(float(x) for x in args.loads.split(",") if x)
    table = generate_training_logs(specs=specs, loads=loads,
                                   sweeps=args.sweeps, noise=args.noise,
                                   seed=args.seed)
    serialize_logs(table, args.out)
    print(f"wrote {len(table)} log entries to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    table = ingest_logs(args.logs)
    loads = np.unique(table.ext_load).tolist()
    print(f"ok: {len(table)} entries")
    print(f"routes: {', '.join('->'.join(r) for r in table.routes)}")
    if len(loads) <= LISTED_LOAD_LEVELS:
        print(f"load levels: {', '.join(str(v) for v in loads)}")
    else:   # continuous loads: one level per entry is no summary
        print(f"load levels: {len(loads)} in [{loads[0]}, {loads[-1]}]")
    print(f"distinct configurations: {len(unique_rows(table.params)[0])}")
    if args.out:
        serialize_logs(table, args.out)
        print(f"canonical copy written to {args.out}")
    return 0


def cmd_stratify(args) -> int:
    entries = ingest_logs(args.logs)
    config = _load_config(args.config)
    strata = stratify(entries, config)
    write_json_artifact(args.out, strata_doc(config, strata))
    print(f"{len(strata)} strata -> {args.out}")
    for s in strata:
        lo, hi = s.ext_load_interval
        print(f"  {s.id}: {len(s.members)} entries, route {s.route[0]}->{s.route[1]}, "
              f"load [{lo:.4f}, {hi:.4f})")
    return 0


def _read(path: str, kind: str, load):
    """load() of the artifact of the given kind at path; a body of another
    shape is reported with the file's name."""
    doc = read_json_artifact(path, kind)
    try:
        return load(doc)
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from None


def cmd_fit(args) -> int:
    entries = ingest_logs(args.logs)
    _, strata = _read(args.strata, "strata", load_strata)
    models, holdout = fit_all_strata(entries, strata, with_holdout=not args.no_holdout)
    write_json_artifact(args.out, models_doc(models, holdout or None))
    print(f"fitted {len(models)} strata -> {args.out}")
    for sid in sorted(holdout):
        rep = holdout[sid]
        if rep["test_count"]:
            print(f"  {sid}: energy rmse {rep['energy_rmse']:.3g}; "
                  f"tput rmse {rep['throughput_rmse']:.3g}")
        else:
            print(f"  {sid}: rmse n/a (no rows held out)")
    return 0


def cmd_optimize(args) -> int:
    models = _read(args.models, "models", load_models)
    names = args.sla or ["max-tput", "min-energy"]
    slas = [parse_sla(s) for s in names]
    table = optimize_all(models, slas)
    write_json_artifact(args.out, table_doc(table))
    ok = sum(1 for rows in table.rows.values()
             for row in rows.values() if row["status"] == "ok")
    bad = sum(len(rows) for rows in table.rows.values()) - ok
    print(f"parameter table -> {args.out} ({ok} tuned, {bad} infeasible)")
    for sid in sorted(table.rows):
        for sla_id, row in table.rows[sid].items():
            if row["status"] == "ok":
                p = row["result"]["params"]
                print(f"  {sid} / {sla_id}: cpu={p['cpu_num']} freq={p['cpu_freq_mhz']} "
                      f"cc={p['cc']} p={p['p']} pp={p['pp']}")
            else:
                print(f"  {sid} / {sla_id}: infeasible ({row['reason']})")
    return 0


def _online_inputs(args):
    """(config, strata, models, table, spec, scenario) for tune and compare."""
    config, strata = _read(args.strata, "strata", load_strata)
    models = _read(args.models, "models", load_models)
    table = _read(args.table, "table", load_table)
    return (config, strata, models, table, _endpoint(args.endpoint),
            parse_scenario(args.scenario))


def cmd_tune(args) -> int:
    config, strata, models, table, spec, scenario = _online_inputs(args)
    sla = parse_sla(args.sla)
    report = run_tuned_transfer(spec, scenario, config, strata, models, table,
                                sla, classes=_classes(args.classes),
                                interval_s=args.interval,
                                fail_at_s=args.fail_at)
    if args.out:
        write_json_artifact(args.out, transfer_doc(spec, scenario, sla, report))
    print(f"transfer complete in {report.duration_s:.1f}s: "
          f"{report.avg_throughput_mbps:.1f} Mbps, "
          f"{report.energy_joules:.1f} J, {report.switch_count} switches")
    for w in report.warnings:
        print(f"  warning: {w}")
    return 0


def cmd_compare(args) -> int:
    config, strata, models, table, spec, scenario = _online_inputs(args)
    doc = compare_policies(spec, scenario, config, strata, models, table,
                           classes=_classes(args.classes),
                           interval_s=args.interval)
    write_json_artifact(args.out, doc)
    print(f"{'policy':<16} {'class':<8} {'Mbps':>10} {'joules':>12}")
    for row in doc["rows"]:
        print(f"{row['policy']:<16} {row['class']:<8} "
              f"{row['throughput_mbps']:>10.1f} {row['energy_joules']:>12.1f}")
    print(f"comparison -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xfertune",
        description="Energy-aware bulk transfer tuning from historical logs")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a training log corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--endpoints", default="chameleon",
                   help="comma list of endpoint presets")
    g.add_argument("--loads", default="0.2,0.35,0.5")
    g.add_argument("--sweeps", type=int, default=1)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("ingest", help="validate a JSON-Lines log file")
    i.add_argument("--logs", required=True)
    i.add_argument("--out", help="write a canonical copy")
    i.set_defaults(func=cmd_ingest)

    s = sub.add_parser("stratify", help="cluster logs into strata")
    s.add_argument("--logs", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--config", help="JSON stratification config")
    s.set_defaults(func=cmd_stratify)

    f = sub.add_parser("fit", help="fit per-stratum spline models")
    f.add_argument("--logs", required=True)
    f.add_argument("--strata", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--no-holdout", action="store_true")
    f.set_defaults(func=cmd_fit)

    o = sub.add_parser("optimize", help="build the (stratum, SLA) parameter table")
    o.add_argument("--models", required=True)
    o.add_argument("--out", required=True)
    o.add_argument("--sla", action="append",
                   help="preset (max-tput, min-energy) or id=kind:bound; repeatable")
    o.set_defaults(func=cmd_optimize)

    # the options tune and compare share
    online = argparse.ArgumentParser(add_help=False)
    online.add_argument("--strata", required=True)
    online.add_argument("--models", required=True)
    online.add_argument("--table", required=True)
    online.add_argument("--endpoint", default="chameleon")
    online.add_argument("--scenario", default="constant:0.2",
                        help="constant:LOAD or step:BEFORE:AFTER:AT_S")
    online.add_argument("--classes", default=",".join(FILE_CLASSES))
    online.add_argument("--interval", type=float, default=1.0,
                        help="monitor interval in seconds, > 0")

    t = sub.add_parser("tune", parents=[online],
                       help="run one tuned transfer on a simulated endpoint")
    t.add_argument("--sla", default="max-tput")
    t.add_argument("--fail-at", type=float, default=None,
                   help="inject an endpoint failure at this time")
    t.add_argument("--out")
    t.set_defaults(func=cmd_tune)

    c = sub.add_parser("compare", parents=[online],
                       help="baseline vs tuned vs oracle per file class")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InfeasibleSLAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EndpointFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(f"  partial: {exc.report.duration_s:.1f}s elapsed, "
                  f"{exc.report.energy_joules:.1f} J consumed", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        # str() of a KeyError is the repr of its argument, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
