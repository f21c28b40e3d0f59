"""Answer-quality metrics, scored against the simulator's ground truth.

The simulator's closed-form throughput and power laws are the truth the
corpus was generated from, so the benchmark can say how far the program's
predictions and table rows are from what a transfer would really get.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from xfertune import optimizer, simulator
from xfertune.logs import ParamConfig


def prediction_errors(entries, strata, models):
    """|predicted - logged| / logged of every corpus entry, each scored with
    its stratum's combined predictor. Returns (energy, throughput) lists."""
    energy, tput = [], []
    for s in strata:
        m = models[s.id]
        cache: dict = {}
        for i in s.members:
            e = entries[i]
            if e.params not in cache:
                cache[e.params] = (m.predict_energy(e.params),
                                   m.predict_throughput(e.params))
            pe, pt = cache[e.params]
            energy.append(abs(pe - e.energy_joules) / e.energy_joules)
            tput.append(abs(pt - e.throughput_mbps) / e.throughput_mbps)
    return energy, tput


def _true_outcome(spec, cfg: ParamConfig, load: float, ds):
    """(throughput Mbps, energy J) of moving dataset ds with cfg at load."""
    t = simulator.throughput_mbps(spec, cfg, load, ds.avg_file_size_bytes)
    if t <= 0.0:
        return 0.0, math.inf
    power = simulator.power_above_base_watts(spec, cfg, t)
    return t, power * ds.total_size_bytes * 8.0 / 1e6 / t


def _route_spec(route):
    for spec in simulator.ENDPOINTS.values():
        if (spec.source_id, spec.dest_id) == tuple(route):
            return spec
    raise KeyError(f"no endpoint preset for route {route}")


def breaks_bound(sla, tput: float, energy: float):
    """Whether an outcome breaks the SLA's bound; None for the unbounded
    presets (an infinite cap, a zero floor)."""
    if sla.kind == optimizer.KIND_ENERGY_CAP:
        return energy > sla.bound if math.isfinite(sla.bound) else None
    return tput < sla.bound if sla.bound > 0 else None


def table_quality(entries, strata, models, table):
    """Score every ok row against the simulator's exhaustive oracle.

    The oracle searches default_lattice of the row's route at the stratum's
    median load for its (modal) dataset class. Regret is the chosen
    configuration's shortfall against the best configuration that meets the
    row's bound in truth: lost throughput for energy caps, extra energy for
    throughput floors, as a share of the oracle's value. A chosen
    configuration that breaks its bound in truth can beat that oracle, so
    its regret can be negative; such rows count as violations.

    Returns dict with 'regret' (list of shares over ok rows that have a
    truth-feasible oracle), 'bounded' and 'violations' (counts over ok rows
    with a finite cap or a nonzero floor).
    """
    regrets, bounded, violations = [], 0, 0
    slas = {sla.id: sla for sla in table.slas}
    for s in strata:
        spec = _route_spec(s.route)
        load = float(np.median([entries[i].network.ext_load for i in s.members]))
        ds = Counter(entries[i].dataset for i in s.members).most_common(1)[0][0]
        lattice = [(cfg, *_true_outcome(spec, cfg, load, ds))
                   for cfg in simulator.default_lattice(spec).configs()]
        for sla_id, row in table.rows[s.id].items():
            if row["status"] != "ok":
                continue
            sla = slas[sla_id]
            cfg = ParamConfig(**row["result"]["params"])
            t_c, e_c = _true_outcome(spec, cfg, load, ds)
            if sla.kind == optimizer.KIND_ENERGY_CAP:
                ok = [t for _, t, e in lattice if e <= sla.bound]
                if ok:
                    regrets.append((max(ok) - t_c) / max(ok))
            else:
                ok = [e for _, t, e in lattice if t >= sla.bound]
                if ok:
                    regrets.append((e_c - min(ok)) / min(ok))
            broken = breaks_bound(sla, t_c, e_c)
            if broken is not None:
                bounded += 1
                violations += broken
    return {"regret": regrets, "bounded": bounded, "violations": violations}


def compare_ratios(doc) -> tuple[list, list]:
    """Per class of one compare_policies document: tuned max-tput
    throughput over the static-optimal throughput, and tuned min-energy
    energy over the static-optimal energy."""
    rows = {(r["policy"], r["class"]): r for r in doc["rows"]}
    tput, energy = [], []
    for (policy, cname), oracle in rows.items():
        if policy != "static-optimal":
            continue
        tput.append(rows[("hla-max-tput", cname)]["throughput_mbps"]
                    / oracle["throughput_mbps"])
        energy.append(rows[("hla-min-energy", cname)]["energy_joules"]
                      / oracle["energy_joules"])
    return tput, energy


def table_counters(models, table) -> dict:
    """Optimizer counters read from the table and the models."""
    ok = infeasible = candidates = feasible = lattice = 0
    for sid, rows in table.rows.items():
        axes = models[sid].lattice_axes()
        size = math.prod(len(v) for v in axes.values())
        for row in rows.values():
            if row["status"] != "ok":
                infeasible += 1
                continue
            ok += 1
            candidates += row["result"]["candidate_count"]
            feasible += row["result"]["feasible_count"]
            lattice += size
    return {"optimizer.rows_ok": ok, "optimizer.rows_infeasible": infeasible,
            "optimizer.candidates": candidates, "optimizer.feasible": feasible,
            "optimizer.critical_candidates_added": candidates - lattice}
