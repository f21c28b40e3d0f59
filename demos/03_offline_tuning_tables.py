"""The offline chain: fit surfaces per stratum, then tune per SLA.

Each stratum gets spline models of energy and throughput over three groups
of the five transfer parameters, combined as a product. The optimizer then
picks, per (stratum, SLA) pair, the lattice configuration that best
satisfies the objective, scoring every configuration on the knot lattice in
one vectorised pass.
"""

from xfertune import (
    SLA,
    fit_all_strata,
    generate_training_logs,
    optimize_all,
    stratify,
)
from xfertune.clustering import StratifyConfig
from xfertune.surfaces import rmse_holdout


def main():
    entries = generate_training_logs(sweeps=2, seed=0)
    config = StratifyConfig()
    strata = stratify(entries, config)
    models, _ = fit_all_strata(entries, strata, with_holdout=False)
    print(f"fitted energy and throughput models for {len(models)} strata")

    # held-out accuracy, one stratum as a spot check
    s0 = strata[0]
    members = [entries[i] for i in s0.members]
    rep = rmse_holdout(members, s0.id)
    print(f"\nholdout check on {s0.id} "
          f"({rep['train_count']} train / {rep['test_count']} test):")
    for metric, field in (("energy", "energy_joules"), ("throughput", "throughput_mbps")):
        mean = sum(getattr(e, field) for e in members) / len(members)
        rmse = rep[f"{metric}_rmse"]
        rel = "n/a" if rmse is None else f"{100 * rmse / mean:.2g}%"
        print(f"  {metric:<10} rmse {rel} of the members' mean")

    slas = [SLA.max_throughput(), SLA.min_energy(),
            SLA(id="cap-2kJ", kind="energy-constrained", bound=2000.0),
            SLA(id="floor-2G", kind="throughput-guarantee", bound=2000.0)]
    table = optimize_all(models, slas)

    print("\ntuned parameter table (per stratum and SLA):")
    print(f"{'stratum':<8} {'sla':<10} {'cpu':>3} {'freq':>5} {'cc':>3} "
          f"{'p':>2} {'pp':>3}  {'pred Mbps':>10} {'pred J':>10}")
    for sid in sorted(table.rows):
        for sla in slas:
            cell = table.rows[sid][sla.id]
            if cell["status"] != "ok":
                print(f"{sid:<8} {sla.id:<10} infeasible: {cell['reason']}")
                continue
            r = cell["result"]
            p = r["params"]
            print(f"{sid:<8} {sla.id:<10} {p['cpu_num']:>3} "
                  f"{p['cpu_freq_mhz']:>5} {p['cc']:>3} {p['p']:>2} "
                  f"{p['pp']:>3}  {r['predicted_throughput']:>10.1f} "
                  f"{r['predicted_energy']:>10.1f}")

    print("\nthe throughput rows lean on every resource; the energy rows")
    print("drop to one slow core and lean on concurrency instead")


if __name__ == "__main__":
    main()
