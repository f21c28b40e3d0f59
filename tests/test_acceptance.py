"""Acceptance suite: one test per release criterion, each printing a single
[PASS]/[FAIL] verdict line with the measured numbers.

Every check runs against an independent oracle built in the test modules
(dense linear solves, exhaustive enumeration, finite differences, numpy
polynomial derivatives and eigendecomposition), never against the production code path itself.
"""

import math
import time

import numpy as np

from xfertune import (
    SLA,
    MonitorSample,
    OnlineTuner,
    cli,
    compare_policies,
    fit_natural_spline,
    optimize_stratum,
    stratify,
    upgma_cluster,
)
from xfertune.optimizer import KIND_ENERGY_CAP, KIND_THROUGHPUT_FLOOR, _classify_2d
from xfertune.simulator import ENDPOINTS, LoadScenario
from xfertune.surfaces import fit_stratum_models, rmse_holdout

from test_clustering import (
    assert_is_partition,
    brute_force_upgma,
    canonical_partition,
    random_corpus,
    random_points,
)
from test_optimizer import (
    check_against_brute_force,
    eig_classify,
    random_axes,
    random_stratum_members,
    scalar_predictions,
)
from test_spline import (
    cell_derivative,
    dense_natural_coeffs,
    random_knots,
    random_surface,
    sample_points_with_margin,
    spline_derivative,
    surface_gradient,
    surface_hessian,
    with_last_knot_cell,
)
from test_surfaces import make_members


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(f"\n{line}")
    assert ok, line


# -- 1: spline exactness --------------------------------------------------------


def test_criterion_01_spline_exactness():
    """Interpolants with compatible boundary data are reproduced exactly and
    every fit is C2 with zero end curvature, in under a second."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_affine = worst_ends = worst_c = worst_refit = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 11))
        x = random_knots(rng, n)
        scale = max(1.0, float(np.max(np.abs(x))) * 3.0)
        # a polynomial with zero second derivative at both ends of one global
        # piece is affine; those are the cubics a natural fit can reproduce
        c0, c1 = rng.uniform(-3.0, 3.0, size=2)
        s = fit_natural_spline(x, c0 + c1 * x)
        t = np.linspace(x[0], x[-1], 150)
        worst_affine = max(worst_affine,
                           float(np.max(np.abs(s(t) - (c0 + c1 * t)))) / scale)
        # generic data: natural ends and interior smoothness
        y = rng.standard_normal(n)
        g = fit_natural_spline(x, y)
        yscale = max(1.0, float(np.max(np.abs(y))))
        worst_ends = max(worst_ends, abs(spline_derivative(g, x[0], 2)),
                         abs(spline_derivative(g, x[-1], 2)))
        for i in range(1, n):
            for d, budget in ((0, 1e-9), (1, 1e-9), (2, 1e-8)):
                jump = abs(cell_derivative(g, i - 1, x[i], d)
                           - cell_derivative(g, i, x[i], d))
                worst_c = max(worst_c, jump / (budget * yscale) * 1e-9)
        # any piecewise-cubic C2 curve with natural ends is itself the
        # natural interpolant of its samples on a refined knot set
        refined = np.sort(np.concatenate([x, (x[:-1] + x[1:]) / 2.0]))
        g2 = fit_natural_spline(refined, g(refined))
        worst_refit = max(worst_refit,
                          float(np.max(np.abs(g2(t) - g(t)))) / yscale)
    elapsed = time.perf_counter() - t0
    ok = (worst_affine < 1e-9 and worst_ends < 1e-8 and worst_c < 1e-9
          and worst_refit < 1e-9 and elapsed < 1.0)
    _report("criterion-1 spline exactness", ok,
            f"affine {worst_affine:.2e} < 1e-9, end curvature {worst_ends:.2e}"
            f" < 1e-8, continuity {worst_c:.2e} < 1e-9 scaled,"
            f" refit {worst_refit:.2e} < 1e-9, {elapsed:.2f}s < 1s")


# -- 2: tridiagonal vs dense solve ----------------------------------------------


def test_criterion_02_spline_solver_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x = random_knots(rng, n)
        y = rng.standard_normal(n)
        got = fit_natural_spline(x, y).coeffs
        want = with_last_knot_cell(dense_natural_coeffs(x, y), x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report("criterion-2 tridiagonal equals dense solve", worst < 1e-8,
            f"100 random knot sets, n <= 10, max coeff diff {worst:.2e} < 1e-8")


# -- 3: analytic derivatives vs finite differences -------------------------------


def test_criterion_03_surface_derivatives():
    """The derivatives of each stored cell polynomial (numpy.polynomial)
    match finite differences of the surface's values."""
    rng = np.random.default_rng(303)
    h = 1e-4   # large enough to dominate the rounding of the differences
    worst = 0.0

    def rel(a: float, fd: float) -> float:
        return abs(a - fd) / max(1.0, abs(fd))

    checked = 0
    for _ in range(4):
        nx, ny = int(rng.integers(4, 7)), int(rng.integers(4, 7))
        xs, ys, grid, f = random_surface(rng, nx, ny)
        for x, y in sample_points_with_margin(rng, xs, ys, 250, 4 * h):
            gx, gy = surface_gradient(f, x, y)
            worst = max(worst, rel(gx, (f(x + h, y) - f(x - h, y)) / (2 * h)))
            worst = max(worst, rel(gy, (f(x, y + h) - f(x, y - h)) / (2 * h)))
            fxx, fxy, fyy = surface_hessian(f, x, y)
            gxp, gxm = surface_gradient(f, x + h, y), surface_gradient(f, x - h, y)
            gyp, gym = surface_gradient(f, x, y + h), surface_gradient(f, x, y - h)
            worst = max(worst, rel(fxx, (gxp[0] - gxm[0]) / (2 * h)))
            worst = max(worst, rel(fyy, (gyp[1] - gym[1]) / (2 * h)))
            worst = max(worst, rel(fxy, (gyp[0] - gym[0]) / (2 * h)))
            worst = max(worst, rel(fxy, (gxp[1] - gxm[1]) / (2 * h)))
            checked += 1
    _report("criterion-3 derivatives match finite differences", worst < 1e-6,
            f"{checked} random points, max relative error {worst:.2e} < 1e-6")


# -- 4: clustering vs brute force ------------------------------------------------


def test_criterion_04_upgma_matches_brute_force():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        pts = random_points(rng)
        got = upgma_cluster(pts).merges
        want = brute_force_upgma(pts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.a, g.b, g.new_id) == (w[0], w[1], w[3])
            worst = max(worst, abs(g.distance - w[2]) / max(1.0, w[2]))
    _report("criterion-4 average-linkage matches the n^3 oracle", worst < 1e-10,
            f"200 random instances, n <= 12, identical merge sequences,"
            f" max distance drift {worst:.2e}")


# -- 5: stratification invariants ------------------------------------------------


def test_criterion_05_stratification_invariants(corpus, strata, stratify_config):
    rng = np.random.default_rng(505)
    for trial in range(100):
        entries = random_corpus(rng, n_routes=int(rng.integers(1, 4)))
        got = stratify(entries, stratify_config)
        assert_is_partition(len(entries), got)
        perm = rng.permutation(len(entries))
        shuffled = [entries[i] for i in perm]
        again = stratify(shuffled, stratify_config)
        assert_is_partition(len(entries), again)
        assert (canonical_partition(entries, got)
                == canonical_partition(shuffled, again)), f"trial {trial}"
    # the three synthetic dataset classes split cleanly at tier 2
    by_tier2 = {}
    for s in strata:
        counts = {corpus[i].dataset.num_files for i in s.members}
        assert len(counts) == 1
        by_tier2.setdefault(counts.pop(), []).append(s.id)
    ok = set(by_tier2) == {20000, 5000, 128}
    _report("criterion-5 stratification partition and invariance", ok,
            "100 corpora partition and are order invariant; dataset classes"
            f" split into {len(by_tier2)} tier-2 groups")


# -- 6: model accuracy on held-out data ------------------------------------------


def test_criterion_06_holdout_rmse(corpus_two_sweeps, stratify_config):
    """Two noise-free sweeps log every configuration twice, so the 70/30
    split holds out one copy of each and trains on the other, which fits the
    models of the whole stratum: the held-out RMSE must be their RMSE over
    the stratum, recomputed here one configuration at a time."""
    strata2 = stratify(corpus_two_sweeps, stratify_config)
    worst_gap = worst_e = worst_t = 0.0
    for s in strata2:
        members = [corpus_two_sweeps[i] for i in s.members]
        rep = rmse_holdout(members, s.id, seed=0)
        assert rep["test_count"] == len(members) // 2
        models = fit_stratum_models(members, s.id)
        errs = np.array([[models.predict_energy(e.params) - e.energy_joules,
                          models.predict_throughput(e.params) - e.throughput_mbps]
                         for e in members])
        want = np.sqrt(np.mean(np.square(errs), axis=0))
        got = np.array([rep["energy_rmse"], rep["throughput_rmse"]])
        worst_gap = max(worst_gap, float(np.max(np.abs(got - want) / want)))
        mean_e = np.mean([e.energy_joules for e in members])
        mean_t = np.mean([e.throughput_mbps for e in members])
        worst_e = max(worst_e, got[0] / mean_e)
        worst_t = max(worst_t, got[1] / mean_t)
    ok = worst_gap < 1e-9
    _report("criterion-6 held-out RMSE is the combined predictor's over held-out rows", ok,
            f"{len(strata2)} strata, 70/30 split, largest relative gap {worst_gap:.1e};"
            f" worst RMSE {100 * worst_e:.0f}% of the members' mean energy,"
            f" {100 * worst_t:.0f}% of throughput")


# -- 7: optimizer vs exhaustive enumeration --------------------------------------


def test_criterion_07_optimizer_equals_enumeration():
    rng = np.random.default_rng(707)
    lattices = []
    for trial in range(50):
        axes = random_axes(rng)
        lattices.append(int(np.prod([len(v) for v in axes.values()])))
        models = fit_stratum_models(random_stratum_members(rng, axes), f"a{trial}")
        # one scalar predict_* pass per stratum, shared by the bounds and
        # every SLA's exhaustive oracle
        preds = scalar_predictions(models, axes)
        preds_e = sorted(e for _, e, _ in preds)
        preds_t = sorted(t for _, _, t in preds)
        slas = [SLA.max_throughput(), SLA.min_energy()]
        if preds_e[len(preds_e) // 3] > 0:
            slas.append(SLA(id="cap", kind=KIND_ENERGY_CAP,
                            bound=preds_e[len(preds_e) // 3]))
        slas.append(SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR,
                        bound=max(0.0, preds_t[2 * len(preds_t) // 3])))
        for sla in slas:
            check_against_brute_force(models, axes, sla, predictions=preds)
    assert max(lattices) <= 10 ** 5

    for _ in range(1000):
        fxx, fxy, fyy = rng.uniform(-10.0, 10.0, size=3)
        assert _classify_2d(fxx, fxy, fyy) == eig_classify(fxx, fxy, fyy)

    members = make_members()
    base = optimize_stratum(fit_stratum_models(members, "sX"), SLA.min_energy())
    for lam in (2.5, 17.0):
        scaled = [e.__class__(params=e.params, dataset=e.dataset,
                              network=e.network,
                              throughput_mbps=e.throughput_mbps,
                              energy_joules=lam * e.energy_joules,
                              avg_power_watts=lam * e.avg_power_watts,
                              duration_s=e.duration_s, timestamp_s=e.timestamp_s)
                  for e in members]
        got = optimize_stratum(fit_stratum_models(scaled, "sX"), SLA.min_energy())
        assert got.params == base.params
    _report("criterion-7 optimizer equals exhaustive enumeration", True,
            f"50 random strata (largest lattice {max(lattices)}), 1000 Hessian"
            " classifications vs eigenvalues, argmin invariant under scaling")


# -- 8: tuner switch logic --------------------------------------------------------


def _primed(strata, table, models, sla, stratum, config, *, t_avg=800.0,
            ref_ext=0.4, past_e_pred=math.inf, e_consumed=0.0, elapsed=0.0,
            remaining=1e9):
    tuner = OnlineTuner(strata, table, models, sla, config=config)
    tuner.start_transfer(remaining)
    tuner.stratum = stratum
    tuner.params = table.lookup(stratum.id, sla.id).params
    tuner.e_consumed, tuner.elapsed_s = e_consumed, elapsed
    st = tuner.cls
    st.t_avg = t_avg
    st.past_e_pred = past_e_pred
    st.ref_ext = ref_ext
    st.history = [t_avg]
    return tuner


def test_criterion_08_tuner_switch_logic(corpus, strata, models, table,
                                         stratify_config):
    small = sorted((s for s in strata
                    if corpus[s.members[0]].dataset.num_files == 20000),
                   key=lambda s: s.ext_load_interval)
    low, mid, high = small

    def tick(sla, stratum, sample_kw, **state):
        tuner = _primed(strata, table, models, sla, stratum, stratify_config,
                        **state)
        kw = dict(dt_s=1.0, throughput_mbps=800.0, power_watts=750.0,
                  ext_load=0.5, rtt_ms=32.0, bytes_moved=0.0)
        kw.update(sample_kw)
        res = tuner.tick(MonitorSample(**kw))
        return res, tuner

    # hand-worked branch traces: (expected action, triggered flag)
    res, tuner = tick(SLA.min_energy(), mid, {},
                      e_consumed=3250.0, elapsed=99.0, t_avg=800.0,
                      past_e_pred=1000.0, ref_ext=0.4)
    assert (res.action, res.triggered) == ("switch-high", True)
    assert tuner.stratum.id == high.id
    res, _ = tick(SLA.min_energy(), mid, {"ext_load": 0.42},
                  e_consumed=3250.0, elapsed=99.0, past_e_pred=1000.0)
    assert (res.action, res.triggered) == (None, True)
    res, _ = tick(SLA.min_energy(), mid, {"ext_load": 0.41},
                  e_consumed=3250.0, elapsed=99.0, past_e_pred=1200.0)
    assert (res.action, res.triggered) == (None, False)
    res, tuner = tick(SLA.max_throughput(), mid,
                      {"throughput_mbps": 700.0, "ext_load": 0.6},
                      t_avg=1000.0, ref_ext=0.5)
    assert (res.action, res.triggered) == ("switch-high", True)
    assert tuner.stratum.id == high.id
    res, tuner = tick(SLA.max_throughput(), mid,
                      {"throughput_mbps": 1000.0, "ext_load": 0.1},
                      t_avg=1000.0, ref_ext=0.5)
    assert (res.action, res.triggered) == ("switch-low", False)
    assert tuner.stratum.id == low.id

    # the switch budget holds over arbitrary monitoring noise
    rng = np.random.default_rng(808)
    max_switches = 0
    for trial in range(1000):
        sla = SLA.max_throughput() if trial % 2 else SLA.min_energy()
        start = strata[int(rng.integers(len(strata)))]
        tuner = OnlineTuner(strata, table, models, sla, config=stratify_config)
        tuner.start_transfer(float(rng.uniform(1e8, 1e11)))
        tuner.stratum = start
        tuner.params = table.lookup(start.id, sla.id).params
        switches = 0
        for _ in range(25):
            res = tuner.tick(MonitorSample(
                dt_s=float(rng.uniform(0.1, 2.0)),
                throughput_mbps=float(rng.uniform(1.0, 10000.0)),
                power_watts=float(rng.uniform(1.0, 900.0)),
                ext_load=float(rng.uniform(0.0, 1.0)),
                rtt_ms=32.0,
                bytes_moved=float(rng.uniform(0.0, 1e8))))
            switches += bool(res.action and res.action.startswith("switch"))
        assert switches <= 3 and tuner.switch_count <= 3
        max_switches = max(max_switches, switches)

    # constant conditions: no switching after the warmup ticks
    late_switches = 0
    for sla in (SLA.max_throughput(), SLA.min_energy()):
        tuner = OnlineTuner(strata, table, models, sla, config=stratify_config)
        tuner.start_transfer(1e9)
        tuner.stratum = mid
        tuner.params = table.lookup(mid.id, sla.id).params
        steady = MonitorSample(dt_s=1.0, throughput_mbps=800.0,
                               power_watts=50.0, ext_load=0.3, rtt_ms=32.0,
                               bytes_moved=1e6)
        for n in range(60):
            res = tuner.tick(steady)
            if res.action and res.action.startswith("switch") and n >= 2:
                late_switches += 1
        assert tuner.switch_count == 0
    _report("criterion-8 tuner switch decisions and budget", late_switches == 0,
            "5 hand traces exact; 1000 random traces max"
            f" {max_switches} <= 3 switches; constant input: 0 switches")


# -- 9: closed loop beats the baseline --------------------------------------------


def test_criterion_09_closed_loop(strata, models, table, stratify_config):
    spec = ENDPOINTS["chameleon"]

    def rows_for(scenario):
        t0 = time.perf_counter()
        doc = compare_policies(spec, scenario, stratify_config, strata, models,
                               table, classes=("small",))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"scenario took {elapsed:.1f}s"
        return {r["policy"]: r for r in doc["rows"]}, elapsed

    step, t_step = rows_for(LoadScenario.step(0.2, 0.6, 1.0))
    tput_gain = (step["hla-max-tput"]["throughput_mbps"]
                 / step["fixed-baseline"]["throughput_mbps"])
    energy_cut = 1.0 - (step["hla-min-energy"]["energy_joules"]
                        / step["fixed-baseline"]["energy_joules"])

    const, t_const = rows_for(LoadScenario.constant(0.2))
    tput_vs_oracle = (const["hla-max-tput"]["throughput_mbps"]
                      / const["static-optimal"]["throughput_mbps"])
    energy_vs_oracle = (const["hla-min-energy"]["energy_joules"]
                        / const["static-optimal"]["energy_joules"])

    ok = (tput_gain >= 2.0 and energy_cut >= 0.30
          and tput_vs_oracle >= 0.90 and energy_vs_oracle <= 1.10)
    _report("criterion-9 closed loop vs baseline and oracle", ok,
            f"load step: {tput_gain:.1f}x throughput (>= 2x),"
            f" {100 * energy_cut:.0f}% energy saved (>= 30%); constant load:"
            f" {100 * tput_vs_oracle:.1f}% of oracle throughput,"
            f" {100 * energy_vs_oracle:.1f}% of oracle energy;"
            f" runs {t_step:.1f}s/{t_const:.1f}s < 30s")


# -- 10: end-to-end determinism ----------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    def run(d):
        d.mkdir()
        common = {
            "generate": ["--out", str(d / "logs.jsonl"), "--seed", "7"],
            "stratify": ["--logs", str(d / "logs.jsonl"),
                         "--out", str(d / "strata.json")],
            "fit": ["--logs", str(d / "logs.jsonl"),
                    "--strata", str(d / "strata.json"),
                    "--out", str(d / "models.json")],
            "optimize": ["--models", str(d / "models.json"),
                         "--out", str(d / "table.json")],
            "tune": ["--strata", str(d / "strata.json"),
                     "--models", str(d / "models.json"),
                     "--table", str(d / "table.json"),
                     "--scenario", "step:0.2:0.6:10", "--classes", "large",
                     "--out", str(d / "transfer.json")],
            "compare": ["--strata", str(d / "strata.json"),
                        "--models", str(d / "models.json"),
                        "--table", str(d / "table.json"),
                        "--scenario", "constant:0.2", "--classes", "small",
                        "--out", str(d / "compare.json")],
        }
        for cmd, argv in common.items():
            assert cli.main([cmd] + argv) == 0, cmd

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = ["logs.jsonl", "strata.json", "models.json", "table.json",
             "transfer.json", "compare.json"]
    same = [(tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
            for n in names]
    _report("criterion-10 end-to-end determinism", all(same),
            f"{len(names)} artifacts byte-identical across two seeded runs")
