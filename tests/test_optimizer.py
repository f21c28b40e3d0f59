"""Optimizer tests.

The headline oracle is exhaustive lattice enumeration built in-test from
itertools.product over the raw axes, scored with scalar predict_* calls and
the same (objective, params) tie-break; the optimizer's lattice-array pass
must agree exactly, feasibility counts included. A hypothesis property test
covers tied objectives, bounds met exactly and ragged slices. Hessian
classification is checked against numpy's eigvalsh.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from xfertune import (
    SLA,
    InfeasibleSLAError,
    ParamConfig,
    SLAError,
    StratifyConfig,
    SurfaceFitError,
    build_param_table,
    find_critical_points,
    fit_all_strata,
    fit_stratum_models,
    generate_training_logs,
    optimize_stratum,
    stratify,
)
from xfertune.logs import PARAM_NAMES, DatasetMeta, NetworkMeta, TransferLogEntry
from xfertune.optimizer import (
    EIGEN_TOL,
    KIND_ENERGY_CAP,
    KIND_THROUGHPUT_FLOOR,
    ParamTable,
    _classify_2d,
)
from xfertune.simulator import ENDPOINTS
from xfertune.spline import fit_bicubic_surface, fit_natural_spline
from xfertune.surfaces import PARAM_GROUPS

from test_spline import spline_derivative, surface_gradient, surface_hessian
from test_surfaces import AXES, lattice_configs, make_members, true_energy


# -- SLA ----------------------------------------------------------------------


def test_sla_presets_and_validation():
    mt = SLA.max_throughput()
    assert mt.kind == KIND_ENERGY_CAP and math.isinf(mt.bound)
    me = SLA.min_energy()
    assert me.kind == KIND_THROUGHPUT_FLOOR and me.bound == 0.0
    with pytest.raises(SLAError):
        SLA(id="x", kind="best-effort", bound=1.0)
    with pytest.raises(SLAError):
        SLA(id="x", kind=KIND_ENERGY_CAP, bound=0.0)
    with pytest.raises(SLAError):
        SLA(id="x", kind=KIND_THROUGHPUT_FLOOR, bound=math.inf)
    with pytest.raises(SLAError):
        SLA(id="x", kind=KIND_ENERGY_CAP, bound=-5.0)


def test_sla_serializes_infinity():
    mt = SLA.max_throughput()
    d = mt.as_dict()
    assert d["bound"] == "inf"
    assert SLA.from_dict(d) == mt
    cap = SLA(id="c", kind=KIND_ENERGY_CAP, bound=500.0)
    assert SLA.from_dict(cap.as_dict()) == cap


# -- critical point machinery -------------------------------------------------


def eig_classify(fxx: float, fxy: float, fyy: float) -> str:
    h = np.array([[fxx, fxy], [fxy, fyy]])
    lo, hi = np.linalg.eigvalsh(h)
    tol = EIGEN_TOL * max(1.0, np.linalg.norm(h))
    if lo > tol:
        return "min"
    if hi < -tol:
        return "max"
    if lo < -tol and hi > tol:
        return "saddle"
    return "flat"


def test_hessian_classification_matches_eigen_oracle():
    rng = np.random.default_rng(16)
    for _ in range(300):
        fxx, fxy, fyy = rng.uniform(-10.0, 10.0, size=3)
        assert _classify_2d(fxx, fxy, fyy) == eig_classify(fxx, fxy, fyy)
    # constructed degenerate shapes
    assert _classify_2d(0.0, 0.0, 0.0) == "flat"
    assert _classify_2d(2.0, 0.0, 0.0) == "flat"      # one zero eigenvalue
    assert _classify_2d(2.0, 0.0, 3.0) == "min"
    assert _classify_2d(-2.0, 0.0, -3.0) == "max"
    assert _classify_2d(2.0, 0.0, -3.0) == "saddle"


def stationary_roots_oracle(spline) -> list:
    """Real roots of each cell's derivative polynomial via np.roots, in the
    cell's local coordinate u = t - knot, mapped back to t."""
    out = []
    (knots,) = spline.knots
    for i, h in enumerate(np.diff(knots)):
        _, c1, c2, c3 = spline.coeffs[i]
        poly = [3.0 * c3, 2.0 * c2, c1]
        if max(abs(c) for c in poly) < 1e-14:
            continue
        for r in np.roots(poly):
            if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= h + 1e-9:
                out.append(knots[i] + float(np.clip(r.real, 0.0, h)))
    return sorted(out)


def test_spline_stationary_points_against_root_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        x = np.cumsum(rng.uniform(0.3, 1.0, size=n))
        y = rng.standard_normal(n)
        s = fit_natural_spline(x, y)
        roots = stationary_roots_oracle(s)
        got = [p for p in find_critical_points(s) if p.stationary]
        # Newton runs once per cell, so it may keep one of two roots that
        # share a cell; every reported point must be a true root though
        for p in got:
            t = p.coords[0]
            assert abs(spline_derivative(s, t, 1)) < 1e-8 * max(1.0, abs(s(t)))
            assert min(abs(t - r) for r in roots) < 1e-6
        for p in got:
            s2 = spline_derivative(s, p.coords[0], 2)
            if p.kind == "min":
                assert s2 > 0
            elif p.kind == "max":
                assert s2 < 0


def test_spline_knots_are_always_candidates():
    s = fit_natural_spline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -1.0, 2.0])
    coords = {round(p.coords[0], 9) for p in find_critical_points(s)}
    assert {0.0, 1.0, 2.0, 3.0} <= coords


def test_surface_newton_finds_interior_maximum():
    xs = np.arange(0.0, 5.0)
    ys = np.arange(0.0, 4.0)
    grid = np.array([[-((x - 2.2) ** 2) - (y - 1.3) ** 2 for y in ys] for x in xs])
    f = fit_bicubic_surface(xs, ys, grid)
    points = find_critical_points(f)
    maxima = [p for p in points if p.stationary and p.kind == "max"]
    assert maxima
    best = max(maxima, key=lambda p: p.value)
    assert math.dist(best.coords, (2.2, 1.3)) < 0.35
    assert best.value >= grid.max() - 1e-9
    for p in points:
        if p.stationary:
            gx, gy = surface_gradient(f, *p.coords)
            assert math.hypot(gx, gy) < 1e-7
            assert p.kind == eig_classify(*surface_hessian(f, *p.coords))


# -- optimization vs exhaustive enumeration ------------------------------------


def scalar_predictions(models, axes):
    """(config, energy, throughput) for every lattice point, one predict
    call on the point's one-row parameter array each, in lexicographic
    lattice order."""
    out = []
    for combo in itertools.product(*(axes[p] for p in PARAM_NAMES)):
        cfg = ParamConfig(**dict(zip(PARAM_NAMES, combo)))
        energy, throughput = models.predict(np.array([combo], dtype=float)).ravel().tolist()
        out.append((cfg, energy, throughput))
    return out


def brute_force_best(models, axes, sla, predictions=None):
    best = None
    feasible = 0
    for cfg, e, t in predictions or scalar_predictions(models, axes):
        if sla.kind == KIND_ENERGY_CAP:
            if e > sla.bound:
                continue
            key = (-t, cfg.cpu_num, cfg.cpu_freq_mhz, cfg.cc, cfg.p, cfg.pp)
        else:
            if t < sla.bound:
                continue
            key = (e, cfg.cpu_num, cfg.cpu_freq_mhz, cfg.cc, cfg.p, cfg.pp)
        feasible += 1
        if best is None or key < best[0]:
            best = (key, cfg, e, t)
    return best, feasible


def check_against_brute_force(models, axes, sla, predictions=None):
    want, feasible = brute_force_best(models, axes, sla, predictions)
    if want is None:
        with pytest.raises(InfeasibleSLAError):
            optimize_stratum(models, sla)
        return
    got = optimize_stratum(models, sla)
    assert got.params == want[1]
    assert got.predicted_energy == want[2]
    assert got.predicted_throughput == want[3]
    assert got.feasible_count == feasible


def test_presets_match_brute_force_on_separable_stratum():
    models = fit_stratum_models(make_members(), "sX")
    lattice_size = int(np.prod([len(v) for v in AXES.values()]))
    for sla in (SLA.max_throughput(), SLA.min_energy()):
        got = optimize_stratum(models, sla)
        assert got.candidate_count == lattice_size
        check_against_brute_force(models, AXES, sla)
    # the separable stratum also pins the true optimum
    cfgs = list(lattice_configs())
    assert optimize_stratum(models, SLA.min_energy()).params == min(cfgs, key=true_energy)


def test_bounded_slas_match_brute_force():
    models = fit_stratum_models(make_members(), "sX")
    preds_e = [models.predict_energy(c) for c in lattice_configs()]
    preds_t = [models.predict_throughput(c) for c in lattice_configs()]
    cap = SLA(id="cap", kind=KIND_ENERGY_CAP, bound=float(np.median(preds_e)))
    floor = SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR, bound=float(np.median(preds_t)))
    for sla in (cap, floor):
        check_against_brute_force(models, AXES, sla)


def random_axes(rng):
    def pick(values, k):
        return tuple(int(v) for v in sorted(rng.choice(values, size=k, replace=False)))

    return {
        "cpu_num": pick([1, 2, 4, 8], int(rng.integers(2, 4))),
        "cpu_freq_mhz": pick([1200, 1600, 2000, 2400], int(rng.integers(2, 4))),
        "cc": pick([1, 2, 4, 8, 16], int(rng.integers(2, 5))),
        "p": pick([1, 2, 4, 8], int(rng.integers(2, 4))),
        "pp": pick([0, 2, 4, 8], int(rng.integers(2, 4))),
    }


DS = DatasetMeta(num_files=4, total_size_bytes=4e6, avg_file_size_bytes=1e6,
                 file_size_stddev_bytes=0.0)
NET = NetworkMeta("s", "d", 1e4, 25.0, 0.2)


def random_stratum_members(rng, axes):
    entries = []
    for i, combo in enumerate(itertools.product(*(axes[p] for p in PARAM_NAMES))):
        cfg = ParamConfig(**dict(zip(PARAM_NAMES, combo)))
        power = float(rng.uniform(10.0, 100.0))
        entries.append(TransferLogEntry(
            params=cfg, dataset=DS, network=NET,
            throughput_mbps=float(rng.uniform(50.0, 500.0)),
            energy_joules=power * 10.0, avg_power_watts=power,
            duration_s=10.0, timestamp_s=float(i)))
    return entries


def test_random_strata_match_brute_force():
    # quick spot check; the acceptance suite runs the full 50-instance sweep
    rng = np.random.default_rng(18)
    for trial in range(10):
        axes = random_axes(rng)
        models = fit_stratum_models(random_stratum_members(rng, axes), f"r{trial}")
        predictions = scalar_predictions(models, models.lattice_axes())
        preds_e = sorted(e for _, e, _ in predictions)
        preds_t = sorted(t for _, _, t in predictions)
        slas = [SLA.max_throughput(), SLA.min_energy()]
        cap = preds_e[len(preds_e) // 3]
        if cap > 0:
            slas.append(SLA(id="cap", kind=KIND_ENERGY_CAP, bound=cap))
        slas.append(SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR,
                        bound=max(0.0, preds_t[2 * len(preds_t) // 3])))
        for sla in slas:
            check_against_brute_force(models, axes, sla)


PARAM_POOLS = {
    "cpu_num": (1, 2, 4, 8),
    "cpu_freq_mhz": (1200, 1800, 2400),
    "cc": (1, 4, 8, 16),
    "p": (1, 4, 8),
    "pp": (0, 4, 8),
}
TIED_LEVELS = (100.0, 200.0, 400.0)


@st.composite
def stratum_cases(draw):
    """A random lattice, a seed for the logged values, whether those values
    depend on a single parameter through a few shared levels (so most lattice
    cells tie on the objective), and whether the log is ragged."""
    axes = {p: tuple(sorted(draw(st.sets(st.sampled_from(pool), min_size=2, max_size=3))))
            for p, pool in PARAM_POOLS.items()}
    return axes, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())


def case_members(axes, seed, tied, ragged):
    """A ragged log misses every entry at one cell of each 2-D group's grid,
    so both conditioning slices have a hole for _fill_grid to fill, plus a
    tenth of the remaining entries at random."""
    rng = np.random.default_rng(seed)
    driver = {m: PARAM_NAMES[int(rng.integers(len(PARAM_NAMES)))] for m in ("t", "w")}
    level = {m: {v: float(rng.choice(TIED_LEVELS)) for v in axes[driver[m]]}
             for m in driver}
    holes = [{p: axes[p][int(rng.integers(len(axes[p])))] for p in group}
             for group in PARAM_GROUPS if len(group) == 2] if ragged else []
    entries = []
    for i, combo in enumerate(itertools.product(*(axes[p] for p in PARAM_NAMES))):
        cfg = ParamConfig(**dict(zip(PARAM_NAMES, combo)))
        if ragged and (rng.random() < 0.1 or any(
                all(cfg.get(p) == v for p, v in hole.items()) for hole in holes)):
            continue
        if tied:
            tput = level["t"][cfg.get(driver["t"])]
            power = level["w"][cfg.get(driver["w"])] / 4.0
        else:
            tput = float(rng.uniform(50.0, 500.0))
            power = float(rng.uniform(10.0, 100.0))
        entries.append(TransferLogEntry(
            params=cfg, dataset=DS, network=NET, throughput_mbps=tput,
            energy_joules=power * 10.0, avg_power_watts=power,
            duration_s=10.0, timestamp_s=float(i)))
    return entries


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=stratum_cases(), at=st.floats(0.0, 1.0))
def test_lattice_tensors_match_scalar_brute_force(case, at):
    try:
        models = fit_stratum_models(case_members(*case), "h")
    except SurfaceFitError:
        reject()        # the random drops emptied an axis of a slice
    axes = models.lattice_axes()
    predictions = scalar_predictions(models, axes)
    # bounds set exactly at a predicted value: e == cap and t == floor are feasible
    cfg = predictions[min(int(at * len(predictions)), len(predictions) - 1)][0]
    slas = [SLA.max_throughput(), SLA.min_energy(),
            SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR,
                bound=max(0.0, models.predict_throughput(cfg)))]
    if models.predict_energy(cfg) > 0:
        slas.append(SLA(id="cap", kind=KIND_ENERGY_CAP, bound=models.predict_energy(cfg)))
    for sla in slas:
        check_against_brute_force(models, axes, sla, predictions)


BENCH_SLAS = (SLA.max_throughput(), SLA.min_energy(),
              SLA(id="cap100k", kind=KIND_ENERGY_CAP, bound=100000.0),
              SLA(id="floor3g", kind=KIND_THROUGHPUT_FLOOR, bound=3000.0))


def test_default_corpus_table_equals_scalar_brute_force(models):
    table = build_param_table(models, list(BENCH_SLAS))
    for sid, stratum_models in sorted(models.items()):
        axes = stratum_models.lattice_axes()
        predictions = scalar_predictions(stratum_models, axes)
        for sla in BENCH_SLAS:
            row = table.rows[sid][sla.id]
            want, feasible = brute_force_best(stratum_models, axes, sla, predictions)
            if want is None:
                assert row["status"] == "infeasible"
                continue
            got = table.lookup(sid, sla.id)
            assert (got.params, got.predicted_energy, got.predicted_throughput) == \
                (want[1], want[2], want[3])
            assert got.feasible_count == feasible
            assert got.candidate_count == len(predictions)


def test_positive_scaling_keeps_the_argmin():
    members = make_members()
    base = optimize_stratum(fit_stratum_models(members, "sX"), SLA.min_energy())
    for lam in (3.7, 42.0):
        scaled = [TransferLogEntry(
            params=e.params, dataset=e.dataset, network=e.network,
            throughput_mbps=e.throughput_mbps,
            energy_joules=lam * e.energy_joules,
            avg_power_watts=lam * e.avg_power_watts,
            duration_s=e.duration_s, timestamp_s=e.timestamp_s)
            for e in members]
        got = optimize_stratum(fit_stratum_models(scaled, "sX"), SLA.min_energy())
        assert got.params == base.params
        assert got.predicted_energy == pytest.approx(lam * base.predicted_energy, rel=1e-9)


def test_infeasible_sla_reports_reason():
    models = fit_stratum_models(make_members(), "sX")
    floor = SLA(id="impossible", kind=KIND_THROUGHPUT_FLOOR, bound=1e9)
    with pytest.raises(InfeasibleSLAError) as err:
        optimize_stratum(models, floor)
    assert err.value.stratum_id == "sX"
    assert err.value.sla_id == "impossible"
    assert "no candidate satisfies the floor" in err.value.reason
    assert "candidates checked" in str(err.value)


# -- parameter table ------------------------------------------------------------


def test_param_table_build_lookup_and_roundtrip():
    models = {"sA": fit_stratum_models(make_members(), "sA")}
    slas = [SLA.max_throughput(), SLA(id="impossible", kind=KIND_THROUGHPUT_FLOOR, bound=1e9)]
    table = build_param_table(models, slas)
    ok = table.lookup("sA", "max-tput")
    assert ok.params == optimize_stratum(models["sA"], slas[0]).params
    with pytest.raises(InfeasibleSLAError):
        table.lookup("sA", "impossible")
    with pytest.raises(KeyError, match="no table row"):
        table.lookup("sB", "max-tput")
    back = ParamTable.from_dict(table.as_dict())
    assert back.lookup("sA", "max-tput").params == ok.params


def test_param_table_rejects_duplicate_sla_ids():
    models = {"sA": fit_stratum_models(make_members(), "sA")}
    dup = [SLA.max_throughput(), SLA(id="max-tput", kind=KIND_ENERGY_CAP, bound=10.0)]
    with pytest.raises(SLAError, match="duplicate sla ids"):
        build_param_table(models, dup)


def row_by_row_rows(models_by_stratum, slas):
    # the table as it was built: one optimize_stratum call, and so one
    # lattice evaluation, per (stratum, SLA)
    rows = {}
    for sid in sorted(models_by_stratum):
        rows[sid] = {}
        for sla in slas:
            try:
                res = optimize_stratum(models_by_stratum[sid], sla)
                rows[sid][sla.id] = {"status": "ok", "result": res.as_dict()}
            except InfeasibleSLAError as exc:
                rows[sid][sla.id] = {"status": "infeasible", "reason": exc.reason}
    return rows


def assert_table_is_row_by_row(models_by_stratum, slas):
    table = build_param_table(models_by_stratum, slas)
    want = row_by_row_rows(models_by_stratum, slas)
    assert table.rows == want
    assert json.dumps(table.rows, sort_keys=True) == json.dumps(want, sort_keys=True)
    return [row["status"] for rows in want.values() for row in rows.values()]


TABLE_SLAS = [*BENCH_SLAS, SLA(id="impossible", kind=KIND_THROUGHPUT_FLOOR, bound=1e9)]


def test_one_pass_table_equals_row_by_row_on_a_noisy_multiroute_corpus():
    specs = [ENDPOINTS[n] for n in ("chameleon", "cloudlab", "intercloud")]
    corpus = generate_training_logs(specs=specs, noise=0.02, seed=5)
    models, _ = fit_all_strata(corpus, stratify(corpus, StratifyConfig()),
                               with_holdout=False)
    assert len(models) > 3
    statuses = assert_table_is_row_by_row(models, TABLE_SLAS)
    # the 1 Gbps routes miss the 3 Gbps floor, nothing meets the 1e9 floor
    assert statuses.count("infeasible") > len(models)
    assert "ok" in statuses


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_table_equals_row_by_row_on_ragged_logs(seed):
    rng = np.random.default_rng(seed)
    models = {}
    while len(models) < 3:
        axes = random_axes(rng)
        try:
            sid = f"r{len(models)}"
            models[sid] = fit_stratum_models(
                case_members(axes, int(rng.integers(2**32)), bool(rng.integers(2)), True),
                sid)
        except SurfaceFitError:
            continue
    energy = [m.lattice_predictions()[1] for m in models.values()]
    tput = [m.lattice_predictions()[2] for m in models.values()]
    # bounds inside the strata's ranges, so cells are cut and some rows can
    # be infeasible
    slas = [*TABLE_SLAS,
            SLA(id="cap-mid", kind=KIND_ENERGY_CAP,
                bound=max(1e-9, float(np.median([np.median(e) for e in energy])))),
            SLA(id="floor-mid", kind=KIND_THROUGHPUT_FLOOR,
                bound=max(0.0, float(np.median([t.max() for t in tput]))))]
    statuses = assert_table_is_row_by_row(models, slas)
    assert "infeasible" in statuses and "ok" in statuses


def test_param_table_is_deterministic():
    models = {"sA": fit_stratum_models(make_members(), "sA")}
    slas = [SLA.max_throughput(), SLA.min_energy()]
    a = build_param_table(models, slas).as_dict()
    b = build_param_table(models, slas).as_dict()
    assert a == b
