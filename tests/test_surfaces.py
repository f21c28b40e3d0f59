"""Per-stratum surface fitting tests.

Ground truth here is a synthetic metric that is a product of one positive
factor per parameter group. The combined predictor (the three group values
over the anchor value squared) then reproduces the truth on the whole
lattice up to rounding, so absolute values, argmax and argmin all match
exhaustive search.
"""

import collections
import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfertune import (
    DatasetMeta,
    GroupModel,
    LogTable,
    NetworkMeta,
    ParamConfig,
    StratumModels,
    SurfaceFitError,
    TransferLogEntry,
    fit_stratum_models,
    rmse_holdout,
)
from xfertune.logs import PARAM_NAMES
from xfertune.spline import Spline, fit_bicubic_surface, fit_natural_spline
from xfertune.surfaces import (
    HOLDOUT_TRAIN_FRAC,
    METRICS,
    PARAM_GROUPS,
    _column_modes,
    _combine,
    _conditioning,
    _fill_grid,
    _modal_value,
    holdout_split,
)
from test_spline import assert_same_bits

DS = DatasetMeta(num_files=4, total_size_bytes=4e6, avg_file_size_bytes=1e6,
                 file_size_stddev_bytes=0.0)
NET = NetworkMeta("s", "d", 1e4, 25.0, 0.2)

AXES = {
    "cpu_num": (1, 2, 4),
    "cpu_freq_mhz": (1200, 1800, 2400),
    "cc": (1, 2, 4),
    "p": (1, 2),
    "pp": (0, 4, 8),
}


def true_energy(cfg: ParamConfig) -> float:
    core = cfg.cpu_num ** 2 + cfg.cpu_freq_mhz / 600.0 + cfg.cpu_num * cfg.cpu_freq_mhz / 2400.0
    app = 3.0 * cfg.cc + cfg.p ** 2 + 0.25 * cfg.cc * cfg.p
    pipe = 10.0 / (1.0 + cfg.pp)
    return core * app * pipe


def true_throughput(cfg: ParamConfig) -> float:
    core = 40.0 * cfg.cpu_num * cfg.cpu_freq_mhz / 2400.0
    app = 25.0 * cfg.cc / (1.0 + 0.1 * cfg.p) + 5.0 * cfg.p
    pipe = 1.0 + 0.25 * cfg.pp
    return core * app * pipe


def lattice_configs(axes=AXES):
    for combo in itertools.product(*(axes[p] for p in PARAM_NAMES)):
        yield ParamConfig(**dict(zip(PARAM_NAMES, combo)))


def make_members(axes=AXES, copies: int = 1):
    entries = []
    ts = 0
    for _ in range(copies):
        for cfg in lattice_configs(axes):
            e = true_energy(cfg)
            entries.append(TransferLogEntry(
                params=cfg, dataset=DS, network=NET,
                throughput_mbps=true_throughput(cfg), energy_joules=e,
                avg_power_watts=e / 10.0, duration_s=10.0,
                timestamp_s=float(ts)))
            ts += 1
    return entries


def test_modal_value_prefers_largest_on_ties():
    assert _modal_value([1, 1, 2, 2]) == 2
    assert _modal_value([3, 1, 3, 2]) == 3
    assert _modal_value([7]) == 7
    assert _modal_value([(1, 2), (2, 1), (1, 2), (2, 1)]) == (2, 1)
    assert _modal_value([(2, 0), (1, 9), (1, 9)]) == (1, 9)


def test_conditioning_uses_marginal_modes():
    params = LogTable.from_entries(make_members()).params
    # uniform counts on every axis: all ties, so largest value each
    modes = _column_modes(params)
    cond = _conditioning(params, ("cpu_num", "cpu_freq_mhz"), modes)
    assert cond == {"cc": 4, "p": 2, "pp": 8}
    cond = _conditioning(params, ("pp",), modes)
    assert cond == {"cpu_num": 4, "cpu_freq_mhz": 2400, "cc": 4, "p": 2}


def test_conditioning_falls_back_to_joint_tuple():
    # marginal modes (cc=2, p=2, pp=4) name a tuple nobody logged
    combos = [(1, 2, 0), (2, 1, 4)]
    members = []
    for i, (cc, p, pp) in enumerate(combos * 2):
        cfg = ParamConfig(1, 1200, cc, p, pp)
        members.append(TransferLogEntry(
            params=cfg, dataset=DS, network=NET, throughput_mbps=1.0,
            energy_joules=1.0, avg_power_watts=1.0, duration_s=1.0,
            timestamp_s=float(i)))
    params = LogTable.from_entries(members).params
    cond = _conditioning(params, ("cpu_num", "cpu_freq_mhz"), _column_modes(params))
    assert cond == {"cc": 2, "p": 1, "pp": 4}
    assert all(type(v) is int for v in cond.values())


def test_fit_reproduces_conditioning_slices_exactly():
    members = make_members()
    models = fit_stratum_models(members, "sX")
    assert models.entry_count == len(members)
    for g in models.groups:
        on_slice = legacy_slice_members(members, g.conditioning)
        assert on_slice
        values = g.values_at(LogTable.from_entries(on_slice).params)
        for metric, got in zip(METRICS, values):
            want = [getattr(e, metric) for e in on_slice]
            assert got.tolist() == pytest.approx(want, rel=1e-9)


def test_combined_predictor_reproduces_separable_truth():
    models = fit_stratum_models(make_members(), "sX")
    axes, energy, throughput = models.lattice_predictions()
    assert axes == AXES
    for cfg, e, t in zip(lattice_configs(), energy.ravel(), throughput.ravel()):
        assert e == pytest.approx(true_energy(cfg), rel=1e-9)
        assert t == pytest.approx(true_throughput(cfg), rel=1e-9)


def test_predictor_extrema_match_exhaustive_truth():
    members = make_members()
    models = fit_stratum_models(members, "sX")
    cfgs = list(lattice_configs())
    assert min(cfgs, key=models.predict_energy) == min(cfgs, key=true_energy)
    assert max(cfgs, key=models.predict_throughput) == max(cfgs, key=true_throughput)


def test_predict_is_the_group_product_over_the_anchor_squared():
    models = fit_stratum_models(make_members(), "sX")
    # every slice is conditioned on the largest values: they cross there
    anchor = ParamConfig(4, 2400, 4, 2, 8)
    assert [{**g.conditioning, **{p: anchor.get(p) for p in g.params}}
            for g in models.groups] == [anchor.as_dict()] * 3
    assert models.anchor.tolist() == pytest.approx(
        [true_energy(anchor), true_throughput(anchor)], rel=1e-12)
    cfg = ParamConfig(2, 1800, 2, 1, 4)
    core, app, pipe = (m.value(cfg) for m in per_metric(models).energy)
    want = core * app * pipe / models.anchor[0] ** 2
    assert models.predict_energy(cfg) == pytest.approx(want, rel=1e-12)


def test_lattice_predictions_are_the_anchored_product_of_the_group_grids(models):
    # every lattice configuration sits on a knot of each group, where the
    # spline returns its grid value bit for bit, and so does the anchor
    for m in models.values():
        axes = m.lattice_axes()
        core, _, pipe = m.groups
        (pp_knots,) = pipe.spline.knots
        anchor = pipe.spline.grid[:, pp_knots.tolist().index(core.conditioning["pp"])]
        assert_same_bits(m.anchor, anchor)
        parts = [g.spline.grid.reshape(len(METRICS), *(len(axes[p]) if p in g.params else 1
                                                       for p in PARAM_NAMES))
                 for g in m.groups]
        want = _combine(parts, anchor.reshape(-1, *(1,) * len(PARAM_NAMES)))
        assert_same_bits(np.stack(m.lattice_predictions()[1:]), want)


def test_default_corpus_predictions_are_close_to_the_logged_values(corpus, strata, models):
    # the simulator's throughput is a min() of caps, not a product of one
    # factor per group, so only the median error is held to a tight bound
    table = LogTable.from_entries(corpus)
    rel = []
    for s in strata:
        members = table.take(s.members)
        axes, energy, throughput = models[s.id].lattice_predictions()
        cell = tuple(np.searchsorted(axes[p], members.params[:, j])
                     for j, p in enumerate(PARAM_NAMES))
        assert np.array_equal(np.column_stack([np.asarray(axes[p])[i] for p, i in
                                               zip(PARAM_NAMES, cell)]), members.params)
        ratio = np.stack([energy[cell] / members.energy_joules,
                          throughput[cell] / members.throughput_mbps])
        rel.append(np.abs(ratio - 1.0))
    median_energy, median_throughput = np.median(np.concatenate(rel, axis=1), axis=1)
    assert median_energy < 0.05 and median_throughput < 0.02


def test_axis_values_and_lattice_axes():
    models = fit_stratum_models(make_members(), "sX")
    for name, axis in AXES.items():
        assert models.axis_values(name) == axis
    assert models.lattice_axes() == AXES
    with pytest.raises(SurfaceFitError, match="unknown parameter"):
        models.axis_values("window")


def assert_same_stratum_models(got: StratumModels, want: StratumModels):
    """Equal bit for bit: every group's knots, grids and coefficients, and
    the predictions on the whole lattice."""
    assert (got.stratum_id, got.entry_count) == (want.stratum_id, want.entry_count)
    assert_same_bits(got.anchor, want.anchor)
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        assert (g.params, g.conditioning) == (w.params, w.conditioning)
        assert len(g.spline.grid) == len(g.spline.coeffs) == len(w.spline.grid) == len(METRICS)
        for a, b in zip(g.spline.knots + (g.spline.grid, g.spline.coeffs),
                        w.spline.knots + (w.spline.grid, w.spline.coeffs)):
            assert_same_bits(a, b)
    (got_axes, *got_arrays), (want_axes, *want_arrays) = (
        got.lattice_predictions(), want.lattice_predictions())
    assert got_axes == want_axes
    for a, b in zip(got_arrays, want_arrays):
        assert_same_bits(a, b)


def reloaded(models: StratumModels) -> StratumModels:
    """models through the artifact's JSON text and back."""
    return StratumModels.from_dict(json.loads(json.dumps(models.as_dict())))


def test_models_roundtrip_through_dict():
    models = fit_stratum_models(make_members(), "sX")
    back = reloaded(models)
    assert_same_stratum_models(back, models)
    for cfg in list(lattice_configs())[::7]:
        assert back.predict_energy(cfg) == models.predict_energy(cfg)
        assert back.predict_throughput(cfg) == models.predict_throughput(cfg)


def test_models_dict_stores_grids_not_coefficients():
    models = fit_stratum_models(make_members(), "sX")
    doc = models.as_dict()
    assert set(doc) == {"stratum_id", "groups", "entry_count"}
    assert list(doc["groups"]) == ["cpu_num+cpu_freq_mhz", "cc+p", "pp"]
    for group, m in zip(PARAM_GROUPS, models.groups):
        g = doc["groups"]["+".join(group)]
        assert set(g) == {"conditioning", "knots", *METRICS}
        assert g["conditioning"] == m.conditioning
        assert g["knots"] == [list(map(float, AXES[p])) for p in group]
        assert g["energy_joules"] == m.spline.grid[0].tolist()
        assert g["throughput_mbps"] == m.spline.grid[1].tolist()


@pytest.mark.parametrize("label,edit,message", [
    ("cc+p", lambda g: g["knots"][0].reverse(), "xs: knots must be strictly increasing"),
    ("pp", lambda g: g["knots"][0].reverse(), "x: knots must be strictly increasing"),
    ("cc+p", lambda g: g["energy_joules"][1].__setitem__(0, math.nan),
     "grid values must be finite"),
    ("pp", lambda g: g["throughput_mbps"].__setitem__(0, math.inf),
     "y values must be finite"),
    ("cc+p", lambda g: g.update(energy_joules=g["energy_joules"][:-1],
                                throughput_mbps=g["throughput_mbps"][:-1]),
     r"grid must have shape \(len\(xs\), len\(ys\)\)"),
    ("cc+p", lambda g: g["energy_joules"].pop(), "inhomogeneous"),
    ("pp", lambda g: g["knots"].append([1.0, 2.0]), "want 1 knot axes and 1-D grids"),
    ("cpu_num+cpu_freq_mhz", lambda g: g.update(knots=[[1.0, 2.0]]),
     "want 2 knot axes and 2-D grids"),
    ("pp", lambda g: g["knots"][0].__setitem__(0, "low"), "could not convert"),
    ("cc+p", lambda g: g["knots"][1].__setitem__(0, True), "knots holds true or false"),
    ("pp", lambda g: g["energy_joules"].__setitem__(0, True),
     "energy_joules holds true or false"),
    ("cpu_num+cpu_freq_mhz", lambda g: g["throughput_mbps"][1].__setitem__(1, False),
     "throughput_mbps holds true or false"),
    # knots that are not parameter values: the fit takes them, the lattice
    # would hold a negative pp or repeat a configuration (cc 1.3 -> 1)
    ("pp", lambda g: g.update(knots=[[-4.0, 4.0, 8.0]]),
     r"pp knots \[-4\.0, 4\.0, 8\.0\] are not all integers in \[0, 2\*\*63\)$"),
    ("cc+p", lambda g: g["knots"][0].__setitem__(1, 1.3),
     r"cc knots \[1\.0, 1\.3, 4\.0\] are not all integers in \[1, 2\*\*63\)$"),
    ("cpu_num+cpu_freq_mhz", lambda g: g["knots"][0].__setitem__(0, 0.0),
     r"cpu_num knots \[0\.0, 2\.0, 4\.0\] are not all integers in \[1, 2\*\*63\)$"),
    ("cpu_num+cpu_freq_mhz", lambda g: g["knots"][1].__setitem__(2, 2.0 ** 63),
     r"cpu_freq_mhz knots \[1200\.0, 1800\.0, 9\.223372036854776e\+18\] "
     r"are not all integers in \[1, 2\*\*63\)$"),
    ("pp", lambda g: g["knots"][0].__setitem__(2, math.inf),
     r"pp knots \[0\.0, 4\.0, inf\] are not all integers in \[0, 2\*\*63\)$"),
    ("pp", lambda g: g["knots"][0].__setitem__(2, math.nan),
     r"pp knots \[0\.0, 4\.0, nan\] are not all integers in \[0, 2\*\*63\)$"),
], ids=["reversed-xs", "reversed-knots", "nan-grid", "inf-values", "short-grids",
        "ragged-grids", "extra-axis", "missing-axis", "text-knot", "true-knot",
        "true-pp-energy", "false-grid", "negative-pp-knot", "fractional-cc-knot",
        "zero-cpu-knot", "knot-past-int64", "inf-knot", "nan-knot"])
def test_models_dict_with_knots_or_grids_the_fit_cannot_take_is_refused(
        label, edit, message):
    doc = fit_stratum_models(make_members(), "sX").as_dict()
    edit(doc["groups"][label])
    with pytest.raises(SurfaceFitError, match=f"^stratum sX: group {re.escape(label)}: "
                                              f".*{message}"):
        StratumModels.from_dict(doc)


def test_fill_grid_interpolates_then_extends():
    g = np.array([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]])
    filled = _fill_grid(g)
    assert filled[0, 1] == pytest.approx(2.0)
    # edge NaN takes the nearest known value along its row
    g = np.array([[np.nan, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert _fill_grid(g)[0, 0] == pytest.approx(2.0)


def test_fill_grid_crosses_axes_and_falls_back_to_mean():
    # an all-NaN row is recovered from its columns
    g = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, 6.0]])
    filled = _fill_grid(g)
    assert filled[1, 0] == pytest.approx(2.0)
    assert filled[1, 1] == pytest.approx(4.0)
    # a single observation stalls interpolation; known mean fills the rest
    g = np.array([[1.0, np.nan], [np.nan, np.nan]])
    assert np.allclose(_fill_grid(g), 1.0)
    with pytest.raises(SurfaceFitError):
        _fill_grid(np.full((2, 2), np.nan))


def test_fit_requires_two_distinct_values_per_axis():
    axes = dict(AXES)
    axes["cc"] = (4,)
    with pytest.raises(SurfaceFitError, match="insufficient distinct cc values"):
        fit_stratum_models(make_members(axes), "sX")
    with pytest.raises(SurfaceFitError, match="no entries to fit"):
        fit_stratum_models([], "sX")


def test_holdout_split_is_stratified_per_tuple():
    members = make_members(copies=3)
    train, test = holdout_split(members, seed=5)
    assert len(train) + len(test) == len(members)
    key = lambda e: tuple(e.params.get(p) for p in PARAM_NAMES)
    train_keys = {}
    for e in train:
        train_keys[key(e)] = train_keys.get(key(e), 0) + 1
    test_keys = {}
    for e in test:
        test_keys[key(e)] = test_keys.get(key(e), 0) + 1
    # 3 copies per tuple: floor(0.7 * 3) = 2 to train, 1 held out
    assert set(train_keys.values()) == {2}
    assert set(test_keys.values()) == {1}
    # identity, not just counts: no entry lands on both sides
    train_ts = {e.timestamp_s for e in train}
    test_ts = {e.timestamp_s for e in test}
    assert not train_ts & test_ts
    assert len(train_ts | test_ts) == len(members)


def test_holdout_split_is_seed_deterministic():
    members = make_members(copies=2)
    a = holdout_split(members, seed=1)
    b = holdout_split(members, seed=1)
    assert [e.timestamp_s for e in a[0]] == [e.timestamp_s for e in b[0]]
    c = holdout_split(members, seed=2)
    assert [e.timestamp_s for e in a[0]] != [e.timestamp_s for e in c[0]]


def test_single_sweep_holdout_has_no_test_entries():
    report = rmse_holdout(make_members())
    assert report == {"energy_rmse": None, "throughput_rmse": None,
                      "train_count": len(make_members()), "test_count": 0}


def test_duplicate_sweeps_give_zero_holdout_rmse():
    members = make_members(copies=2)
    report = rmse_holdout(members, seed=3)
    assert report["test_count"] > 0
    for metric, key in zip(METRICS, ("energy_rmse", "throughput_rmse")):
        mean = np.mean([getattr(e, metric) for e in members])
        assert report[key] < 1e-9 * mean


def test_insufficient_train_coverage_is_reported():
    axes = dict(AXES)
    axes["p"] = (2,)
    with pytest.raises(SurfaceFitError, match="insufficient train coverage"):
        rmse_holdout(make_members(axes, copies=2))


def test_group_layout():
    assert PARAM_GROUPS == (("cpu_num", "cpu_freq_mhz"), ("cc", "p"), ("pp",))
    models = fit_stratum_models(make_members(), "sX")
    assert [g.label for g in models.groups] == ["cpu_num+cpu_freq_mhz", "cc+p", "pp"]


# -- per-metric group models and the scalar prediction they replaced ----------
#
# Test-only oracles: a group model per (metric, group) pair, evaluated one
# configuration at a time, and a prediction that combines a metric's three
# group values as Python floats, core * (app / anchor) * (pipe / anchor) with
# the anchor the pp model at the core group's conditioning pp, as the models
# were before a group held both metrics and every prediction went through
# StratumModels.predict.


@dataclass(frozen=True)
class LegacyGroupModel:
    params: tuple
    conditioning: dict
    metric: str
    model: Spline                # one metric's spline over the group

    @property
    def label(self) -> str:
        return "+".join(self.params)

    def value(self, cfg: ParamConfig) -> float:
        return self.model(*(cfg.get(p) for p in self.params))


def legacy_anchor(group_models) -> float:
    core, _, pipe = group_models
    return pipe.model(core.conditioning["pp"])


def legacy_combine(group_models, cfg: ParamConfig) -> float:
    core, app, pipe = (m.value(cfg) for m in group_models)
    anchor = legacy_anchor(group_models)
    return core * (app / anchor) * (pipe / anchor)


@dataclass(frozen=True)
class LegacyStratumModels:
    energy: tuple
    throughput: tuple

    def predict_energy(self, cfg: ParamConfig) -> float:
        return legacy_combine(self.energy, cfg)

    def predict_throughput(self, cfg: ParamConfig) -> float:
        return legacy_combine(self.throughput, cfg)


def per_metric(models: StratumModels) -> LegacyStratumModels:
    """The fitted models as per-metric group models: each metric's grid of
    a group fitted on its own, not as a row of the group's stack."""
    def alone(g: GroupModel, k: int):
        fit = fit_bicubic_surface if len(g.params) == 2 else fit_natural_spline
        return fit(*g.spline.knots, g.spline.grid[k])

    energy, throughput = (
        tuple(LegacyGroupModel(g.params, g.conditioning, metric, alone(g, k))
              for g in models.groups)
        for k, metric in enumerate(METRICS))
    return LegacyStratumModels(energy, throughput)


# -- the per-metric fit that one-pass group grids replaced --------------------
#
# Test-only oracle: the fit as it was before each group's slice and grids
# were shared by both metrics. Every (metric, group) pair picks its own
# conditioning, filters its own slice and builds its own grid, 1-D cells as
# the plain left-to-right sum of their observations over their count (what
# builtin sum() computes up to Python 3.11), 2-D cells through total/count
# arrays.


def legacy_modal_value(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return max(v for v, c in counts.items() if c == best)


def legacy_slice_members(members, cond):
    return [e for e in members
            if all(e.params.get(p) == v for p, v in cond.items())]


def legacy_conditioning(members, group):
    others = [p for p in PARAM_NAMES if p not in group]
    cond = {p: legacy_modal_value([e.params.get(p) for e in members]) for p in others}
    if any(all(e.params.get(p) == v for p, v in cond.items()) for e in members):
        return cond
    tuples = [tuple(e.params.get(p) for p in others) for e in members]
    return dict(zip(others, legacy_modal_value(tuples)))


def legacy_grid_2d(slice_members, xname, yname, metric):
    xs = sorted({e.params.get(xname) for e in slice_members})
    ys = sorted({e.params.get(yname) for e in slice_members})
    if len(xs) < 2:
        raise SurfaceFitError(f"insufficient distinct {xname} values in conditioning slice")
    if len(ys) < 2:
        raise SurfaceFitError(f"insufficient distinct {yname} values in conditioning slice")
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    total = np.zeros((len(xs), len(ys)))
    count = np.zeros((len(xs), len(ys)))
    for e in slice_members:
        i, j = xi[e.params.get(xname)], yi[e.params.get(yname)]
        total[i, j] += getattr(e, metric)
        count[i, j] += 1
    with np.errstate(invalid="ignore"):
        grid = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return np.array(xs, dtype=float), np.array(ys, dtype=float), _fill_grid(grid)


def legacy_grid_1d(slice_members, name, metric):
    xs = sorted({e.params.get(name) for e in slice_members})
    if len(xs) < 2:
        raise SurfaceFitError(f"insufficient distinct {name} values in conditioning slice")
    vals = []
    for v in xs:
        obs = [getattr(e, metric) for e in slice_members if e.params.get(name) == v]
        vals.append(functools.reduce(operator.add, obs, 0) / len(obs))
    return np.array(xs, dtype=float), np.array(vals)


def legacy_fit_stratum_models(members, stratum_id):
    if not members:
        raise SurfaceFitError("no entries to fit")
    by_metric = {}
    for metric in METRICS:
        models = []
        for group in PARAM_GROUPS:
            cond = legacy_conditioning(members, group)
            sl = legacy_slice_members(members, cond)
            if len(group) == 2:
                xs, ys, grid = legacy_grid_2d(sl, group[0], group[1], metric)
                model = fit_bicubic_surface(xs, ys, grid)
            else:
                xs, vals = legacy_grid_1d(sl, group[0], metric)
                model = fit_natural_spline(xs, vals)
            models.append(LegacyGroupModel(params=group, conditioning=cond,
                                           metric=metric, model=model))
        by_metric[metric] = tuple(models)
    for metric, group_models in by_metric.items():
        anchor = float(legacy_anchor(group_models))
        if not (math.isfinite(anchor) and anchor > 0.0):
            raise SurfaceFitError(f"stratum {stratum_id}: the anchor's {metric} "
                                  f"is {anchor!r}, not a positive finite number")
    return LegacyStratumModels(energy=by_metric["energy_joules"],
                               throughput=by_metric["throughput_mbps"])


PARAM_POOLS = {
    "cpu_num": (1, 2, 4, 8),
    "cpu_freq_mhz": (1200, 1800, 2300),
    "cc": (1, 4, 8, 16),
    "p": (1, 4, 8),
    "pp": (0, 4, 8),
}


def random_entries(configs, rng):
    """One entry per configuration with metrics of mixed magnitude, so a
    cell mean depends on the order its observations are summed in."""
    entries = []
    for i, cfg in enumerate(configs):
        e = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-2, 6))
        t = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-2, 5))
        entries.append(TransferLogEntry(
            params=cfg, dataset=DS, network=NET, throughput_mbps=t,
            energy_joules=e, avg_power_watts=e / 10.0, duration_s=10.0,
            timestamp_s=float(i)))
    return [entries[i] for i in rng.permutation(len(entries))]


def sweep(fixed: dict, group, axes, copies=1, skip=()):
    """Configurations varying one group over its grid, the other parameters
    at fixed values, each logged copies times; cells in skip are not."""
    return [ParamConfig(**fixed, **dict(zip(group, combo)))
            for combo in itertools.product(*(axes[p] for p in group))
            if combo not in skip for _ in range(copies)]


@st.composite
def ragged_member_sets(draw):
    """Sweeps around one to three anchor configurations, a drawn share of
    every sweep's cells dropped, in shuffled order.

    Every group is swept once or twice, each time around a drawn anchor, so
    a group's conditioning can be any anchor's values. Dropped cells leave
    holes for _fill_grid to fill, or empty an axis of a slice altogether.
    """
    axes = {p: sorted(draw(st.sets(st.sampled_from(pool), min_size=2, max_size=3)))
            for p, pool in PARAM_POOLS.items()}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drop = draw(st.sampled_from((0.0, 0.1, 0.25)))
    anchors = [{p: draw(st.sampled_from(axes[p])) for p in PARAM_NAMES}
               for _ in range(draw(st.integers(1, 3)))]
    configs = []
    for group in PARAM_GROUPS:
        for _ in range(draw(st.integers(1, 2))):
            anchor = draw(st.sampled_from(anchors))
            fixed = {p: v for p, v in anchor.items() if p not in group}
            configs += [cfg for cfg in sweep(fixed, group, axes, draw(st.integers(1, 2)))
                        if rng.random() >= drop]
    return random_entries(configs, rng)


@st.composite
def fallback_member_sets(draw):
    """A log built so that the pp group's conditioning falls back to the
    most frequent joint tuple while every group can still fit.

    Two pp sweeps of equal weight sit at (cpu_num, cpu_freq_mhz, cc, p)
    tuples a and b. The (cpu_num, cpu_freq_mhz) sweep holds cc, p at a's
    values and the (cc, p) sweep holds cpu_num, cpu_freq_mhz at b's, which
    tilts the marginal modes toward b's cpu pair with a's (cc, p) pair; each
    of those two sweeps misses the one cell that would log that tuple, which
    also leaves a hole in each 2-D grid.
    """
    axes = {p: sorted(draw(st.sets(st.sampled_from(pool), min_size=2, max_size=3)))
            for p, pool in PARAM_POOLS.items()}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core, app = PARAM_GROUPS[0], PARAM_GROUPS[1]
    pairs = {g: draw(st.lists(st.tuples(*(st.sampled_from(axes[p]) for p in g)),
                              min_size=2, max_size=2, unique=True))
             for g in (core, app)}
    a = {**dict(zip(core, pairs[core][0])), **dict(zip(app, pairs[app][0]))}
    b = {**dict(zip(core, pairs[core][1])), **dict(zip(app, pairs[app][1]))}
    pp = draw(st.sampled_from(axes["pp"]))
    copies = draw(st.integers(1, 2))
    configs = (sweep(a, ("pp",), axes, copies) + sweep(b, ("pp",), axes, copies)
               + sweep({**{p: a[p] for p in app}, "pp": pp}, core, axes,
                       skip={pairs[core][1]})
               + sweep({**{p: b[p] for p in core}, "pp": pp}, app, axes,
                       skip={pairs[app][0]}))
    return random_entries(configs, rng)


def assert_same_group_model(got: GroupModel, want: tuple):
    """got equals want, its per-metric models in METRICS order, bit for bit:
    row k of got's stacked spline is want[k]'s model."""
    assert [w.metric for w in want] == list(METRICS)
    spline = got.spline
    assert len(spline.coeffs) == len(want)
    for k, w in enumerate(want):
        assert (got.params, got.conditioning) == (w.params, w.conditioning)
        pairs = [*zip(spline.knots, w.model.knots), (spline.grid[k], w.model.grid),
                 (spline.coeffs[k], w.model.coeffs)]
        for a, b in pairs:
            assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(members=st.one_of(ragged_member_sets(), fallback_member_sets()))
def test_fit_matches_legacy_per_metric_fit(members):
    table = LogTable.from_entries(members)
    try:
        want = legacy_fit_stratum_models(members, "h")
    except SurfaceFitError as exc:
        with pytest.raises(SurfaceFitError) as got:
            fit_stratum_models(table, "h")
        assert str(got.value) == str(exc)
        return
    got = fit_stratum_models(table, "h")
    assert len(got.groups) == len(want.energy) == len(want.throughput)
    for g, pair in zip(got.groups, zip(want.energy, want.throughput)):
        assert_same_group_model(g, pair)
    assert got.entry_count == len(members)
    assert got.anchor.tolist() == [legacy_anchor(want.energy), legacy_anchor(want.throughput)]
    # loading the stored models gives the fitted models back
    assert_same_stratum_models(reloaded(got), got)


OFF_KNOT_CONFIGS = st.builds(
    ParamConfig, cpu_num=st.integers(1, 12), cpu_freq_mhz=st.integers(1000, 2600),
    cc=st.integers(1, 20), p=st.integers(1, 10), pp=st.integers(0, 12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(members=st.one_of(ragged_member_sets(), fallback_member_sets()),
       configs=st.lists(OFF_KNOT_CONFIGS, min_size=1, max_size=20))
def test_predictions_match_the_per_metric_anchored_product(members, configs):
    # every lattice cell, and configurations between and beyond the knots
    try:
        models = fit_stratum_models(LogTable.from_entries(members), "h")
    except SurfaceFitError:
        return
    want = per_metric(models)
    axes, energy, throughput = models.lattice_predictions()
    cells = list(itertools.product(*(range(len(axes[p])) for p in PARAM_NAMES)))
    for k, index in enumerate(cells):
        cfg = ParamConfig(*(axes[p][i] for p, i in zip(PARAM_NAMES, index)))
        if k % 8 == 0:
            configs.append(cfg)
        assert energy[index] == want.predict_energy(cfg)
        assert throughput[index] == want.predict_throughput(cfg)
    for cfg in configs:
        got = (models.predict_energy(cfg), models.predict_throughput(cfg))
        assert tuple(map(type, got)) == (float, float)
        assert got == (want.predict_energy(cfg), want.predict_throughput(cfg))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(members=st.one_of(ragged_member_sets(), fallback_member_sets()),
       configs=st.lists(OFF_KNOT_CONFIGS, max_size=20), data=st.data())
def test_predict_rows_equal_single_configurations_and_lattice_cells(members, configs, data):
    # a row's prediction does not depend on the rows around it: lattice rows
    # and rows between and beyond the knots, mixed in one array
    try:
        models = fit_stratum_models(LogTable.from_entries(members), "h")
    except SurfaceFitError:
        return
    axes, energy, throughput = models.lattice_predictions()
    cells = data.draw(st.lists(st.tuples(*(st.integers(0, len(axes[p]) - 1)
                                           for p in PARAM_NAMES)), min_size=1, max_size=20))
    rows = [[cfg.get(p) for p in PARAM_NAMES] for cfg in configs]
    rows += [[axes[p][i] for p, i in zip(PARAM_NAMES, index)] for index in cells]
    order = data.draw(st.permutations(range(len(rows))))
    params = np.array([rows[k] for k in order], dtype=np.int64)
    got = models.predict(params)
    assert got.shape == (len(METRICS), len(rows))
    singles = [ParamConfig(*row) for row in params.tolist()]
    assert_same_bits(got, np.array([[models.predict_energy(cfg) for cfg in singles],
                                    [models.predict_throughput(cfg) for cfg in singles]]))
    for k, pos in enumerate(order):
        if pos >= len(configs):
            index = cells[pos - len(configs)]
            assert_same_bits(got[:, k], np.array([energy[index], throughput[index]]))



# -- holdout -------------------------------------------------------------------


def param_key(e):
    return tuple(e.params.get(p) for p in PARAM_NAMES)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(members=st.one_of(ragged_member_sets(), fallback_member_sets()),
       seed=st.integers(0, 3))
def test_holdout_split_trains_on_the_share_of_every_tuple(members, seed):
    train, test = holdout_split(LogTable.from_entries(members), seed=seed)
    # a partition of the rows, each side in log order
    position = {e.timestamp_s: i for i, e in enumerate(members)}
    got = [[position[e.timestamp_s] for e in side] for side in (train, test)]
    assert all(side == sorted(side) for side in got)
    assert sorted(got[0] + got[1]) == list(range(len(members)))
    logged = collections.Counter(map(param_key, members))
    trained = collections.Counter(map(param_key, train))
    assert trained == {key: max(1, math.floor(HOLDOUT_TRAIN_FRAC * n))
                       for key, n in logged.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(members=st.one_of(ragged_member_sets(), fallback_member_sets()),
       seed=st.integers(0, 3))
def test_holdout_rmse_scores_the_combined_predictor_on_every_held_out_row(members, seed):
    table = LogTable.from_entries(members)
    train, test = holdout_split(table, seed=seed)
    try:
        models = legacy_fit_stratum_models(list(train), "")
    except SurfaceFitError as exc:
        with pytest.raises(SurfaceFitError) as got:
            rmse_holdout(table, seed=seed)
        assert str(got.value) == f"insufficient train coverage: {exc}"
        return
    report = rmse_holdout(table, seed=seed)
    assert (report["train_count"], report["test_count"]) == (len(train), len(test))
    for key, predict, metric in (("energy_rmse", models.predict_energy, "energy_joules"),
                                 ("throughput_rmse", models.predict_throughput,
                                  "throughput_mbps")):
        errs = [predict(e.params) - getattr(e, metric) for e in test]
        if not errs:
            assert report[key] is None
            continue
        want = math.sqrt(math.fsum(d * d for d in errs) / len(errs))
        assert report[key] == pytest.approx(want, rel=1e-9)


def per_group_conditioning(params, group):
    # the conditioning as it was: each group counts the modes of its own
    # other columns, here by the counting oracle
    others = [j for j, p in enumerate(PARAM_NAMES) if p not in group]
    names = [PARAM_NAMES[j] for j in others]
    cond = {PARAM_NAMES[j]: legacy_modal_value(params[:, j].tolist()) for j in others}
    if not (params[:, others] == list(cond.values())).all(axis=1).any():
        rows = [tuple(r) for r in params[:, others].tolist()]
        cond = dict(zip(names, legacy_modal_value(rows)))
    return cond


def test_modes_counted_once_give_the_per_group_conditioning():
    rng = np.random.default_rng(7)
    fallbacks = 0
    for _ in range(300):
        # few rows over few values: ragged logs whose marginal modes often
        # name a tuple nobody logged
        n = int(rng.integers(1, 12))
        params = np.column_stack([rng.choice(AXES[p], size=n) for p in PARAM_NAMES])
        modes = _column_modes(params)
        for group in PARAM_GROUPS:
            want = per_group_conditioning(params, group)
            got = _conditioning(params, group, modes)
            assert got == want
            assert all(type(v) is int for v in got.values())
            fallbacks += got != {p: modes[p] for p in got}
    assert fallbacks > 0
