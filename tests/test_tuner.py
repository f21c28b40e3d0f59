"""Online tuner tests.

The decision branches are pinned by hand-computed traces: class state is
set directly, one sample is fed through tick(), and the resulting action,
trigger flag and state updates are asserted against arithmetic done by
hand (EWMA weight 0.5, alpha = beta = 0.1).
"""

import dataclasses
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xfertune import (
    SLA,
    EndpointFailure,
    MonitorSample,
    OnlineTuner,
    ParamConfig,
    SimEndpoint,
    StratifyConfig,
    TunerError,
    cluster_files,
    compare_policies,
    optimize_all,
    stratify,
)
from xfertune import pipeline
from xfertune.optimizer import KIND_ENERGY_CAP, KIND_THROUGHPUT_FLOOR
from xfertune.simulator import (DATASET_CLASSES, ENDPOINTS, LoadScenario, SimulationError,
                                power_above_base_watts, throughput_mbps)
from xfertune.logs import DatasetMeta
from xfertune.pipeline import _class_sizes
from xfertune.tuner import (
    ALPHA,
    BETA,
    EWMA_WEIGHT,
    FILE_CLASSES,
    MIB,
    SWITCH_CAP,
    FixedController,
    TickResult,
    dataset_meta_for,
    run_transfer,
    select_loop,
)

SMALL_FILES = DATASET_CLASSES["small"].num_files


def sample(dt=1.0, tput=800.0, power=750.0, load=0.5, moved=0.0):
    return MonitorSample(dt_s=dt, throughput_mbps=tput, power_watts=power,
                         ext_load=load, rtt_ms=32.0, bytes_moved=moved)


@pytest.fixture(scope="module")
def wide_table(models):
    slas = [SLA.max_throughput(), SLA.min_energy(),
            SLA(id="cap", kind=KIND_ENERGY_CAP, bound=4300.0),
            SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR, bound=500.0)]
    return optimize_all(models, slas)


@pytest.fixture(scope="module")
def small_siblings(corpus, strata):
    sibs = [s for s in strata
            if corpus[s.members[0]].dataset.num_files == SMALL_FILES]
    assert len(sibs) == 3
    return sorted(sibs, key=lambda s: s.ext_load_interval)


def make_tuner(strata, wide_table, models, sla, stratum, stratify_config):
    tuner = OnlineTuner(strata, wide_table, models, sla, config=stratify_config)
    tuner.start_transfer(1e9)
    tuner.stratum = stratum
    tuner.params = wide_table.lookup(stratum.id, sla.id).params
    return tuner


def prime(tuner, *, t_avg, ref_ext, past_e_pred=math.inf, history=None):
    """Mid-transfer class state as if earlier ticks had produced it."""
    st = tuner.cls
    st.t_avg = t_avg
    st.past_e_pred = past_e_pred
    st.ref_ext = ref_ext
    st.history.clear()
    st.history.extend(history if history is not None else [t_avg])


def test_select_loop_mapping():
    assert select_loop(SLA.max_throughput()) == "throughput"
    assert select_loop(SLA.min_energy()) == "energy"
    assert select_loop(SLA(id="c", kind=KIND_ENERGY_CAP, bound=100.0)) == "energy"
    assert select_loop(SLA(id="f", kind=KIND_THROUGHPUT_FLOOR, bound=100.0)) == "throughput"


def test_energy_prediction_trigger_switches_high(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.min_energy(), mid, stratify_config)
    tuner.e_consumed, tuner.elapsed_s, tuner.remaining_bytes = 3250.0, 99.0, 1e9
    prime(tuner, t_avg=800.0, ref_ext=0.4, past_e_pred=1000.0)
    # d_e = 750, p_avg = (3250 + 750) / 100 = 40, t_rem = 10 s, e_pred = 400;
    # 750 + 400 = 1150 > 1.1 * 1000, and load 0.5 > 1.1 * 0.4
    res = tuner.tick(sample())
    assert res.triggered and res.action == "switch-high"
    assert tuner.stratum.id == high.id
    assert tuner.params == wide_table.lookup(high.id, "min-energy").params
    assert tuner.switch_count == 1
    assert tuner.cls.ref_ext == 0.5       # reference re-pinned at adoption
    assert tuner.cls.past_e_pred == pytest.approx(400.0)
    assert tuner.cls.t_avg == pytest.approx(800.0)
    assert tuner.events == [{"t_s": 100.0, "event": "switch-high",
                             "stratum_id": high.id,
                             "params": tuner.params.as_dict()}]


def test_energy_trigger_without_load_shift_holds(
        strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    tuner = make_tuner(strata, wide_table, models, SLA.min_energy(), mid, stratify_config)
    tuner.e_consumed, tuner.elapsed_s, tuner.remaining_bytes = 3250.0, 99.0, 1e9
    prime(tuner, t_avg=800.0, ref_ext=0.4, past_e_pred=1000.0)
    # triggered, but load 0.42 is inside (0.9, 1.1) * ref: keep the budget
    res = tuner.tick(sample(load=0.42))
    assert res.triggered and res.action is None
    assert tuner.stratum.id == mid.id and tuner.switch_count == 0


def test_energy_quiet_tick_takes_no_action(
        strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    tuner = make_tuner(strata, wide_table, models, SLA.min_energy(), mid, stratify_config)
    tuner.e_consumed, tuner.elapsed_s, tuner.remaining_bytes = 3250.0, 99.0, 1e9
    prime(tuner, t_avg=800.0, ref_ext=0.4, past_e_pred=1200.0)
    # 1150 < 1.1 * 1200 and the load stays inside the +-10% band
    res = tuner.tick(sample(load=0.41))
    assert not res.triggered and res.action is None
    assert tuner.events == []


def test_energy_budget_exhaustion_triggers(
        strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    cap = SLA(id="cap", kind=KIND_ENERGY_CAP, bound=4300.0)
    tuner = make_tuner(strata, wide_table, models, cap, mid, stratify_config)
    assert tuner.loop == "energy" and tuner.e_sla == 4300.0
    tuner.e_consumed, tuner.elapsed_s, tuner.remaining_bytes = 3250.0, 99.0, 1e9
    # past_e_pred huge: only the remaining-budget comparison can fire
    prime(tuner, t_avg=800.0, ref_ext=0.4, past_e_pred=1e9)
    # 1150 > 4300 - 3250 = 1050
    res = tuner.tick(sample())
    assert res.triggered and res.action == "switch-high"


def test_throughput_drop_switches_high(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    prime(tuner, t_avg=1000.0, ref_ext=0.5)
    # t_avg = 0.5 * 1000 + 0.5 * 700 = 850 < 0.9 * 1000; load 0.6 > 1.1 * 0.5
    res = tuner.tick(sample(tput=700.0, load=0.6))
    assert res.triggered and res.action == "switch-high"
    assert tuner.stratum.id == high.id
    assert tuner.cls.t_avg == pytest.approx(850.0)


def test_throughput_floor_triggers_independently_of_trend(
        strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    floor = SLA(id="floor", kind=KIND_THROUGHPUT_FLOOR, bound=500.0)
    tuner = make_tuner(strata, wide_table, models, floor, mid, stratify_config)
    assert tuner.loop == "throughput" and tuner.t_sla == 500.0
    prime(tuner, t_avg=460.0, ref_ext=0.5)
    # steady trend (460 vs 0.9 * 460) but below the floor
    res = tuner.tick(sample(tput=460.0, load=0.6))
    assert res.triggered and res.action == "switch-high"


def test_load_drop_switches_low(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    prime(tuner, t_avg=1000.0, ref_ext=0.5)
    res = tuner.tick(sample(tput=1000.0, load=0.1))
    assert not res.triggered and res.action == "switch-low"
    assert tuner.stratum.id == low.id
    assert tuner.cls.ref_ext == 0.1


def test_switch_target_prefers_containing_interval(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), low, stratify_config)
    prime(tuner, t_avg=1000.0, ref_ext=0.05)
    # trigger with a load inside the middle band: must not overshoot to high
    res = tuner.tick(sample(tput=500.0, load=0.3))
    assert res.action == "switch-high"
    assert tuner.stratum.id == mid.id


def test_a_load_step_switches_to_the_band_fitted_at_the_new_load(multiroute_noisy):
    # on the multiroute-noisy models the medium class starts at load 0.1 and
    # the load steps to 0.6 at 5 s: its switch must reach the band fitted at
    # load 0.5, not one fitted at 0.35
    config = StratifyConfig()
    strata = stratify(multiroute_noisy, config)
    models, _ = pipeline.fit_all_strata(multiroute_noisy, strata, with_holdout=False)
    sla = SLA.max_throughput()
    report = pipeline.run_tuned_transfer(
        ENDPOINTS["chameleon"], LoadScenario.step(0.1, 0.6, 5.0), config, strata, models,
        optimize_all(models, [sla]), sla, interval_s=0.5)
    ends = np.cumsum([c["duration_s"] for c in report.classes])
    medium = [c["class"] for c in report.classes].index("medium")
    start = ends[medium - 1] if medium else 0.0
    (switch,) = [e for e in report.events if e["event"] == "switch-high"
                 and start <= e["t_s"] < ends[medium]]
    target = next(s for s in strata if s.id == switch["stratum_id"])
    assert target.contains_load(0.6)
    assert target.ext_load_interval == pytest.approx((0.4724744871391589, 1.0), abs=1e-12)
    assert np.median(multiroute_noisy.ext_load[list(target.members)]) == 0.5


def test_no_higher_surface_warns_and_stays(
        strata, wide_table, models, small_siblings, stratify_config):
    high = small_siblings[2]
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), high, stratify_config)
    prime(tuner, t_avg=1000.0, ref_ext=0.6)
    res = tuner.tick(sample(tput=500.0, load=0.9))
    assert res.triggered and res.action is None
    assert tuner.stratum.id == high.id and tuner.switch_count == 0
    assert tuner.warnings == [f"no higher-load surface available from {high.id}"]
    # repeated condition does not spam the warning list
    prime(tuner, t_avg=1000.0, ref_ext=0.6)
    tuner.tick(sample(tput=500.0, load=0.9))
    assert len(tuner.warnings) == 1


def test_infeasible_switch_target_warns_and_stays(
        strata, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    # a floor between the two strata's best throughputs makes exactly one
    # of them infeasible
    tmax = {}
    for s in (mid, high):
        table = optimize_all({s.id: models[s.id]}, [SLA.max_throughput()])
        tmax[s.id] = table.lookup(s.id, "max-tput").predicted_throughput
    assert tmax[mid.id] != tmax[high.id]
    bound = (tmax[mid.id] + tmax[high.id]) / 2.0
    assert bound > 0
    floor = SLA(id="tight", kind=KIND_THROUGHPUT_FLOOR, bound=bound)
    table = optimize_all(models, [floor])
    fast, slow = (mid, high) if tmax[mid.id] > tmax[high.id] else (high, mid)

    tuner = OnlineTuner(strata, table, models, floor, config=stratify_config)
    tuner.start_transfer(1e9)
    tuner.stratum = fast
    tuner.params = table.lookup(fast.id, "tight").params
    lo, hi = slow.ext_load_interval
    probe_load = (lo + min(hi, 1.0)) / 2.0
    if slow.ext_load_interval[0] > fast.ext_load_interval[0]:
        # fall below the floor while the load shifts up into the slow band
        prime(tuner, t_avg=bound + 100.0, ref_ext=probe_load / 2.0)
        res = tuner.tick(sample(tput=100.0, load=probe_load))
        assert res.triggered
    else:
        # healthy tick with the load dropping into the slow band
        prime(tuner, t_avg=bound + 100.0, ref_ext=min(1.0, probe_load * 2.0))
        res = tuner.tick(sample(tput=bound + 100.0, load=probe_load))
        assert not res.triggered
    assert res.action is None
    assert tuner.stratum.id == fast.id
    assert any("infeasible under sla tight" in w for w in tuner.warnings)


def test_switch_budget_is_capped_at_three(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    loads = [0.9, 0.05, 0.9]     # high, low, high: three attributable shifts
    for i, load in enumerate(loads):
        prime(tuner, t_avg=1000.0, ref_ext=0.4 if load > 0.4 else 0.9)
        res = tuner.tick(sample(tput=500.0 if load > 0.4 else 1000.0, load=load))
        assert res.action in ("switch-high", "switch-low")
    assert tuner.switch_count == 3
    # fourth attributable shift: budget gone, falls back to a nudge
    tuner.params = ParamConfig(4, 1800, 8, 4, 4)
    prime(tuner, t_avg=1000.0, ref_ext=0.4, history=[1200.0, 1100.0, 1000.0])
    res = tuner.tick(sample(tput=500.0, load=0.9))
    assert res.action == "heuristic-up"
    assert tuner.switch_count == 3


@pytest.mark.parametrize("triggered,load,capped,reaction", [
    (True, "rose", False, ("switch", "high")),
    (True, "rose", True, ("nudge", True)),
    (True, "fell", False, None),        # no load rise to blame: hold
    (True, "fell", True, ("nudge", True)),
    (True, "steady", False, None),
    (True, "steady", True, ("nudge", True)),
    (False, "rose", False, None),
    (False, "rose", True, None),
    (False, "fell", False, ("switch", "low")),
    (False, "fell", True, ("nudge", False)),
    (False, "steady", False, None),
    (False, "steady", True, None),
])
def test_reaction_rule(strata, wide_table, models, small_siblings, stratify_config,
                       triggered, load, capped, reaction):
    mid = small_siblings[1]
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    tuner.switch_count = SWITCH_CAP if capped else 0
    prime(tuner, t_avg=1000.0, ref_ext=0.4)
    calls = []
    tuner._switch = lambda direction, ext: calls.append(("switch", direction))
    tuner._heuristic = lambda allow_down: calls.append(("nudge", allow_down))
    # t_avg = 0.5 * 1000 + 0.5 * 500 = 750 < 0.9 * 1000 triggers, 1000 does not;
    # 0.9 > 1.1 * 0.4 is a rise, 0.05 < 0.9 * 0.4 a fall
    load_now = {"rose": 0.9, "fell": 0.05, "steady": 0.4}[load]
    res = tuner.tick(sample(tput=500.0 if triggered else 1000.0, load=load_now))
    assert res.triggered == triggered
    assert calls == ([] if reaction is None else [reaction])


def heuristic_tuner(strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    tuner.switch_count = SWITCH_CAP
    tuner.params = ParamConfig(4, 1800, 8, 4, 4)
    return tuner


def test_heuristic_round_robin_and_bounds(
        strata, wide_table, models, small_siblings, stratify_config):
    tuner = heuristic_tuner(strata, wide_table, models, small_siblings, stratify_config)
    falling = [1200.0, 1100.0, 1000.0]
    # falling trend raises cc, then p, then pp, wrapping around
    tuner.cls.history = list(falling)
    assert tuner._heuristic(allow_down=True) == "heuristic-up"
    assert tuner.params.cc == 16
    tuner.cls.history = list(falling)
    assert tuner._heuristic(allow_down=True) == "heuristic-up"
    assert tuner.params.p == 8
    tuner.cls.history = list(falling)
    assert tuner._heuristic(allow_down=True) == "heuristic-up"
    assert tuner.params.pp == 8
    # wrap back to cc, already at its top lattice value: no change
    tuner.cls.history = list(falling)
    before = tuner.params
    assert tuner._heuristic(allow_down=True) is None
    assert tuner.params == before


def test_heuristic_down_and_hysteresis(
        strata, wide_table, models, small_siblings, stratify_config):
    tuner = heuristic_tuner(strata, wide_table, models, small_siblings, stratify_config)
    tuner.cls.history = [1000.0, 1100.0, 1200.0]   # rising while over budget
    assert tuner._heuristic(allow_down=True) == "heuristic-down"
    assert tuner.params.pp == 0                     # (pp, p, cc) order, 4 -> 0
    # an up-nudge of cc, then a down pass that lands on cc: suppressed
    tuner.cls.history = [1200.0, 1100.0, 1000.0]
    assert tuner._heuristic(allow_down=True) == "heuristic-up"
    assert tuner.params.cc == 16 and tuner._last_nudge == ("cc", 1)
    tuner._rr[-1] = 2                               # force the cc slot
    tuner.cls.history = [1000.0, 1100.0, 1200.0]
    before = tuner.params
    assert tuner._heuristic(allow_down=True) is None
    assert tuner.params == before


def test_heuristic_needs_history_and_a_trend(
        strata, wide_table, models, small_siblings, stratify_config):
    tuner = heuristic_tuner(strata, wide_table, models, small_siblings, stratify_config)
    tuner.cls.history = [1000.0]
    assert tuner._heuristic(allow_down=True) is None
    tuner.cls.history = [1000.0, 1000.0, 1000.0]
    assert tuner._heuristic(allow_down=True) is None
    # rising trend without permission to shed capacity
    tuner.cls.history = [1000.0, 1100.0, 1200.0]
    assert tuner._heuristic(allow_down=False) is None
    # two samples fall back to the short slope
    tuner.cls.history = [1200.0, 1000.0]
    assert tuner._heuristic(allow_down=True) == "heuristic-up"


def test_first_tick_seeds_state_from_sample(
        strata, wide_table, models, small_siblings, stratify_config):
    mid = small_siblings[1]
    tuner = make_tuner(strata, wide_table, models, SLA.min_energy(), mid, stratify_config)
    res = tuner.tick(sample(tput=500.0, load=0.2, power=100.0, moved=1e6))
    assert res.action is None
    assert tuner.cls.t_avg == 500.0
    assert tuner.cls.ref_ext == 0.2
    assert list(tuner.cls.history) == [500.0]
    assert tuner.e_consumed == 100.0
    assert tuner.elapsed_s == 1.0
    assert tuner.remaining_bytes == 1e9 - 1e6


def test_history_keeps_the_last_three_smoothed_throughputs(
        strata, wide_table, models, small_siblings, stratify_config):
    tuner = make_tuner(strata, wide_table, models, SLA.min_energy(), small_siblings[1],
                       stratify_config)
    for tput in (500.0, 700.0, 300.0, 900.0, 100.0):
        assert tuner.tick(sample(tput=tput, load=0.2)).action is None
    # EWMA_WEIGHT 0.5: 500, 600, 450, 675, 387.5
    assert list(tuner.cls.history) == [450.0, 675.0, 387.5]
    assert tuner.cls.t_avg == 387.5


def test_constructor_and_tick_validation(
        strata, wide_table, models, stratify_config):
    tuner = OnlineTuner(strata, wide_table, models, SLA.max_throughput(),
                        config=stratify_config)
    with pytest.raises(TunerError):
        tuner.start_transfer(0.0)
    tuner.start_transfer(100.0)
    with pytest.raises(TunerError, match="start_class before tick"):
        tuner.tick(sample())


@pytest.mark.parametrize("sla", [
    SLA(id="cap", kind=KIND_ENERGY_CAP, bound=1.0),
    SLA(id="cap", kind=KIND_THROUGHPUT_FLOOR, bound=500.0),
    SLA(id="max-tput", kind=KIND_ENERGY_CAP, bound=4300.0),
], ids=["other-bound", "other-kind", "custom-preset-id"])
def test_an_sla_that_differs_from_the_tables_sla_of_its_id_is_refused(
        strata, wide_table, models, stratify_config, sla):
    stored = next(s for s in wide_table.slas if s.id == sla.id)
    with pytest.raises(TunerError, match=(
            f"^sla {sla.id}={sla.kind}:{sla.bound} differs from the table's "
            f"sla {sla.id}={stored.kind}:{stored.bound}; rerun optimize")):
        OnlineTuner(strata, wide_table, models, sla, config=stratify_config)
    # the table's own SLA, rebuilt equal, still runs
    same = SLA(id=stored.id, kind=stored.kind, bound=stored.bound)
    tuner = OnlineTuner(strata, wide_table, models, same, config=stratify_config)
    tuner.start_transfer(1e9)
    params = tuner.start_class(DATASET_CLASSES["small"],
                               SimEndpoint(ENDPOINTS["chameleon"]).describe())
    assert params == wide_table.lookup(tuner.stratum.id, same.id).params


def test_tick_rejects_a_step_that_is_not_positive(
        strata, wide_table, models, small_siblings, stratify_config):
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(),
                       small_siblings[1], stratify_config)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(TunerError, match="dt_s must be > 0"):
            tuner.tick(sample(dt=dt))
    assert not tuner.cls.history and tuner.elapsed_s == 0.0


def test_start_class_keeps_transfer_budget(
        strata, wide_table, models, stratify_config):
    tuner = OnlineTuner(strata, wide_table, models, SLA.max_throughput(),
                        config=stratify_config)
    tuner.start_transfer(1e9)
    tuner.switch_count = 2
    tuner.e_consumed = 123.0
    tuner.elapsed_s = 11.0
    tuner.cls.history = [800.0]
    ds = DATASET_CLASSES["small"]
    net = ENDPOINTS["chameleon"]
    params = tuner.start_class(ds, SimEndpoint(net).describe())
    assert params == tuner.params
    # probe classifies at zero load: lightest band of the small class
    assert tuner.stratum.ext_load_interval[0] == 0.0
    assert tuner.switch_count == 2
    assert tuner.e_consumed == 123.0 and tuner.elapsed_s == 11.0
    assert not tuner.cls.history


def test_holding_ticks_share_one_result_until_stratum_or_params_change(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)

    def hold(triggered):
        # 500 drags the average below 0.9 * 1000; a steady load blames nothing
        prime(tuner, t_avg=1000.0, ref_ext=0.4)
        res = tuner.tick(sample(tput=500.0 if triggered else 1000.0, load=0.4))
        assert res.action is None and res.triggered is triggered
        assert res.stratum_id == tuner.stratum.id and res.params is tuner.params
        return res

    quiet, loud = hold(False), hold(True)
    assert quiet is not loud
    assert hold(False) is quiet and hold(True) is loud and hold(False) is quiet

    # a switch returns its own result, and the next hold a fresh one
    prime(tuner, t_avg=1000.0, ref_ext=0.4)
    switched = tuner.tick(sample(tput=1000.0, load=0.05))
    assert switched.action == "switch-low" and switched.stratum_id == low.id
    assert switched is not quiet and switched is not loud
    after_switch = hold(False)
    assert after_switch is not quiet and after_switch is not switched

    # so does a nudge
    tuner.switch_count = SWITCH_CAP
    tuner.params = ParamConfig(4, 1800, 8, 4, 4)
    held = hold(False)
    prime(tuner, t_avg=1000.0, ref_ext=0.4, history=[1200.0, 1100.0, 1000.0])
    nudged = tuner.tick(sample(tput=500.0, load=0.4))
    assert nudged.action == "heuristic-up" and nudged.params.cc == 16
    assert hold(False) is not held

    # and a direct assignment, even of equal parameters or another stratum
    before = hold(False)
    tuner.params = dataclasses.replace(tuner.params)
    fresh = hold(False)
    assert fresh is not before and fresh == before
    tuner.stratum = high
    other = hold(False)
    assert other is not fresh and other.stratum_id == high.id


def test_sibling_strata_are_scanned_once_per_stratum_and_direction(
        strata, wide_table, models, small_siblings, stratify_config):
    low, mid, high = small_siblings
    tuner = make_tuner(strata, wide_table, models, SLA.max_throughput(), mid, stratify_config)
    for stratum, direction, expect in ((mid, "high", {high.id}), (mid, "low", {low.id}),
                                       (high, "high", set()), (high, "low", {low.id, mid.id})):
        tuner.stratum = stratum
        first = tuner._siblings(direction)
        assert {s.id for s in first} == expect
        assert tuner._siblings(direction) is first


def test_fixed_controller_shares_one_result_per_params():
    fc = FixedController(ParamConfig(2, 1800, 4, 2, 4))
    first = fc.tick(sample())
    assert fc.tick(sample()) is first
    assert first.action is None and not first.triggered and first.params is fc.params
    fc.params = dataclasses.replace(fc.params)
    again = fc.tick(sample())
    assert again is not first and again.params is fc.params


def test_no_result_or_sample_changes_after_its_tick(
        strata, wide_table, models, stratify_config, monkeypatch):
    # twenty 3 s segments between low and high load: the max-throughput
    # tuner spends its three switches and then nudges
    scenario = LoadScenario(tuple((3.0 * k, 0.55 if k % 2 else 0.15)
                                  for k in range(20)))
    seen = []

    def recording(tick):
        def wrapper(self, smp):
            res = tick(self, smp)
            seen.append((smp, dataclasses.astuple(smp), res, dataclasses.astuple(res)))
            return res
        return wrapper

    for cls in (OnlineTuner, FixedController):
        monkeypatch.setattr(cls, "tick", recording(cls.tick))
    compare_policies(ENDPOINTS["chameleon"], scenario, stratify_config,
                     strata, models, wide_table, interval_s=0.1)
    actions = {res.action for _, _, res, _ in seen}
    assert {"switch-high", "switch-low", "heuristic-up"} <= actions
    assert len({id(res) for _, _, res, _ in seen}) < len(seen) / 100
    for smp, smp_fields, res, res_fields in seen:
        assert dataclasses.astuple(smp) == smp_fields
        assert dataclasses.astuple(res) == res_fields


# -- file classing and transfers ------------------------------------------------


@pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_start_transfer_rejects_a_total_that_is_not_finite_and_positive(
        strata, wide_table, models, total):
    tuner = OnlineTuner(strata, wide_table, models, SLA.max_throughput())
    with pytest.raises(TunerError, match="total_bytes must be finite and > 0"):
        tuner.start_transfer(total)


def test_cluster_files_boundaries():
    out = cluster_files([MIB - 1, MIB, 50 * MIB - 1, 50 * MIB, 200])
    assert out["small"].tolist() == [MIB - 1, 200]
    assert out["medium"].tolist() == [MIB, 50 * MIB - 1]
    assert out["large"].tolist() == [50 * MIB]
    with pytest.raises(TunerError):
        cluster_files([0])


def test_dataset_meta_for_population_stats():
    meta = dataset_meta_for([100.0, 300.0])
    assert meta.num_files == 2
    assert meta.total_size_bytes == 400.0
    assert meta.avg_file_size_bytes == 200.0
    assert meta.file_size_stddev_bytes == 100.0


# A per-file reference implementation: one Python pass over the sizes, each
# as a float. Its sums run left to right, one rounding per addition, and a
# squared deviation is d * d.
def _left_to_right_sum(values):
    return functools.reduce(operator.add, values, 0.0)


def per_file_cluster_files(sizes) -> dict:
    out = {c: [] for c in FILE_CLASSES}
    for s in sizes:
        if s < MIB:
            out["small"].append(s)
        elif s < 50 * MIB:
            out["medium"].append(s)
        else:
            out["large"].append(s)
    return out


def per_file_dataset_meta(sizes) -> DatasetMeta:
    n = len(sizes)
    total = _left_to_right_sum(map(float, sizes))
    avg = total / n
    var = _left_to_right_sum([(float(s) - avg) * (float(s) - avg) for s in sizes]) / n
    return DatasetMeta(num_files=n, total_size_bytes=total,
                       avg_file_size_bytes=avg, file_size_stddev_bytes=math.sqrt(var))


EDGE_INTS = [MIB - 1, MIB, MIB + 1, 50 * MIB - 1, 50 * MIB, 50 * MIB + 1,
             2**53 - 2, 2**53 - 1]
INT_SIZES = st.one_of(st.integers(1, 10**12), st.sampled_from(EDGE_INTS),
                      st.integers(2**53 - 64, 2**53 - 1))
FLOAT_SIZES = st.one_of(
    st.floats(min_value=1e-3, max_value=2.0**53, exclude_max=True),
    st.sampled_from([float(v) for v in EDGE_INTS]),
    st.integers(1, 10**9).map(lambda v: v + 0.5))


def file_sets(sizes):
    """Lists of sizes, and lists whose classes hold one file or many equal
    files."""
    many = st.lists(sizes, min_size=1, max_size=60)
    equal = st.tuples(sizes, st.integers(1, 40)).map(lambda vk: [vk[0]] * vk[1])
    return st.one_of(many, equal, st.tuples(equal, equal, many).map(
        lambda parts: parts[0] + parts[1] + parts[2][:1]))


def _assert_same_as_per_file(sizes, reference):
    got = cluster_files(sizes)
    expect = per_file_cluster_files(reference)
    assert {c: got[c].tolist() for c in FILE_CLASSES} == expect
    assert dataset_meta_for(sizes) == per_file_dataset_meta(reference)
    for c in FILE_CLASSES:
        if expect[c]:
            assert dataset_meta_for(got[c]) == per_file_dataset_meta(expect[c])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sizes=st.one_of(file_sets(INT_SIZES), file_sets(FLOAT_SIZES),
                       file_sets(st.one_of(INT_SIZES, FLOAT_SIZES))))
# float ** 2 and d * d round differently on this deviation
@example(sizes=[749499671.0, 237129667.30057332])
def test_array_file_sets_match_the_per_file_code_on_lists(sizes):
    _assert_same_as_per_file(sizes, sizes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sizes=st.sampled_from([np.int64, np.uint64]).flatmap(lambda dtype: st.one_of(
    file_sets(INT_SIZES).map(lambda v: np.array(v, dtype=dtype)),
    hnp.arrays(dtype, st.integers(1, 80), elements=INT_SIZES))))
def test_array_file_sets_match_the_per_file_code_on_int64_arrays(sizes):
    _assert_same_as_per_file(sizes, sizes.tolist())


def test_a_default_transfer_classes_its_files_as_before():
    # the bits of each class's DatasetMeta that the benchmark's transfers
    # start from
    seen = []

    class Recording(FixedController):
        def start_class(self, dataset, network):
            seen.append(dataset)
            return super().start_class(dataset, network)

    endpoint = SimEndpoint(ENDPOINTS["chameleon"], LoadScenario.constant(0.2))
    run_transfer(endpoint, _class_sizes(FILE_CLASSES),
                 Recording(ParamConfig(8, 2300, 16, 8, 8)))
    assert seen == [
        DatasetMeta(num_files=20000, total_size_bytes=2087320000.0,
                    avg_file_size_bytes=104366.0, file_size_stddev_bytes=29757.0),
        DatasetMeta(num_files=5000, total_size_bytes=12582910000.0,
                    avg_file_size_bytes=2516582.0, file_size_stddev_bytes=283115.0),
        DatasetMeta(num_files=128, total_size_bytes=29900354176.0,
                    avg_file_size_bytes=233596517.0,
                    file_size_stddev_bytes=15928916.999999978),
    ]
    assert dataset_meta_for(_class_sizes(FILE_CLASSES)) == DatasetMeta(
        num_files=25128, total_size_bytes=44570584176.0,
        avg_file_size_bytes=1773741.8089780326, file_size_stddev_bytes=16655131.663654761)


def test_a_transfer_checks_its_sizes_once():
    from xfertune import tuner

    endpoint = SimEndpoint(ENDPOINTS["chameleon"], LoadScenario.constant(0.2))
    with mock.patch.object(tuner, "_size_array", wraps=tuner._size_array) as spy:
        run_transfer(endpoint, _class_sizes(FILE_CLASSES),
                     FixedController(ParamConfig(8, 2300, 16, 8, 8)))
    checked = [c for c in spy.call_args_list
               if not isinstance(c.args[0], tuner._CheckedSizes)]
    # the split and the three classes' statistics take the checked array
    assert len(checked) == 1 and spy.call_count == 1 + 1 + 3


def test_a_transfer_starts_from_the_left_to_right_total():
    # numpy's pairwise sum of these sizes rounds differently
    sizes = [5e6 / 3 + k / 3 for k in range(40)]
    totals = []

    class Recording(FixedController):
        def start_transfer(self, total_bytes):
            totals.append(total_bytes)
            super().start_transfer(total_bytes)

    endpoint = SimEndpoint(ENDPOINTS["chameleon"], LoadScenario.constant(0.2))
    run_transfer(endpoint, sizes, Recording(ParamConfig(8, 2300, 16, 8, 8)))
    assert totals == [_left_to_right_sum(sizes)]


def test_an_integer_total_takes_one_pairwise_sum_below_2_53():
    sizes = _class_sizes(FILE_CLASSES)
    with mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
        meta = dataset_meta_for(sizes)
    assert cumsum.call_count == 1   # the squared deviations only
    assert meta.total_size_bytes == _left_to_right_sum(map(float, sizes.tolist()))


def test_an_integer_total_beyond_2_53_is_still_taken_left_to_right():
    # left to right, each +1 after 2**53 rounds back to 2**53; numpy's
    # pairwise sum adds the ones up first
    sizes = [2**53 - 1] + [1] * 15
    assert float(np.sum(np.array(sizes, dtype=np.float64))) == 2.0**53 + 14
    assert dataset_meta_for(sizes).total_size_bytes == _left_to_right_sum(
        map(float, sizes)) == 2.0**53


@pytest.mark.parametrize("bad,message", [
    ([math.nan, 5e6], "finite and > 0"), ([math.inf, 5e6], "finite and > 0"),
    ([5e6, -math.inf], "finite and > 0"), ([True, 5], "ints or floats"),
    ([0], "finite and > 0"), ([-1], "finite and > 0"), ([5, "5"], "ints or floats"),
    ([5, None], "ints or floats"), (np.array([1.0, math.nan]), "finite and > 0"),
    (np.array([True]), "ints or floats"), (np.array([[1, 2]]), "one-dimensional"),
    ([5, 2**53], r"below 2\*\*53 bytes"), ([2**63], r"below 2\*\*53 bytes"),
    ([5, 10**400], r"below 2\*\*53 bytes"),
    (np.array([5, 2**64 - 1], dtype=np.uint64), r"below 2\*\*53 bytes"),
], ids=["nan", "inf", "minus-inf", "bool", "zero", "negative", "str", "none",
        "nan-array", "bool-array", "2d-array", "2**53", "2**63", "10**400",
        "uint64-max"])
def test_file_sizes_must_be_finite_positive_numbers(bad, message):
    with pytest.raises(TunerError, match=f"^file sizes must be {message}$"):
        cluster_files(bad)
    with pytest.raises(TunerError, match=f"^file sizes must be {message}$"):
        dataset_meta_for(bad)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_transfer_of_a_non_finite_size_raises_instead_of_hanging(bad):
    # a subprocess with a timeout, so a regression hangs no test run
    root = Path(__file__).resolve().parent.parent
    code = (
        "from xfertune.simulator import ENDPOINTS, LoadScenario, SimEndpoint\n"
        "from xfertune.logs import ParamConfig\n"
        "from xfertune.tuner import FixedController, TunerError, run_transfer\n"
        "ep = SimEndpoint(ENDPOINTS['chameleon'], LoadScenario.constant(0.2))\n"
        "try:\n"
        f"    run_transfer(ep, [float('{bad}'), 5e6],\n"
        "                 FixedController(ParamConfig(8, 2300, 16, 8, 8)))\n"
        "except TunerError as exc:\n"
        "    print(exc)\n")
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "file sizes must be finite and > 0\n"


def test_fixed_controller_transfer_orders_classes():
    spec = ENDPOINTS["chameleon"]
    endpoint = SimEndpoint(spec, LoadScenario.constant(0.2))
    sizes = [100 * MIB] + [500_000] * 4 + [5 * MIB] * 2
    controller = FixedController(ParamConfig(8, 2300, 16, 8, 8))
    report = run_transfer(endpoint, sizes, controller)
    assert report.completed
    assert [c["class"] for c in report.classes] == ["small", "medium", "large"]
    assert report.switch_count == 0 and report.events == ()
    moved = sum(c["bytes_moved"] for c in report.classes)
    assert moved == pytest.approx(sum(sizes))
    assert report.energy_joules > 0
    assert report.avg_throughput_mbps == pytest.approx(
        moved * 8.0 / 1e6 / report.duration_s)


def test_endpoint_failure_carries_partial_report():
    from xfertune import EndpointFailure

    spec = ENDPOINTS["chameleon"]
    endpoint = SimEndpoint(spec, LoadScenario.constant(0.2), fail_at_s=3.0)
    sizes = [200 * MIB] * 40    # needs well over 3 s at any config
    controller = FixedController(ParamConfig(1, 1200, 1, 1, 0))
    with pytest.raises(EndpointFailure) as err:
        run_transfer(endpoint, sizes, controller)
    rep = err.value.report
    assert rep is not None and not rep.completed
    assert rep.duration_s == pytest.approx(3.0)
    assert rep.energy_joules > 0
    assert rep.classes and rep.classes[-1]["class"] == "large"


# -- the tick loop the shared-sample step replaced ---------------------------------
#
# Test-only oracle: SimEndpoint.step and OnlineTuner.tick as they were before
# a full-interval step returned one shared sample and a tick read its state
# once: a new sample every step, the rate cached by load, and a tick that
# reads and writes its state where it uses it. Every tuned transfer and
# every policy comparison must give the same bytes under both loops.


class LegacySimEndpoint(SimEndpoint):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rate_load = None   # load of the cached _rate
        self._rate = (0.0, 0.0)  # (throughput, power)

    def set_params(self, params):
        super().set_params(params)
        self._rate_load = None

    def step(self) -> MonitorSample | None:
        if self._dataset is None:
            raise SimulationError("begin a transfer before stepping")
        if self._remaining <= 0.0:
            return None
        clock = self.clock_s
        if self.fail_at_s is not None and clock >= self.fail_at_s:
            raise EndpointFailure(f"endpoint failed at t={clock:.3f}s")
        start, end, load = self._segment
        if not start <= clock < end:
            start, end, load = self._segment = self.scenario.segment_at(clock)
        if load != self._rate_load:
            t = throughput_mbps(self.spec, self._params, load,
                                self._dataset.avg_file_size_bytes)
            # moving at least one ulp of what remains shrinks it, and the ulp
            # only falls with it, so the transfer ends; a rate of 0 never would
            if not t * 1e6 / 8.0 * self.interval_s >= math.ulp(self._remaining):
                raise SimulationError(f"{self.spec.name}: throughput {t!r} Mbps "
                                      "cannot move the remaining bytes")
            self._rate = (t, power_above_base_watts(self.spec, self._params, t))
            self._rate_load = load
        t, power = self._rate
        capacity = t * 1e6 / 8.0 * self.interval_s
        if self._remaining <= capacity:
            dt, moved = self._remaining * 8.0 / 1e6 / t, self._remaining
        else:
            dt, moved = self.interval_s, capacity
        self._remaining -= moved
        self.clock_s = clock + dt
        return MonitorSample(dt, t, power, load, self.spec.rtt_ms, moved)


class LegacyOnlineTuner(OnlineTuner):
    def tick(self, sample: MonitorSample) -> TickResult:
        if self.stratum is None:
            raise TunerError("start_class before tick")
        if not sample.dt_s > 0:   # NaN fails too
            raise TunerError("sample dt_s must be > 0")
        st = self.cls
        dt = sample.dt_s
        ext = sample.ext_load
        first = not st.history   # a class's first tick seeds its state
        if first:
            st.t_avg, st.ref_ext = sample.throughput_mbps, ext
        t_prev = st.t_avg
        t_avg = t_prev if first else (
            EWMA_WEIGHT * t_prev + (1.0 - EWMA_WEIGHT) * sample.throughput_mbps)
        d_e = sample.power_watts * dt
        self.remaining_bytes = max(0.0, self.remaining_bytes - sample.bytes_moved)
        t_rem = (self.remaining_bytes * 8.0 / 1e6 / t_avg) if t_avg > 0 else math.inf
        p_avg = (self.e_consumed + d_e) / (self.elapsed_s + dt)
        e_pred = p_avg * t_rem
        st.history.append(t_avg)

        if self.loop == "energy":
            triggered = (d_e + e_pred > (1.0 + BETA) * st.past_e_pred or
                         d_e + e_pred > self.e_sla - self.e_consumed)
        else:
            triggered = (t_avg < (1.0 - ALPHA) * t_prev or
                         t_avg < self.t_sla)

        capped = self.switch_count >= SWITCH_CAP
        action = None
        if triggered:
            if capped or ext > (1.0 + BETA) * st.ref_ext:
                action = (self._heuristic(allow_down=True) if capped
                          else self._switch("high", ext))
            # else below the cap with no load rise to blame: hold, the switch
            # budget is saved for attributable changes
        elif ext < (1.0 - ALPHA) * st.ref_ext:
            action = (self._heuristic(allow_down=False) if capped
                      else self._switch("low", ext))

        st.t_avg = t_avg
        st.past_e_pred = e_pred
        self.e_consumed += d_e
        self.elapsed_s += dt
        if action is not None:
            self.events.append({"t_s": self.elapsed_s, "event": action,
                                "stratum_id": self.stratum.id,
                                "params": self.params.as_dict()})
            return TickResult(action, triggered, self.stratum.id, self.params)
        # checked every tick: callers may assign stratum and params directly
        held = self._held[triggered]
        if (held is None or held.params is not self.params
                or held.stratum_id != self.stratum.id):
            held = self._held[triggered] = TickResult(
                None, triggered, self.stratum.id, self.params)
        return held


LOOPS = {"new": (SimEndpoint, OnlineTuner), "legacy": (LegacySimEndpoint, LegacyOnlineTuner)}


def online_loop(loop: str, ticks: list):
    """The pipeline's online runs on the loop's endpoint and tuner. After
    each tick, its sample, its result and the tuner's state are appended to
    ticks as the repr of their values, so every float is compared bit for
    bit, -0.0 apart from 0.0."""
    endpoint_cls, tuner_cls = LOOPS[loop]

    class Recording(tuner_cls):
        def tick(self, sample):
            res = super().tick(sample)
            st = self.cls
            ticks.append(repr((dataclasses.astuple(sample), dataclasses.astuple(res),
                               self.e_consumed, self.elapsed_s, self.remaining_bytes,
                               st.t_avg, st.past_e_pred, st.ref_ext, list(st.history))))
            return res

    return mock.patch.multiple(pipeline, SimEndpoint=endpoint_cls, OnlineTuner=Recording)


# the benchmark's four SLAs: the presets, a 100 kJ cap and a 3 Gbps floor
BENCH_SLAS = (SLA.max_throughput(), SLA.min_energy(),
              SLA(id="cap100k", kind=KIND_ENERGY_CAP, bound=100_000.0),
              SLA(id="floor3g", kind=KIND_THROUGHPUT_FLOOR, bound=3_000.0))


@pytest.fixture(scope="module")
def bench_table(models):
    return optimize_all(models, list(BENCH_SLAS))


@st.composite
def load_scenarios(draw):
    """1-6 piecewise constant segments, the changes inside (0, 60) s."""
    n = draw(st.integers(1, 6))
    starts = draw(st.lists(st.floats(0.0, 60.0, exclude_min=True), min_size=n - 1,
                           max_size=n - 1, unique=True))
    loads = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
    return LoadScenario(tuple(zip([0.0] + sorted(starts), loads)))


def run_on(loop: str, fn):
    """fn() run on the loop's endpoint and tuner, and the tuner's ticks."""
    ticks = []
    with online_loop(loop, ticks):
        assert pipeline.SimEndpoint is LOOPS[loop][0]
        return fn(), ticks


def transfer_text(spec, scenario, sla, run):
    """The transfer document of run() as bytes, and the failure it raised."""
    try:
        report, failure = run(), None
    except EndpointFailure as exc:
        report, failure = exc.report, str(exc)
    return json.dumps(pipeline.transfer_doc(spec, scenario, sla, report),
                      sort_keys=True), failure


# ticks of 0.1 s land exactly on 0.5 and 1.2, and a failure at a segment start
@example(scenario=LoadScenario(((0.0, 0.05), (0.5, 0.7), (1.2, 0.25), (4.0, 0.6),
                                (9.0, 0.1), (15.0, 0.45))),
         sla=BENCH_SLAS[0], interval_s=0.1, fail_at_s=None)
@example(scenario=LoadScenario(((0.0, 0.2), (3.0, 0.6))), sla=BENCH_SLAS[2],
         interval_s=1.0, fail_at_s=3.0)
@settings(max_examples=100, deadline=None)
@given(scenario=load_scenarios(), sla=st.sampled_from(BENCH_SLAS),
       interval_s=st.sampled_from([0.1, 1.0]),
       fail_at_s=st.one_of(st.none(), st.floats(0.0, 90.0)))
def test_tuned_transfers_give_the_legacy_loops_bytes(
        strata, models, bench_table, stratify_config, scenario, sla, interval_s, fail_at_s):
    spec = ENDPOINTS["chameleon"]

    def run():
        return pipeline.run_tuned_transfer(spec, scenario, stratify_config, strata, models,
                                           bench_table, sla, interval_s=interval_s,
                                           fail_at_s=fail_at_s)

    (got, got_ticks), (want, want_ticks) = (
        run_on(loop, lambda: transfer_text(spec, scenario, sla, run)) for loop in LOOPS)
    assert got == want
    assert got_ticks == want_ticks


@example(scenario=LoadScenario(tuple((3.0 * k, 0.55 if k % 2 else 0.15) for k in range(20))),
         interval_s=0.1)
@settings(max_examples=10, deadline=None)
@given(scenario=load_scenarios(), interval_s=st.sampled_from([0.1, 1.0]))
def test_policy_comparisons_give_the_legacy_loops_bytes(
        strata, models, bench_table, stratify_config, scenario, interval_s):
    def compare():
        doc = pipeline.compare_policies(ENDPOINTS["chameleon"], scenario, stratify_config,
                                        strata, models, bench_table, interval_s=interval_s)
        return json.dumps(doc, sort_keys=True)

    (got, got_ticks), (want, want_ticks) = (run_on(loop, compare) for loop in LOOPS)
    assert got == want
    assert got_ticks == want_ticks and got_ticks
