"""Online tuner tests.

The decision branches are pinned by hand-computed traces: class state is
set directly, one sample is fed through tick(), and the resulting action,
trigger flag and state updates are asserted against arithmetic done by
hand (EWMA weight 0.5, alpha = beta = 0.1).
"""

import dataclasses
import functools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xfertune import (
    SLA,
    MonitorSample,
    OnlineTuner,
    ParamConfig,
    SimEndpoint,
    TunerError,
    cluster_files,
    compare_policies,
    optimize_all,
)
from xfertune.optimizer import KIND_ENERGY_CAP, KIND_THROUGHPUT_FLOOR
from xfertune.simulator import DATASET_CLASSES, ENDPOINTS, LoadScenario
from xfertune.logs import DatasetMeta
from xfertune.tuner import (
    FILE_CLASSES,
    MIB,
    SWITCH_CAP,
    FixedController,
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


# A per-file reference implementation: one Python pass over the sizes. Its
# sums run left to right, as Python 3.11's builtin sum does: exact over
# ints, one rounding per addition over floats.
def _left_to_right_sum(values):
    return functools.reduce(operator.add, values, 0)


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
    total = float(_left_to_right_sum(sizes))
    avg = total / n
    var = _left_to_right_sum([(s - avg) ** 2 for s in sizes]) / n
    return DatasetMeta(num_files=n, total_size_bytes=total,
                       avg_file_size_bytes=avg, file_size_stddev_bytes=math.sqrt(var))


EDGE_INTS = [MIB - 1, MIB, MIB + 1, 50 * MIB - 1, 50 * MIB, 50 * MIB + 1,
             2**53 - 1, 2**53, 2**53 + 1, 2**63 - 2, 2**63 - 1]
INT_SIZES = st.one_of(st.integers(1, 10**12), st.sampled_from(EDGE_INTS),
                      st.integers(2**53 - 64, 2**53 + 64),
                      st.integers(2**63 - 2**12, 2**63 - 1))
FLOAT_SIZES = st.one_of(
    st.floats(min_value=1e-3, max_value=2.0**64, allow_nan=False),
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
                       file_sets(st.sampled_from([2**63, 2**63 + 1, 2**64 + 7]))))
# float ** 2 and d * d round differently on this deviation
@example(sizes=[749499671.0, 237129667.30057332])
@example(sizes=[2**63 - 1, 2**63 - 1, 2**63])
def test_array_file_sets_match_the_per_file_code_on_lists(sizes):
    _assert_same_as_per_file(sizes, sizes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sizes=st.one_of(
    file_sets(INT_SIZES).map(lambda v: np.array(v, dtype=np.int64)),
    hnp.arrays(np.int64, st.integers(1, 80), elements=INT_SIZES)))
def test_array_file_sets_match_the_per_file_code_on_int64_arrays(sizes):
    # the per-file code sums Python ints, exactly, past the int64 range
    _assert_same_as_per_file(sizes, sizes.tolist())


@pytest.mark.parametrize("bad", [
    [math.nan, 5e6], [math.inf, 5e6], [5e6, -math.inf], [True, 5], [0], [-1],
    [5, "5"], [5, None], np.array([1.0, math.nan]), np.array([True]),
    np.array([[1, 2]]),
], ids=["nan", "inf", "minus-inf", "bool", "zero", "negative", "str", "none",
        "nan-array", "bool-array", "2d-array"])
def test_file_sizes_must_be_finite_positive_numbers(bad):
    with pytest.raises(TunerError, match="file sizes must be"):
        cluster_files(bad)
    with pytest.raises(TunerError, match="file sizes must be"):
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
