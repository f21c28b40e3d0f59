"""Simulator tests: the closed-form laws against hand-worked numbers, corpus
generation invariants, and the stepping endpoint against the segment-exact
analytic run."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfertune import (
    DATASET_CLASSES,
    ENDPOINTS,
    EndpointFailure,
    EndpointSpec,
    LoadScenario,
    ParamConfig,
    SimEndpoint,
    SimulationError,
    baseline_config,
    default_lattice,
    generate_training_logs,
    synth_file_sizes,
    throughput_mbps,
    validate_entry,
)
from xfertune import cli
from xfertune.logs import PARAM_NAMES, DatasetMeta
from xfertune.pipeline import _analytic_fixed_run
from xfertune.simulator import power_above_base_watts
from xfertune.tuner import FixedController, MonitorSample, run_transfer

CHAM = ENDPOINTS["chameleon"]


def test_throughput_hand_worked():
    # share 0.8 * 10000 = 8000; window 4*2*4e6*8 / 32000 = 8000;
    # cpu 2500 * 2 * 1800/2300 = 3913.04...; raw is the cpu cap;
    # file_time 1e7 * 8e-6 * 4 / raw = 0.081778 s, overhead 5 ms / 5 = 1 ms
    params = ParamConfig(2, 1800, 4, 2, 4)
    t = throughput_mbps(CHAM, params, 0.2, 1e7)
    assert t == pytest.approx(3865.771812080537, rel=1e-12)
    p = power_above_base_watts(CHAM, params, t)
    assert p == pytest.approx(18.595405348312433, rel=1e-12)


def test_throughput_never_exceeds_the_fair_share():
    rng = np.random.default_rng(3)
    lat = default_lattice(CHAM)
    cfgs = list(lat.configs())
    for _ in range(200):
        cfg = cfgs[rng.integers(len(cfgs))]
        load = float(rng.uniform(0.0, 0.99))
        avg = float(rng.uniform(1e4, 1e9))
        t = throughput_mbps(CHAM, cfg, load, avg)
        assert 0.0 <= t <= (1.0 - load) * CHAM.bandwidth_mbps + 1e-9


def test_more_streams_and_pipelining_never_hurt():
    for cc in (1, 4, 8):
        a = throughput_mbps(CHAM, ParamConfig(8, 2300, cc, 1, 0), 0.2, 1e5)
        b = throughput_mbps(CHAM, ParamConfig(8, 2300, cc * 2, 1, 0), 0.2, 1e5)
        assert b >= a - 1e-12
    for pp in (0, 4):
        a = throughput_mbps(CHAM, ParamConfig(8, 2300, 4, 2, pp), 0.2, 1e5)
        b = throughput_mbps(CHAM, ParamConfig(8, 2300, 4, 2, pp + 4), 0.2, 1e5)
        assert b >= a - 1e-12


def test_parallelism_relieves_the_window_limit():
    # window cap with cc=4, p=1 is 4000 Mbps, below the 8000 share; doubling
    # p lifts it to the cpu cap
    slow = throughput_mbps(CHAM, ParamConfig(8, 2300, 4, 1, 8), 0.0, 1e9)
    fast = throughput_mbps(CHAM, ParamConfig(8, 2300, 4, 2, 8), 0.0, 1e9)
    assert fast > 1.8 * slow


def test_ext_load_bounds_are_enforced():
    with pytest.raises(SimulationError, match="ext_load"):
        throughput_mbps(CHAM, baseline_config(CHAM), -0.1, 1e7)
    with pytest.raises(SimulationError, match="ext_load"):
        throughput_mbps(CHAM, baseline_config(CHAM), 1.1, 1e7)


def test_endpoint_presets_are_consistent():
    assert set(ENDPOINTS) == {"chameleon", "cloudlab", "intercloud"}
    assert CHAM.max_freq_mhz == 2300
    assert default_lattice(CHAM).size() == 432
    assert baseline_config(CHAM) == ParamConfig(24, 2300, 1, 1, 0)
    assert [s.bdp_bytes for s in ENDPOINTS.values()] == [40e6, 4.5e6, 6e6]
    assert replace(CHAM, rtt_ms=16.0).bdp_bytes == 20e6
    with pytest.raises(SimulationError, match="sorted distinct"):
        EndpointSpec(name="x", source_id="a", dest_id="b", bandwidth_mbps=1000.0,
                     rtt_ms=30.0, cpu_cores=8, freq_ladder_mhz=(2000, 1200))


SPEC_FIELDS = dict(name="x", source_id="a", dest_id="b", bandwidth_mbps=1000.0,
                   rtt_ms=30.0, cpu_cores=8, freq_ladder_mhz=(1200, 2000))


@pytest.mark.parametrize("field,value,match", [
    ("bandwidth_mbps", 0.0, "bandwidth_mbps must be > 0"),
    ("bandwidth_mbps", math.nan, "bandwidth_mbps must be > 0"),
    ("rtt_ms", -30.0, "rtt_ms must be > 0"),
    ("window_bytes", 0.0, "window_bytes must be > 0"),
    ("core_mbps", -1.0, "core_mbps must be > 0"),
    ("cpu_cores", 0, "cpu_cores must be > 0"),
    ("file_overhead_s", -0.001, "file_overhead_s must be >= 0"),
    ("file_overhead_s", math.nan, "file_overhead_s must be >= 0"),
    ("freq_ladder_mhz", (), "freq ladder must be nonempty"),
    ("freq_ladder_mhz", (0, 1200), ">= 1 MHz"),
    # a link that never finishes, and power that is negative or NaN
    ("rtt_ms", math.inf, "rtt_ms must be finite"),
    ("bandwidth_mbps", math.inf, "bandwidth_mbps must be finite"),
    ("window_bytes", math.inf, "window_bytes must be finite"),
    ("file_overhead_s", math.inf, "file_overhead_s must be finite"),
    ("freq_ladder_mhz", (1200, math.inf), "finite"),
    ("freq_ladder_mhz", (math.nan, 1200), ">= 1 MHz"),
    ("core_power_watts", -5.0, "core_power_watts must be >= 0"),
    ("core_power_watts", math.inf, "core_power_watts must be finite"),
    ("net_power_watts_per_mbps", math.nan, "net_power_watts_per_mbps must be >= 0"),
    ("power_exponent", math.nan, "power_exponent must be >= 0"),
    ("power_exponent", -1.0, "power_exponent must be >= 0"),
])
def test_endpoint_spec_rejects_a_link_that_cannot_move_data(field, value, match):
    EndpointSpec(**SPEC_FIELDS)
    with pytest.raises(SimulationError, match=match):
        EndpointSpec(**{**SPEC_FIELDS, field: value})


def test_every_preset_configuration_moves_data():
    # the stepping endpoint and the analytic run rely on this: no zero rate
    loads = (0.0, 0.2, 0.5, 0.9, 0.999)
    for spec in ENDPOINTS.values():
        for ds in DATASET_CLASSES.values():
            for cfg in default_lattice(spec).configs():
                for load in loads:
                    assert throughput_mbps(spec, cfg, load, ds.avg_file_size_bytes) > 0


def test_corpus_shape_and_validity(corpus):
    # 1 sweep x 3 loads x 3 classes x 432 configurations
    assert len(corpus) == 3888
    assert [e.timestamp_s for e in corpus[:3]] == [0.0, 1.0, 2.0]
    assert corpus[-1].timestamp_s == 3887.0
    lat = default_lattice(CHAM)
    for e in corpus[::97]:
        assert validate_entry(e) is None
        assert all(e.params.get(n) in lat.axis(n) for n in PARAM_NAMES)
    loads = {e.network.ext_load for e in corpus}
    assert loads == {0.2, 0.35, 0.5}


def test_corpus_generation_guards(tmp_path, capsys):
    with pytest.raises(SimulationError, match="sweeps"):
        generate_training_logs(sweeps=0)
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(SimulationError, match="noise must be finite and >= 0"):
            generate_training_logs(noise=noise)
        out = tmp_path / "logs.jsonl"
        assert cli.main(["generate", "--noise", str(noise), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: noise must be finite and >= 0\n"
        assert not out.exists()
    with pytest.raises(SimulationError, match="loads"):
        generate_training_logs(loads=(0.2, 1.0))


@pytest.mark.parametrize("window, cls", [(5e-324, "small"),   # a rate of 0
                                         (1e-300, "medium")])  # a time of inf
def test_a_rate_that_cannot_finish_a_logged_transfer_raises(window, cls):
    spec = replace(CHAM, window_bytes=window)
    with pytest.raises(SimulationError,
                       match=rf"^chameleon: throughput .* Mbps at ParamConfig\(cpu_num=1, "
                             rf".*\), load 0\.2 cannot move the {cls} dataset in finite time$"):
        generate_training_logs(specs=[spec])


def test_zero_noise_entries_match_the_laws(corpus):
    for e in corpus[5::301]:
        t = throughput_mbps(CHAM, e.params, e.network.ext_load,
                            e.dataset.avg_file_size_bytes)
        p = power_above_base_watts(CHAM, e.params, t)
        assert e.throughput_mbps == t
        assert e.avg_power_watts == p
        assert e.duration_s == e.dataset.total_size_bytes * 8.0 / 1e6 / t


def test_noise_perturbs_but_keeps_entries_self_consistent(corpus):
    noisy = generate_training_logs(noise=0.05, seed=4)
    assert len(noisy) == len(corpus)
    changed = 0
    for e in noisy[::53]:
        assert e.energy_joules == e.avg_power_watts * e.duration_s
        assert e.throughput_mbps <= CHAM.bandwidth_mbps
        assert e.duration_s > 0
    for a, b in zip(noisy[::53], corpus[::53]):
        changed += a.throughput_mbps != b.throughput_mbps
    assert changed > 60
    again = generate_training_logs(noise=0.05, seed=4)
    assert [e.throughput_mbps for e in again] == [e.throughput_mbps for e in noisy]


def test_scenario_lookup_and_validation():
    sc = LoadScenario.step(0.2, 0.6, 10.0)
    assert sc.load_at(0.0) == 0.2
    assert sc.load_at(9.999) == 0.2
    assert sc.load_at(10.0) == 0.6
    assert sc.load_at(1e9) == 0.6
    assert LoadScenario.constant(0.3).load_at(7.0) == 0.3
    assert LoadScenario.from_dict(sc.as_dict()) == sc
    with pytest.raises(SimulationError, match="start at t=0"):
        LoadScenario(((1.0, 0.2),))
    with pytest.raises(SimulationError, match="strictly increasing"):
        LoadScenario(((0.0, 0.2), (5.0, 0.3), (5.0, 0.4)))
    with pytest.raises(SimulationError, match="strictly increasing"):
        LoadScenario.step(0.2, 0.6, math.nan)
    with pytest.raises(SimulationError, match="loads must be in"):
        LoadScenario.constant(1.0)


def _loop_load_at(scenario, t_s):
    """Reference: the last segment starting at or before t, else the first."""
    load = scenario.segments[0][1]
    for start, value in scenario.segments:
        if start <= t_s:
            load = value
    return load


def test_scenario_lookup_matches_a_segment_scan():
    sc = LoadScenario(((0.0, 0.1), (0.3, 0.5), (1.0, 0.2), (2.5, 0.6)))
    ts = [-math.inf, -1.0, -0.0, 0.0, 0.1, 0.3, 0.30000000000000004, 0.2999,
          1.0, 2.5, 2.4999999, 1e12, math.inf, math.nan]
    ts += [k * 0.1 for k in range(40)]
    for scenario in (sc, LoadScenario.constant(0.3), LoadScenario.step(0.2, 0.6, 1.0)):
        for t in ts:
            assert scenario.load_at(t) == _loop_load_at(scenario, t), (scenario, t)


def _fresh_sample(spec, scenario, clock, params, ds, remaining, interval):
    """Reference: one step computed from scratch, with no cached rate."""
    load = scenario.load_at(clock)
    t = throughput_mbps(spec, params, load, ds.avg_file_size_bytes)
    capacity = t * 1e6 / 8.0 * interval
    if remaining <= capacity:
        dt, moved = remaining * 8.0 / 1e6 / t, remaining
    else:
        dt, moved = interval, capacity
    return MonitorSample(dt_s=dt, throughput_mbps=t,
                         power_watts=power_above_base_watts(spec, params, t),
                         ext_load=load, rtt_ms=spec.rtt_ms, bytes_moved=moved)


def test_cached_rates_equal_a_fresh_computation():
    # share-limited at the high load, so the load change at t = 3 (a tick
    # boundary) moves the rate; small files, so the dataset moves it too
    scenario = LoadScenario(((0.0, 0.2), (3.0, 0.6), (5.0, 0.3)))
    fast, slow = ParamConfig(8, 2300, 16, 8, 8), ParamConfig(2, 1800, 4, 2, 4)
    big = DatasetMeta(num_files=10, total_size_bytes=6e9,
                      avg_file_size_bytes=6e8, file_size_stddev_bytes=0.0)
    small = DatasetMeta(num_files=20000, total_size_bytes=4e9,
                        avg_file_size_bytes=2e5, file_size_stddev_bytes=0.0)
    # (dataset to begin or None, params to set or None) before each step
    script = [(big, fast), (None, None), (None, slow), (None, fast),
              (None, ParamConfig(8, 2300, 16, 8, 8)), (None, None), (None, None),
              (small, fast), (None, None), (None, slow), (None, None)]
    ep = SimEndpoint(CHAM, scenario, interval_s=1.0)
    clock, remaining = 0.0, 0.0
    loads, rates = set(), set()
    for begin, params in script:
        if begin is not None:
            ep.begin(begin, params)
            ds, cur, remaining = begin, params, begin.total_size_bytes
        elif params is not None:
            ep.set_params(params)
            cur = params
        got = ep.step()
        expect = _fresh_sample(CHAM, scenario, clock, cur, ds, remaining, 1.0)
        assert got == expect
        clock += expect.dt_s
        remaining -= expect.bytes_moved
        loads.add(got.ext_load)
        rates.add(got.throughput_mbps)
    assert remaining > 0 and ep.clock_s == clock
    assert loads == {0.2, 0.6, 0.3} and len(rates) >= 5


# 0.1 s ticks add up to 0.5 and 1.2 exactly but overshoot 0.3 and 1.4
TICK_EDGE_SCENARIOS = {
    "exact": ((0.0, 0.2), (0.5, 0.6)),
    "overshot": ((0.0, 0.2), (0.3, 0.6)),
    "ulp-after": ((0.0, 0.2), (math.nextafter(1.2, math.inf), 0.6)),
    "ulp-before": ((0.0, 0.2), (math.nextafter(1.2, -math.inf), 0.6)),
    "six-segments": ((0.0, 0.2), (0.3, 0.6), (0.5, 0.1),
                     (math.nextafter(1.2, math.inf), 0.5), (1.4, 0.3), (2.0, 0.7)),
}


@pytest.mark.parametrize("segments", TICK_EDGE_SCENARIOS.values(),
                         ids=TICK_EDGE_SCENARIOS.keys())
def test_segment_bounded_lookup_equals_a_fresh_step(segments):
    scenario = LoadScenario(segments)
    params = ParamConfig(8, 2300, 16, 8, 8)
    big = DatasetMeta(num_files=10, total_size_bytes=6e9,
                      avg_file_size_bytes=6e8, file_size_stddev_bytes=0.0)
    small = DatasetMeta(num_files=20000, total_size_bytes=2e8,
                        avg_file_size_bytes=1e4, file_size_stddev_bytes=0.0)
    ep = SimEndpoint(CHAM, scenario, interval_s=0.1)
    clocks, loads = [], set()
    # the clock carries over a class's short last step into the next class
    for ds in (big, small, big):
        ep.begin(ds, params)
        remaining = ds.total_size_bytes
        while True:
            clock = ep.clock_s
            got = ep.step()
            if got is None:
                break
            assert got.ext_load == scenario.load_at(clock)
            expect = _fresh_sample(CHAM, scenario, clock, params, ds, remaining, 0.1)
            assert got == expect, clock
            remaining -= expect.bytes_moved
            clocks.append(clock)
            loads.add(got.ext_load)
    assert {0.5, 1.2} <= set(clocks) and not {0.3, 1.4} & set(clocks)
    assert loads == {load for _, load in segments}


@pytest.mark.parametrize("total", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_begin_rejects_a_total_that_is_not_finite_and_positive(total):
    ep = SimEndpoint(CHAM, LoadScenario.constant(0.2))
    meta = DatasetMeta(num_files=2, total_size_bytes=total,
                       avg_file_size_bytes=total / 2, file_size_stddev_bytes=0.0)
    with pytest.raises(SimulationError, match="total_size_bytes must be finite and > 0"):
        ep.begin(meta, ParamConfig(2, 1800, 4, 2, 4))


def test_stepping_conserves_bytes_and_time():
    ep = SimEndpoint(CHAM, LoadScenario.constant(0.3), interval_s=1.0)
    meta = DatasetMeta(num_files=4, total_size_bytes=5e9,
                       avg_file_size_bytes=1.25e9, file_size_stddev_bytes=0.0)
    ep.begin(meta, ParamConfig(2, 1800, 4, 2, 4))
    samples = []
    while (s := ep.step()) is not None:
        samples.append(s)
    assert sum(s.bytes_moved for s in samples) == pytest.approx(5e9, rel=1e-12)
    assert sum(s.dt_s for s in samples) == pytest.approx(ep.clock_s, rel=1e-12)
    assert all(s.dt_s == 1.0 for s in samples[:-1])
    assert 0.0 < samples[-1].dt_s < 1.0
    expect_t = throughput_mbps(CHAM, ParamConfig(2, 1800, 4, 2, 4), 0.3, 1.25e9)
    assert samples[0].throughput_mbps == expect_t
    assert samples[0].ext_load == 0.3
    # the clock carries over into the next class
    before = ep.clock_s
    ep.begin(meta, ParamConfig(2, 1800, 4, 2, 4))
    nxt = ep.step()
    assert ep.clock_s == pytest.approx(before + 1.0)
    assert nxt.bytes_moved > 0


def test_step_requires_begin_and_fail_at_fires():
    ep = SimEndpoint(CHAM)
    with pytest.raises(SimulationError, match="begin a transfer"):
        ep.step()
    ep = SimEndpoint(CHAM, LoadScenario.constant(0.2), fail_at_s=2.0)
    meta = DatasetMeta(num_files=4, total_size_bytes=5e10,
                       avg_file_size_bytes=1.25e10, file_size_stddev_bytes=0.0)
    ep.begin(meta, ParamConfig(2, 1800, 4, 2, 4))
    assert ep.step() is not None
    assert ep.step() is not None
    with pytest.raises(EndpointFailure, match=r"endpoint failed at t=2\.000s"):
        ep.step()


@pytest.mark.parametrize("kw,match", [
    ({"interval_s": math.nan}, "interval_s must be > 0"),
    ({"interval_s": 0.0}, "interval_s must be > 0"),
    ({"interval_s": -1.0}, "interval_s must be > 0"),
    ({"fail_at_s": math.nan}, "fail_at_s must not be NaN"),
], ids=["nan-interval", "zero-interval", "negative-interval", "nan-fail-time"])
def test_endpoint_rejects_a_bad_interval_or_fail_time(kw, match):
    # a NaN interval never drains the class, so step() would loop forever
    with pytest.raises(SimulationError, match=match):
        SimEndpoint(CHAM, LoadScenario.constant(0.2), **kw)


@pytest.mark.parametrize("rtt_ms,rate", [(32.0, "0.0"), (1.0, "5e-324")],
                         ids=["zero-rate", "subnormal-rate"])
def test_a_step_that_cannot_move_data_raises_instead_of_hanging(rtt_ms, rate):
    # a subprocess with a timeout, so a regression hangs no test run; a
    # 5e-324-byte window underflows the window cap to 0 at 32 ms and to the
    # smallest subnormal at 1 ms, and neither rate moves a byte of 28 GiB
    root = Path(__file__).resolve().parent.parent
    code = (
        "from dataclasses import replace\n"
        "from xfertune.simulator import (DATASET_CLASSES, ENDPOINTS, LoadScenario,\n"
        "                                SimEndpoint, SimulationError, synth_file_sizes)\n"
        "from xfertune.logs import ParamConfig\n"
        "from xfertune.tuner import FixedController, run_transfer\n"
        f"spec = replace(ENDPOINTS['chameleon'], window_bytes=5e-324, rtt_ms={rtt_ms})\n"
        "ep = SimEndpoint(spec, LoadScenario.constant(0.2), interval_s=0.1)\n"
        "try:\n"
        "    run_transfer(ep, synth_file_sizes(DATASET_CLASSES['large']),\n"
        "                 FixedController(ParamConfig(8, 2300, 16, 8, 8)))\n"
        "except SimulationError as exc:\n"
        "    print(exc)\n")
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"chameleon: throughput {rate} Mbps cannot move the "
                           "remaining bytes\n")


def _field(lo, hi, *extremes):
    """Finite floats in [lo, hi] or one of the given extremes."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(extremes))


# every numeric field over a finite range, with zero, negative and
# subnormal extremes that construction or the step must catch
SPEC_RANGES = dict(
    bandwidth_mbps=_field(1e-3, 1e6, 0.0, -1.0, 5e-324),
    rtt_ms=_field(1e-3, 1e4, 0.0, 5e-324, 1e300),
    window_bytes=_field(1.0, 1e9, 0.0, 5e-324),
    core_mbps=_field(1e-3, 1e6, 0.0, 5e-324),
    cpu_cores=st.integers(-1, 32),
    core_power_watts=_field(0.0, 1e3, -5.0),
    power_exponent=_field(0.0, 10.0, -1.0),
    net_power_watts_per_mbps=_field(0.0, 1.0, -1e-3),
    file_overhead_s=_field(0.0, 1.0, -1e-3),
    freq_ladder_mhz=st.sampled_from([(1200, 1800, 2300), (1000,), (1, 10 ** 6), (0, 1200)]),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fields=st.fixed_dictionaries(SPEC_RANGES), load=st.floats(0.0, 1.0, exclude_max=True),
       ds=st.sampled_from(list(DATASET_CLASSES.values())))
@example(fields={**{k: getattr(CHAM, k) for k in SPEC_RANGES},
                 "window_bytes": 5e-324, "rtt_ms": 1.0},
         load=0.2, ds=DATASET_CLASSES["large"])
def test_a_spec_is_rejected_or_its_rates_are_finite_and_a_zero_rate_raises(fields, load, ds):
    try:
        spec = EndpointSpec(name="x", source_id="a", dest_id="b", **fields)
    except SimulationError:
        return
    for cfg in default_lattice(spec).configs():
        t = throughput_mbps(spec, cfg, load, ds.avg_file_size_bytes)
        power = power_above_base_watts(spec, cfg, t)
        assert 0.0 <= t < math.inf and 0.0 <= power < math.inf, (cfg, t, power)
        ep = SimEndpoint(spec, LoadScenario.constant(load), interval_s=0.1)
        ep.begin(ds, cfg)
        try:
            sample = ep.step()
        except SimulationError:
            continue
        assert t > 0.0 and sample.bytes_moved > 0.0


def test_set_params_checks_bounds_and_cores():
    ep = SimEndpoint(ENDPOINTS["cloudlab"])
    with pytest.raises(SimulationError, match="cpu_num exceeds"):
        ep.set_params(ParamConfig(16, 1200, 4, 2, 4))
    with pytest.raises(SimulationError):
        ep.set_params(ParamConfig(2, 1200, 0, 2, 4))


def test_synthetic_file_sizes_match_the_class_stats():
    meta = DATASET_CLASSES["small"]
    sizes = synth_file_sizes(meta)
    assert len(sizes) == meta.num_files
    lo = int(round(meta.avg_file_size_bytes - meta.file_size_stddev_bytes))
    hi = int(round(meta.avg_file_size_bytes + meta.file_size_stddev_bytes))
    assert (sizes == lo).sum() == meta.num_files // 2
    assert (sizes == hi).sum() == meta.num_files - meta.num_files // 2
    assert np.mean(sizes) == pytest.approx(meta.avg_file_size_bytes, rel=1e-4)
    assert np.std(sizes) == pytest.approx(meta.file_size_stddev_bytes, rel=1e-4)
    odd = synth_file_sizes(DatasetMeta(num_files=3, total_size_bytes=9e6,
                                       avg_file_size_bytes=3e6,
                                       file_size_stddev_bytes=1e6))
    assert odd.tolist() == [2_000_000, 4_000_000, 4_000_000]
    with pytest.raises(SimulationError, match="stddev too large"):
        synth_file_sizes(DatasetMeta(num_files=2, total_size_bytes=2.0,
                                     avg_file_size_bytes=1.0,
                                     file_size_stddev_bytes=5.0))


@pytest.mark.parametrize("scenario,cfg", [
    (LoadScenario.constant(0.25), ParamConfig(2, 1800, 4, 2, 4)),
    # share-limited config so the step changes the achieved rate
    (LoadScenario.step(0.2, 0.6, 5.0), ParamConfig(8, 2300, 16, 8, 8)),
], ids=["constant", "step-at-tick"])
def test_stepping_matches_the_analytic_run(scenario, cfg):
    meta = DatasetMeta(num_files=40, total_size_bytes=8e9,
                       avg_file_size_bytes=2e8, file_size_stddev_bytes=5e7)
    sizes = synth_file_sizes(meta)
    report = run_transfer(SimEndpoint(CHAM, scenario), sizes, FixedController(cfg))
    got_meta = report.classes[0]
    duration, energy = _analytic_fixed_run(
        CHAM, cfg, scenario,
        got_meta["bytes"] / got_meta["num_files"], got_meta["bytes"])
    assert report.completed and len(report.classes) == 1
    assert report.duration_s == pytest.approx(duration, rel=1e-9)
    assert report.energy_joules == pytest.approx(energy, rel=1e-9)
