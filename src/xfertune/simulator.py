"""Deterministic transfer simulator and training-log generator.

The throughput law is the smallest of three caps: the share of the link left
over by external load, the aggregate window limit of all TCP streams, and
what the allotted cores can push at their clock. Small files then pay a
per-file startup cost that pipelining amortizes, so concurrency and
pipelining help small-file sets while stream parallelism helps large files
on long fat links. Power above the idle baseline is a frequency power law on
the active cores plus a per-Mbps network term; logged energies are above
baseline.

Nothing here reads a clock or other ambient state: equal seeds and inputs
give byte-identical outputs.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .logs import (DatasetMeta, NetworkMeta, ParamConfig, ParamLattice,
                   TransferLogEntry, validate_params)
from .tuner import EndpointFailure, MonitorSample


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class EndpointSpec:
    """A source/destination pair and the knobs of its energy model. Its
    numeric fields are finite, its rates > 0 and its power coefficients
    >= 0; bdp_bytes is derived from bandwidth and RTT."""

    name: str
    source_id: str
    dest_id: str
    bandwidth_mbps: float
    rtt_ms: float
    cpu_cores: int
    freq_ladder_mhz: tuple[int, ...]
    core_power_watts: float = 6.0        # per active core at top frequency
    power_exponent: float = 2.2          # frequency scaling of core power
    net_power_watts_per_mbps: float = 0.003
    file_overhead_s: float = 0.005       # per-file startup cost
    window_bytes: float = 4e6            # per-stream TCP window
    core_mbps: float = 2500.0            # copy bandwidth per core at top freq

    def __post_init__(self):
        # NaN fails every comparison, so each loop rejects it
        positive = ("bandwidth_mbps", "rtt_ms", "window_bytes", "core_mbps", "cpu_cores")
        nonnegative = ("file_overhead_s", "core_power_watts", "power_exponent",
                       "net_power_watts_per_mbps")
        for name in positive:
            if not getattr(self, name) > 0:
                raise SimulationError(f"{self.name}: {name} must be > 0")
        for name in nonnegative:
            if not getattr(self, name) >= 0:
                raise SimulationError(f"{self.name}: {name} must be >= 0")
        for name in positive + nonnegative:
            if not getattr(self, name) < math.inf:
                raise SimulationError(f"{self.name}: {name} must be finite")
        ladder = list(self.freq_ladder_mhz)
        if (not ladder or ladder != sorted(set(ladder))
                or not all(1 <= f < math.inf for f in ladder)):
            raise SimulationError(f"{self.name}: freq ladder must be nonempty, "
                                  "sorted distinct, finite and >= 1 MHz")

    @property
    def max_freq_mhz(self) -> int:
        return self.freq_ladder_mhz[-1]

    @property
    def bdp_bytes(self) -> float:
        return self.bandwidth_mbps * self.rtt_ms * 125.0

    def as_dict(self) -> dict:
        return {
            "name": self.name, "source_id": self.source_id, "dest_id": self.dest_id,
            "bandwidth_mbps": self.bandwidth_mbps, "rtt_ms": self.rtt_ms,
            "bdp_bytes": self.bdp_bytes, "cpu_cores": self.cpu_cores,
            "freq_ladder_mhz": list(self.freq_ladder_mhz),
        }


ENDPOINTS = {
    "chameleon": EndpointSpec(
        name="chameleon", source_id="uc", dest_id="tacc",
        bandwidth_mbps=10000.0, rtt_ms=32.0,
        cpu_cores=24, freq_ladder_mhz=(1200, 1800, 2300)),
    "cloudlab": EndpointSpec(
        name="cloudlab", source_id="wisc", dest_id="utah",
        bandwidth_mbps=1000.0, rtt_ms=36.0,
        cpu_cores=10, freq_ladder_mhz=(1200, 1800, 2400)),
    "intercloud": EndpointSpec(
        name="intercloud", source_id="tacc", dest_id="wisc",
        bandwidth_mbps=1000.0, rtt_ms=48.0,
        cpu_cores=16, freq_ladder_mhz=(1200, 1800, 2200)),
}

# file-set classes: ~102 KiB avg / 1.94 GiB, ~2.4 MiB avg / 11.70 GiB,
# ~223 MiB avg / 27.85 GiB
DATASET_CLASSES = {
    "small": DatasetMeta(num_files=20000, total_size_bytes=2083059302.0,
                         avg_file_size_bytes=104366.0,
                         file_size_stddev_bytes=29757.0),
    "medium": DatasetMeta(num_files=5000, total_size_bytes=12562779340.0,
                          avg_file_size_bytes=2516582.0,
                          file_size_stddev_bytes=283115.0),
    "large": DatasetMeta(num_files=128, total_size_bytes=29903709798.0,
                         avg_file_size_bytes=233596517.0,
                         file_size_stddev_bytes=15928917.0),
}

DEFAULT_LOADS = (0.2, 0.35, 0.5)


def default_lattice(spec: EndpointSpec) -> ParamLattice:
    return ParamLattice(
        cpu_num=tuple(v for v in (1, 2, 4, 8) if v <= spec.cpu_cores),
        cpu_freq_mhz=tuple(spec.freq_ladder_mhz),
        cc=(1, 4, 8, 16),
        p=(1, 4, 8),
        pp=(0, 4, 8),
    )


def baseline_config(spec: EndpointSpec) -> ParamConfig:
    """Untuned reference: single stream, no pipelining, node fully powered."""
    return ParamConfig(cpu_num=spec.cpu_cores, cpu_freq_mhz=spec.max_freq_mhz,
                       cc=1, p=1, pp=0)


def throughput_mbps(spec: EndpointSpec, params: ParamConfig, ext_load: float,
                    avg_file_size_bytes: float) -> float:
    """Achieved application throughput for one configuration."""
    if not 0.0 <= ext_load <= 1.0:
        raise SimulationError("ext_load must be in [0, 1]")
    share = (1.0 - ext_load) * spec.bandwidth_mbps
    window_cap = params.cc * params.p * spec.window_bytes * 8.0 / (spec.rtt_ms * 1000.0)
    cpu_cap = spec.core_mbps * params.cpu_num * (params.cpu_freq_mhz / spec.max_freq_mhz)
    raw = min(share, window_cap, cpu_cap)
    if raw <= 0.0:
        return 0.0
    # cc files in flight finish together, paying one amortized startup each
    file_time = avg_file_size_bytes * 8e-6 * params.cc / raw
    if file_time == math.inf:   # raw is so small that the startup is nothing
        return raw
    overhead = spec.file_overhead_s / (1.0 + params.pp)
    return raw * file_time / (file_time + overhead)


def power_above_base_watts(spec: EndpointSpec, params: ParamConfig,
                           tput_mbps: float) -> float:
    freq_frac = params.cpu_freq_mhz / spec.max_freq_mhz
    core = spec.core_power_watts * params.cpu_num * freq_frac ** spec.power_exponent
    return core + spec.net_power_watts_per_mbps * tput_mbps


def generate_training_logs(specs=None, lattice: ParamLattice | None = None,
                           loads=DEFAULT_LOADS, classes=None, sweeps: int = 1,
                           noise: float = 0.0, seed: int = 0):
    """Synthesize a historical log corpus over the full parameter lattice.

    One entry per (endpoint, sweep, load, file-class, configuration).
    noise > 0 perturbs throughput and power multiplicatively; energy is
    always power * duration exactly, so entries stay self-consistent. A
    configuration whose rate cannot move its dataset in finite time raises
    SimulationError.
    """
    specs = list(specs) if specs is not None else [ENDPOINTS["chameleon"]]
    classes = dict(classes) if classes is not None else dict(DATASET_CLASSES)
    if sweeps < 1:
        raise SimulationError("sweeps must be >= 1")
    if not 0.0 <= noise < math.inf:   # NaN fails too
        raise SimulationError("noise must be finite and >= 0")
    for load in loads:
        if not 0.0 <= load < 1.0:
            raise SimulationError("training loads must be in [0, 1)")
    rng = np.random.default_rng(seed)
    entries = []
    ts = 0
    for spec in specs:
        lat = lattice or default_lattice(spec)
        for _ in range(sweeps):
            for load in loads:
                for cls, ds in classes.items():
                    for cfg in lat.configs():
                        t = throughput_mbps(spec, cfg, load, ds.avg_file_size_bytes)
                        p = power_above_base_watts(spec, cfg, t)
                        if noise > 0.0:
                            t *= max(1e-9, 1.0 + noise * rng.standard_normal())
                            t = min(t, spec.bandwidth_mbps)
                            p *= max(0.0, 1.0 + noise * rng.standard_normal())
                        duration = ds.total_size_bytes * 8.0 / 1e6 / t if t > 0.0 else math.inf
                        if duration == math.inf:
                            raise SimulationError(
                                f"{spec.name}: throughput {t!r} Mbps at {cfg}, load {load} "
                                f"cannot move the {cls} dataset in finite time")
                        entries.append(TransferLogEntry(
                            params=cfg, dataset=ds,
                            network=NetworkMeta(
                                source_id=spec.source_id, dest_id=spec.dest_id,
                                bandwidth_mbps=spec.bandwidth_mbps,
                                rtt_ms=spec.rtt_ms, ext_load=load),
                            throughput_mbps=t, energy_joules=p * duration,
                            avg_power_watts=p, duration_s=duration,
                            timestamp_s=float(ts)))
                        ts += 1
    return entries


@dataclass(frozen=True)
class LoadScenario:
    """External load over time, piecewise constant. Segments are
    (start_s, load) with the first start at zero."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments or self.segments[0][0] != 0.0:
            raise SimulationError("scenario must start at t=0")
        starts = [s for s, _ in self.segments]
        # NaN compares false, so a NaN start fails here too
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise SimulationError("segment starts must be strictly increasing")
        for _, load in self.segments:
            if not 0.0 <= load < 1.0:
                raise SimulationError("scenario loads must be in [0, 1)")

    @classmethod
    def constant(cls, load: float) -> "LoadScenario":
        return cls(((0.0, load),))

    @classmethod
    def step(cls, before: float, after: float, at_s: float) -> "LoadScenario":
        return cls(((0.0, before), (float(at_s), after)))

    @cached_property
    def _starts(self) -> tuple:
        return tuple(s for s, _ in self.segments)

    def segment_at(self, t_s: float) -> tuple[float, float, float]:
        """(start, end, load) of the segment covering t, which holds for
        start <= t < end: a t exactly at a start is in the new segment. The
        first segment also covers t < 0 (and NaN), so its start is -inf."""
        starts = self._starts
        i = bisect_right(starts, t_s) if t_s >= 0.0 else 1
        return (starts[i - 1] if i > 1 else -math.inf,
                starts[i] if i < len(starts) else math.inf,
                self.segments[i - 1][1])

    def load_at(self, t_s: float) -> float:
        return self.segment_at(t_s)[2]

    def as_dict(self) -> dict:
        return {"segments": [list(s) for s in self.segments]}

    @classmethod
    def from_dict(cls, obj: dict) -> "LoadScenario":
        return cls(tuple((float(a), float(b)) for a, b in obj["segments"]))


class SimEndpoint:
    """Fixed-interval stepping endpoint over a load scenario.

    The clock persists across begin() calls so multi-class transfers see one
    continuous scenario. An optional fail_at_s raises EndpointFailure on the
    first step at or past that time. A step keeps the [start, end) interval
    of the current load segment and looks the scenario up again only when
    the clock leaves it; it reuses the previous step's throughput and power
    until the parameters, the dataset or the load change. Between those
    events a step allocates only its sample. A step whose new rate cannot
    shrink the bytes that remain raises SimulationError instead of looping.
    """

    def __init__(self, spec: EndpointSpec, scenario: LoadScenario | None = None,
                 interval_s: float = 1.0, fail_at_s: float | None = None):
        if not interval_s > 0:   # NaN fails too
            raise SimulationError("interval_s must be > 0")
        if fail_at_s is not None and math.isnan(fail_at_s):
            raise SimulationError("fail_at_s must not be NaN")
        self.spec = spec
        self.scenario = scenario or LoadScenario.constant(0.0)
        self.interval_s = interval_s
        self.fail_at_s = fail_at_s
        self.clock_s = 0.0
        self._dataset: DatasetMeta | None = None
        self._params: ParamConfig | None = None
        self._remaining = 0.0
        # (start, end, load) of the current segment; empty until the first step
        self._segment = (math.inf, math.inf, None)
        self._rate_load: float | None = None   # load of the cached _rate
        self._rate = (0.0, 0.0)                # (throughput, power)

    def describe(self) -> NetworkMeta:
        return NetworkMeta(
            source_id=self.spec.source_id, dest_id=self.spec.dest_id,
            bandwidth_mbps=self.spec.bandwidth_mbps, rtt_ms=self.spec.rtt_ms,
            ext_load=self.scenario.load_at(self.clock_s))

    def begin(self, dataset: DatasetMeta, params: ParamConfig) -> None:
        total = float(dataset.total_size_bytes)
        if not 0.0 < total < math.inf:   # NaN fails too
            raise SimulationError("total_size_bytes must be finite and > 0")
        self.set_params(params)
        self._dataset = dataset
        self._remaining = total

    def set_params(self, params: ParamConfig) -> None:
        msg = validate_params(params)
        if msg is not None:
            raise SimulationError(msg)
        if params.cpu_num > self.spec.cpu_cores:
            raise SimulationError("cpu_num exceeds the endpoint's cores")
        self._params = params
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


def synth_file_sizes(meta: DatasetMeta) -> np.ndarray:
    """Deterministic file set matching a class's mean and spread, as an
    int64 array: half the files at avg - stddev, then the rest at
    avg + stddev (even counts assumed)."""
    lo = int(round(meta.avg_file_size_bytes - meta.file_size_stddev_bytes))
    hi = int(round(meta.avg_file_size_bytes + meta.file_size_stddev_bytes))
    if lo < 1:
        raise SimulationError("stddev too large for synthetic file set")
    half = meta.num_files // 2
    return np.repeat(np.array([lo, hi], dtype=np.int64),
                     [half, meta.num_files - half])

