"""Online tuning of an in-flight transfer from periodic monitor samples.

Two feedback loops share one structure. The energy loop predicts energy to
completion each tick and triggers when the prediction grows by more than BETA
or the remaining budget cannot cover it; the throughput loop triggers when
smoothed throughput (weight EWMA_WEIGHT on the previous average) falls more
than ALPHA below its previous value, or below the guaranteed floor. Either way
the tuner then reacts by one rule. Capped means SWITCH_CAP switches are spent.
A trigger reacts when capped or when the external load rose by more than
BETA: a heuristic single-parameter nudge (up or down) if capped, else a
switch to the parameter surface of a higher-load sibling stratum. With no
trigger, a load fall of more than ALPHA gets an upward-only nudge if capped,
else a switch to a lower-load sibling. Every other tick holds.

Which loop runs follows from the SLA: energy caps and the pure min-energy
objective run the energy loop, throughput floors and the pure max-throughput
objective run the throughput loop.

A transfer's file set is an array of sizes, split into classes with masks.
A class's statistics keep the sizes' own arithmetic: an int total is exact,
and squared deviations are added left to right in file order, so the work
outside the tick loop is a few array passes per class. A transfer checks its
sizes once.

Inside the loop, a holding tick allocates only the endpoint's sample: the
tuner returns one shared TickResult per (stratum, parameters, trigger flag),
and finds a stratum's siblings once. A class keeps only the last three
smoothed throughputs, all that the heuristic nudge reads. MonitorSample and
TickResult are slots dataclasses, immutable by convention rather than
frozen, because building a frozen one costs several times as much.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import (StratifyConfig, Stratum, assign_stratum,
                         load_band_stratum)
from .logs import DatasetMeta, NetworkMeta, ParamConfig
from .optimizer import (KIND_ENERGY_CAP, KIND_THROUGHPUT_FLOOR, SLA,
                        InfeasibleSLAError, ParamTable)

MIB = 1 << 20
SMALL_MAX_BYTES = 1 * MIB          # < 1 MiB: small
MEDIUM_MAX_BYTES = 50 * MIB        # < 50 MiB: medium, else large
FILE_CLASSES = ("small", "medium", "large")
_INT64_MAX = (1 << 63) - 1

ALPHA = 0.1
BETA = 0.1
EWMA_WEIGHT = 0.5
SWITCH_CAP = 3


class TunerError(ValueError):
    pass


class EndpointFailure(Exception):
    """Endpoint died mid-transfer. `report` holds progress up to the failure."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(slots=True)
class MonitorSample:
    """One monitoring interval as reported by the endpoint. Immutable by
    convention: nothing assigns a field once it is built. Not frozen,
    because a frozen dataclass costs several times as much to build and one
    is built on every tick."""

    dt_s: float
    throughput_mbps: float
    power_watts: float
    ext_load: float
    rtt_ms: float
    bytes_moved: float


@dataclass(slots=True)
class TickResult:
    """What one tick decided. Immutable by convention: a holding tick
    returns one shared result for as long as the stratum, the parameters and
    the trigger flag hold, so a caller must never assign its fields."""

    action: str | None           # switch-high | switch-low | heuristic-up | heuristic-down
    triggered: bool              # degradation condition fired this tick
    stratum_id: str
    params: ParamConfig


def _size_kind(t) -> str | None:
    if issubclass(t, (bool, np.bool_)):
        return None
    if issubclass(t, (int, np.integer)):
        return "i"
    if issubclass(t, (float, np.floating)):
        return "f"
    return None


@dataclass(frozen=True, slots=True)
class _CheckedSizes:
    """Sizes that _size_array has already returned, or a subset of them:
    run_transfer checks a file set once and passes its classes on in this
    wrapper, so cluster_files and dataset_meta_for do not check them again.
    It still calls those two by name, where the benchmark's tracer
    (bench/tracing.py) times a transfer's classification."""

    arr: np.ndarray


def _size_array(sizes) -> np.ndarray:
    """File sizes as a 1-D array whose arithmetic is that of the sizes:
    int64 for ints, float64 for floats, object for ints beyond int64 or a
    mix of ints and floats. Every size must be a finite positive int or
    float; bools are not sizes."""
    if isinstance(sizes, _CheckedSizes):
        return sizes.arr
    if isinstance(sizes, np.ndarray) and sizes.dtype.kind in "iuf":
        arr = sizes
    else:
        values = sizes.tolist() if isinstance(sizes, np.ndarray) else list(sizes)
        kinds = {_size_kind(t) for t in set(map(type, values))}
        if None in kinds:
            raise TunerError("file sizes must be ints or floats")
        if kinds == {"f"}:
            arr = np.array(values, dtype=np.float64)
        else:
            try:
                arr = np.array(values, dtype=np.int64 if kinds <= {"i"} else object)
            except OverflowError:
                arr = np.array(values, dtype=object)
    if arr.ndim != 1:
        raise TunerError("file sizes must be one-dimensional")
    # NaN fails both comparisons; an int compares exactly with inf
    if not np.all((arr > 0) & (arr < math.inf)):
        raise TunerError("file sizes must be finite and > 0")
    return arr


def _total_bytes(sizes: np.ndarray) -> float:
    """Sum of a nonempty size array in the sizes' own arithmetic: exact for
    ints (then rounded once), left to right for floats."""
    if sizes.dtype.kind == "f":
        return float(np.cumsum(sizes)[-1])
    if sizes.dtype.kind in "iu" and int(sizes.max()) * len(sizes) <= _INT64_MAX:
        return float(int(sizes.sum()))
    return float(sum(sizes.tolist()))   # past int64, or ints mixed with floats


def cluster_files(sizes) -> dict:
    """Group file sizes into small/medium/large classes (lower-inclusive
    thresholds: exactly 1 MiB is medium, exactly 50 MiB is large). Each
    class is an array of its sizes in file order."""
    arr = _size_array(sizes)
    small = arr < SMALL_MAX_BYTES
    large = arr >= MEDIUM_MAX_BYTES
    return {"small": arr[small], "medium": arr[~(small | large)],
            "large": arr[large]}


def dataset_meta_for(sizes) -> DatasetMeta:
    """Population statistics of a file set. The total is the exact sum of
    int sizes, or the left-to-right sum of float ones; each squared
    deviation is Python's float ``**`` of one distinct size, and they are
    added left to right in file order."""
    arr = _size_array(sizes)
    n = len(arr)
    if n == 0:
        raise TunerError("no file sizes")
    total = _total_bytes(arr)
    avg = total / n
    # distinct sizes from a sort: np.unique is several times slower here
    ordered = np.sort(arr)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    squares = np.array([(v - avg) ** 2 for v in distinct.tolist()])
    var = float(np.cumsum(squares[np.searchsorted(distinct, arr)])[-1]) / n
    return DatasetMeta(num_files=n, total_size_bytes=total,
                       avg_file_size_bytes=avg, file_size_stddev_bytes=math.sqrt(var))


def select_loop(sla: SLA) -> str:
    """Which feedback loop an SLA runs: 'energy' or 'throughput'."""
    if sla.kind == KIND_ENERGY_CAP:
        return "energy" if math.isfinite(sla.bound) else "throughput"
    return "energy" if sla.bound == 0 else "throughput"


@dataclass
class _ClassState:
    t_avg: float = 0.0
    past_e_pred: float = math.inf
    ref_ext: float = 0.0
    # the last three t_avg values: all that tick and _heuristic read
    history: deque = field(default_factory=lambda: deque(maxlen=3))


class OnlineTuner:
    """Stateful per-transfer controller.

    Drive it with start_transfer, then per file class start_class (which
    assigns the stratum and returns the tuned initial parameters) and tick
    for every monitor sample. Energy, elapsed time and the switch budget
    persist across classes; smoothing state resets per class.
    """

    def __init__(self, strata, table: ParamTable, models_by_stratum: dict,
                 sla: SLA, *, config: StratifyConfig | None = None):
        self.strata = list(strata)
        self.table = table
        self.models = models_by_stratum
        self.sla = sla
        self.config = config or StratifyConfig()
        self.loop = select_loop(sla)
        self.e_sla = sla.bound if sla.kind == KIND_ENERGY_CAP else math.inf
        self.t_sla = sla.bound if sla.kind == KIND_THROUGHPUT_FLOOR else 0.0
        self._sibling_cache: dict = {}   # (stratum id, direction) -> strata
        self._held = [None, None]   # shared holding result, by trigger flag
        self._reset_transfer(0.0)

    def _reset_transfer(self, total_bytes: float):
        self.remaining_bytes = total_bytes
        self.e_consumed = 0.0
        self.elapsed_s = 0.0
        self.switch_count = 0
        self.stratum: Stratum | None = None
        self.params: ParamConfig | None = None
        self.cls = _ClassState()
        self.warnings: list[str] = []
        self.events: list[dict] = []
        self._rr = {+1: 0, -1: 0}   # round-robin slot per nudge direction
        self._last_nudge = None   # (param, direction) of last heuristic change

    def start_transfer(self, total_bytes: float):
        if not 0.0 < total_bytes < math.inf:   # NaN fails too
            raise TunerError("total_bytes must be finite and > 0")
        self._reset_transfer(float(total_bytes))

    def start_class(self, dataset: DatasetMeta, network: NetworkMeta) -> ParamConfig:
        """Assign the class to a stratum (probing with zero external load, so
        transfers start on the lightest-load surface) and return its tuned
        parameters."""
        probe = replace(network, ext_load=0.0)
        self.stratum = assign_stratum(dataset, probe, self.strata, self.config)
        self.params = self.table.lookup(self.stratum.id, self.sla.id).params
        self.cls = _ClassState()
        return self.params

    # -- per-tick pipeline -------------------------------------------------

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

    # -- reactions ----------------------------------------------------------

    def _siblings(self, direction: str):
        """Strata on the current route and sibling key whose load band starts
        above ("high") or below ("low") the current one. The strata are fixed
        for the tuner's lifetime, so each answer is computed once."""
        cur = self.stratum
        key = (cur.id, direction)
        sibs = self._sibling_cache.get(key)
        if sibs is None:
            sign = 1.0 if direction == "high" else -1.0
            sibs = self._sibling_cache[key] = tuple(
                s for s in self.strata
                if s.sibling_key == cur.sibling_key and s.route == cur.route
                and sign * (s.ext_load_interval[0] - cur.ext_load_interval[0]) > 0)
        return sibs

    def _warn(self, msg: str):
        if not self.warnings or self.warnings[-1] != msg:
            self.warnings.append(msg)

    def _switch(self, direction: str, ext: float):
        sibs = self._siblings(direction)
        if not sibs:
            self._warn(f"no {direction}er-load surface available from {self.stratum.id}")
            return None
        target = load_band_stratum(sibs, ext)
        try:
            params = self.table.lookup(target.id, self.sla.id).params
        except InfeasibleSLAError:
            self._warn(f"surface {target.id} infeasible under sla {self.sla.id}, staying")
            return None
        self.stratum = target
        self.params = params
        self.switch_count += 1
        self.cls.ref_ext = ext   # reference load is pinned at surface adoption
        return f"switch-{direction}"

    def _heuristic(self, allow_down: bool):
        """Single-parameter nudge from the recent throughput trend.

        Falling trend raises the next of (cc, p, pp) to its next lattice
        value; rising trend while over budget lowers the next of (pp, p, cc).
        A nudge that exactly reverses the previous one is suppressed.
        """
        h = self.cls.history
        if len(h) < 2:
            return None
        slope = h[-1] - h[-3] if len(h) >= 3 else h[-1] - h[-2]
        tol = 1e-12 * max(1.0, abs(h[-1]))
        if slope < -tol:
            order, direction = ("cc", "p", "pp"), +1
        elif slope > tol and allow_down:
            order, direction = ("pp", "p", "cc"), -1
        else:
            return None
        name = order[self._rr[direction] % 3]
        self._rr[direction] += 1
        if self._last_nudge == (name, -direction):
            return None
        axis = self.models[self.stratum.id].axis_values(name)
        i = axis.index(self.params.get(name))
        j = i + direction
        if not 0 <= j < len(axis):
            return None
        self.params = self.params.with_value(name, axis[j])
        self._last_nudge = (name, direction)
        return "heuristic-up" if direction > 0 else "heuristic-down"


class FixedController:
    """Drop-in controller that never reacts; runs one static configuration."""

    def __init__(self, params: ParamConfig):
        self.params = params
        self.stratum = None
        self.e_consumed = 0.0
        self.elapsed_s = 0.0
        self.switch_count = 0
        self.warnings: list[str] = []
        self.events: list[dict] = []
        self._held: TickResult | None = None   # shared result for self.params

    def start_transfer(self, total_bytes: float):
        self.e_consumed = 0.0
        self.elapsed_s = 0.0

    def start_class(self, dataset: DatasetMeta, network: NetworkMeta) -> ParamConfig:
        return self.params

    def tick(self, sample: MonitorSample) -> TickResult:
        self.e_consumed += sample.power_watts * sample.dt_s
        self.elapsed_s += sample.dt_s
        held = self._held
        if held is None or held.params is not self.params:
            held = self._held = TickResult(None, False, "", self.params)
        return held


@dataclass(frozen=True)
class TransferReport:
    completed: bool
    classes: tuple
    duration_s: float
    energy_joules: float
    avg_throughput_mbps: float
    switch_count: int
    warnings: tuple
    events: tuple

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "classes": [dict(c) for c in self.classes],
            "duration_s": self.duration_s,
            "energy_joules": self.energy_joules,
            "avg_throughput_mbps": self.avg_throughput_mbps,
            "switch_count": self.switch_count,
            "warnings": list(self.warnings),
            "events": list(self.events),
        }


def run_transfer(endpoint, file_sizes, controller) -> TransferReport:
    """Move a file set through an endpoint under a controller.

    Files are clustered by size and the classes transferred smallest first,
    each class re-assigned to its own stratum. If the endpoint fails midway
    the raised EndpointFailure carries the partial report.
    """
    sizes = _size_array(file_sizes)
    classes = cluster_files(_CheckedSizes(sizes))
    plan = [(c, classes[c]) for c in FILE_CLASSES if len(classes[c])]
    if not plan:
        raise TunerError("no files to transfer")
    total_bytes = _total_bytes(sizes)
    controller.start_transfer(total_bytes)
    rows = []
    moved_total = 0.0

    def report(completed: bool) -> TransferReport:
        dur = controller.elapsed_s
        return TransferReport(
            completed=completed, classes=tuple(rows),
            duration_s=dur, energy_joules=controller.e_consumed,
            avg_throughput_mbps=(moved_total * 8.0 / 1e6 / dur) if dur > 0 else 0.0,
            switch_count=controller.switch_count,
            warnings=tuple(controller.warnings), events=tuple(controller.events))

    for cname, sizes in plan:
        ds = dataset_meta_for(_CheckedSizes(sizes))
        params = controller.start_class(ds, endpoint.describe())
        endpoint.begin(ds, params)
        t0, e0 = controller.elapsed_s, controller.e_consumed
        moved = 0.0
        initial = params
        while True:
            try:
                sample = endpoint.step()
            except EndpointFailure as exc:
                rows.append(_class_row(cname, controller, ds, initial, t0, e0, moved))
                exc.report = report(False)
                raise
            if sample is None:
                break
            moved += sample.bytes_moved
            moved_total += sample.bytes_moved
            res = controller.tick(sample)
            # identity first: a holding controller returns the same params
            if res.params is not params and res.params != params:
                params = res.params
                endpoint.set_params(params)
        rows.append(_class_row(cname, controller, ds, initial, t0, e0, moved))
    return report(True)


def _class_row(cname, controller, ds: DatasetMeta, initial: ParamConfig,
               t0: float, e0: float, moved: float) -> dict:
    dur = controller.elapsed_s - t0
    return {
        "class": cname,
        "stratum_id": controller.stratum.id if controller.stratum else "",
        "num_files": ds.num_files,
        "bytes": ds.total_size_bytes,
        "bytes_moved": moved,
        "duration_s": dur,
        "energy_joules": controller.e_consumed - e0,
        "avg_throughput_mbps": (moved * 8.0 / 1e6 / dur) if dur > 0 else 0.0,
        "initial_params": initial.as_dict(),
        "final_params": controller.params.as_dict(),
    }
