"""Transfer-log domain types and JSON-Lines ingestion.

A transfer log entry records one bulk data transfer: the application-layer
parameters it ran with, the dataset it moved, the network it crossed, and the
achieved throughput / energy. Entries are exchanged as JSON-Lines files with a
fixed key set; unknown keys are rejected so silent schema drift cannot creep
into downstream fitting.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

# relative tolerance for energy == avg_power * duration
ENERGY_POWER_TOL = 0.01
# relative tolerance for avg_file_size * num_files == total_size
SIZE_MEAN_TOL = 0.01


class LogError(ValueError):
    """Base error for log parsing and validation."""


class LogParseError(LogError):
    """Malformed JSON-Lines input (bad JSON, missing or unknown keys)."""


class LogValidationError(LogError):
    """Structurally valid entry that violates a domain invariant."""


@dataclass(frozen=True)
class ParamConfig:
    """Application-layer transfer parameters for one run."""

    cpu_num: int
    cpu_freq_mhz: int
    cc: int   # concurrency: files in flight
    p: int    # parallelism: TCP streams per file
    pp: int   # pipelining depth: queued requests per stream

    def as_dict(self) -> dict:
        return {
            "cpu_num": self.cpu_num,
            "cpu_freq_mhz": self.cpu_freq_mhz,
            "cc": self.cc,
            "p": self.p,
            "pp": self.pp,
        }

    def get(self, name: str):
        return getattr(self, name)

    def with_value(self, name: str, value: int) -> "ParamConfig":
        return replace(self, **{name: value})


PARAM_NAMES = ("cpu_num", "cpu_freq_mhz", "cc", "p", "pp")
# smallest valid value of each parameter
PARAM_MIN = {"cpu_num": 1, "cpu_freq_mhz": 1, "cc": 1, "p": 1, "pp": 0}


@dataclass(frozen=True)
class ParamLattice:
    """Allowed discrete values per tunable parameter, each sorted ascending."""

    cpu_num: tuple[int, ...]
    cpu_freq_mhz: tuple[int, ...]
    cc: tuple[int, ...]
    p: tuple[int, ...]
    pp: tuple[int, ...]

    def axis(self, name: str) -> tuple[int, ...]:
        return getattr(self, name)

    def __post_init__(self):
        for name in PARAM_NAMES:
            vals = self.axis(name)
            if not vals:
                raise ValueError(f"lattice axis {name} is empty")
            if list(vals) != sorted(set(vals)):
                raise ValueError(f"lattice axis {name} must be sorted distinct values")
            if vals[0] < PARAM_MIN[name]:
                raise ValueError(f"lattice axis {name} has value below {PARAM_MIN[name]}")

    def size(self) -> int:
        n = 1
        for name in PARAM_NAMES:
            n *= len(self.axis(name))
        return n

    def configs(self):
        """Yield every ParamConfig on the lattice in lexicographic order."""
        for combo in itertools.product(*(self.axis(n) for n in PARAM_NAMES)):
            yield ParamConfig(*combo)

    def contains(self, params: ParamConfig) -> bool:
        return all(params.get(n) in self.axis(n) for n in PARAM_NAMES)

    def as_dict(self) -> dict:
        return {name: list(self.axis(name)) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, obj: dict) -> "ParamLattice":
        return cls(**{name: tuple(obj[name]) for name in PARAM_NAMES})


@dataclass(frozen=True)
class DatasetMeta:
    """Summary statistics of the file set moved by a transfer."""

    num_files: int
    total_size_bytes: float
    avg_file_size_bytes: float
    file_size_stddev_bytes: float

    def as_dict(self) -> dict:
        return {
            "num_files": self.num_files,
            "total_size_bytes": self.total_size_bytes,
            "avg_file_size_bytes": self.avg_file_size_bytes,
            "file_size_stddev_bytes": self.file_size_stddev_bytes,
        }


@dataclass(frozen=True)
class NetworkMeta:
    """Route identity and link conditions seen by a transfer."""

    source_id: str
    dest_id: str
    bandwidth_mbps: float
    rtt_ms: float
    ext_load: float   # fraction of the link consumed by external traffic

    def as_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "dest_id": self.dest_id,
            "bandwidth_mbps": self.bandwidth_mbps,
            "rtt_ms": self.rtt_ms,
            "ext_load": self.ext_load,
        }

    @property
    def route(self) -> tuple[str, str]:
        return (self.source_id, self.dest_id)


@dataclass(frozen=True)
class TransferLogEntry:
    params: ParamConfig
    dataset: DatasetMeta
    network: NetworkMeta
    throughput_mbps: float
    energy_joules: float       # energy above idle baseline
    avg_power_watts: float
    duration_s: float
    timestamp_s: float

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "dataset": self.dataset.as_dict(),
            "network": self.network.as_dict(),
            "throughput_mbps": self.throughput_mbps,
            "energy_joules": self.energy_joules,
            "avg_power_watts": self.avg_power_watts,
            "duration_s": self.duration_s,
            "timestamp_s": self.timestamp_s,
        }


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def validate_params(params: ParamConfig, lattice: ParamLattice | None = None) -> str | None:
    """Return the first violated parameter invariant, or None if valid."""
    for name in PARAM_NAMES:
        v = params.get(name)
        if not _is_int(v):
            return f"{name} must be an integer"
    for name in PARAM_NAMES:
        if params.get(name) < PARAM_MIN[name]:
            return f"{name} must be >= {PARAM_MIN[name]}"
    if lattice is not None:
        for name in PARAM_NAMES:
            if params.get(name) not in lattice.axis(name):
                return f"{name}={params.get(name)} not on the configured lattice"
    return None


def validate_dataset(meta: DatasetMeta) -> str | None:
    if not _is_int(meta.num_files) or meta.num_files < 1:
        return "num_files must be >= 1"
    for name in ("total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes"):
        if not _is_num(getattr(meta, name)):
            return f"{name} must be a finite number"
    if meta.total_size_bytes < meta.num_files:
        return "total_size_bytes must allow at least 1 byte per file"
    if meta.avg_file_size_bytes <= 0:
        return "avg_file_size_bytes must be > 0"
    if meta.file_size_stddev_bytes < 0:
        return "file_size_stddev_bytes must be >= 0"
    expect = meta.avg_file_size_bytes * meta.num_files
    if abs(expect - meta.total_size_bytes) > SIZE_MEAN_TOL * meta.total_size_bytes:
        return "avg_file_size_bytes * num_files inconsistent with total_size_bytes"
    return None


def validate_network(net: NetworkMeta) -> str | None:
    if not isinstance(net.source_id, str) or not net.source_id:
        return "source_id must be a nonempty string"
    if not isinstance(net.dest_id, str) or not net.dest_id:
        return "dest_id must be a nonempty string"
    if not _is_num(net.bandwidth_mbps) or net.bandwidth_mbps <= 0:
        return "bandwidth_mbps must be > 0"
    if not _is_num(net.rtt_ms) or net.rtt_ms <= 0:
        return "rtt_ms must be > 0"
    if not _is_num(net.ext_load) or not (0.0 <= net.ext_load <= 1.0):
        return "ext_load out of [0,1]"
    return None


def validate_entry(entry: TransferLogEntry, lattice: ParamLattice | None = None) -> str | None:
    """Return the first violated invariant of an entry, or None if valid."""
    msg = validate_params(entry.params, lattice)
    if msg is None:
        msg = validate_dataset(entry.dataset)
    if msg is None:
        msg = validate_network(entry.network)
    if msg is not None:
        return msg
    for name in ("throughput_mbps", "energy_joules", "avg_power_watts", "duration_s", "timestamp_s"):
        if not _is_num(getattr(entry, name)):
            return f"{name} must be a finite number"
    if entry.throughput_mbps <= 0:
        return "throughput_mbps must be > 0"
    if entry.throughput_mbps > entry.network.bandwidth_mbps:
        return "throughput exceeds bandwidth"
    if entry.duration_s <= 0:
        return "duration_s must be > 0"
    if entry.energy_joules < 0 or entry.avg_power_watts < 0:
        return "energy and power must be >= 0"
    expect = entry.avg_power_watts * entry.duration_s
    scale = max(abs(expect), abs(entry.energy_joules), 1e-9)
    if abs(expect - entry.energy_joules) > ENERGY_POWER_TOL * scale:
        return "energy_joules inconsistent with avg_power_watts * duration_s"
    return None


_PARAM_KEYS = set(PARAM_NAMES)
_DATASET_KEYS = {"num_files", "total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes"}
_NETWORK_KEYS = {"source_id", "dest_id", "bandwidth_mbps", "rtt_ms", "ext_load"}
_TOP_KEYS = {"params", "dataset", "network", "throughput_mbps", "energy_joules",
             "avg_power_watts", "duration_s", "timestamp_s"}


def _check_keys(obj: dict, expected: set, where: str, line_no: int) -> None:
    if not isinstance(obj, dict):
        raise LogParseError(f"{where} must be an object, line {line_no}")
    unknown = set(obj) - expected
    if unknown:
        raise LogParseError(f"unknown key {sorted(unknown)[0]!r} in {where}, line {line_no}")
    missing = expected - set(obj)
    if missing:
        raise LogParseError(f"missing key {sorted(missing)[0]!r} in {where}, line {line_no}")


def entry_from_obj(obj: dict, line_no: int = 0) -> TransferLogEntry:
    """Build an entry from a decoded JSON object, enforcing the exact key set."""
    _check_keys(obj, _TOP_KEYS, "entry", line_no)
    _check_keys(obj["params"], _PARAM_KEYS, "params", line_no)
    _check_keys(obj["dataset"], _DATASET_KEYS, "dataset", line_no)
    _check_keys(obj["network"], _NETWORK_KEYS, "network", line_no)
    return TransferLogEntry(
        params=ParamConfig(**obj["params"]),
        dataset=DatasetMeta(**obj["dataset"]),
        network=NetworkMeta(**obj["network"]),
        throughput_mbps=obj["throughput_mbps"],
        energy_joules=obj["energy_joules"],
        avg_power_watts=obj["avg_power_watts"],
        duration_s=obj["duration_s"],
        timestamp_s=obj["timestamp_s"],
    )


def ingest_logs(path: str | Path, lattice: ParamLattice | None = None) -> list[TransferLogEntry]:
    """Read and validate a JSON-Lines log file.

    Raises LogParseError for malformed lines and LogValidationError for
    entries violating domain invariants; both name the offending line.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogParseError(f"malformed JSON, line {line_no}: {exc.msg}") from exc
            entry = entry_from_obj(obj, line_no)
            msg = validate_entry(entry, lattice)
            if msg is not None:
                raise LogValidationError(f"{msg}, line {line_no}")
            entries.append(entry)
    return entries


def serialize_logs(entries, path: str | Path) -> None:
    """Write entries as canonical JSON-Lines (sorted keys, repr floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.as_dict(), sort_keys=True))
            fh.write("\n")
