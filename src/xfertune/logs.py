"""Transfer-log domain types and JSON-Lines ingestion into a column table.

A transfer log entry records one bulk data transfer: the application-layer
parameters it ran with, the dataset it moved, the network it crossed, and the
achieved throughput / energy. Entries are exchanged as JSON-Lines files with a
fixed key set; unknown keys are rejected so silent schema drift cannot creep
into downstream fitting.

ingest_logs decodes a chunk of lines with one json.loads of the lines joined
into a JSON array, kept only when that provably equals decoding each line
alone (else the chunk is decoded line by line), and validates the chunk with
numpy masks, against the same ordered rule list that validate_entry applies
to one entry, so both report the same first broken invariant. It returns a
LogTable: one numpy column per field, which stratification and fitting read
directly. TransferLogEntry stays the record type at the edges: indexing and
iterating a table yield entries, and LogTable.from_entries converts a list.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

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
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int too large for a float
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# -- validation rules -----------------------------------------------------------
#
# Every invariant is written once, in one ordered list, and checked one way:
# as numpy masks over _Fields columns, a chunk of log lines at a time
# (ingest_logs) or one entry as a one-row column (validate_entry and
# friends). A value of the wrong type is marked in `bad` and replaced by a
# placeholder, and an integer outside int64 is marked in `big` and clipped,
# so every rule can be evaluated on every row. The first broken rule of an
# entry names it.

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
DATASET_FLOATS = ("total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes")
NETWORK_FLOATS = ("bandwidth_mbps", "rtt_ms", "ext_load")
METRIC_FIELDS = ("throughput_mbps", "energy_joules", "avg_power_watts", "duration_s",
                 "timestamp_s")
FLOAT_COLUMNS = DATASET_FLOATS + NETWORK_FLOATS + METRIC_FIELDS
# the kind of every field: int64, finite float or nonempty string
_KINDS = {**dict.fromkeys(PARAM_NAMES, "int"), "num_files": "int",
          **dict.fromkeys(FLOAT_COLUMNS, "num"),
          "source_id": "str", "dest_id": "str"}


@dataclass(frozen=True)
class _Fields:
    """Field columns with their wrong-type and outside-int64 marks, each a
    dict keyed by field name."""

    v: dict
    bad: dict
    big: dict


def _column(kind: str, raw: list):
    """(values, bad, big) of one column of decoded JSON values."""
    n = len(raw)
    types = set(map(type, raw))
    none = np.zeros(n, dtype=bool)
    if kind == "str":
        if types <= {str} and "" not in raw:
            return raw, none, none
        return raw, np.array([not (isinstance(x, str) and x) for x in raw]), none
    if kind == "num":
        if types <= {float}:
            values = np.array(raw, dtype=np.float64)
            bad = ~np.isfinite(values)
        else:
            bad = np.array([not _is_num(x) for x in raw])
            values = np.array([1.0 if b else float(x) for x, b in zip(raw, bad)])
        values[bad] = 1.0
        return values, bad, none
    if types <= {int}:
        try:
            return np.array(raw, dtype=np.int64), none, none
        except OverflowError:
            pass
    bad = np.array([not _is_int(x) for x in raw])
    clipped = [0 if b else min(max(x, _INT64_MIN), _INT64_MAX) for x, b in zip(raw, bad)]
    big = np.array([not b and x != c for x, b, c in zip(raw, bad, clipped)])
    return np.array(clipped, dtype=np.int64), bad, big


def _fields(raw: dict) -> _Fields:
    """The _Fields of decoded columns, one list of values per field name."""
    cols = {name: _column(_KINDS[name], values) for name, values in raw.items()}
    return _Fields(*({name: c[k] for name, c in cols.items()} for k in range(3)))


def _lattice_rules(lattice: ParamLattice | None):
    if lattice is None:
        return ()
    return tuple((f"{n}={{{n}}} not on the configured lattice",
                  lambda r, n=n, axis=lattice.axis(n): np.isin(r.v[n], axis, invert=True))
                 for n in PARAM_NAMES)


def _below_int(f: np.ndarray, i: np.ndarray) -> np.ndarray:
    """f < i for float64 f and int64 i, compared exactly as Python compares
    a float with an int. numpy would round i to a float first, which
    decides wrongly when i is above 2**53 and rounds onto f."""
    fi = i.astype(np.float64)
    tie = f == fi   # f is then an integer in [-2**63, 2**63]
    in_range = f < 2.0 ** 63
    f_int = np.where(tie & in_range, f, 0.0).astype(np.int64)
    return np.where(tie, in_range & (f_int < i), f < fi)


def _energy_drift(r):
    expect = r.v["avg_power_watts"] * r.v["duration_s"]
    energy = r.v["energy_joules"]
    scale = np.maximum(np.maximum(abs(expect), abs(energy)), 1e-9)
    return abs(expect - energy) > ENERGY_POWER_TOL * scale


# (message, broken) pairs in checking order; a message may name the
# entry's parameter values as {cpu_num} etc.
_PARAM_RULES = (
    *((f"{n} must be an integer", lambda r, n=n: r.bad[n]) for n in PARAM_NAMES),
    *((f"{n} must be >= {PARAM_MIN[n]}", lambda r, n=n: r.v[n] < PARAM_MIN[n])
      for n in PARAM_NAMES),
    *((f"{n} must be < 2**63", lambda r, n=n: r.big[n]) for n in PARAM_NAMES),
)
_DATASET_RULES = (
    ("num_files must be >= 1", lambda r: r.bad["num_files"] | (r.v["num_files"] < 1)),
    ("num_files must be < 2**63", lambda r: r.big["num_files"]),
    *((f"{n} must be a finite number", lambda r, n=n: r.bad[n]) for n in DATASET_FLOATS),
    ("total_size_bytes must allow at least 1 byte per file",
     lambda r: _below_int(r.v["total_size_bytes"], r.v["num_files"])),
    ("avg_file_size_bytes must be > 0", lambda r: r.v["avg_file_size_bytes"] <= 0),
    ("file_size_stddev_bytes must be >= 0", lambda r: r.v["file_size_stddev_bytes"] < 0),
    ("avg_file_size_bytes * num_files inconsistent with total_size_bytes",
     lambda r: (abs(r.v["avg_file_size_bytes"] * r.v["num_files"] - r.v["total_size_bytes"])
                > SIZE_MEAN_TOL * r.v["total_size_bytes"])),
)
_NETWORK_RULES = (
    ("source_id must be a nonempty string", lambda r: r.bad["source_id"]),
    ("dest_id must be a nonempty string", lambda r: r.bad["dest_id"]),
    ("bandwidth_mbps must be > 0",
     lambda r: r.bad["bandwidth_mbps"] | (r.v["bandwidth_mbps"] <= 0)),
    ("rtt_ms must be > 0", lambda r: r.bad["rtt_ms"] | (r.v["rtt_ms"] <= 0)),
    ("ext_load out of [0,1]",
     lambda r: r.bad["ext_load"] | (r.v["ext_load"] < 0.0) | (r.v["ext_load"] > 1.0)),
)
_METRIC_RULES = (
    *((f"{n} must be a finite number", lambda r, n=n: r.bad[n]) for n in METRIC_FIELDS),
    ("throughput_mbps must be > 0", lambda r: r.v["throughput_mbps"] <= 0),
    ("throughput exceeds bandwidth",
     lambda r: r.v["throughput_mbps"] > r.v["bandwidth_mbps"]),
    ("duration_s must be > 0", lambda r: r.v["duration_s"] <= 0),
    ("energy and power must be >= 0",
     lambda r: (r.v["energy_joules"] < 0) | (r.v["avg_power_watts"] < 0)),
    ("energy_joules inconsistent with avg_power_watts * duration_s", _energy_drift),
)


def _entry_rules(lattice: ParamLattice | None):
    return (*_PARAM_RULES, *_lattice_rules(lattice), *_DATASET_RULES, *_NETWORK_RULES,
            *_METRIC_RULES)


def _first_broken_row(rules, r: _Fields, n: int):
    """(row, message) of the earliest row breaking a rule, naming the first
    rule it breaks; None if every row is valid."""
    broken = np.empty((len(rules), n), dtype=bool)
    with np.errstate(all="ignore"):
        for k, (_, fn) in enumerate(rules):
            broken[k] = fn(r)
    rows = np.flatnonzero(broken.any(axis=0))
    if not len(rows):
        return None
    row = int(rows[0])
    msg = rules[int(np.argmax(broken[:, row]))][0]
    return row, msg.format(**{p: int(r.v[p][row]) for p in PARAM_NAMES if p in r.v})


def _first_broken(rules, values: dict) -> str | None:
    """The first rule broken by one entry's field values, or None: the
    entry checked as a one-row column, as ingest checks a chunk."""
    found = _first_broken_row(rules, _fields({n: [x] for n, x in values.items()}), 1)
    return None if found is None else found[1]


def validate_params(params: ParamConfig, lattice: ParamLattice | None = None) -> str | None:
    """Return the first violated parameter invariant, or None if valid."""
    return _first_broken((*_PARAM_RULES, *_lattice_rules(lattice)),
                         {n: params.get(n) for n in PARAM_NAMES})


def validate_dataset(meta: DatasetMeta) -> str | None:
    return _first_broken(_DATASET_RULES, meta.as_dict())


def validate_network(net: NetworkMeta) -> str | None:
    return _first_broken(_NETWORK_RULES, net.as_dict())


def validate_entry(entry: TransferLogEntry, lattice: ParamLattice | None = None) -> str | None:
    """Return the first violated invariant of an entry, or None if valid."""
    values = {**entry.params.as_dict(), **entry.dataset.as_dict(), **entry.network.as_dict(),
              **{n: getattr(entry, n) for n in METRIC_FIELDS}}
    return _first_broken(_entry_rules(lattice), values)


# -- the column table ------------------------------------------------------------

def _route_codes(pairs: list) -> tuple[np.ndarray, tuple]:
    """Codes of (source_id, dest_id) pairs numbered in sorted route order."""
    routes = tuple(sorted(set(pairs)))
    index = {r: i for i, r in enumerate(routes)}
    return np.fromiter(map(index.__getitem__, pairs), np.int64, len(pairs)), routes


def lex_order(a: np.ndarray) -> np.ndarray:
    """Indices that sort the rows of a 2-D array lexicographically, as
    sorted() sorts tuples; stable, so equal rows keep their order."""
    return np.lexsort(a.T[::-1]) if a.shape[1] else np.arange(len(a))


def unique_rows(a: np.ndarray):
    """Distinct rows of a 2-D array in lexicographic order, the index of
    each row's distinct row and the count of each: what np.unique(a, axis=0,
    return_inverse=True, return_counts=True) gives, by one stable lexsort
    instead of sorting a structured copy."""
    order = lex_order(a)
    rows = a[order]
    starts = np.ones(len(a), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    return rows[first], inverse, np.diff(first, append=len(a))


# the LogTable fields that hold one row per entry
_ROW_ARRAYS = ("params", "num_files", *FLOAT_COLUMNS, "route")


@dataclass(frozen=True, eq=False)
class LogTable:
    """Transfer log entries as read-only numpy columns, one row per entry.

    `params` holds the five parameters in PARAM_NAMES order, `num_files`
    the file counts; every other dataset, network and metric field is a
    float64 column of its own name. `route` codes index `routes`, the
    distinct (source_id, dest_id) pairs of the log in sorted order, so
    sorting codes sorts routes. len(), indexing and iteration give
    TransferLogEntry records.
    """

    params: np.ndarray
    num_files: np.ndarray
    total_size_bytes: np.ndarray
    avg_file_size_bytes: np.ndarray
    file_size_stddev_bytes: np.ndarray
    bandwidth_mbps: np.ndarray
    rtt_ms: np.ndarray
    ext_load: np.ndarray
    throughput_mbps: np.ndarray
    energy_joules: np.ndarray
    avg_power_watts: np.ndarray
    duration_s: np.ndarray
    timestamp_s: np.ndarray
    route: np.ndarray
    routes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for name in _ROW_ARRAYS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.route)

    def __iter__(self):
        params = self.params.tolist()
        num_files = self.num_files.tolist()
        f = {name: getattr(self, name).tolist() for name in FLOAT_COLUMNS}
        for i, code in enumerate(self.route.tolist()):
            yield TransferLogEntry(
                params=ParamConfig(*params[i]),
                dataset=DatasetMeta(num_files[i], *(f[n][i] for n in DATASET_FLOATS)),
                network=NetworkMeta(*self.routes[code], *(f[n][i] for n in NETWORK_FLOATS)),
                **{n: f[n][i] for n in METRIC_FIELDS})

    def __getitem__(self, i: int) -> TransferLogEntry:
        return next(iter(self.take([i])))

    def take(self, indices) -> "LogTable":
        """The sub-table of the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LogTable(**{k: getattr(self, k)[idx] for k in _ROW_ARRAYS}, routes=self.routes)

    @classmethod
    def from_entries(cls, entries) -> "LogTable":
        """Column table of a sequence of TransferLogEntry (not validated)."""
        n = len(entries)
        params = np.array([attrgetter(*PARAM_NAMES)(e.params) for e in entries],
                          dtype=np.int64).reshape(n, len(PARAM_NAMES))
        floats = {name: np.fromiter(map(attrgetter(f"{section}.{name}"), entries),
                                    np.float64, n)
                  for section, names in (("dataset", DATASET_FLOATS),
                                         ("network", NETWORK_FLOATS))
                  for name in names}
        floats.update({name: np.fromiter(map(attrgetter(name), entries), np.float64, n)
                       for name in METRIC_FIELDS})
        route, routes = _route_codes([e.network.route for e in entries])
        return cls(params=params,
                   num_files=np.fromiter((e.dataset.num_files for e in entries), np.int64, n),
                   route=route, routes=routes, **floats)


def as_log_table(entries) -> LogTable:
    """A LogTable as is; a sequence of TransferLogEntry converted."""
    return entries if isinstance(entries, LogTable) else LogTable.from_entries(entries)


# -- JSON-Lines ingestion -------------------------------------------------------

_PARAM_KEYS = set(PARAM_NAMES)
_DATASET_KEYS = {"num_files", *DATASET_FLOATS}
_NETWORK_KEYS = {"source_id", "dest_id", *NETWORK_FLOATS}
_TOP_KEYS = {"params", "dataset", "network", *METRIC_FIELDS}
# lines decoded at once: bounds the decoded dicts held alongside the columns
INGEST_CHUNK_LINES = 1024
# quote marks around the keys and string values of one valid entry
_ENTRY_QUOTES = 2 * (len(_TOP_KEYS) + len(_PARAM_KEYS) + len(_DATASET_KEYS)
                     + len(_NETWORK_KEYS) + list(_KINDS.values()).count("str"))


def _check_keys(obj: dict, expected: set, where: str, line_no: int) -> None:
    if not isinstance(obj, dict):
        raise LogParseError(f"{where} must be an object, line {line_no}")
    unknown = set(obj) - expected
    if unknown:
        raise LogParseError(f"unknown key {sorted(unknown)[0]!r} in {where}, line {line_no}")
    missing = expected - set(obj)
    if missing:
        raise LogParseError(f"missing key {sorted(missing)[0]!r} in {where}, line {line_no}")


def _raw_columns(objs: list) -> dict | None:
    """Each field's decoded values over the lines, or None unless every line
    is an object with exactly the entry's keys and each section an object
    with exactly its own. With the right number of keys, finding every
    expected key rules out any other."""
    raw = {}
    try:
        for section, keys in ((None, _TOP_KEYS), ("params", _PARAM_KEYS),
                              ("dataset", _DATASET_KEYS), ("network", _NETWORK_KEYS)):
            rows = objs if section is None else list(map(itemgetter(section), objs))
            if not (set(map(type, rows)) <= {dict} and set(map(len, rows)) <= {len(keys)}):
                return None
            raw.update({name: list(map(itemgetter(name), rows))
                        for name in keys if name in _KINDS})
    except KeyError:
        return None
    return raw


def _check_entry_keys(obj, line_no: int) -> None:
    _check_keys(obj, _TOP_KEYS, "entry", line_no)
    _check_keys(obj["params"], _PARAM_KEYS, "params", line_no)
    _check_keys(obj["dataset"], _DATASET_KEYS, "dataset", line_no)
    _check_keys(obj["network"], _NETWORK_KEYS, "network", line_no)


def _checked_columns(raw: dict, line_nos: list, rules) -> dict:
    """A chunk's decoded columns, typed and validated; raise
    LogValidationError naming the earliest bad line."""
    r = _fields(raw)
    bad = _first_broken_row(rules, r, len(line_nos))
    if bad is not None:
        row, msg = bad
        raise LogValidationError(f"{msg}, line {line_nos[row]}")
    return r.v


def _batch_columns(lines: list, rules) -> dict | None:
    """Validated columns of stripped nonempty lines decoded by one json.loads
    of "[" + ",".join(lines) + "]", or None unless that decode is certainly
    what decoding each line alone gives and every entry is valid.

    The batch equals the per-line decode when every join comma separates two
    top-level values. A join comma inside a value would sit in a string, in
    an array, or between two members of an object. Each accepted entry has
    its fixed keys and two route ids, each a string written with at least
    two quote marks, so a text with exactly _ENTRY_QUOTES quote marks per
    line holds no other string: no escaped quote, and no repeated key, whose
    earlier value json.loads would drop unseen. The text then holds only
    what the accepted values hold: no array, and no string but the fixed
    keys and the route ids, none with a comma. A member after a comma starts
    with '"', but every line starts with '{'. So all len(lines) - 1 join
    commas separate values, and with exactly one value per line no line
    holds a separator of its own: value k is the text of line k, which
    json.loads decodes alone to the same value. The '{'/'}' and quote tests
    also send a chunk they fail to the per-line path without a wasted
    decode.
    """
    if not all(line[0] == "{" and line[-1] == "}" for line in lines):
        return None
    text = "[" + ",".join(lines) + "]"
    if text.count('"') != _ENTRY_QUOTES * len(lines):
        return None
    try:
        objs = json.loads(text)
    except json.JSONDecodeError:
        return None
    if len(objs) != len(lines) or (raw := _raw_columns(objs)) is None:
        return None
    try:
        columns = _checked_columns(raw, range(len(lines)), rules)
    except LogValidationError:
        return None
    if "," in "".join(columns["source_id"]) or "," in "".join(columns["dest_id"]):
        return None
    return columns


def _read_chunk(lines: list, first: int, rules) -> dict:
    """Validated columns of a chunk of lines, the first numbered first;
    raise the error of its earliest bad line: malformed JSON, wrong keys or
    a broken rule. A chunk the batch decode cannot take is decoded line by
    line, which finds that error."""
    columns = _batch_columns([line for line in map(str.strip, lines) if line], rules)
    if columns is not None:
        return columns
    objs, line_nos, bad_json = [], [], None
    for line_no, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            continue
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            bad_json = line_no, exc
            break
        line_nos.append(line_no)
    raw = _raw_columns(objs)
    if raw is None:
        k = next(k for k, obj in enumerate(objs) if _raw_columns([obj]) is None)
        # an earlier bad line wins
        _checked_columns(_raw_columns(objs[:k]), line_nos[:k], rules)
        _check_entry_keys(objs[k], line_nos[k])
    columns = _checked_columns(raw, line_nos, rules)
    if bad_json is not None:
        line_no, exc = bad_json
        raise LogParseError(f"malformed JSON, line {line_no}: {exc.msg}") from exc
    return columns


def ingest_logs(path: str | Path, lattice: ParamLattice | None = None) -> LogTable:
    """Read and validate a JSON-Lines log file into a LogTable.

    Raises LogParseError for malformed lines and LogValidationError for
    entries violating domain invariants; both name the earliest offending
    line. Lines are read in chunks of INGEST_CHUNK_LINES, each decoded by
    one json.loads where _batch_columns can prove that equal to decoding
    line by line, and validated column-wise; integers in float fields load
    as floats.
    """
    rules = _entry_rules(lattice)
    chunks, pairs, known = [], [], {}
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while lines := list(itertools.islice(fh, INGEST_CHUNK_LINES)):
            chunk = _read_chunk(lines, first, rules)
            # one kept tuple per distinct route, so the chunk's strings can go
            pairs += (known.setdefault(r, r)
                      for r in zip(chunk.pop("source_id"), chunk.pop("dest_id")))
            chunks.append(chunk)
            first += len(lines)
    if not chunks:   # an empty log: the columns of no lines
        chunks.append(_read_chunk([], 1, rules))
    v = {name: np.concatenate([c[name] for c in chunks])
         for name in (*PARAM_NAMES, "num_files", *FLOAT_COLUMNS)}
    route, routes = _route_codes(pairs)
    return LogTable(params=np.column_stack([v.pop(n) for n in PARAM_NAMES]),
                    route=route, routes=routes, **v)


def serialize_logs(entries, path: str | Path) -> None:
    """Write entries (a LogTable or a sequence of TransferLogEntry) as
    canonical JSON-Lines (sorted keys, repr floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.as_dict(), sort_keys=True))
            fh.write("\n")
