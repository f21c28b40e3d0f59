"""Transfer-log domain types and JSON-Lines ingestion into a column table.

A transfer log entry records one bulk data transfer: the application-layer
parameters it ran with, the dataset it moved, the network it crossed, and the
achieved throughput / energy. Entries are exchanged as JSON-Lines files with a
fixed key set; unknown keys are rejected so silent schema drift cannot creep
into downstream fitting. The record dataclasses TransferLogEntry,
ParamConfig, DatasetMeta and NetworkMeta declare that layout once: their
field order gives each object's keys and each leaf's int, float or str
annotation its kind. as_dict(), the key checks, the validated columns and
the writer's line template are all read from those declarations.

ingest_logs decodes each line of a chunk with one orjson.loads and
validates the chunk with numpy masks against the ordered rule list that
validate_entry applies to one entry, so both report the same first broken
invariant; a chunk that fails is decoded again line by line with
json.loads, which words the error. It returns a LogTable: one numpy column
per field, which stratification and fitting read directly. Indexing a
table builds one row's TransferLogEntry, iterating it shares equal records
among rows, and LogTable.from_entries converts a list.

serialize_logs writes a LogTable from its columns, and a sequence of
entries as the table LogTable.from_entries makes of it. Each line is
json.dumps of the row's as_dict() with sorted keys; each column's distinct
values are formatted once, the numbers by orjson, with json.dumps for the
floats whose layout differs (see _column_text).

Parameters are checked against their lower bounds only: logs of real
transfers need not sit on any parameter lattice.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import re
from array import array
from dataclasses import dataclass, is_dataclass, replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np
import orjson

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


class _Record:
    """A log record: its dataclass fields, in declaration order, are its
    JSON keys, and a leaf's annotation (int, float or str) is its kind."""

    def as_dict(self) -> dict:
        # a new dict in declaration order, the order __init__ sets the fields
        return self.__dict__.copy()


@dataclass(frozen=True)
class ParamConfig(_Record):
    """Application-layer transfer parameters for one run."""

    cpu_num: int
    cpu_freq_mhz: int
    cc: int   # concurrency: files in flight
    p: int    # parallelism: TCP streams per file
    pp: int   # pipelining depth: queued requests per stream

    def get(self, name: str):
        return getattr(self, name)

    def with_value(self, name: str, value: int) -> "ParamConfig":
        return replace(self, **{name: value})


@dataclass(frozen=True)
class DatasetMeta(_Record):
    """Summary statistics of the file set moved by a transfer."""

    num_files: int
    total_size_bytes: float
    avg_file_size_bytes: float
    file_size_stddev_bytes: float


@dataclass(frozen=True)
class NetworkMeta(_Record):
    """Route identity and link conditions seen by a transfer."""

    source_id: str
    dest_id: str
    bandwidth_mbps: float
    rtt_ms: float
    ext_load: float   # fraction of the link consumed by external traffic

    @property
    def route(self) -> tuple[str, str]:
        return (self.source_id, self.dest_id)


@dataclass(frozen=True)
class TransferLogEntry(_Record):
    params: ParamConfig
    dataset: DatasetMeta
    network: NetworkMeta
    throughput_mbps: float
    energy_joules: float       # energy above idle baseline
    avg_power_watts: float
    duration_s: float
    timestamp_s: float

    def as_dict(self) -> dict:
        doc = self.__dict__.copy()
        for name in _SECTIONS:
            doc[name] = doc[name].as_dict()
        return doc


# -- the entry layout, read from the record declarations --------------------------

def _layout(cls) -> dict:
    """A record class's fields in declaration order, each a nested record's
    layout or a leaf's kind: "int", "float" or "str"."""
    return {name: _layout(t) if is_dataclass(t) else t.__name__
            for name, t in get_type_hints(cls).items()}


def _leaf_paths(layout: dict, prefix: str = ""):
    """(name, attribute path from the record, kind) of each leaf of a
    layout, in declaration order."""
    for name, kind in layout.items():
        if isinstance(kind, dict):
            yield from _leaf_paths(kind, f"{prefix}{name}.")
        else:
            yield name, prefix + name, kind


# an entry's keys nested as as_dict() nests them, each leaf holding its kind
_LAYOUT = _layout(TransferLogEntry)
_SECTIONS = {name: v for name, v in _LAYOUT.items() if isinstance(v, dict)}
_LEAF_PATHS = tuple(_leaf_paths(_LAYOUT))
# the key set of the entry (None) and of each section, the entry's first
_KEYS = {None: set(_LAYOUT), **{name: set(v) for name, v in _SECTIONS.items()}}
# the kind of every leaf: int64, finite float or nonempty string
_KINDS = {name: kind for name, _, kind in _LEAF_PATHS}
PARAM_NAMES = tuple(_SECTIONS["params"])
DATASET_FLOATS, NETWORK_FLOATS, METRIC_FIELDS = (
    tuple(name for name, kind in layout.items() if kind == "float")
    for layout in (_SECTIONS["dataset"], _SECTIONS["network"], _LAYOUT))
FLOAT_COLUMNS = DATASET_FLOATS + NETWORK_FLOATS + METRIC_FIELDS
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

    def configs(self):
        """Yield every ParamConfig on the lattice in lexicographic order."""
        for combo in itertools.product(*(self.axis(n) for n in PARAM_NAMES)):
            yield ParamConfig(*combo)


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
# Every invariant is written once, in one ordered list. A rule reads _Fields:
# numpy masks over columns, a chunk of log lines at a time (ingest_logs) or
# one entry as a one-row column (validate_entry); validate_params, which the
# simulator calls on every parameter change, evaluates the same rules on one
# entry's scalar values. A value of the wrong type is marked in `bad` and
# replaced by a placeholder, and an integer outside int64 is marked in `big`
# and clipped, so every rule can be evaluated on every row. The first broken
# rule of an entry names it.

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


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
    if kind == "float":
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


# (message, broken) pairs in checking order
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


# every rule of an entry, in checking order
_ENTRY_RULES = (*_PARAM_RULES, *_DATASET_RULES, *_NETWORK_RULES, *_METRIC_RULES)


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
    return row, rules[int(np.argmax(broken[:, row]))][0]


def _first_broken(rules, raw: dict) -> str | None:
    """The first rule broken by one entry's decoded columns, each a list of
    one value, or None: the entry checked as ingest checks a chunk."""
    found = _first_broken_row(rules, _fields(raw), 1)
    return None if found is None else found[1]


def validate_params(params: ParamConfig) -> str | None:
    """Return the first violated parameter invariant, or None if valid.
    _PARAM_RULES run on the parameters' scalar _Fields, marked and clipped
    as _column marks a one-row int column."""
    v, bad, big = {}, {}, {}
    for name, x in params.as_dict().items():
        bad[name] = not _is_int(x)
        big[name] = not bad[name] and not _INT64_MIN <= x <= _INT64_MAX
        v[name] = (0 if bad[name] else
                   min(max(x, _INT64_MIN), _INT64_MAX) if big[name] else x)
    r = _Fields(v, bad, big)
    return next((msg for msg, broken in _PARAM_RULES if broken(r)), None)


def validate_entry(entry: TransferLogEntry) -> str | None:
    """Return the first violated invariant of an entry, or None if valid."""
    return _first_broken(_ENTRY_RULES, _raw_columns([entry.as_dict()]))


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


def _shared(key: np.ndarray, build) -> tuple[list, np.ndarray]:
    """One build(i) per distinct row of a 2-D key array, each made from a
    row i that holds it, and the index of each row's object."""
    distinct, inverse, _ = unique_rows(key)
    rep = np.empty(len(distinct), dtype=np.int64)
    rep[inverse] = np.arange(len(key))
    return [build(i) for i in rep.tolist()], inverse


def _bit_key(table, ints: np.ndarray, floats) -> np.ndarray:
    """An int64 column beside the bit patterns of named float columns, so
    rows compare equal only when every value is identical (-0.0 apart
    from 0.0)."""
    return np.column_stack([ints, *(getattr(table, n).view(np.int64) for n in floats)])


# rows of a table turned into Python values at once while iterating it
_ROW_BLOCK = 1024


# the array.array typecode and dtype of a numeric leaf's column
_ARRAY_TYPES = {"int": ("q", np.int64), "float": ("d", np.float64)}
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
    TransferLogEntry records, and a slice gives a sub-table.
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

    def _params_at(self, i: int) -> ParamConfig:
        return ParamConfig(*self.params[i].tolist())

    def _dataset_at(self, i: int) -> DatasetMeta:
        return DatasetMeta(self.num_files.item(i),
                           *(getattr(self, n).item(i) for n in DATASET_FLOATS))

    def _network_at(self, i: int) -> NetworkMeta:
        return NetworkMeta(*self.routes[self.route.item(i)],
                           *(getattr(self, n).item(i) for n in NETWORK_FLOATS))

    def __iter__(self):
        """Each row as a TransferLogEntry. Rows whose parameters, dataset or
        network are equal bit for bit share one ParamConfig, DatasetMeta or
        NetworkMeta, each built once; the metrics are read _ROW_BLOCK rows
        at a time."""
        params, p_idx = _shared(self.params, self._params_at)
        datasets, d_idx = _shared(_bit_key(self, self.num_files, DATASET_FLOATS),
                                  self._dataset_at)
        networks, n_idx = _shared(_bit_key(self, self.route, NETWORK_FLOATS),
                                  self._network_at)
        for start in range(0, len(self), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            yield from map(TransferLogEntry,
                           map(params.__getitem__, p_idx[rows].tolist()),
                           map(datasets.__getitem__, d_idx[rows].tolist()),
                           map(networks.__getitem__, n_idx[rows].tolist()),
                           *(getattr(self, n)[rows].tolist() for n in METRIC_FIELDS))

    def __getitem__(self, i):
        """Row i as a TransferLogEntry, negative i counting from the end; a
        slice gives the sub-table of its rows."""
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("LogTable index out of range")
        i %= n
        return TransferLogEntry(self._params_at(i), self._dataset_at(i), self._network_at(i),
                                *(getattr(self, name).item(i) for name in METRIC_FIELDS))

    def take(self, indices) -> "LogTable":
        """The sub-table of the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LogTable(**{k: getattr(self, k)[idx] for k in _ROW_ARRAYS}, routes=self.routes)

    @classmethod
    def from_entries(cls, entries) -> "LogTable":
        """Column table of a sequence of TransferLogEntry (not validated).
        Each int or float leaf of the layout is read by its attribute path
        into an array.array of C int64 or double, which takes ints and
        floats, numpy's included, and raises TypeError for a value it would
        have to convert: None, a string, or a float such as 4.5 in an int
        field."""
        columns = {}
        for name, path, kind in _LEAF_PATHS:
            if kind in _ARRAY_TYPES:
                code, dtype = _ARRAY_TYPES[kind]
                columns[name] = np.frombuffer(array(code, map(attrgetter(path), entries)),
                                              dtype)
        params = np.column_stack([columns.pop(p) for p in PARAM_NAMES])
        route, routes = _route_codes([e.network.route for e in entries])
        return cls(params=params, route=route, routes=routes, **columns)


def as_log_table(entries) -> LogTable:
    """A LogTable as is; a sequence of TransferLogEntry converted."""
    return entries if isinstance(entries, LogTable) else LogTable.from_entries(entries)


# -- JSON-Lines ingestion -------------------------------------------------------

# lines decoded at once: bounds the decoded dicts held alongside the columns
INGEST_CHUNK_LINES = 1024


def _raw_columns(objs: list) -> dict | None:
    """Each field's decoded values over the lines, or None unless every line
    is an object with exactly the entry's keys and each section an object
    with exactly its own. With the right number of keys, finding every
    expected key rules out any other."""
    raw = {}
    try:
        for section, keys in _KEYS.items():
            rows = objs if section is None else list(map(itemgetter(section), objs))
            if not (set(map(type, rows)) <= {dict} and set(map(len, rows)) <= {len(keys)}):
                return None
            raw.update({name: list(map(itemgetter(name), rows))
                        for name in keys if name in _KINDS})
    except KeyError:
        return None
    return raw


def _check_entry_keys(obj, line_no: int) -> None:
    """Raise the LogParseError of an entry's first wrong key set: the
    entry's own first, so an entry without a section names that key."""
    for section, expected in _KEYS.items():
        where, part = section or "entry", obj if section is None else obj[section]
        if not isinstance(part, dict):
            raise LogParseError(f"{where} must be an object, line {line_no}")
        if unknown := set(part) - expected:
            raise LogParseError(f"unknown key {sorted(unknown)[0]!r} in {where}, "
                                f"line {line_no}")
        if missing := expected - set(part):
            raise LogParseError(f"missing key {sorted(missing)[0]!r} in {where}, "
                                f"line {line_no}")


def _checked_columns(raw: dict, line_nos: list) -> dict:
    """A chunk's decoded columns, typed and validated; raise
    LogValidationError naming the earliest bad line."""
    r = _fields(raw)
    bad = _first_broken_row(_ENTRY_RULES, r, len(line_nos))
    if bad is not None:
        row, msg = bad
        raise LogValidationError(f"{msg}, line {line_nos[row]}")
    return r.v


def _batch_columns(lines: list) -> dict | None:
    """Validated columns of stripped nonempty lines, each decoded by one
    orjson.loads, or None unless orjson decodes every line and every entry
    is valid.

    The columns are then what json.loads of each line gives. orjson accepts
    only strict RFC 8259 JSON, a subset of what json.loads accepts (it
    refuses NaN and Infinity literals, numbers that overflow a double and
    unpaired surrogate escapes), reads the same tree from it and, like
    json.loads, keeps the last of repeated keys. On every value a valid
    entry holds the two agree: strings and ints in [-2**63, 2**64) are
    equal, and both round a float token to the nearest double. An integer
    token outside that range, which orjson reads as a float or refuses, can
    pass only in a float field, where it holds the nearest double, as
    float() of json.loads's int does.
    """
    try:
        objs = list(map(orjson.loads, lines))
    except orjson.JSONDecodeError:
        return None
    if (raw := _raw_columns(objs)) is None:
        return None
    try:
        return _checked_columns(raw, range(len(lines)))
    except LogValidationError:
        return None


def _read_chunk(lines: list, first: int) -> dict:
    """Validated columns of a chunk of lines, the first numbered first;
    raise the error of its earliest bad line: malformed JSON, wrong keys or
    a broken rule. A chunk the batch decode cannot take is decoded line by
    line, which finds that error."""
    columns = _batch_columns([line for line in map(str.strip, lines) if line])
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
        _checked_columns(_raw_columns(objs[:k]), line_nos[:k])
        _check_entry_keys(objs[k], line_nos[k])
    columns = _checked_columns(raw, line_nos)
    if bad_json is not None:
        line_no, exc = bad_json
        raise LogParseError(f"malformed JSON, line {line_no}: {exc.msg}") from exc
    return columns


def ingest_logs(path: str | Path) -> LogTable:
    """Read and validate a JSON-Lines log file into a LogTable.

    Raises LogParseError for malformed lines and LogValidationError for
    entries violating domain invariants; both name the earliest offending
    line. Lines are read in chunks of INGEST_CHUNK_LINES, each line decoded
    by one orjson.loads and each chunk validated column-wise; a chunk that
    fails is decoded again line by line with json.loads, which names the
    error. Integers in float fields load as floats.
    """
    chunks, pairs, known = [], [], {}
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while lines := list(itertools.islice(fh, INGEST_CHUNK_LINES)):
            chunk = _read_chunk(lines, first)
            # one kept tuple per distinct route, so the chunk's strings can go
            pairs += (known.setdefault(r, r)
                      for r in zip(chunk.pop("source_id"), chunk.pop("dest_id")))
            chunks.append(chunk)
            first += len(lines)
    if not chunks:   # an empty log: the columns of no lines
        chunks.append(_read_chunk([], 1))
    v = {name: np.concatenate([c[name] for c in chunks])
         for name in (*PARAM_NAMES, "num_files", *FLOAT_COLUMNS)}
    route, routes = _route_codes(pairs)
    return LogTable(params=np.column_stack([v.pop(n) for n in PARAM_NAMES]),
                    route=route, routes=routes, **v)


# -- JSON-Lines writing -----------------------------------------------------------

# the leaf names in the order json.dumps(entry, sort_keys=True) writes them:
# sorted by attribute path, a section's leaves at its key's place
_WRITE_ORDER = tuple(name for name, _, _ in
                     sorted(_LEAF_PATHS, key=lambda leaf: leaf[1].split(".")))
# the text of one entry line around its leaf values (each a kind string of
# the layout followed by ',' or '}'), in _WRITE_ORDER
_LINE_PIECES = re.split(r'"[^"]*"(?=[,}])', json.dumps(_LAYOUT, sort_keys=True) + "\n")
# lines formatted and written at once; a larger batch holds more line
# strings alive at once for little speed
WRITE_BATCH_LINES = 256


def _column_text(col: np.ndarray) -> list:
    """The JSON text of each value of an int64 or float64 column (or batch
    of one), formatted with one orjson.dumps of its tolist(). orjson prints
    an int as repr does, and a float with repr's shortest round-trip digits
    in repr's layout wherever the value is 0 or 1e-4 <= |v| < 1e16. Outside
    that band it writes another exponent layout (1e16, not 1e+16; 0.00001,
    not 1e-05) and null for NaN and Infinity, so those values are formatted
    again with json.dumps. The texts are json.dumps's either way."""
    values = col.tolist()
    if not values:
        return []
    texts = orjson.dumps(values)[1:-1].decode().split(",")
    if col.dtype.kind == "f":
        size = np.abs(col)
        for i in np.flatnonzero(~((col == 0) | ((size >= 1e-4) & (size < 1e16)))).tolist():
            texts[i] = json.dumps(values[i])
    return texts


def _leaf_text(table: LogTable, name: str):
    """One leaf column of a table as (texts, codes): the JSON text of each
    distinct value, formatted once, as an object array, and each row's
    index into it. Floats are told apart by their bits, so -0.0 keeps its
    sign. Where no value repeats, texts is None and codes is the column
    itself, which _write_table formats a batch at a time, so no column's
    texts are held whole. Both paths format numbers with _column_text."""
    if name in ("source_id", "dest_id"):
        k = name == "dest_id"
        return np.array([encode_basestring_ascii(r[k]) for r in table.routes],
                        dtype=object), table.route
    col = table.params[:, PARAM_NAMES.index(name)] if name in PARAM_NAMES else \
        getattr(table, name)
    distinct, codes = np.unique(col.view(np.int64), return_inverse=True)
    if len(distinct) == len(col):
        return None, col
    return np.array(_column_text(distinct.view(col.dtype)), dtype=object), codes


def _write_table(table: LogTable, fh) -> None:
    """Write a table's lines WRITE_BATCH_LINES at a time: each batch is one
    list, the line's text pieces repeated per line, whose value slots are
    filled a leaf column at a time by slice assignment, joined once."""
    leaves = [_leaf_text(table, name) for name in _WRITE_ORDER]
    width = 2 * len(leaves) + 1
    line = [None] * width
    line[::2] = _LINE_PIECES
    template = line * WRITE_BATCH_LINES
    for start in range(0, len(table), WRITE_BATCH_LINES):
        rows = slice(start, start + WRITE_BATCH_LINES)
        parts = template[:min(WRITE_BATCH_LINES, len(table) - start) * width]
        for k, (texts, codes) in enumerate(leaves):
            parts[2 * k + 1::width] = (_column_text(codes[rows]) if texts is None
                                       else texts[codes[rows]].tolist())
        fh.write("".join(parts))


def serialize_logs(entries, path: str | Path) -> None:
    """Write a LogTable, or a sequence of TransferLogEntry as the table
    LogTable.from_entries makes of it, as canonical JSON-Lines: each line
    is json.dumps(row.as_dict(), sort_keys=True) of the table's row, sorted
    keys and repr floats. The numbers are formatted by orjson and, outside
    the band where its layout is repr's, by json.dumps (see _column_text).

    A list is written as its table holds it: an int in a float field is
    written as a float (7 as 7.0, as ingest_logs reads it back), numpy
    integers as ints, and a bool as 1 or 1.0; a value the table cannot hold,
    such as None, a string in a number field or a float in an int field,
    raises TypeError before the file is opened. Nothing else is checked:
    ingest_logs and validate_entry validate. The columns are written by
    _write_table, each column's distinct values formatted once.
    """
    table = as_log_table(entries)
    with open(path, "w", encoding="utf-8") as fh:
        _write_table(table, fh)
