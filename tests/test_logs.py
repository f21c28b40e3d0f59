"""Log schema, validation, column table and JSON-Lines round-trip tests.

legacy_ingest_logs, the per-line ingest the column-wise one replaced, is
kept as a test-only oracle: on valid corpora and on corpora with injected
faults both must give equal entries or the same error and message.
"""

import dataclasses
import itertools
import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfertune import (
    ENDPOINTS,
    DatasetMeta,
    LogError,
    LogParseError,
    LogTable,
    LogValidationError,
    NetworkMeta,
    ParamConfig,
    ParamLattice,
    TransferLogEntry,
    generate_training_logs,
    ingest_logs,
    serialize_logs,
    validate_entry,
)
from xfertune import cli, logs
from xfertune.logs import (
    ENERGY_POWER_TOL,
    FLOAT_COLUMNS,
    PARAM_MIN,
    PARAM_NAMES,
    SIZE_MEAN_TOL,
    validate_params,
)


def make_entry(**over):
    """A valid entry with selective field overrides."""
    fields = dict(
        params=ParamConfig(cpu_num=2, cpu_freq_mhz=2400, cc=4, p=2, pp=4),
        dataset=DatasetMeta(num_files=100, total_size_bytes=1e9,
                            avg_file_size_bytes=1e7, file_size_stddev_bytes=1e6),
        network=NetworkMeta(source_id="a", dest_id="b", bandwidth_mbps=10000.0,
                            rtt_ms=30.0, ext_load=0.2),
        throughput_mbps=900.0,
        energy_joules=500.0,
        avg_power_watts=50.0,
        duration_s=10.0,
        timestamp_s=0.0,
    )
    fields.update(over)
    return TransferLogEntry(**fields)


def test_param_config_accessors():
    cfg = ParamConfig(cpu_num=2, cpu_freq_mhz=2400, cc=4, p=2, pp=0)
    assert cfg.get("cc") == 4
    assert cfg.as_dict() == {"cpu_num": 2, "cpu_freq_mhz": 2400, "cc": 4, "p": 2, "pp": 0}
    bumped = cfg.with_value("pp", 8)
    assert bumped.pp == 8 and cfg.pp == 0
    assert list(cfg.as_dict()) == list(PARAM_NAMES)


def test_the_layout_names_are_the_record_fields_in_declaration_order():
    assert PARAM_NAMES == ("cpu_num", "cpu_freq_mhz", "cc", "p", "pp")
    assert logs.DATASET_FLOATS == ("total_size_bytes", "avg_file_size_bytes",
                                   "file_size_stddev_bytes")
    assert logs.NETWORK_FLOATS == ("bandwidth_mbps", "rtt_ms", "ext_load")
    assert logs.METRIC_FIELDS == ("throughput_mbps", "energy_joules", "avg_power_watts",
                                  "duration_s", "timestamp_s")
    assert FLOAT_COLUMNS == logs.DATASET_FLOATS + logs.NETWORK_FLOATS + logs.METRIC_FIELDS
    entry = make_entry()
    assert list(entry.as_dict()) == ["params", "dataset", "network", *logs.METRIC_FIELDS]
    assert list(entry.dataset.as_dict()) == ["num_files", *logs.DATASET_FLOATS]
    assert list(entry.network.as_dict()) == ["source_id", "dest_id", *logs.NETWORK_FLOATS]


def test_the_hand_spelled_copies_of_the_layout_follow_it():
    # ParamLattice, PARAM_MIN and LogTable spell the names again by hand
    assert tuple(f.name for f in dataclasses.fields(ParamLattice)) == PARAM_NAMES
    assert tuple(PARAM_MIN) == PARAM_NAMES
    assert tuple(f.name for f in dataclasses.fields(LogTable)) == (
        "params", "num_files", *FLOAT_COLUMNS, "route", "routes")


def test_each_as_dict_is_a_new_dict_the_record_does_not_share():
    entry = make_entry()
    for record in (entry, entry.params, entry.dataset, entry.network):
        want = record.as_dict()
        doc = record.as_dict()
        assert doc == want and doc is not want
        doc.update(dict.fromkeys(doc, 0), extra=1)
        assert record.as_dict() == want
    doc = entry.as_dict()
    doc["params"]["cc"] = 99
    doc["network"]["source_id"] = "elsewhere"
    assert entry == make_entry() and entry.as_dict() == make_entry().as_dict()


def test_lattice_enumeration_is_lexicographic():
    lat = ParamLattice(cpu_num=(1, 2), cpu_freq_mhz=(1200,), cc=(1, 4),
                       p=(1,), pp=(0, 4))
    cfgs = list(lat.configs())
    assert len(cfgs) == 8
    keys = [tuple(c.get(n) for n in PARAM_NAMES) for c in cfgs]
    assert keys == sorted(keys)
    assert ParamConfig(1, 1200, 4, 1, 4) in cfgs
    assert ParamConfig(3, 1200, 4, 1, 4) not in cfgs


def test_lattice_rejects_bad_axes():
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(2, 1), cpu_freq_mhz=(1200,), cc=(1,), p=(1,), pp=(0,))
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(1,), cpu_freq_mhz=(1200,), cc=(0,), p=(1,), pp=(0,))
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(1,), cpu_freq_mhz=(1200,), cc=(1,), p=(1,), pp=(-1,))


def test_validate_params_bounds():
    # parameters need not lie on a lattice: any value at or above its bound
    assert validate_params(ParamConfig(3, 2401, 5, 3, 7)) is None
    assert validate_params(ParamConfig(0, 2400, 4, 2, 4)) == "cpu_num must be >= 1"
    assert validate_params(ParamConfig(1, 2400, 4, 2, -1)) == "pp must be >= 0"


def test_validate_entry_dataset_messages():
    def dataset(num_files, avg):
        return make_entry(dataset=DatasetMeta(num_files=num_files, total_size_bytes=1000.0,
                                              avg_file_size_bytes=avg,
                                              file_size_stddev_bytes=5.0))
    assert validate_entry(dataset(10, 100.0)) is None
    assert validate_entry(dataset(0, 100.0)) == "num_files must be >= 1"
    # mean * count must agree with the total within 1%
    assert "inconsistent with total_size_bytes" in validate_entry(dataset(10, 150.0))


def test_validate_entry_network_messages():
    def network(*fields):
        return make_entry(network=NetworkMeta(*fields), throughput_mbps=90.0)
    assert validate_entry(network("a", "b", 100.0, 10.0, 0.5)) is None
    assert validate_entry(network("a", "b", 100.0, 10.0, 1.5)) == "ext_load out of [0,1]"
    assert validate_entry(network("a", "b", 100.0, 10.0, -0.1)) == "ext_load out of [0,1]"
    assert validate_entry(network("a", "b", 0.0, 10.0, 0.5)) == "bandwidth_mbps must be > 0"
    assert validate_entry(network("", "b", 100.0, 10.0, 0.5)) == \
        "source_id must be a nonempty string"


def test_validate_entry_cross_field_checks():
    assert validate_entry(make_entry()) is None
    too_fast = make_entry(throughput_mbps=10001.0)
    assert validate_entry(too_fast) == "throughput exceeds bandwidth"
    # energy must match power * duration within 1%
    drift = make_entry(energy_joules=520.0)
    assert "inconsistent with avg_power_watts * duration_s" in validate_entry(drift)
    edge = make_entry(energy_joules=500.0 * 1.009)
    assert validate_entry(edge) is None


def test_round_trip_preserves_entries(tmp_path):
    entries = [make_entry(timestamp_s=float(i)) for i in range(5)]
    path = tmp_path / "logs.jsonl"
    serialize_logs(entries, path)
    back = ingest_logs(path)
    assert [e.as_dict() for e in back] == [e.as_dict() for e in entries]


def test_serialized_lines_have_sorted_keys(tmp_path):
    path = tmp_path / "logs.jsonl"
    serialize_logs([make_entry()], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert list(obj) == sorted(obj)
    assert json.dumps(obj, sort_keys=True) == lines[0]


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "logs.jsonl"
    body = json.dumps(make_entry().as_dict())
    path.write_text("\n" + body + "\n\n" + body + "\n")
    assert len(ingest_logs(path)) == 2


def test_ingest_reports_malformed_line_number(tmp_path):
    path = tmp_path / "logs.jsonl"
    good = json.dumps(make_entry().as_dict())
    path.write_text(good + "\n{not json\n")
    with pytest.raises(LogParseError, match="malformed JSON, line 2"):
        ingest_logs(path)


def test_ingest_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "logs.jsonl"
    obj = make_entry().as_dict()
    obj["extra"] = 1
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(LogParseError, match="unknown key 'extra' in entry, line 1"):
        ingest_logs(path)

    obj = make_entry().as_dict()
    del obj["params"]["cc"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(LogParseError, match="missing key 'cc' in params, line 1"):
        ingest_logs(path)

    # the entry's own keys are checked before its sections'
    obj = make_entry().as_dict()
    del obj["params"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(LogParseError, match="missing key 'params' in entry, line 1"):
        ingest_logs(path)


def test_ingest_reports_validation_line(tmp_path):
    path = tmp_path / "logs.jsonl"
    good = make_entry().as_dict()
    bad = make_entry(throughput_mbps=10001.0).as_dict()
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(LogValidationError, match="throughput exceeds bandwidth, line 2"):
        ingest_logs(path)


def test_network_route_property():
    net = NetworkMeta("src", "dst", 100.0, 10.0, 0.0)
    assert net.route == ("src", "dst")


# -- the column table -------------------------------------------------------------


def test_table_round_trips_entries_and_takes_rows():
    entries = [make_entry(network=NetworkMeta(src, "b", 1e4, 30.0, 0.1 * i),
                          timestamp_s=float(i))
               for i, src in enumerate(["z", "a", "m", "a"])]
    table = LogTable.from_entries(entries)
    assert len(table) == 4
    assert [e.as_dict() for e in table] == [e.as_dict() for e in entries]
    assert table[2] == entries[2] and table[-1] == entries[-1]
    # codes follow sorted routes, so sorting codes sorts routes
    assert table.routes == (("a", "b"), ("m", "b"), ("z", "b"))
    assert table.route.tolist() == [2, 0, 1, 0]
    assert table.params.dtype == np.int64 and table.params.shape == (4, 5)
    assert table.num_files.dtype == np.int64 and table.ext_load.dtype == np.float64
    sub = table.take([3, 0])
    assert list(sub) == [entries[3], entries[0]]
    assert sub.routes == table.routes
    with pytest.raises(ValueError):
        table.ext_load[0] = 0.5   # the columns are read-only


def test_integer_literals_in_float_fields_load_as_floats(tmp_path):
    obj = make_entry().as_dict()
    obj["network"]["rtt_ms"] = 32
    obj["duration_s"] = 10
    path = tmp_path / "logs.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    (entry,) = ingest_logs(path)
    assert type(entry.network.rtt_ms) is float and entry.network.rtt_ms == 32.0
    assert type(entry.duration_s) is float
    assert type(entry.params.cc) is int and type(entry.dataset.num_files) is int
    out = tmp_path / "canonical.jsonl"
    assert cli.main(["ingest", "--logs", str(path), "--out", str(out)]) == 0
    assert '"rtt_ms": 32.0' in out.read_text()


def test_oversized_integers_are_rejected(tmp_path):
    huge = 10 ** 400   # no float holds it
    cases = [(("throughput_mbps",), huge, "throughput_mbps must be a finite number"),
             (("dataset", "total_size_bytes"), huge, "total_size_bytes must be a finite number"),
             (("params", "cc"), 10 ** 30, "cc must be < 2**63"),
             (("params", "cpu_num"), 2 ** 63, "cpu_num must be < 2**63"),
             (("params", "pp"), -10 ** 30, "pp must be >= 0"),
             (("dataset", "num_files"), 10 ** 30, "num_files must be < 2**63")]
    path = tmp_path / "logs.jsonl"
    for keys, value, message in cases:
        obj = make_entry().as_dict()
        *section, name = keys
        (obj[section[0]] if section else obj)[name] = value
        path.write_text(json.dumps(make_entry().as_dict()) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(LogValidationError, match=rf"^{re.escape(message)}, line 2$"):
            ingest_logs(path)
        assert cli.main(["ingest", "--logs", str(path)]) == 2
    assert validate_params(ParamConfig(1, 1200, 10 ** 30, 1, 0)) == "cc must be < 2**63"
    assert validate_entry(make_entry(throughput_mbps=huge)) == \
        "throughput_mbps must be a finite number"


def test_ingest_of_an_empty_log_is_an_empty_table(tmp_path):
    path = tmp_path / "logs.jsonl"
    for text in ("", "\n\n"):
        path.write_text(text)
        table = ingest_logs(path)
        assert len(table) == 0 and table.params.shape == (0, 5) and list(table) == []


# -- the per-line ingest that the column ingest replaced ---------------------------
#
# Test-only oracle: the parser, key check and validators as they were before
# ingestion went column-wise, one entry at a time. They share no code with
# the program's rule list.


def legacy_is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def legacy_is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def legacy_validate_params(params):
    for name in PARAM_NAMES:
        v = params.get(name)
        if not legacy_is_int(v):
            return f"{name} must be an integer"
    for name in PARAM_NAMES:
        if params.get(name) < PARAM_MIN[name]:
            return f"{name} must be >= {PARAM_MIN[name]}"
    for name in PARAM_NAMES:
        if params.get(name) >= 2 ** 63:
            return f"{name} must be < 2**63"
    return None


def legacy_validate_dataset(meta):
    if not legacy_is_int(meta.num_files) or meta.num_files < 1:
        return "num_files must be >= 1"
    if meta.num_files >= 2 ** 63:
        return "num_files must be < 2**63"
    for name in ("total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes"):
        if not legacy_is_num(getattr(meta, name)):
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


def legacy_validate_network(net):
    if not isinstance(net.source_id, str) or not net.source_id:
        return "source_id must be a nonempty string"
    if not isinstance(net.dest_id, str) or not net.dest_id:
        return "dest_id must be a nonempty string"
    if not legacy_is_num(net.bandwidth_mbps) or net.bandwidth_mbps <= 0:
        return "bandwidth_mbps must be > 0"
    if not legacy_is_num(net.rtt_ms) or net.rtt_ms <= 0:
        return "rtt_ms must be > 0"
    if not legacy_is_num(net.ext_load) or not (0.0 <= net.ext_load <= 1.0):
        return "ext_load out of [0,1]"
    return None


def legacy_validate_entry(entry):
    msg = legacy_validate_params(entry.params)
    if msg is None:
        msg = legacy_validate_dataset(entry.dataset)
    if msg is None:
        msg = legacy_validate_network(entry.network)
    if msg is not None:
        return msg
    for name in ("throughput_mbps", "energy_joules", "avg_power_watts", "duration_s", "timestamp_s"):
        if not legacy_is_num(getattr(entry, name)):
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


LEGACY_KEYS = {
    "entry": {"params", "dataset", "network", "throughput_mbps", "energy_joules",
              "avg_power_watts", "duration_s", "timestamp_s"},
    "params": set(PARAM_NAMES),
    "dataset": {"num_files", "total_size_bytes", "avg_file_size_bytes",
                "file_size_stddev_bytes"},
    "network": {"source_id", "dest_id", "bandwidth_mbps", "rtt_ms", "ext_load"},
}


def legacy_check_keys(obj, expected, where, line_no):
    if not isinstance(obj, dict):
        raise LogParseError(f"{where} must be an object, line {line_no}")
    unknown = set(obj) - expected
    if unknown:
        raise LogParseError(f"unknown key {sorted(unknown)[0]!r} in {where}, line {line_no}")
    missing = expected - set(obj)
    if missing:
        raise LogParseError(f"missing key {sorted(missing)[0]!r} in {where}, line {line_no}")


def legacy_entry_from_obj(obj, line_no=0):
    legacy_check_keys(obj, LEGACY_KEYS["entry"], "entry", line_no)
    for section in ("params", "dataset", "network"):
        legacy_check_keys(obj[section], LEGACY_KEYS[section], section, line_no)
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


def legacy_ingest_logs(path):
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
            entry = legacy_entry_from_obj(obj, line_no)
            msg = legacy_validate_entry(entry)
            if msg is not None:
                raise LogValidationError(f"{msg}, line {line_no}")
            entries.append(entry)
    return entries


# every field of an entry, as a path into its JSON object
FIELD_PATHS = ([("params", n) for n in PARAM_NAMES]
               + [("dataset", n) for n in sorted(LEGACY_KEYS["dataset"])]
               + [("network", n) for n in sorted(LEGACY_KEYS["network"])]
               + [(n,) for n in sorted(LEGACY_KEYS["entry"] - {"params", "dataset", "network"})])
# replacement values: wrong types, bools, NaN/Infinity literals, zero,
# negative, fractional, huge and small values, ints outside int64,
# mismatched ints and floats
FAULT_VALUES = (0, -1, 1, 3, 2.0, 0.5, -0.0, 1e-12, 1e300, 2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1,
                "", "a", None, True, False, [], {}, math.nan, math.inf, -math.inf)


def valid_obj(k: int) -> dict:
    """A valid entry that varies with k."""
    cfg = ParamConfig(1 + k % 2, (1200, 2400)[k // 2 % 2], (1, 4)[k // 3 % 2], 2, 4)
    return make_entry(params=cfg, timestamp_s=float(k),
                      network=NetworkMeta("a", "bc"[k % 2], 1e4, 30.0, (k % 11) / 10)).as_dict()


def set_field(obj, path, value):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def with_fault(obj, fault):
    """The entry object (or replaced line text) with one more fault; a fault
    inside a section that an earlier fault replaced is a no-op."""
    if isinstance(obj, str):
        return obj
    kind, *arg = fault
    try:
        if kind == "value":
            set_field(obj, *arg)
        elif kind == "drop":
            target = obj
            for key in arg[0][:-1]:
                target = target[key]
            del target[arg[0][-1]]
        elif kind == "extra":
            (obj[arg[0]] if arg[0] else obj)["extra"] = 1
        elif kind == "section":
            obj[arg[0]] = arg[1]
        else:
            return arg[0]
    except (KeyError, TypeError):
        pass
    return obj


FAULTS = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(FIELD_PATHS), st.sampled_from(FAULT_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(FIELD_PATHS + [("params",), ("network",)])),
    st.tuples(st.just("extra"), st.sampled_from([None, "params", "dataset", "network"])),
    st.tuples(st.just("section"), st.sampled_from(["params", "dataset", "network"]),
              st.sampled_from([[1], 3, "x", None])),
    st.tuples(st.just("line"), st.sampled_from(["{not json", "[1, 2]", "3", '"x"', "null",
                                                '{"params": {}', "{}", "{}, {}", "[{}", "{}]",
                                                '{"x": NaN}'])),
)


def as_loaded(doc: dict) -> dict:
    """An entry's as_dict() with ints in float fields as the floats ingest
    loads them as."""
    return {k: as_loaded(v) if isinstance(v, dict) else float(v) if k in FLOAT_COLUMNS else v
            for k, v in doc.items()}


def outcome(ingest, path):
    """The repr of each entry an ingest gives, which tells floats apart bit
    for bit and -0.0 from 0.0, or the error it raises."""
    try:
        return [repr(as_loaded(e.as_dict())) for e in ingest(path)]
    except LogError as exc:
        return type(exc), str(exc)


@st.composite
def faulty_corpora(draw):
    n = draw(st.integers(1, 30))
    objs = [valid_obj(k) for k in range(n)]
    # up to two faulty lines, so the first must win, each with up to three
    # faults, so the first broken rule of a line must win
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for fault in draw(st.lists(FAULTS, min_size=1, max_size=3)):
            objs[k] = with_fault(objs[k], fault)
    lines = [o if isinstance(o, str) else json.dumps(o) for o in objs]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def corpus_text(lines) -> str:
    return "\n".join(o if isinstance(o, str) else json.dumps(o) for o in lines) + "\n"


def with_route(k: int, source_id: str) -> dict:
    obj = valid_obj(k)
    obj["network"]["source_id"] = source_id
    return obj


# Corpora whose text would read as valid entries to a decode that took more
# than one line at a time: two values on one line, values across lines,
# repeated keys, escaped quotes and commas in route ids. The decode of each
# line alone must find the fault on the line json.loads finds it on, and keep
# every valid value as json.loads reads it.
_valid = json.dumps(valid_obj(2))
JOIN_BREAKERS = (
    # an entry split inside a route id, and two entries on one line
    corpus_text([valid_obj(0), valid_obj(1),
                 json.dumps(with_route(2, "a},{b")).replace("},{", "}\n{"),
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}", valid_obj(5)]),
    # a string left open, closed on the next line before a repeated key
    corpus_text([valid_obj(0), '{"timestamp_s": "}',
                 '{", ' + _valid[1:-1] + ', "timestamp_s": 2.0}',
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}"]),
    # an entry whose last member is on the next line
    corpus_text([valid_obj(0), _valid[:-1].replace(', "timestamp_s": 2.0', ""),
                 '"timestamp_s": 2.0}',
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}"]),
    # a string left open, then a line of escaped quotes and an entry
    corpus_text([valid_obj(0), '{"timestamp_s": "}', '{' + '\\"' * 44 + '", ' + _valid[1:],
                 valid_obj(3)]),
    # two valid entries on one line
    corpus_text([valid_obj(0), f"{json.dumps(valid_obj(1))}, {json.dumps(valid_obj(2))}",
                 valid_obj(3)]),
    # valid ids holding '},{', a comma or an escaped quote
    corpus_text([valid_obj(0), with_route(1, "x},{y"), with_route(2, "p,q"),
                 with_route(3, 'r"s'), valid_obj(4)]),
    # an array over two lines
    corpus_text([valid_obj(0), "[" + json.dumps(valid_obj(1)), json.dumps(valid_obj(2)) + "]",
                 valid_obj(3)]),
    # NaN and Infinity literals
    corpus_text([valid_obj(0), {**valid_obj(1), "throughput_mbps": math.nan}]),
    corpus_text([valid_obj(0), {**valid_obj(1), "duration_s": math.inf},
                 {**valid_obj(2), "timestamp_s": -math.inf}]),
    # a repeated key: the last value counts, valid on line 1, not on line 2
    corpus_text([json.dumps(valid_obj(0)).replace("{", '{"duration_s": "x", ', 1),
                 json.dumps(valid_obj(1))[:-1] + ', "duration_s": -1.0}', valid_obj(2)]),
    # whitespace-only lines and whitespace around a line
    corpus_text(["   ", valid_obj(0), "\t", " \t\x0b\x0c ", "\u3000",
                 "  " + json.dumps(valid_obj(1)) + " \t", "", valid_obj(2)]),
)


def token_line(k: int, **tokens) -> str:
    """valid_obj(k) as a line with the named fields (a section's field as
    section__name) written as the given JSON token text."""
    obj = valid_obj(k)
    for name in tokens:
        set_field(obj, tuple(name.split("__")), f"@{name}@")
    line = json.dumps(obj)
    for name, token in tokens.items():
        line = line.replace(f'"@{name}@"', token)
    return line


# 2**-1075, halfway between 0.0 and the least subnormal, written exactly
_TIE = "0." + str(5 ** 1075).rjust(1075, "0")
# Corpora of number and string spellings where orjson might read another value
# than json.loads: each line's orjson.loads must keep json.loads's value, or
# refuse the line and leave its chunk to the per-line json.loads path.
DECODER_EDGES = (
    # subnormals, the halfway tie and the values either side of it
    corpus_text([token_line(0, timestamp_s="2.4703282292062328e-324",
                            dataset__file_size_stddev_bytes="4.9406564584124654e-324"),
                 token_line(1, timestamp_s="2.4703282292062327e-324", network__rtt_ms="1e-320"),
                 token_line(2, timestamp_s=_TIE, network__ext_load="2.2250738585072011e-308"),
                 token_line(3, timestamp_s="-" + _TIE,
                            dataset__file_size_stddev_bytes="3" + _TIE[1:]),
                 token_line(4, timestamp_s="-2.4703282292062328e-324")]),
    # ints past 2**53 in a float field, one odd and one a round-half-even tie
    corpus_text([token_line(0, timestamp_s="9007199254740993"),
                 token_line(1, timestamp_s="9007199254740995",
                            network__bandwidth_mbps="9007199254740993"),
                 token_line(2, timestamp_s="-9007199254740993")]),
    # 20-25-digit mantissas, either side of a halfway point, and the largest double
    corpus_text([token_line(0, timestamp_s="1.0000000000000001110223"),
                 token_line(1, timestamp_s="1.0000000000000001110224",
                            network__rtt_ms="30.00000000000000177635684"),
                 token_line(2, timestamp_s="123456789012345678901234.5",
                            network__ext_load="0.2999999999999999888977697"),
                 token_line(3, timestamp_s="12345678901234567890123e-25",
                            network__bandwidth_mbps="1.7976931348623158e308")]),
    # ints of 2**64 and above in a float field, and below -2**63
    corpus_text([token_line(0, timestamp_s=str(2 ** 64)),
                 token_line(1, timestamp_s=str(2 ** 64 + 1),
                            network__bandwidth_mbps=str(3 * 2 ** 64 + 1)),
                 token_line(2, timestamp_s=str(2 ** 70 + 2 ** 17)),
                 token_line(3, timestamp_s=str(10 ** 25 + 1)),
                 token_line(4, timestamp_s=str(-2 ** 63 - 1))]),
    # ints of 2**64 and above, and below -2**63, in an int field
    corpus_text([valid_obj(0), token_line(1, params__cc=str(2 ** 64)), valid_obj(2)]),
    corpus_text([valid_obj(0), token_line(1, dataset__num_files=str(2 ** 64 + 1))]),
    corpus_text([valid_obj(0), token_line(1, params__pp=str(-2 ** 63 - 1))]),
    # tokens json.loads reads as inf and orjson refuses
    corpus_text([valid_obj(0), token_line(1, timestamp_s="1.7976931348623159e308")]),
    corpus_text([valid_obj(0), token_line(1, throughput_mbps="1e400"), valid_obj(2)]),
    # valid route ids holding a lone surrogate escape, and a pair
    corpus_text([valid_obj(0), with_route(1, "a\ud800"), with_route(2, "\udc00"),
                 with_route(3, "\U0001f600")]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=faulty_corpora(), chunk=st.sampled_from([1, 2, 3, 7, 1024]))
@example(text=JOIN_BREAKERS[0], chunk=1024)
@example(text=JOIN_BREAKERS[1], chunk=1024)
@example(text=JOIN_BREAKERS[2], chunk=1024)
@example(text=JOIN_BREAKERS[3], chunk=1024)
@example(text=JOIN_BREAKERS[4], chunk=1024)
@example(text=JOIN_BREAKERS[5], chunk=2)
@example(text=JOIN_BREAKERS[6], chunk=1024)
@example(text=JOIN_BREAKERS[7], chunk=3)
@example(text=JOIN_BREAKERS[8], chunk=1024)
@example(text=JOIN_BREAKERS[9], chunk=1024)
@example(text=JOIN_BREAKERS[10], chunk=1024)
@example(text=DECODER_EDGES[0], chunk=1024)
@example(text=DECODER_EDGES[1], chunk=1024)
@example(text=DECODER_EDGES[2], chunk=1024)
@example(text=DECODER_EDGES[3], chunk=1024)
@example(text=DECODER_EDGES[4], chunk=1024)
@example(text=DECODER_EDGES[5], chunk=1024)
@example(text=DECODER_EDGES[6], chunk=1024)
@example(text=DECODER_EDGES[7], chunk=1024)
@example(text=DECODER_EDGES[8], chunk=1024)
@example(text=DECODER_EDGES[9], chunk=1024)
def test_ingest_matches_legacy_per_line_ingest(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("corpus") / "logs.jsonl"
    path.write_text(text)
    want = outcome(legacy_ingest_logs, path)
    with mock.patch.object(logs, "INGEST_CHUNK_LINES", chunk):
        assert outcome(ingest_logs, path) == want


def test_faults_reach_every_rule(tmp_path):
    """The fault values above break every rule of the legacy validators."""
    seen = set()
    path = tmp_path / "logs.jsonl"
    for fpath in FIELD_PATHS:
        for value in FAULT_VALUES:
            obj = valid_obj(0)
            set_field(obj, fpath, value)
            path.write_text(json.dumps(obj) + "\n")
            got = outcome(legacy_ingest_logs, path)
            if isinstance(got, tuple):
                seen.add(got[1].rsplit(",", 1)[0])
    rules = {f"{n} must be an integer" for n in PARAM_NAMES}
    rules |= {f"{n} must be >= {PARAM_MIN[n]}" for n in PARAM_NAMES}
    rules |= {f"{n} must be < 2**63" for n in (*PARAM_NAMES, "num_files")}
    rules |= {f"{n} must be a finite number" for n in
              ("total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes",
               "throughput_mbps", "energy_joules", "avg_power_watts", "duration_s",
               "timestamp_s")}
    rules |= {"num_files must be >= 1",
              "total_size_bytes must allow at least 1 byte per file",
              "avg_file_size_bytes must be > 0", "file_size_stddev_bytes must be >= 0",
              "avg_file_size_bytes * num_files inconsistent with total_size_bytes",
              "source_id must be a nonempty string", "dest_id must be a nonempty string",
              "bandwidth_mbps must be > 0", "rtt_ms must be > 0", "ext_load out of [0,1]",
              "throughput_mbps must be > 0", "throughput exceeds bandwidth",
              "duration_s must be > 0", "energy and power must be >= 0",
              "energy_joules inconsistent with avg_power_watts * duration_s"}
    assert rules <= seen, rules - seen


def test_validate_entry_matches_legacy_on_every_pair_of_faults():
    """Rule order: any two faults on one entry give the legacy message."""
    faults = {}   # one fault per field and message it gives alone
    for fpath in FIELD_PATHS:
        for value in FAULT_VALUES:
            obj = valid_obj(0)
            set_field(obj, fpath, value)
            msg = legacy_validate_entry(legacy_entry_from_obj(obj))
            if msg is not None:
                faults.setdefault((fpath, msg), (fpath, value))
    for a, b in itertools.product(faults.values(), repeat=2):
        obj = valid_obj(0)
        set_field(obj, *a)
        set_field(obj, *b)
        entry = legacy_entry_from_obj(obj)
        assert validate_entry(entry) == legacy_validate_entry(entry)


# any value a parameter field could hold: ints of every size, the int64
# edges and beyond, bools, floats with NaN and +-inf, None and strings
PARAM_VALUES = st.one_of(
    st.integers(-3, 3000), st.integers(),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63, -2 ** 63 - 1, 10 ** 30]),
    st.booleans(), st.floats(), st.none(), st.text(max_size=3))


@example(values=[1, 1200, 2 ** 63, True, -1])
@example(values=[0, 1200, 1.0, 1, 2 ** 63])
@example(values=[1, 1200, 16, 8, 8])
@settings(max_examples=300, deadline=None)
@given(values=st.lists(PARAM_VALUES, min_size=5, max_size=5))
def test_validate_params_matches_the_legacy_checks_and_the_column_rules(values):
    params = ParamConfig(*values)
    want = legacy_validate_params(params)
    assert validate_params(params) == want
    assert logs._first_broken(logs._PARAM_RULES,
                              {n: [x] for n, x in params.as_dict().items()}) == want


@pytest.mark.parametrize("num_files,total", [
    (2 ** 53 + 1, 2.0 ** 53), (2 ** 53, 2.0 ** 53), (2 ** 53 + 1, 2.0 ** 53 + 2),
    (2 ** 53 + 3, 2.0 ** 53 + 4), (2 ** 53 + 5, 2.0 ** 53 + 4),
    (2 ** 62 + 1, 2.0 ** 62), (2 ** 63 - 1, 2.0 ** 63)])
def test_file_count_above_2_53_is_compared_exactly(tmp_path, num_files, total):
    """total_size_bytes < num_files is decided on the exact values, as
    Python compares a float with an int, by ingest and validate_entry alike;
    numpy would round num_files onto total_size_bytes first."""
    obj = valid_obj(0)
    obj["dataset"].update(num_files=num_files, total_size_bytes=total,
                          avg_file_size_bytes=1.0, file_size_stddev_bytes=0.0)
    path = tmp_path / "logs.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    want = outcome(legacy_ingest_logs, path)
    assert outcome(ingest_logs, path) == want
    msg = legacy_validate_entry(legacy_entry_from_obj(obj))
    assert validate_entry(legacy_entry_from_obj(obj)) == msg
    if msg is None:
        assert validate_entry(ingest_logs(path)[0]) is None
    else:
        assert msg == "total_size_bytes must allow at least 1 byte per file"


@pytest.mark.parametrize("faults", [(1023,), (1024,), (1024, 1023), (1025, 1024), (5, 2000)])
def test_first_bad_line_wins_across_the_chunk_boundary(tmp_path, faults):
    # 0-based line indices; lines 1024 and 1025 (1-based) straddle the chunk edge
    lines = [json.dumps(valid_obj(k)) for k in range(2100)]
    for k in faults:
        bad = valid_obj(k)
        bad["throughput_mbps"] = 1e300 if k % 2 else "fast"
        lines[k] = json.dumps(bad)
    path = tmp_path / "logs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert logs.INGEST_CHUNK_LINES == 1024
    want = outcome(legacy_ingest_logs, path)
    assert want[1].endswith(f", line {min(faults) + 1}")
    assert outcome(ingest_logs, path) == want
    lines[min(faults)] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    assert outcome(ingest_logs, path) == outcome(legacy_ingest_logs, path)


def decode_calls(path):
    """ingest_logs's outcome, its count of orjson.loads calls and the lines
    it passed to json.loads."""
    with mock.patch.object(logs.orjson, "loads", wraps=orjson.loads) as orjson_loads, \
            mock.patch.object(logs.json, "loads", wraps=json.loads) as json_loads:
        got = outcome(ingest_logs, path)
    return got, orjson_loads.call_count, [c.args[0] for c in json_loads.call_args_list]


def test_each_valid_line_is_decoded_by_one_orjson_loads_and_no_json_loads(tmp_path):
    """2,100 valid lines: one orjson.loads each, and no json.loads. With a
    NaN line in the middle chunk, only that chunk is decoded again by
    json.loads, which names the error as the oracle does."""
    lines = [json.dumps(valid_obj(k)) for k in range(2100)]
    path = tmp_path / "logs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert logs.INGEST_CHUNK_LINES == 1024
    got, orjson_calls, json_lines = decode_calls(path)
    assert got == outcome(legacy_ingest_logs, path) and len(got) == 2100
    assert orjson_calls == 2100 and json_lines == []
    lines[1500] = json.dumps({**valid_obj(1500), "timestamp_s": math.nan})
    path.write_text("\n".join(lines) + "\n")
    got, orjson_calls, json_lines = decode_calls(path)
    assert got == outcome(legacy_ingest_logs, path) == \
        (LogValidationError, "timestamp_s must be a finite number, line 1501")
    # the first chunk, then the middle one up to its NaN line
    assert orjson_calls == 1024 + 477 and json_lines == lines[1024:2048]


# -- the writer: each line is json.dumps(row.as_dict(), sort_keys=True) of its table

def dumps_text(entries) -> str:
    return "".join(json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in entries)


def written_text(entries, path) -> str:
    serialize_logs(entries, path)
    return path.read_text(encoding="utf-8")


# one entry whose values all differ, and its line as the writer writes it:
# the on-disk format spelled out, so no change to the record classes can
# move it unseen
PINNED_ENTRY = make_entry(params=ParamConfig(cpu_num=2, cpu_freq_mhz=2400, cc=4, p=3, pp=5),
                          timestamp_s=7.5)
PINNED_LINE = (
    '{"avg_power_watts": 50.0, "dataset": {"avg_file_size_bytes": 10000000.0, '
    '"file_size_stddev_bytes": 1000000.0, "num_files": 100, '
    '"total_size_bytes": 1000000000.0}, "duration_s": 10.0, "energy_joules": 500.0, '
    '"network": {"bandwidth_mbps": 10000.0, "dest_id": "b", "ext_load": 0.2, '
    '"rtt_ms": 30.0, "source_id": "a"}, "params": {"cc": 4, "cpu_freq_mhz": 2400, '
    '"cpu_num": 2, "p": 3, "pp": 5}, "throughput_mbps": 900.0, "timestamp_s": 7.5}\n')


def test_a_pinned_entry_is_written_as_its_pinned_line(tmp_path):
    path = tmp_path / "logs.jsonl"
    assert dumps_text([PINNED_ENTRY]) == PINNED_LINE
    assert written_text(LogTable.from_entries([PINNED_ENTRY]), path) == PINNED_LINE
    assert written_text([PINNED_ENTRY], path) == PINNED_LINE
    assert list(ingest_logs(path)) == [PINNED_ENTRY]


# every leaf of an entry by its as_dict() section and the kind it holds,
# spelled out as the pinned line is
WRITER_FIELDS = {
    ("params", "cpu_num"): "int",
    ("params", "cpu_freq_mhz"): "int",
    ("params", "cc"): "int",
    ("params", "p"): "int",
    ("params", "pp"): "int",
    ("dataset", "num_files"): "int",
    ("dataset", "total_size_bytes"): "float",
    ("dataset", "avg_file_size_bytes"): "float",
    ("dataset", "file_size_stddev_bytes"): "float",
    ("network", "source_id"): "str",
    ("network", "dest_id"): "str",
    ("network", "bandwidth_mbps"): "float",
    ("network", "rtt_ms"): "float",
    ("network", "ext_load"): "float",
    (None, "throughput_mbps"): "float",
    (None, "energy_joules"): "float",
    (None, "avg_power_watts"): "float",
    (None, "duration_s"): "float",
    (None, "timestamp_s"): "float",
}
PLAIN_VALUES = {"float": st.floats(allow_nan=False, allow_infinity=False),
                "int": st.integers(-2**63, 2**63 - 1),
                "str": st.text(max_size=6)}   # non-ASCII, quotes, escapes
# values of a leaf's kind that json.dumps writes its own way
ODD_VALUES = {"float": st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                                  np.float64(-0.0), np.float64(math.nan)]),
                                 st.floats().map(np.float64)),
              "int": st.sampled_from([0, -1, 2**63 - 1, -2**63]),
              "str": st.text(max_size=3)}
# a batch of 4 lines makes the same edges as the writer's 256 in short
# corpora, which hypothesis generates and shrinks quickly
TEST_BATCH = 4
TEST_SIZES = (0, 1, TEST_BATCH - 1, TEST_BATCH, TEST_BATCH + 1, 4 * TEST_BATCH + 1)


def entry_of(fields: dict, i: int) -> TransferLogEntry:
    """Row i of per-leaf value columns, unchecked."""
    section = {s: {n: col[i] for (sec, n), col in fields.items() if sec == s}
               for s in ("params", "dataset", "network", None)}
    return TransferLogEntry(params=ParamConfig(**section["params"]),
                            dataset=DatasetMeta(**section["dataset"]),
                            network=NetworkMeta(**section["network"]), **section[None])


@st.composite
def writer_corpora(draw):
    """Entries whose leaf columns cycle through a few plain values of their
    kind, with a few odd values of the leaf's kind put in anywhere."""
    n = draw(st.sampled_from(TEST_SIZES))
    fields = {}
    for leaf, kind in WRITER_FIELDS.items():
        pool = draw(st.lists(PLAIN_VALUES[kind], min_size=1, max_size=3))
        col = [pool[i % len(pool)] for i in range(n)]
        if n:
            for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), ODD_VALUES[kind]),
                                          max_size=2)):
                col[i] = value
        fields[leaf] = col
    return [entry_of(fields, i) for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entries=writer_corpora())
def test_written_lines_equal_json_dumps_of_each_entry(tmp_path_factory, entries):
    """A list whose values its table holds as they are is written as
    json.dumps of each entry."""
    path = tmp_path_factory.mktemp("writer") / "logs.jsonl"
    with mock.patch.object(logs, "WRITE_BATCH_LINES", TEST_BATCH):
        assert written_text(entries, path) == dumps_text(entries)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1025])
def test_an_odd_value_is_written_alone_at_each_batch_edge(tmp_path, n):
    assert logs.WRITE_BATCH_LINES == 256
    entries = [make_entry(timestamp_s=float(i)) for i in range(n)]
    odd = {0: dict(timestamp_s=math.nan), 255: dict(energy_joules=-0.0),
           256: dict(throughput_mbps=7), 257: dict(duration_s=np.float64(0.1)),
           1024: dict(avg_power_watts=True)}
    for i, over in odd.items():
        if i < n:
            entries[i] = replace(entries[i], **over)
    assert written_text(entries, tmp_path / "logs.jsonl") == \
        dumps_text(LogTable.from_entries(entries))


def test_a_list_is_written_as_its_table_holds_it(tmp_path):
    """Ints in float fields are written as floats, numpy integers and bools
    as the numbers the table holds; None, a string in a number field or a
    float in an int field raises before the file opens."""
    odd = make_entry(throughput_mbps=7, avg_power_watts=True,
                     dataset=DatasetMeta(True, 1e9, 1e9, 0.0),
                     params=ParamConfig(np.int64(4), 1200, 4, 2, 0))
    held = make_entry(throughput_mbps=7.0, avg_power_watts=1.0,
                      dataset=DatasetMeta(1, 1e9, 1e9, 0.0),
                      params=ParamConfig(4, 1200, 4, 2, 0))
    assert written_text([odd], tmp_path / "logs.jsonl") == dumps_text([held])
    for over in (dict(throughput_mbps=None), dict(params=ParamConfig(1, None, 4, 2, 0)),
                 dict(network=NetworkMeta(None, "b", 1e4, 30.0, 0.2)),
                 dict(network=NetworkMeta("a", "b", "1e4", 30.0, 0.2)),
                 dict(params=ParamConfig(1, 1200, 4.5, 2, 0)),
                 dict(dataset=DatasetMeta(100.0, 1e9, 1e7, 1e6))):
        path = tmp_path / "none.jsonl"
        with pytest.raises(TypeError):
            serialize_logs([make_entry(), make_entry(**over)], path)
        assert not path.exists()


def test_a_table_is_written_as_its_entries(tmp_path):
    routes = [("uc", "tacc"), ("é\"\\", "☃\n"), ("a", "b")]
    entries = [make_entry(network=NetworkMeta(*routes[i % 3], 1e4, 30.0, i / 1000),
                          timestamp_s=float(i), duration_s=[10.0, math.inf, math.nan][i % 3])
               for i in range(300)]
    table = LogTable.from_entries(entries)
    text = written_text(table, tmp_path / "table.jsonl")
    assert text == dumps_text(table) == dumps_text(entries)
    assert '"source_id": "\\u00e9\\"\\\\"' in text and "Infinity" in text and "NaN" in text


@pytest.mark.parametrize("at", [0, 300])
def test_a_value_json_cannot_write_still_raises_type_error(tmp_path, at):
    entries = [make_entry(timestamp_s=float(i)) for i in range(400)]
    held = list(entries)
    entries[at] = replace(entries[at], params=replace(entries[at].params, cc=complex(4)))
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        json.dumps(entries[at].as_dict(), sort_keys=True)
    with pytest.raises(TypeError, match="complex"):
        serialize_logs(entries, tmp_path / "logs.jsonl")
    assert not (tmp_path / "logs.jsonl").exists()
    # a numpy integer is a value the table holds: written as the int
    entries[at] = replace(held[at], params=replace(held[at].params, cc=np.int64(4)))
    held[at] = replace(held[at], params=replace(held[at].params, cc=4))
    assert written_text(entries, tmp_path / "logs.jsonl") == dumps_text(held)


# -- a table written from its columns ------------------------------------------------

# floats the column writer must tell apart by their bits or write its own way
TABLE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-300,
                     9007199254740993.0, 1e16, 123456789.01234567]),
    st.floats())
TABLE_INTS = st.one_of(st.sampled_from([2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1, 0]),
                       st.integers(-2**63, 2**63 - 1))
ROUTE_IDS = st.one_of(st.sampled_from(['"', "\\", ",", "é", "☃", 'a,"b\\c\n', "\x00"]),
                      st.text(max_size=4))
TABLE_KINDS = {"float": TABLE_FLOATS, "int": TABLE_INTS, "str": ROUTE_IDS}


@st.composite
def table_corpora(draw):
    """Entries whose leaf columns either cycle through a few values or draw
    a value per row, so the writer meets columns with repeats and without."""
    n = draw(st.sampled_from(TEST_SIZES))
    fields = {}
    for leaf, kind in WRITER_FIELDS.items():
        if draw(st.booleans()):
            pool = draw(st.lists(TABLE_KINDS[kind], min_size=1, max_size=3))
            fields[leaf] = [pool[i % len(pool)] for i in range(n)]
        else:
            fields[leaf] = draw(st.lists(TABLE_KINDS[kind], min_size=n, max_size=n))
    return [entry_of(fields, i) for i in range(n)]


def signed_zeros(n: int) -> list:
    """Entries with 0.0 and -0.0 in every float column."""
    return [make_entry(network=NetworkMeta("a", "b", 1e4, 30.0, [0.0, -0.0][i % 2]),
                       dataset=DatasetMeta(1, 1e3, [-0.0, 0.0][i % 2], 0.0),
                       **{name: [0.0, -0.0][(i // 2) % 2] for name in logs.METRIC_FIELDS})
            for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entries=table_corpora())
@example(entries=signed_zeros(TEST_BATCH + 1))
def test_a_table_is_written_as_json_dumps_of_each_row(tmp_path_factory, entries):
    table = LogTable.from_entries(entries)
    path = tmp_path_factory.mktemp("writer") / "logs.jsonl"
    with mock.patch.object(logs, "WRITE_BATCH_LINES", TEST_BATCH):
        for written in (table, entries):
            assert written_text(written, path) == dumps_text(entries)


def test_the_table_writer_keeps_the_sign_of_zero(tmp_path):
    entries = signed_zeros(6)
    text = written_text(LogTable.from_entries(entries), tmp_path / "logs.jsonl")
    assert text == dumps_text(entries)
    assert '"ext_load": -0.0' in text and '"ext_load": 0.0' in text


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_the_table_writer_fills_every_batch_edge(tmp_path, n):
    assert logs.WRITE_BATCH_LINES == 256
    entries = [make_entry(timestamp_s=float(i), throughput_mbps=900.0 + i % 7,
                          network=NetworkMeta(f"s{i % 3}", "d", 1e4, 30.0, (i % 5) / 10))
               for i in range(n)]
    assert written_text(LogTable.from_entries(entries), tmp_path / "a.jsonl") == \
        dumps_text(entries)


# -- the column helper: orjson's text in the band, json.dumps's outside it ------------

# doubles around each edge of the band (0, or 1e-4 <= |v| < 1e16) where orjson
# writes repr's layout
BAND_EDGES = [math.nextafter(edge, to) for edge in (1e-4, -1e-4, 1e16, -1e16)
              for to in (0.0, math.copysign(math.inf, edge))] + [1e-4, -1e-4, 1e16, -1e16]
FLOAT_BATCHES = st.lists(st.floats(), max_size=12).map(lambda v: np.array(v, dtype=np.float64))
INT_BATCHES = st.lists(st.integers(-2**63, 2**63 - 1), max_size=12).map(
    lambda v: np.array(v, dtype=np.int64))


def f64(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(col=st.one_of(FLOAT_BATCHES, INT_BATCHES))
@example(col=f64(*BAND_EDGES))
@example(col=f64(0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2)))
@example(col=f64(math.nan, math.inf, -math.inf))
@example(col=f64(0.5, 1e-5, 123.25, 1e16, math.nan, 7.0, -1e300, 0.0))
@example(col=f64())
@example(col=np.array([2**63 - 1, -2**63, 0, -1, 2**53 - 1, 2**53 + 1], dtype=np.int64))
@example(col=np.array([], dtype=np.int64))
def test_column_text_is_json_dumps_of_each_value(col):
    assert logs._column_text(col) == [json.dumps(v) for v in col.tolist()]


def test_a_generated_noisy_corpus_is_written_as_json_dumps_of_each_entry(tmp_path):
    """Every number of a generated noisy two-route corpus lies in the band,
    so each is written as orjson's text, which must be json.dumps's."""
    table = generate_training_logs(specs=[ENDPOINTS["chameleon"], ENDPOINTS["cloudlab"]],
                                   sweeps=2, noise=0.02, seed=3)
    assert written_text(table, tmp_path / "logs.jsonl") == dumps_text(table)


def test_rows_of_a_table_are_its_entries():
    entries = [make_entry(params=ParamConfig(1 + i % 3, 1200, 4, 2, 0),
                          network=NetworkMeta("ab"[i % 2], "c", 1e4, 30.0,
                                              [0.0, -0.0, 0.5][i % 3]),
                          dataset=DatasetMeta(100 + i % 2, 1e9, 1e7, [0.0, -0.0][i % 2]),
                          timestamp_s=float(i), energy_joules=[500.0, -0.0][i % 2])
               for i in range(11)]
    table = LogTable.from_entries(entries)
    want = [json.dumps(e.as_dict(), sort_keys=True) for e in entries]
    dumps = lambda rows: [json.dumps(e.as_dict(), sort_keys=True) for e in rows]
    assert dumps(table) == want   # -0.0 survives iteration
    assert dumps(table[i] for i in range(-11, 11)) == want + want
    assert table[np.int64(3)] == entries[3]
    for bad in (11, -12):
        with pytest.raises(IndexError):
            table[bad]
    with pytest.raises(TypeError):
        table[1.0]
    for rows in (slice(None), slice(2, 7), slice(None, None, -3), slice(20, 30),
                 slice(-4, None, 2)):
        sub = table[rows]
        assert isinstance(sub, LogTable) and sub.routes == table.routes
        assert dumps(sub) == want[rows]
    # rows equal bit for bit share one object; -0.0 and 0.0 are not equal bits
    rows = list(table)
    assert rows[0].params is rows[3].params and rows[0].params is not rows[1].params
    assert rows[0].dataset is rows[2].dataset and rows[0].dataset is not rows[1].dataset
    assert rows[0].network is rows[6].network and rows[0].network is not rows[4].network
    assert math.copysign(1.0, rows[1].network.ext_load) == -1.0
    assert math.copysign(1.0, rows[1].dataset.file_size_stddev_bytes) == -1.0


def test_iteration_reads_the_metrics_a_block_at_a_time():
    entries = [make_entry(timestamp_s=float(i)) for i in range(2 * logs._ROW_BLOCK + 1)]
    table = LogTable.from_entries(entries)
    assert [e.timestamp_s for e in table] == [e.timestamp_s for e in entries]
    assert list(table) == entries
