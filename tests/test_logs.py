"""Log schema, validation, column table and JSON-Lines round-trip tests.

legacy_ingest_logs, the per-line ingest the column-wise one replaced, is
kept as a test-only oracle: on valid corpora and on corpora with injected
faults both must give equal entries or the same error and message.
"""

import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfertune import (
    DatasetMeta,
    LogError,
    LogParseError,
    LogTable,
    LogValidationError,
    NetworkMeta,
    ParamConfig,
    ParamLattice,
    TransferLogEntry,
    ingest_logs,
    serialize_logs,
    validate_entry,
)
from xfertune import cli, logs
from xfertune.logs import (
    ENERGY_POWER_TOL,
    PARAM_MIN,
    PARAM_NAMES,
    SIZE_MEAN_TOL,
    validate_dataset,
    validate_network,
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


def test_lattice_enumeration_is_lexicographic():
    lat = ParamLattice(cpu_num=(1, 2), cpu_freq_mhz=(1200,), cc=(1, 4),
                       p=(1,), pp=(0, 4))
    cfgs = list(lat.configs())
    assert len(cfgs) == lat.size() == 8
    keys = [tuple(c.get(n) for n in PARAM_NAMES) for c in cfgs]
    assert keys == sorted(keys)
    assert lat.contains(ParamConfig(1, 1200, 4, 1, 4))
    assert not lat.contains(ParamConfig(3, 1200, 4, 1, 4))


def test_lattice_rejects_bad_axes():
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(2, 1), cpu_freq_mhz=(1200,), cc=(1,), p=(1,), pp=(0,))
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(1,), cpu_freq_mhz=(1200,), cc=(0,), p=(1,), pp=(0,))
    with pytest.raises(ValueError):
        ParamLattice(cpu_num=(1,), cpu_freq_mhz=(1200,), cc=(1,), p=(1,), pp=(-1,))


def test_validate_params_lattice_membership():
    lat = ParamLattice(cpu_num=(1, 2), cpu_freq_mhz=(1200, 2400), cc=(1, 4),
                       p=(1, 2), pp=(0, 4))
    ok = ParamConfig(2, 2400, 4, 2, 4)
    assert validate_params(ok, lat) is None
    off = ParamConfig(2, 2400, 4, 3, 4)
    msg = validate_params(off, lat)
    assert msg == "p=3 not on the configured lattice"
    assert validate_params(ParamConfig(0, 2400, 4, 2, 4)) == "cpu_num must be >= 1"
    assert validate_params(ParamConfig(1, 2400, 4, 2, -1)) == "pp must be >= 0"


def test_validate_dataset_messages():
    ok = DatasetMeta(num_files=10, total_size_bytes=1000.0,
                     avg_file_size_bytes=100.0, file_size_stddev_bytes=5.0)
    assert validate_dataset(ok) is None
    bad_n = DatasetMeta(num_files=0, total_size_bytes=1000.0,
                        avg_file_size_bytes=100.0, file_size_stddev_bytes=5.0)
    assert validate_dataset(bad_n) == "num_files must be >= 1"
    # mean * count must agree with the total within 1%
    skew = DatasetMeta(num_files=10, total_size_bytes=1000.0,
                       avg_file_size_bytes=150.0, file_size_stddev_bytes=5.0)
    assert "inconsistent with total_size_bytes" in validate_dataset(skew)


def test_validate_network_messages():
    ok = NetworkMeta("a", "b", 100.0, 10.0, 0.5)
    assert validate_network(ok) is None
    assert validate_network(NetworkMeta("a", "b", 100.0, 10.0, 1.5)) == "ext_load out of [0,1]"
    assert validate_network(NetworkMeta("a", "b", 100.0, 10.0, -0.1)) == "ext_load out of [0,1]"
    assert validate_network(NetworkMeta("a", "b", 0.0, 10.0, 0.5)) == "bandwidth_mbps must be > 0"
    assert validate_network(NetworkMeta("", "b", 100.0, 10.0, 0.5)) == "source_id must be a nonempty string"


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


def test_ingest_reports_validation_line(tmp_path):
    path = tmp_path / "logs.jsonl"
    good = make_entry().as_dict()
    bad = make_entry(throughput_mbps=10001.0).as_dict()
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(LogValidationError, match="throughput exceeds bandwidth, line 2"):
        ingest_logs(path)


def test_ingest_enforces_lattice_when_given(tmp_path):
    lat = ParamLattice(cpu_num=(1,), cpu_freq_mhz=(2400,), cc=(4,), p=(2,), pp=(4,))
    path = tmp_path / "logs.jsonl"
    serialize_logs([make_entry()], path)
    with pytest.raises(LogValidationError, match="not on the configured lattice"):
        ingest_logs(path, lat)


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


def legacy_validate_params(params, lattice=None):
    for name in PARAM_NAMES:
        v = params.get(name)
        if not legacy_is_int(v):
            return f"{name} must be an integer"
    for name in PARAM_NAMES:
        if params.get(name) < PARAM_MIN[name]:
            return f"{name} must be >= {PARAM_MIN[name]}"
    if lattice is not None:
        for name in PARAM_NAMES:
            if params.get(name) not in lattice.axis(name):
                return f"{name}={params.get(name)} not on the configured lattice"
    return None


def legacy_validate_dataset(meta):
    if not legacy_is_int(meta.num_files) or meta.num_files < 1:
        return "num_files must be >= 1"
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


def legacy_validate_entry(entry, lattice=None):
    msg = legacy_validate_params(entry.params, lattice)
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


def legacy_ingest_logs(path, lattice=None):
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
            msg = legacy_validate_entry(entry, lattice)
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
# negative, fractional, huge and small values, mismatched ints and floats
FAULT_VALUES = (0, -1, 1, 3, 2.0, 0.5, -0.0, 1e-12, 1e300, "", "a", None, True, False,
                [], {}, math.nan, math.inf, -math.inf)
LATTICE = ParamLattice(cpu_num=(1, 2), cpu_freq_mhz=(1200, 2400), cc=(1, 4),
                       p=(1, 2), pp=(0, 4))


def valid_obj(k: int) -> dict:
    """A valid entry that varies with k and lies on LATTICE."""
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


def outcome(ingest, path, lattice):
    try:
        return [e.as_dict() for e in ingest(path, lattice)]
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


# Corpora that try to make the chunk's one joined json.loads read something
# other than its lines. In the first four, two lines join into one entry and
# a later line holds two entries (or extra quote marks), so the joined text
# still decodes to one valid entry per line. Each check of the joined decode
# is the only one that some corpus here fails.
_valid = json.dumps(valid_obj(2))
JOIN_BREAKERS = (
    # the join comma inside a route id
    corpus_text([valid_obj(0), valid_obj(1),
                 json.dumps(with_route(2, "a},{b")).replace("},{", "}\n{"),
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}", valid_obj(5)]),
    # the join comma inside the dropped value of a repeated key
    corpus_text([valid_obj(0), '{"timestamp_s": "}',
                 '{", ' + _valid[1:-1] + ', "timestamp_s": 2.0}',
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}"]),
    # the join comma between two members
    corpus_text([valid_obj(0), _valid[:-1].replace(', "timestamp_s": 2.0', ""),
                 '"timestamp_s": 2.0}',
                 f"{json.dumps(valid_obj(3))}, {json.dumps(valid_obj(4))}"]),
    # a dropped value whose escaped quotes make up the count of quote marks
    corpus_text([valid_obj(0), '{"timestamp_s": "}', '{' + '\\"' * 44 + '", ' + _valid[1:],
                 valid_obj(3)]),
    # two valid entries on one line and nothing to make up the count
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=faulty_corpora(), chunk=st.sampled_from([1, 2, 3, 7, 1024]),
       lattice=st.sampled_from([None, LATTICE]))
@example(text=JOIN_BREAKERS[0], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[1], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[2], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[3], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[4], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[5], chunk=2, lattice=LATTICE)
@example(text=JOIN_BREAKERS[6], chunk=1024, lattice=LATTICE)
@example(text=JOIN_BREAKERS[7], chunk=3, lattice=None)
@example(text=JOIN_BREAKERS[8], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[9], chunk=1024, lattice=None)
@example(text=JOIN_BREAKERS[10], chunk=1024, lattice=None)
def test_ingest_matches_legacy_per_line_ingest(tmp_path_factory, text, chunk, lattice):
    path = tmp_path_factory.mktemp("corpus") / "logs.jsonl"
    path.write_text(text)
    want = outcome(legacy_ingest_logs, path, lattice)
    with mock.patch.object(logs, "INGEST_CHUNK_LINES", chunk):
        assert outcome(ingest_logs, path, lattice) == want


def test_faults_reach_every_rule(tmp_path):
    """The fault values above break every rule of the legacy validators."""
    seen = set()
    path = tmp_path / "logs.jsonl"
    for fpath in FIELD_PATHS:
        for value in FAULT_VALUES:
            obj = valid_obj(0)
            set_field(obj, fpath, value)
            path.write_text(json.dumps(obj) + "\n")
            for lattice in (None, LATTICE):
                got = outcome(legacy_ingest_logs, path, lattice)
                if isinstance(got, tuple):
                    seen.add(re.sub(r"^\w+=\S+ ", "", got[1].rsplit(",", 1)[0]))
    rules = {f"{n} must be an integer" for n in PARAM_NAMES}
    rules |= {f"{n} must be >= {PARAM_MIN[n]}" for n in PARAM_NAMES}
    rules |= {f"{n} must be a finite number" for n in
              ("total_size_bytes", "avg_file_size_bytes", "file_size_stddev_bytes",
               "throughput_mbps", "energy_joules", "avg_power_watts", "duration_s",
               "timestamp_s")}
    rules |= {"not on the configured lattice", "num_files must be >= 1",
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
            msg = legacy_validate_entry(legacy_entry_from_obj(obj), LATTICE)
            if msg is not None:
                faults.setdefault((fpath, msg), (fpath, value))
    for a, b in itertools.product(faults.values(), repeat=2):
        obj = valid_obj(0)
        set_field(obj, *a)
        set_field(obj, *b)
        entry = legacy_entry_from_obj(obj)
        for lattice in (None, LATTICE):
            assert validate_entry(entry, lattice) == legacy_validate_entry(entry, lattice)


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
    want = outcome(legacy_ingest_logs, path, None)
    assert outcome(ingest_logs, path, None) == want
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
    want = outcome(legacy_ingest_logs, path, None)
    assert want[1].endswith(f", line {min(faults) + 1}")
    assert outcome(ingest_logs, path, None) == want
    lines[min(faults)] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    assert outcome(ingest_logs, path, None) == outcome(legacy_ingest_logs, path, None)


def test_a_valid_chunk_is_decoded_by_one_json_loads(tmp_path):
    """2,100 valid lines are three chunks: one json.loads each, none per line."""
    lines = [json.dumps(valid_obj(k)) for k in range(2100)]
    path = tmp_path / "logs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    want = outcome(legacy_ingest_logs, path, LATTICE)
    assert logs.INGEST_CHUNK_LINES == 1024
    with mock.patch.object(logs.json, "loads", wraps=json.loads) as loads:
        got = outcome(ingest_logs, path, LATTICE)
    assert loads.call_count == 3
    assert got == want and len(got) == 2100
