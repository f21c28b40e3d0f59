"""End-to-end pipeline and CLI tests.

One module-scoped run of the offline chain (generate, stratify, fit,
optimize) backs most tests; the online subcommands and error paths run
against its artifacts.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xfertune import (SLA, cli, compare_policies, fit_all_strata,
                      generate_training_logs, optimize_all, run_tuned_transfer,
                      stratify)
from xfertune.clustering import FeatureSpec, StratifyConfig
from xfertune.logs import PARAM_NAMES, ParamLattice, serialize_logs
from xfertune.simulator import (DATASET_CLASSES, ENDPOINTS, LoadScenario,
                                default_lattice, power_above_base_watts,
                                synth_file_sizes, throughput_mbps)
from xfertune.tuner import dataset_meta_for
from xfertune.pipeline import (
    PipelineError,
    SCHEMAS,
    load_models,
    load_strata,
    load_table,
    models_doc,
    read_json_artifact,
    write_json_artifact,
)
from test_surfaces import assert_same_stratum_models

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    run_offline_chain(d)
    return d


def run_offline_chain(d: Path):
    assert cli.main(["generate", "--out", str(d / "logs.jsonl"), "--seed", "0"]) == 0
    assert cli.main(["stratify", "--logs", str(d / "logs.jsonl"),
                     "--out", str(d / "strata.json")]) == 0
    assert cli.main(["fit", "--logs", str(d / "logs.jsonl"),
                     "--strata", str(d / "strata.json"),
                     "--out", str(d / "models.json")]) == 0
    assert cli.main(["optimize", "--models", str(d / "models.json"),
                     "--out", str(d / "table.json")]) == 0


def test_generate_and_ingest_reporting(tmp_path, capsys):
    logs = tmp_path / "logs.jsonl"
    assert cli.main(["generate", "--out", str(logs)]) == 0
    assert cli.main(["ingest", "--logs", str(logs)]) == 0
    out = capsys.readouterr().out
    assert "wrote 3888 log entries" in out
    assert "ok: 3888 entries" in out
    assert "routes: uc->tacc" in out
    assert "load levels: 0.2, 0.35, 0.5" in out
    assert "distinct configurations: 432" in out


def test_ingest_summarizes_continuous_loads_by_count_and_range(tmp_path, capsys):
    loads = tuple(0.1 + k / 100 for k in range(cli.LISTED_LOAD_LEVELS + 1))
    narrow = ParamLattice(cpu_num=(1,), cpu_freq_mhz=(1200,), cc=(1, 4), p=(1,), pp=(0,))
    logs = tmp_path / "logs.jsonl"
    serialize_logs(generate_training_logs(lattice=narrow, loads=loads), logs)
    assert cli.main(["ingest", "--logs", str(logs)]) == 0
    out = capsys.readouterr().out
    assert f"load levels: 13 in [0.1, {loads[-1]}]\n" in out
    serialize_logs(generate_training_logs(lattice=narrow, loads=loads[:-1]), logs)
    assert cli.main(["ingest", "--logs", str(logs)]) == 0
    assert f"load levels: {', '.join(map(str, loads[:-1]))}\n" in capsys.readouterr().out


def test_offline_artifacts_are_schema_tagged(chain):
    strata = json.loads((chain / "strata.json").read_text())
    models = json.loads((chain / "models.json").read_text())
    table = json.loads((chain / "table.json").read_text())
    assert strata["schema"] == SCHEMAS["strata"] == "xfertune/strata-v2"
    assert models["schema"] == SCHEMAS["models"] == "xfertune/models-v3"
    assert table["schema"] == SCHEMAS["table"] == "xfertune/table-v1"
    assert len(strata["strata"]) == 9
    assert sorted(models["strata"]) == [f"s00{i}" for i in range(9)]
    assert "holdout" in models
    rows = table["table"]["rows"]
    assert len(rows) == 9
    assert all(set(r) == {"max-tput", "min-energy"} for r in rows.values())
    assert all(cell["status"] == "ok" for r in rows.values() for cell in r.values())


def test_schema_mismatch_and_malformed_artifacts(chain, tmp_path):
    with pytest.raises(PipelineError, match="expected schema xfertune/models-v3, "
                                            "found 'xfertune/strata-v2'"):
        read_json_artifact(chain / "strata.json", "models")
    # a strata-v1 file partitions the load twice: in tier 1 and in the bands
    old = tmp_path / "strata-v1.json"
    old.write_text((chain / "strata.json").read_text().replace("strata-v2", "strata-v1"))
    with pytest.raises(PipelineError, match="expected schema xfertune/strata-v2, "
                                            "found 'xfertune/strata-v1'"):
        read_json_artifact(old, "strata")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(PipelineError, match="malformed JSON"):
        read_json_artifact(bad, "strata")
    bad.write_text('{"foo": 1}')
    with pytest.raises(PipelineError, match="found None"):
        read_json_artifact(bad, "strata")


def test_models_artifact_reproduces_predictions(chain, models):
    loaded = load_models(read_json_artifact(chain / "models.json", "models"))
    assert sorted(loaded) == sorted(models)
    for sid in models:
        assert_same_stratum_models(loaded[sid], models[sid])
    sid = sorted(models)[0]
    a, b = loaded[sid], models[sid]
    for cfg in list(ParamLattice(**a.lattice_axes()).configs())[::37]:
        assert a.predict_energy(cfg) == b.predict_energy(cfg)
        assert a.predict_throughput(cfg) == b.predict_throughput(cfg)


def test_models_artifact_reloads_bit_for_bit_on_a_ragged_multiroute_corpus(tmp_path):
    specs = [ENDPOINTS["chameleon"], ENDPOINTS["cloudlab"]]
    rng = np.random.default_rng(7)
    corpus = [e for e in generate_training_logs(specs=specs, noise=0.02, seed=7)
              if rng.random() >= 0.1]
    strata = stratify(corpus, StratifyConfig())
    assert len({s.route for s in strata}) == 2
    models, _ = fit_all_strata(corpus, strata, with_holdout=False)
    path = tmp_path / "models.json"
    write_json_artifact(path, models_doc(models))
    loaded = load_models(read_json_artifact(path, "models"))
    assert sorted(loaded) == sorted(models)
    for sid in models:
        assert_same_stratum_models(loaded[sid], models[sid])


def test_models_artifact_holds_no_coefficients(chain):
    text = (chain / "models.json").read_text()
    assert '"coeffs"' not in text
    doc = json.loads(text)
    for stratum in doc["strata"].values():
        assert list(stratum["groups"]) == ["cc+p", "cpu_num+cpu_freq_mhz", "pp"]


def assert_old_models_refused(chain, tmp_path, capsys, schema):
    doc = json.loads((chain / "models.json").read_text())
    doc["schema"] = schema
    path = tmp_path / "models.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["optimize", "--models", str(path),
                     "--out", str(tmp_path / "table.json")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: expected schema xfertune/models-v3, "
                                       f"found {schema!r}\n")
    assert not (tmp_path / "table.json").exists()


def test_a_models_v1_file_is_refused(chain, tmp_path, capsys):
    assert_old_models_refused(chain, tmp_path, capsys, "xfertune/models-v1")


def test_a_models_v2_file_is_refused(chain, tmp_path, capsys):
    # v2 files also stored stratum means, which predicted with the wrong offset
    assert_old_models_refused(chain, tmp_path, capsys, "xfertune/models-v2")


def _group(doc, label):
    return doc["strata"]["s004"]["groups"][label]


@pytest.mark.parametrize("edit,message", [
    (lambda d: _group(d, "cc+p")["knots"][0].reverse(),
     "stratum s004: group cc+p: xs: knots must be strictly increasing"),
    # json.dumps writes the NaN token, which json.load used to read back
    (lambda d: _group(d, "pp")["energy_joules"].__setitem__(1, math.nan),
     "{path}: malformed JSON: NaN is not a JSON value"),
    # written as 1e999, a number that json reads as inf
    (lambda d: _group(d, "pp")["energy_joules"].__setitem__(1, math.inf),
     "stratum s004: group pp: y values must be finite"),
    (lambda d: _group(d, "cpu_num+cpu_freq_mhz").update(
        energy_joules=[row[:-1] for row in _group(d, "cpu_num+cpu_freq_mhz")["energy_joules"]],
        throughput_mbps=[row[:-1] for row in
                         _group(d, "cpu_num+cpu_freq_mhz")["throughput_mbps"]]),
     "stratum s004: group cpu_num+cpu_freq_mhz: grid must have shape (len(xs), len(ys))"),
    # used to exit 1 with an OverflowError traceback
    (lambda d: _group(d, "pp")["energy_joules"].__setitem__(1, 10**400),
     "stratum s004: group pp: int too large to convert to float"),
], ids=["reversed-xs", "nan-token", "inf-number", "wrong-shape", "huge-int"])
def test_optimize_exits_2_on_models_with_bad_knots_or_grids(
        chain, tmp_path, capsys, edit, message):
    # used to load whatever coefficients the file held: a reversed axis
    # gave a table (exit 0)
    doc = json.loads((chain / "models.json").read_text())
    edit(doc)
    path = tmp_path / "models.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    assert cli.main(["optimize", "--models", str(path),
                     "--out", str(tmp_path / "table.json")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "table.json").exists()


def test_optimize_exits_2_on_models_whose_knots_are_not_parameter_values(
        chain, tmp_path, capsys):
    # used to exit 0 with a min-energy row at pp=-4, which tune then refused
    # with "pp must be >= 0"
    doc = json.loads((chain / "models.json").read_text())
    for stratum in doc["strata"].values():
        pp = stratum["groups"]["pp"]
        pp["knots"] = [[-4.0, 4.0, 8.0]]
        pp["energy_joules"][0] /= 10.0
    path = tmp_path / "models.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["optimize", "--models", str(path),
                     "--out", str(tmp_path / "table.json")]) == 2
    assert capsys.readouterr().err == ("error: stratum s000: group pp: pp knots "
                                       "[-4.0, 4.0, 8.0] are not all integers in [0, 2**63)\n")
    assert not (tmp_path / "table.json").exists()


@pytest.mark.parametrize("edit,where", [
    (lambda d: d["strata"][0]["centroids"].pop("tier2"),
     "['strata'][0]['centroids'] is missing key 'tier2'"),
    (lambda d: d["strata"][0]["centroids"]["tier1"].pop(),
     "['strata'][0]['centroids']['tier1'] of stratum s000 has length 0 for 1 features"),
    (lambda d: d["strata"][4]["centroids"]["tier3"].append(0.5),
     "['strata'][4]['centroids']['tier3'] of stratum s004 has length 3 for 2 features"),
    (lambda d: d["strata"][2]["centroids"]["tier2"].__setitem__(0, "wide"),
     "['strata'][2]['centroids']['tier2'][0] is a string, not an integer or a number"),
], ids=["no-tier2", "short-tier1", "long-tier3", "text-tier2"])
def test_tune_exits_2_on_strata_centroids_that_do_not_fit_the_config(
        chain, tmp_path, capsys, edit, where):
    # a missing tier2 centroid used to print "error: tier2", a short tier1
    # one "error: both points must have the same number of dimensions"
    doc = json.loads((chain / "strata.json").read_text())
    edit(doc)
    path = tmp_path / "strata.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["tune", "--strata", str(path), "--models", str(chain / "models.json"),
                     "--table", str(chain / "table.json"), "--classes", "small"]) == 2
    assert capsys.readouterr().err == f"error: {path}: strata artifact: {where}\n"


@pytest.mark.parametrize("artifact,edit,where", [
    ("models", lambda d: d.update(strata=[]), "['strata'] is an array, not an object"),
    ("models", lambda d: d.update(strata={"s000": []}),
     "['strata']['s000'] is an array, not an object"),
    ("models", lambda d: d["strata"]["s003"]["groups"]["pp"].pop("knots"),
     "['strata']['s003']['groups']['pp'] is missing key 'knots'"),
    ("models", lambda d: d["strata"]["s003"].pop("groups"),
     "['strata']['s003'] is missing key 'groups'"),
    # the anchor is read at this pp
    ("models", lambda d: d["strata"]["s003"]["groups"]["cpu_num+cpu_freq_mhz"]
     ["conditioning"].pop("pp"),
     "['strata']['s003']['groups']['cpu_num+cpu_freq_mhz']['conditioning'] "
     "is missing key 'pp'"),
    ("table", lambda d: d.update(table=[]), "['table'] is an array, not an object"),
    ("table", lambda d: d["table"]["rows"]["s001"]["max-tput"].pop("result"),
     "['table']['rows']['s001']['max-tput'] is missing key 'result'"),
    ("table", lambda d: d["table"]["slas"][0].update(bound=None),
     "['table']['slas'][0]['bound'] is null, not an integer or a number or a string"),
    # used to exit 1 with an OverflowError traceback from float(bound)
    ("table", lambda d: d["table"]["slas"][1].update(bound=10**400),
     "['table']['slas'][1]['bound'] of sla min-energy is an integer beyond float range"),
    # used to load, and the tuner ran the first max-tput's rows
    ("table", lambda d: d["table"]["slas"].append(
        {"id": "max-tput", "kind": "throughput-guarantee", "bound": 10}),
     "['table']['slas'][2]['id'] repeats sla id max-tput, the id of ['table']['slas'][0]"),
    ("strata", lambda d: d.update(strata={}), "['strata'] is an object, not an array"),
    ("strata", lambda d: d["strata"][2].update(members=7),
     "['strata'][2]['members'] is an integer, not an array"),
    ("strata", lambda d: d["config"].pop("tier1_cut"),
     "['config']: stratify config is missing key 'tier1_cut'"),
    # a 3-element interval used to exit 2 with "too many values to unpack",
    # a reversed one to let tune exit 0
    ("strata", lambda d: d["strata"][1].update(ext_load_interval=[0.2, 0.35, 0.5]),
     "['strata'][1]['ext_load_interval'] of stratum s001 is [0.2, 0.35, 0.5], "
     "not two numbers 0 <= lo <= hi <= 1"),
    ("strata", lambda d: d["strata"][1].update(ext_load_interval=[0.5, 0.1]),
     "['strata'][1]['ext_load_interval'] of stratum s001 is [0.5, 0.1], "
     "not two numbers 0 <= lo <= hi <= 1"),
    ("strata", lambda d: d["strata"][3].update(ext_load_interval=[-0.1, 0.2]),
     "['strata'][3]['ext_load_interval'] of stratum s003 is [-0.1, 0.2], "
     "not two numbers 0 <= lo <= hi <= 1"),
    # a 3-id or empty route used to load, and fit then reported the
    # members' route as not the stratum's
    ("strata", lambda d: d["strata"][1]["route"].append("x"),
     "['strata'][1]['route'] of stratum s001 is ['uc', 'tacc', 'x'], "
     "not two nonempty strings"),
    ("strata", lambda d: d["strata"][2].update(route=[]),
     "['strata'][2]['route'] of stratum s002 is [], not two nonempty strings"),
    ("strata", lambda d: d["strata"][0]["route"].__setitem__(1, ""),
     "['strata'][0]['route'] of stratum s000 is ['uc', ''], not two nonempty strings"),
    # non-finite tier-1 centroids used to exit 2 with "min() arg is an empty
    # sequence"; json reads the number 1e999 as inf
    ("strata", lambda d: d["strata"][0]["centroids"]["tier1"].__setitem__(0, json.loads("1e999")),
     "['strata'][0]['centroids']['tier1'][0] of stratum s000 is inf, not a finite float"),
    ("strata", lambda d: d["strata"][2]["centroids"]["tier3"].__setitem__(0, math.nan),
     "['strata'][2]['centroids']['tier3'][0] of stratum s002 is nan, not a finite float"),
    ("strata", lambda d: d["strata"][4]["centroids"]["tier2"].__setitem__(1, -math.inf),
     "['strata'][4]['centroids']['tier2'][1] of stratum s004 is -inf, not a finite float"),
    ("strata", lambda d: d["strata"][0]["centroids"]["tier2"].__setitem__(0, -10**400),
     f"['strata'][0]['centroids']['tier2'][0] of stratum s000 is {-10**400}, "
     "not a finite float"),
], ids=["models-strata-array", "models-stratum-array", "models-no-knots",
        "models-no-groups", "models-no-anchor-pp", "table-array", "table-no-result",
        "table-null-bound", "table-huge-int-bound", "table-repeated-sla",
        "strata-object", "strata-int-members", "strata-config-key",
        "strata-interval-3", "strata-interval-reversed", "strata-interval-negative",
        "strata-route-3", "strata-route-empty", "strata-route-empty-id",
        "strata-inf-centroid", "strata-nan-centroid", "strata-minus-inf-centroid",
        "strata-huge-int-centroid"])
def test_malformed_artifact_bodies_exit_2_naming_the_key_path(
        chain, tmp_path, capsys, artifact, edit, where):
    # each used to crash with a traceback (exit 1) or print a bare key
    doc = json.loads((chain / f"{artifact}.json").read_text())
    edit(doc)
    load = {"strata": load_strata, "models": load_models, "table": load_table}[artifact]
    with pytest.raises(PipelineError) as exc:
        load(doc)
    assert str(exc.value) == f"{artifact} artifact: {where}"
    # json.dumps writes a non-finite float as a NaN, Infinity or -Infinity
    # token, which the reader refuses by name before it reads the body
    text = json.dumps(doc)
    token = re.search(r"NaN|-?Infinity", text)
    paths = {name: chain / f"{name}.json" for name in ("strata", "models", "table")}
    paths[artifact] = tmp_path / f"{artifact}.json"
    paths[artifact].write_text(text)
    capsys.readouterr()
    assert cli.main(["tune", *(f"--{name}={path}" for name, path in paths.items()),
                     "--classes", "small"]) == 2
    want = (f"malformed JSON: {token[0]} is not a JSON value" if token
            else f"{artifact} artifact: {where}")
    assert capsys.readouterr().err == f"error: {paths[artifact]}: {want}\n"


def test_table_reader_ignores_keys_it_does_not_read(chain):
    # an extra parameter used to reach ParamConfig(**params): a TypeError
    # traceback from tune
    doc = json.loads((chain / "table.json").read_text())
    for rows in doc["table"]["rows"].values():
        for row in rows.values():
            row["result"]["params"]["window"] = 3
            row["result"]["note"] = "unread"
    want = load_table(read_json_artifact(chain / "table.json", "table"))
    got = load_table(doc)
    for sid in want.rows:
        for sla in want.slas:
            assert got.lookup(sid, sla.id) == want.lookup(sid, sla.id)


def test_a_missing_table_row_prints_the_message_not_its_repr(chain, capsys):
    rc = cli.main(["tune", "--strata", str(chain / "strata.json"),
                   "--models", str(chain / "models.json"),
                   "--table", str(chain / "table.json"),
                   "--sla", "foo=throughput-guarantee:10", "--classes", "small"])
    assert rc == 2
    assert re.fullmatch(r"error: no table row for \(s\d{3}, foo\)\n",
                        capsys.readouterr().err)


def test_readme_lists_the_artifact_schemas():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    listed = dict(re.findall(r"^\| (\w+) \| `(xfertune/[\w-]+)` \|", section, re.M))
    assert listed == SCHEMAS


def test_tuned_transfer_with_load_step(chain, tmp_path, capsys):
    out = tmp_path / "transfer.json"
    rc = cli.main(["tune", "--strata", str(chain / "strata.json"),
                   "--models", str(chain / "models.json"),
                   "--table", str(chain / "table.json"),
                   "--scenario", "step:0.2:0.6:10", "--sla", "max-tput",
                   "--classes", "large", "--out", str(out)])
    assert rc == 0
    assert "transfer complete" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "xfertune/transfer-v1"
    assert doc["sla"] == {"id": "max-tput", "kind": "energy-constrained",
                          "bound": "inf"}
    rep = doc["report"]
    assert rep["completed"] is True
    assert rep["switch_count"] == 1
    assert [e["event"] for e in rep["events"]] == ["switch-high"]
    assert 10.0 < rep["duration_s"] < 60.0
    assert rep["classes"][0]["class"] == "large"


def test_endpoint_failure_exit_code(chain, capsys):
    rc = cli.main(["tune", "--strata", str(chain / "strata.json"),
                   "--models", str(chain / "models.json"),
                   "--table", str(chain / "table.json"),
                   "--classes", "large", "--fail-at", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: endpoint failed at t=3.000s" in err
    assert "partial:" in err and "J consumed" in err


def test_infeasible_sla_exit_code(chain, tmp_path, capsys):
    tight = "tight=throughput-guarantee:20000"
    table = tmp_path / "tight.json"
    assert cli.main(["optimize", "--models", str(chain / "models.json"),
                     "--sla", tight, "--out", str(table)]) == 0
    assert "infeasible" in capsys.readouterr().out
    rc = cli.main(["tune", "--strata", str(chain / "strata.json"),
                   "--models", str(chain / "models.json"),
                   "--table", str(table), "--sla", tight,
                   "--classes", "small"])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_an_sla_that_differs_from_the_tables_sla_of_its_id_exits_2(
        chain, tmp_path, capsys):
    table = tmp_path / "cap.json"
    assert cli.main(["optimize", "--models", str(chain / "models.json"),
                     "--sla", "cap=energy-constrained:100000",
                     "--sla", "max-tput=energy-constrained:100000",
                     "--sla", "min-energy", "--out", str(table)]) == 0
    online = ["--strata", str(chain / "strata.json"),
              "--models", str(chain / "models.json"), "--table", str(table)]
    capsys.readouterr()
    for sla in ("cap=energy-constrained:1", "cap=throughput-guarantee:5000"):
        rc = cli.main(["tune", *online, "--sla", sla, "--classes", "small"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: sla {sla}.0 differs from the table's sla "
            f"cap=energy-constrained:100000.0; rerun optimize with it\n")
    # the table's max-tput is a custom SLA, not the preset compare tunes for
    rc = cli.main(["compare", *online, "--out", str(tmp_path / "compare.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: sla max-tput=energy-constrained:inf differs from the table's sla "
        "max-tput=energy-constrained:100000.0")
    # the SLA the table was built for still runs
    assert cli.main(["tune", *online, "--sla", "cap=energy-constrained:100000",
                     "--classes", "small"]) == 0
    assert "transfer complete" in capsys.readouterr().out


def test_usage_and_data_error_exit_codes(chain, tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["tune"]) == 1
    assert cli.main(["nonsense"]) == 1
    assert cli.main(["stratify", "--logs", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "x.json")]) == 2
    assert cli.main(["generate", "--out", str(tmp_path / "l.jsonl"),
                     "--endpoints", "atlantis"]) == 2
    assert cli.main(["tune", "--strata", str(chain / "strata.json"),
                     "--models", str(chain / "models.json"),
                     "--table", str(chain / "table.json"),
                     "--scenario", "ramp:0.1"]) == 2
    capsys.readouterr()
    assert cli.main(["tune", "--strata", str(chain / "strata.json"),
                     "--models", str(chain / "models.json"),
                     "--table", str(chain / "table.json"),
                     "--classes", "huge"]) == 2
    assert capsys.readouterr().err == "error: unknown file class 'huge'\n"
    assert cli.main(["compare", "--strata", str(chain / "strata.json"),
                     "--models", str(chain / "models.json"),
                     "--table", str(chain / "table.json"),
                     "--classes", "small,huge",
                     "--out", str(tmp_path / "compare.json")]) == 2
    assert capsys.readouterr().err == "error: unknown file class 'huge'\n"


def test_fit_rejects_strata_from_a_longer_log(chain, tmp_path, capsys):
    lines = (chain / "logs.jsonl").read_text().splitlines(keepends=True)
    short = tmp_path / "short.jsonl"
    short.write_text("".join(lines[:100]))
    capsys.readouterr()
    assert cli.main(["fit", "--logs", str(short),
                     "--strata", str(chain / "strata.json"),
                     "--out", str(tmp_path / "models.json")]) == 2
    assert "is not in the log of 100 entries" in capsys.readouterr().err


def test_fit_without_holdout_writes_the_same_strata_and_no_rmse(chain, tmp_path, capsys):
    out = tmp_path / "models.json"
    capsys.readouterr()
    assert cli.main(["fit", "--logs", str(chain / "logs.jsonl"),
                     "--strata", str(chain / "strata.json"),
                     "--out", str(out), "--no-holdout"]) == 0
    assert capsys.readouterr().out == f"fitted 9 strata -> {out}\n"
    doc, full = (json.loads(path.read_text()) for path in (out, chain / "models.json"))
    assert "holdout" not in doc and "holdout" in full
    assert doc["strata"] == full["strata"]


# the fit error of a 2-route corpus with a share of its rows dropped
RAGGED_FIT_ERRORS = {
    (0.5, 1): r"stratum s\d{3}: group pp: insufficient distinct pp values in conditioning slice",
    (0.8, 2): (r"holdout refit on \d+ of \d+ rows of stratum s\d{3}: "
               r"group cpu_num\+cpu_freq_mhz: insufficient distinct cpu_freq_mhz values "
               r"in conditioning slice"),
}


def test_fit_errors_on_ragged_corpora_name_the_stratum_once(tmp_path, capsys):
    full, logs, strata = (tmp_path / n for n in ("full.jsonl", "logs.jsonl", "strata.json"))
    assert cli.main(["generate", "--endpoints", "chameleon,cloudlab", "--sweeps", "2",
                     "--noise", "0.02", "--seed", "1", "--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    for (drop, seed), message in RAGGED_FIT_ERRORS.items():
        kept = np.random.default_rng(seed).permutation(len(lines))[
            :len(lines) - int(drop * len(lines))]
        logs.write_text("".join(lines[i] for i in sorted(kept)))
        assert cli.main(["stratify", "--logs", str(logs), "--out", str(strata)]) == 0
        capsys.readouterr()
        assert cli.main(["fit", "--logs", str(logs), "--strata", str(strata),
                         "--out", str(tmp_path / "models.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err
        assert err.count("stratum") == 1
        assert not (tmp_path / "models.json").exists()


def test_a_generated_log_round_trips_through_ingest_byte_for_byte(tmp_path):
    """The round trip of the CI workflow: ingest --out rewrites a generated
    log to the same bytes, and so does writing the list of its entries."""
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert cli.main(["generate", "--endpoints", "chameleon,cloudlab", "--sweeps", "2",
                     "--noise", "0.02", "--seed", "3", "--out", str(a)]) == 0
    assert cli.main(["ingest", "--logs", str(a), "--out", str(b)]) == 0
    serialize_logs(list(generate_training_logs(
        specs=[ENDPOINTS["chameleon"], ENDPOINTS["cloudlab"]], sweeps=2, noise=0.02, seed=3)), c)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("bad", [-1, 3888, 2.0, "3", True])
def test_fit_rejects_bad_member_indices(corpus, strata, bad):
    s0 = strata[0]
    broken = replace(s0, members=s0.members + (bad,))
    with pytest.raises(PipelineError, match=rf"stratum {s0.id}: member index "
                                            rf".* not in the log of 3888 entries"):
        fit_all_strata(corpus, [broken], with_holdout=False)


def test_fit_exits_2_on_a_repeated_stratum_id(chain, tmp_path, capsys):
    # fit used to exit 0 with 8 models for 9 strata, one stratum's lost
    doc = json.loads((chain / "strata.json").read_text())
    doc["strata"][1]["id"] = "s000"
    strata = tmp_path / "strata.json"
    strata.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["fit", "--logs", str(chain / "logs.jsonl"), "--strata", str(strata),
                     "--out", str(tmp_path / "models.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {strata}: strata artifact: ['strata'][1]['id'] repeats stratum id s000, "
        "the id of ['strata'][0]\n")
    assert not (tmp_path / "models.json").exists()


def test_fit_rejects_a_log_of_another_route(chain, tmp_path, capsys):
    # same length as the chameleon log the strata came from, other route
    other = tmp_path / "cloudlab.jsonl"
    assert cli.main(["generate", "--out", str(other), "--endpoints", "cloudlab"]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--logs", str(other),
                     "--strata", str(chain / "strata.json"),
                     "--out", str(tmp_path / "models.json")]) == 2
    assert re.fullmatch(r"error: stratum s000: member \d+ has route wisc->utah, "
                        r"not the stratum's uc->tacc\n", capsys.readouterr().err)
    assert not (tmp_path / "models.json").exists()


def test_fit_rejects_a_member_outside_its_load_band(corpus, strata):
    s0 = strata[0]
    lo, hi = s0.ext_load_interval
    i = s0.members[-1]
    moved = list(corpus)
    moved[i] = replace(corpus[i], network=replace(corpus[i].network, ext_load=hi))
    with pytest.raises(PipelineError, match=rf"stratum {s0.id}: member {i} has "
                                            rf"ext_load {hi!r} outside the stratum's band"):
        fit_all_strata(moved, [s0], with_holdout=False)


def test_fit_reports_the_first_offending_member(corpus, strata):
    s0 = strata[0]
    i, j = s0.members[0], s0.members[5]
    moved = list(corpus)
    moved[j] = replace(corpus[j], network=replace(corpus[j].network, source_id="elsewhere"))
    lo, hi = s0.ext_load_interval
    moved[i] = replace(corpus[i], network=replace(corpus[i].network, ext_load=hi))
    # member 0 is outside the band, member 5 on another route, then a bad index
    broken = replace(s0, members=s0.members + (-1,))
    with pytest.raises(PipelineError, match=rf"member {i} has ext_load"):
        fit_all_strata(moved, [broken], with_holdout=False)
    broken = replace(s0, members=(-1,) + s0.members)
    with pytest.raises(PipelineError, match=r"member index -1 is not in the log"):
        fit_all_strata(moved, [broken], with_holdout=False)
    broken = replace(s0, members=s0.members[1:])
    with pytest.raises(PipelineError, match=rf"member {j} has route elsewhere->tacc"):
        fit_all_strata(moved, [broken], with_holdout=False)


def _set(path, value):
    def edit(cfg):
        *keys, last = path
        for k in keys:
            cfg = cfg[k]
        cfg[last] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set(("tier1_features", 0, "hi"), 1.0),
     "tier1_features: feature bandwidth_mbps: lo and hi must be finite, lo < hi"),
    (_set(("tier2_features", 1, "foo"), 1), "tier2_features: malformed feature: .*'foo'"),
    (_set(("tier3_cut",), "wide"), "tier3_cut must be a finite number >= 0"),
    (_set(("tier3_features", 1, "lo"), 0.0), "tier3_features: feature rtt_ms: log-scale lo must be > 0"),
    (_set(("tier1_features", 0, "name"), "rtt_ms"), "tier1_features: unknown feature 'rtt_ms'"),
    (_set(("tier2_features", 0, "log_scale"), "yes"), "log_scale must be true or false"),
    (_set(("tier1_features", 0), 7), "tier1_features: malformed feature"),
    (_set(("load_band_k",), -1.0), "load_band_k must be a finite number >= 0"),
    # the load is partitioned by the bands alone, so tier 1 cannot cluster it
    (lambda cfg: cfg["tier1_features"].insert(0, FeatureSpec("ext_load", 0.0, 1.0).as_dict()),
     "tier1_features: unknown feature 'ext_load'; have bandwidth_mbps"),
], ids=["lo-equals-hi", "unknown-key", "text-cut", "log-lo-zero", "wrong-tier",
        "text-log-scale", "not-an-object", "negative-k", "ext-load-in-tier1"])
def test_stratify_rejects_a_bad_config(chain, tmp_path, capsys, edit, message):
    cfg = StratifyConfig().as_dict()
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main(["stratify", "--logs", str(chain / "logs.jsonl"),
                     "--out", str(tmp_path / "strata.json"),
                     "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err), err


@pytest.mark.parametrize("key", list(StratifyConfig().as_dict()))
def test_stratify_config_names_a_missing_key(chain, tmp_path, capsys, key):
    cfg = StratifyConfig().as_dict()
    del cfg[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main(["stratify", "--logs", str(chain / "logs.jsonl"),
                     "--out", str(tmp_path / "strata.json"),
                     "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: stratify config is missing key {key!r}\n"


def test_default_config_file_gives_the_same_strata(chain, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(StratifyConfig().as_dict()))
    assert cli.main(["stratify", "--logs", str(chain / "logs.jsonl"),
                     "--out", str(tmp_path / "strata.json"),
                     "--config", str(path)]) == 0
    assert ((tmp_path / "strata.json").read_bytes() ==
            (chain / "strata.json").read_bytes())


def test_nan_step_time_is_rejected(chain, tmp_path, capsys):
    artifacts = ["--strata", str(chain / "strata.json"),
                 "--models", str(chain / "models.json"),
                 "--table", str(chain / "table.json"),
                 "--scenario", "step:0.2:0.6:nan"]
    capsys.readouterr()
    assert cli.main(["tune", *artifacts]) == 2
    assert "segment starts must be strictly increasing" in capsys.readouterr().err
    assert cli.main(["compare", *artifacts, "--out", str(tmp_path / "c.json")]) == 2
    assert "segment starts must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tune", "compare"])
def test_nan_interval_is_rejected(chain, tmp_path, command):
    # a subprocess with a timeout, so a regression hangs no test run
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "xfertune.cli", command,
            "--strata", str(chain / "strata.json"),
            "--models", str(chain / "models.json"),
            "--table", str(chain / "table.json"), "--interval", "nan",
            "--out", str(tmp_path / "out.json")]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: interval_s must be > 0\n"


def _options(command: str) -> dict:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {tuple(a.option_strings): (a.default, a.required, a.type)
            for a in sub.choices[command]._actions}


def test_tune_and_compare_options_are_pinned():
    shared = {
        ("-h", "--help"): (argparse.SUPPRESS, False, None),
        ("--strata",): (None, True, None),
        ("--models",): (None, True, None),
        ("--table",): (None, True, None),
        ("--endpoint",): ("chameleon", False, None),
        ("--scenario",): ("constant:0.2", False, None),
        ("--classes",): ("small,medium,large", False, None),
        ("--interval",): (1.0, False, float),
    }
    assert _options("tune") == {**shared,
                                ("--sla",): ("max-tput", False, None),
                                ("--fail-at",): (None, False, float),
                                ("--out",): (None, False, None)}
    assert _options("compare") == {**shared, ("--out",): (None, True, None)}


def test_parse_sla_and_parse_scenario():
    sla = cli.parse_sla("cap500=energy-constrained:500")
    assert (sla.id, sla.kind, sla.bound) == ("cap500", "energy-constrained", 500.0)
    assert cli.parse_sla("max-tput").id == "max-tput"
    assert cli.parse_sla("min-energy").kind == "throughput-guarantee"
    with pytest.raises(PipelineError, match="want preset name"):
        cli.parse_sla("fastest")
    with pytest.raises(PipelineError, match="bad --sla bound"):
        cli.parse_sla("x=energy-constrained:lots")
    sc = cli.parse_scenario("step:0.2:0.6:10")
    assert sc.segments == ((0.0, 0.2), (10.0, 0.6))
    assert cli.parse_scenario("constant:0.3").segments == ((0.0, 0.3),)
    for bad in ("ramp:1", "step:1:2", "constant:high"):
        with pytest.raises(PipelineError, match="bad --scenario"):
            cli.parse_scenario(bad)


def test_compare_emits_all_policy_rows(chain, tmp_path, capsys):
    out = tmp_path / "compare.json"
    rc = cli.main(["compare", "--strata", str(chain / "strata.json"),
                   "--models", str(chain / "models.json"),
                   "--table", str(chain / "table.json"),
                   "--scenario", "constant:0.2", "--out", str(out)])
    assert rc == 0
    assert "policy" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMAS["compare"] == "xfertune/compare-v2"
    rows = doc["rows"]
    assert len(rows) == 12
    by_policy = {}
    for r in rows:
        by_policy.setdefault(r["policy"], []).append(r)
    assert set(by_policy) == {"fixed-baseline", "hla-max-tput",
                              "hla-min-energy", "static-optimal"}
    for r in by_policy["static-optimal"]:
        assert set(r["params"]) == {"max_tput", "min_energy"}
        assert r["switch_count"] == 0 and r["stratum_id"] == ""
    assert set(doc["totals"]) == {"fixed-baseline", "hla-max-tput",
                                  "hla-min-energy"}
    assert (doc["totals"]["hla-max-tput"]["avg_throughput_mbps"] >
            doc["totals"]["fixed-baseline"]["avg_throughput_mbps"])
    assert (doc["totals"]["hla-min-energy"]["energy_joules"] <
            doc["totals"]["fixed-baseline"]["energy_joules"])


def test_static_optimal_runs_the_classes_in_sequence_on_its_own_clock(chain, tmp_path):
    # the load steps from 0.05 to 0.6 at 5 s; the small class ends at about
    # 2.45 s, so the medium class meets the low load only until 5 s. Scored
    # from t = 0, as if each class ran alone, the medium row would read
    # 5,419.2 Mbps and the large one 4,519.1
    out = tmp_path / "compare.json"
    assert cli.main(["compare", "--strata", str(chain / "strata.json"),
                     "--models", str(chain / "models.json"),
                     "--table", str(chain / "table.json"),
                     "--scenario", "step:0.05:0.6:5", "--interval", "0.5",
                     "--out", str(out)]) == 0
    rows = {r["class"]: r for r in json.loads(out.read_text())["rows"]
            if r["policy"] == "static-optimal"}
    assert rows["medium"]["throughput_mbps"] == pytest.approx(4598.04, rel=1e-6)
    assert rows["large"]["throughput_mbps"] == pytest.approx(3999.70, rel=1e-6)
    # the same fastest fixed runs from a closed form of the one step
    spec = ENDPOINTS["chameleon"]
    configs = list(default_lattice(spec).configs())
    start = 0.0
    for cname in ("small", "medium", "large"):
        meta = dataset_meta_for(synth_file_sizes(DATASET_CLASSES[cname]))
        mbit = meta.total_size_bytes * 8.0 / 1e6
        head = max(5.0 - start, 0.0)

        def duration(cfg):
            low, high = (throughput_mbps(spec, cfg, load, meta.avg_file_size_bytes)
                         for load in (0.05, 0.6))
            return mbit / low if mbit <= low * head else head + (mbit - low * head) / high
        best = min(map(duration, configs))
        assert rows[cname]["throughput_mbps"] == pytest.approx(mbit / best, rel=1e-9)
        assert rows[cname]["duration_s"] == pytest.approx(best, rel=1e-9)
        start += best


@pytest.mark.parametrize("load", [0.05, 0.2, 0.35, 0.6, 0.9])
def test_tuned_rows_do_not_beat_the_static_oracle_on_a_constant_load(
        strata, models, table, stratify_config, load):
    # at a constant load no switching beats the best fixed configuration;
    # an equal run differs from the oracle's in the last bits, as the
    # stepped transfer sums its ticks
    doc = compare_policies(ENDPOINTS["chameleon"], LoadScenario.constant(load),
                           stratify_config, strata, models, table, interval_s=0.1)
    rows = {(r["policy"], r["class"]): r for r in doc["rows"]}
    for cname in ("small", "medium", "large"):
        oracle = rows[("static-optimal", cname)]
        tput = rows[("hla-max-tput", cname)]["throughput_mbps"] / oracle["throughput_mbps"]
        energy = rows[("hla-min-energy", cname)]["energy_joules"] / oracle["energy_joules"]
        assert tput <= 1 + 1e-9 and energy >= 1 - 1e-9, (cname, tput, energy)


def test_offline_chain_is_byte_deterministic(chain, tmp_path):
    again = tmp_path / "again"
    again.mkdir()
    run_offline_chain(again)
    for name in ("logs.jsonl", "strata.json", "models.json", "table.json"):
        assert (again / name).read_bytes() == (chain / name).read_bytes(), name


def test_artifact_writer_serializes_infinity(tmp_path):
    path = tmp_path / "x.json"
    write_json_artifact(path, {"schema": SCHEMAS["table"],
                               "bound": math.inf, "nested": [math.inf, 1.0]})
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["bound"] == "inf" and doc["nested"] == ["inf", 1.0]


def test_fit_exits_2_on_a_log_whose_surface_coefficients_overflow(tmp_path, capsys):
    # energies of 1.7e308 at every other cc level: each grid row along p is
    # finite and constant, the spline across cc overflows; such a surface
    # used to be written with infinite and NaN coefficients
    logs, strata = tmp_path / "logs.jsonl", tmp_path / "strata.json"
    entries = [replace(e, energy_joules=1.7e308, avg_power_watts=1.7e308 / e.duration_s)
               if e.params.cc in (1, 4, 16) else e
               for e in generate_training_logs(seed=0)]
    serialize_logs(entries, logs)
    assert cli.main(["stratify", "--logs", str(logs), "--out", str(strata)]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--logs", str(logs), "--strata", str(strata),
                     "--out", str(tmp_path / "models.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: stratum s000: group cc+p: surface coefficients overflow\n"
    assert not (tmp_path / "models.json").exists()


def test_fit_and_optimize_on_energies_near_the_float_limit_write_finite_rows_or_exit_2(
        tmp_path, capsys):
    # every cc=16 entry at 1e307 J: each grid cell and coefficient stays
    # finite, but a stratum's energies sum past the largest float; nothing
    # may overflow into a row, no grid value may cancel to a non-positive
    # prediction, and no step may die with a traceback
    logs, strata = tmp_path / "logs.jsonl", tmp_path / "strata.json"
    models, table = tmp_path / "models.json", tmp_path / "table.json"
    entries = [replace(e, energy_joules=1e307, avg_power_watts=1e307 / e.duration_s)
               if e.params.cc == 16 else e
               for e in generate_training_logs(seed=0)]
    serialize_logs(entries, logs)
    assert cli.main(["stratify", "--logs", str(logs), "--out", str(strata)]) == 0
    capsys.readouterr()
    code = cli.main(["fit", "--logs", str(logs), "--strata", str(strata),
                     "--out", str(models)])
    if code == 0:
        code = cli.main(["optimize", "--models", str(models), "--out", str(table)])
    err = capsys.readouterr().err
    if code == 2:
        assert re.fullmatch(r"error: stratum s\d{3}: [^\n]+\n", err)
        assert not table.exists()
        return
    assert (code, err) == (0, "")
    rows = json.loads(table.read_text())["table"]["rows"]
    values = [cell["result"][key] for r in rows.values() for cell in r.values()
              if cell["status"] == "ok"
              for key in ("predicted_energy", "predicted_throughput")]
    assert values and all(type(v) is float and math.isfinite(v) and v > 0.0 for v in values)


@pytest.mark.parametrize("value", [0.0, -5.0])
def test_optimize_exits_2_on_models_whose_anchor_is_not_positive(
        chain, tmp_path, capsys, value):
    # a constant pp grid makes the pp spline that constant, anchor included
    doc = json.loads((chain / "models.json").read_text())
    sid = sorted(doc["strata"])[-1]
    pp = doc["strata"][sid]["groups"]["pp"]
    pp["energy_joules"] = [value] * len(pp["energy_joules"])
    models = tmp_path / "models.json"
    models.write_text(json.dumps(doc))
    assert cli.main(["optimize", "--models", str(models),
                     "--out", str(tmp_path / "table.json")]) == 2
    assert capsys.readouterr().err == (f"error: stratum {sid}: the anchor's energy_joules "
                                       f"is {value!r}, not a positive finite number\n")
    assert not (tmp_path / "table.json").exists()


def test_unknown_file_classes_are_rejected_by_every_online_run(chain):
    config, strata = load_strata(read_json_artifact(chain / "strata.json", "strata"))
    models = load_models(read_json_artifact(chain / "models.json", "models"))
    table = load_table(read_json_artifact(chain / "table.json", "table"))
    spec, scenario = ENDPOINTS["chameleon"], LoadScenario.constant(0.2)
    for classes in (["small", "bogus"], ["bogus"]):
        with pytest.raises(PipelineError, match="unknown file class 'bogus'"):
            compare_policies(spec, scenario, config, strata, models, table,
                             classes=classes)
        with pytest.raises(PipelineError, match="unknown file class 'bogus'"):
            run_tuned_transfer(spec, scenario, config, strata, models, table,
                               SLA.max_throughput(), classes=classes)


def test_static_optimal_searches_the_compared_routes_lattice():
    # chameleon is logged on a narrower cpu_num axis than cloudlab's own
    # lattice, so a search over a chameleon stratum's axes cannot reach
    # cloudlab's single-core optimum
    chameleon, cloudlab = ENDPOINTS["chameleon"], ENDPOINTS["cloudlab"]
    narrow = replace(default_lattice(chameleon), cpu_num=(2, 4))
    corpus = (list(generate_training_logs(specs=[chameleon], lattice=narrow, seed=0))
              + list(generate_training_logs(specs=[cloudlab], seed=0)))
    config = StratifyConfig()
    strata = stratify(corpus, config)
    models, _ = fit_all_strata(corpus, strata, with_holdout=False)
    table = optimize_all(models, [SLA.max_throughput(), SLA.min_energy()])
    load = 0.2
    doc = compare_policies(cloudlab, LoadScenario(((0.0, load),)), config,
                           strata, models, table)

    lattice = default_lattice(cloudlab)
    oracle = [r for r in doc["rows"] if r["policy"] == "static-optimal"]
    assert [r["class"] for r in oracle] == ["small", "medium", "large"]
    for row in oracle:
        for params in row["params"].values():
            assert all(params[p] in lattice.axis(p) for p in PARAM_NAMES)
        meta = dataset_meta_for(synth_file_sizes(DATASET_CLASSES[row["class"]]))
        mbit = meta.total_size_bytes * 8.0 / 1e6
        tputs = {cfg: throughput_mbps(cloudlab, cfg, load, meta.avg_file_size_bytes)
                 for cfg in lattice.configs()}
        energies = [power_above_base_watts(cloudlab, cfg, t) * (mbit / t)
                    for cfg, t in tputs.items() if t > 0]
        assert row["energy_joules"] == pytest.approx(min(energies), rel=1e-12)
        assert row["throughput_mbps"] == pytest.approx(max(tputs.values()), rel=1e-12)
