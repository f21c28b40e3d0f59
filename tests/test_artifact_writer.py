"""The JSON artifact writer against the writer it replaced.

The oracle is the old two-line writer: a recursive copy that turns every
infinite float into the string "inf", then CPython's json.dumps with sorted
keys and indent 2. The new writer must give the same bytes on every document
the oracle writes correctly with str keys, and raise TypeError wherever it
does; other keys, which json.dumps converts to text, it refuses.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xfertune.pipeline import PipelineError, write_json_artifact


def _to_jsonable(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def oracle_text(obj) -> str:
    return json.dumps(_to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def written(path, obj) -> bytes:
    write_json_artifact(path, obj)
    return path.read_bytes()


# -inf and NaN are left out: the oracle writes them wrongly (as "inf" and as
# a bare NaN token), the new writer refuses them
finite_or_inf = st.floats(allow_nan=False).filter(lambda v: v != -math.inf)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    finite_or_inf,
    finite_or_inf.map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, math.inf, 1e-7, 2.0 ** 63,
                     np.float64(-0.0), np.float64(1e16)]),
    # text() draws any code point but surrogates: non-ASCII text, quotes,
    # backslashes and control characters included
    st.text(),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        # homogeneous lists, which take the one-join path
        st.lists(finite_or_inf, min_size=1, max_size=8),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70), min_size=1, max_size=8),
        # bools are ints to isinstance, but are written as true and false
        st.lists(st.one_of(st.integers(-3, 3), st.booleans()), min_size=1, max_size=8),
    )


documents = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents)
def test_writer_bytes_equal_the_oracle(tmp_path, doc):
    assert written(tmp_path / "a.json", doc) == oracle_text(doc).encode("utf-8")


def test_writer_matches_the_oracle_on_chosen_documents(tmp_path):
    docs = [
        {},
        [],
        {"a": {}, "b": [], "c": ()},
        {"é ü": "naïve ☃ \U0001f600", 'q"uote': "back\\slash", "ctl\x00\x1f": "\t\n\r"},
        {"big": [2 ** 63, -2 ** 63 - 1, 2 ** 100], "flags": [True, False, 1, 0]},
        {"floats": [-0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1, math.inf]},
        {"np": [np.float64(0.5), np.float64(-0.0), 1.5], "one": np.float64(math.inf)},
        {"nested": [[[1.0, 2.0], [3.0, 4.0]], [[5, 6], []]], "t": (1, (2.5, "x"))},
        "top-level string",
        math.inf,
        None,
    ]
    for doc in docs:
        assert written(tmp_path / "a.json", doc) == oracle_text(doc).encode("utf-8"), doc


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, np.float32(0.5), object()])
def test_both_writers_raise_type_error_on_values_json_cannot_write(tmp_path, bad):
    for doc in (bad, {"a": [1.0, bad]}, [bad], {"a": {"b": (bad,)}}):
        with pytest.raises(TypeError):
            oracle_text(doc)
        with pytest.raises(TypeError):
            write_json_artifact(tmp_path / "a.json", doc)
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("doc", [{"a": 1, 2: "b"}, {(1, 2): 0}, {np.int64(1): 0}])
def test_both_writers_raise_type_error_on_keys_json_cannot_write(tmp_path, doc):
    with pytest.raises(TypeError):
        oracle_text(doc)
    with pytest.raises(TypeError):
        write_json_artifact(tmp_path / "a.json", doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {2.5: "b"}, {True: "c"}, {None: [None]},
                                 {"a": {"b": {0: 1.0}}}])
def test_writer_refuses_keys_that_are_not_str(tmp_path, doc):
    with pytest.raises(TypeError, match="keys must be str"):
        write_json_artifact(tmp_path / "a.json", doc)
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("value", [-math.inf, math.nan, np.float64(-math.inf),
                                   np.float64(math.nan)])
def test_writer_refuses_minus_infinity_and_nan_naming_the_key_path(tmp_path, value):
    path = tmp_path / "a.json"
    doc = {"schema": "xfertune/test-v1",
           "strata": {"s001": {"coeffs": [[0.5, 1.5], [2.5, value]]}}}
    with pytest.raises(PipelineError) as info:
        write_json_artifact(path, doc)
    message = str(info.value)
    assert "['strata']['s001']['coeffs'][1][1]" in message
    assert repr(float(value)) in message
    with pytest.raises(PipelineError, match=r"at \['x'\] "):
        write_json_artifact(path, {"x": value})
    with pytest.raises(PipelineError, match="at the top "):
        write_json_artifact(path, value)
    assert not path.exists()
