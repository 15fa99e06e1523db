"""The report writer, `core.json_text`, against the rule it replaced.

`scalar_reference.report_json` is that rule: `jsonable` makes the report
JSON-safe (a numpy array as the nested list it equals), then json's indent-2
encoder writes it.  The writer must give the same bytes on every value a
report can hold, report objects and arrays included, and every committed
golden report must read back to itself.
"""

import gc
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from ametric_fix import cli
from ametric_fix.core import CheckReport, Violation, json_text
from ametric_fix.zamfirescu import BranchConstants, ZamfirescuCertificate

GOLDEN = Path(__file__).parent / "golden"

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7]
# Non-ASCII, quotes, backslashes, control and separator characters, a lone surrogate.
EDGE_TEXT = ["", "\"", "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "∞ δ", " ", "\ud800",
             "😀", "nan", "inf", "a: b, c"]

floats = st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
texts = st.text() | st.sampled_from(EDGE_TEXT)
scalars = (texts | floats | floats.map(np.float64) | st.booleans() | st.none()
           | st.integers() | st.integers(-(10 ** 40), 10 ** 40))
witnesses = st.lists(st.integers(-3, 50) | floats, max_size=4).map(tuple)
violations = st.builds(Violation, texts, witnesses, floats, floats, floats, floats)
check_reports = st.builds(CheckReport, texts, st.integers(0), st.lists(violations, max_size=3).map(tuple),
                          st.integers(0), floats, st.booleans(), st.booleans(),
                          st.dictionaries(texts, scalars | witnesses, max_size=3))
branch_constants = st.builds(BranchConstants, st.integers(0, 9) | floats | witnesses,
                             st.integers(0, 9) | floats | witnesses, floats, floats, floats)
certificates = st.builds(ZamfirescuCertificate, st.integers(2, 9), floats, floats, floats,
                         st.none() | floats, st.booleans(), st.booleans(), st.integers(0),
                         st.lists(st.sampled_from([1, 2, 3]), max_size=5).map(tuple),
                         st.lists(branch_constants, max_size=3).map(tuple))
reports = violations | check_reports | branch_constants | certificates
arrays = (st.lists(floats, max_size=6).map(np.array)
          | st.lists(st.lists(floats, min_size=3, max_size=3), max_size=3).map(np.array))
docs = st.recursive(
    scalars | reports | arrays,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(floats, max_size=6) | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(docs)
def test_writer_gives_the_bytes_of_the_rule_it_replaced(doc):
    assert json_text(doc) == ref.report_json(doc)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(reports)
def test_to_dict_is_the_report_object_made_json_safe(obj):
    doc = obj.to_dict()
    # NaN is its string "nan" in both, so equality is exact.
    assert doc == ref.jsonable(obj)
    assert json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("doc, text", [
    ({}, "{}\n"), ([], "[]\n"), ((), "[]\n"), ({"a": []}, '{\n  "a": []\n}\n'),
    ([1.5, -0.0], "[\n  1.5,\n  -0.0\n]\n"), ([1.0, math.inf], '[\n  1.0,\n  "inf"\n]\n'),
    ([True, 1], "[\n  true,\n  1\n]\n"), ([np.float64(0.5)], "[\n  0.5\n]\n"),
    (np.float64(math.nan), json.dumps(repr(np.float64(math.nan))) + "\n"),
])
def test_writer_pins(doc, text):
    assert json_text(doc) == text == ref.report_json(doc)


EDGE_ARRAY = np.array(EDGE_FLOATS)
FINITE_EDGES = EDGE_ARRAY[np.isfinite(EDGE_ARRAY)]


@pytest.mark.parametrize("array", [
    EDGE_ARRAY, EDGE_ARRAY.reshape(2, 7), EDGE_ARRAY.reshape(2, 7).T, EDGE_ARRAY[::-3],
    FINITE_EDGES, FINITE_EDGES.reshape(-1, 1), FINITE_EDGES.reshape(1, -1),
    np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)),
], ids=["1d", "2d", "2d-transposed", "1d-strided", "finite-1d", "finite-column", "finite-row",
        "empty", "no-rows", "empty-rows"])
def test_writer_gives_an_array_the_bytes_of_its_nested_list(array):
    # Written as the nested list it equals, at any depth: the same bytes as the
    # rule it replaced, and a finite array reads back bit for bit.
    for doc in (array, {"base_table": array, "t": 3}, [array, array.tolist()]):
        assert json_text(doc) == ref.report_json(doc) == json_text(ref.jsonable(doc))
    assert json_text(array) == json_text(array.tolist())
    if np.isfinite(array).all():
        back = np.array(json.loads(json_text(array)), dtype=float).reshape(array.shape)
        assert back.tobytes() == array.tobytes()


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), object(), {"a": {1.5}}])
def test_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        ref.report_json(bad)
    with pytest.raises(TypeError):
        json_text(bad)


@pytest.mark.parametrize("case", sorted(p.parent.name for p in GOLDEN.glob("*/report.json")))
def test_golden_reports_are_fixed_points_of_load_then_write(case):
    text = (GOLDEN / case / "report.json").read_text()
    assert json_text(json.loads(text)) == text


def _verify_doc(tmp_path, monkeypatch):
    """The document the finite-exhaustive golden run writes, report objects included."""
    docs = []
    monkeypatch.setattr(cli, "json_text", lambda doc: docs.append(doc) or json_text(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text((GOLDEN / "verify-finite-exhaustive" / "config.json").read_text())
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    return docs[0]


def test_writing_a_report_leaves_no_reference_cycle(tmp_path, monkeypatch):
    doc = _verify_doc(tmp_path, monkeypatch)
    gc.collect()
    gc.disable()
    try:
        text = json_text(doc)
        found = gc.collect()
    finally:
        gc.enable()
    assert text == (GOLDEN / "verify-finite-exhaustive" / "report.json").read_text()
    assert found == 0


def _peak(argv, runs=3):
    """The highest tracemalloc peak over ``runs`` in-process runs of ``argv``, after two warm-ups."""
    peaks = []
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            for _ in range(runs + 2):
                tracemalloc.reset_peak()
                cli.main(argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return max(peaks[2:])


def test_verify_peak_memory_is_no_higher_than_with_the_replaced_rule(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text((GOLDEN / "verify-finite-exhaustive" / "config.json").read_text())
    argv = ["verify", "--config", str(cfg), "--out-dir", str(tmp_path)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "json_text", ref.report_json)
        replaced = _peak(argv)
    assert _peak(argv) <= replaced
