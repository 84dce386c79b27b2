import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.errors import OutputError
from cycleflow.report import render, to_csv, to_text


def make_report(checks=None, details=None):
    return cf.SuiteReport(
        kind="markov_chain",
        model={"kind": "markov_chain", "size": 2, "hash": "ab" * 32,
               "source": "chain.json"},
        config={"tolerance": 1e-12, "seed": 0},
        checks=checks if checks is not None else [
            cf.CheckResult("cycle_invariance", 3e-16, 1e-12),
            cf.CheckResult("exchange_identity", 1e-15, 1e-10),
            cf.CheckResult("estimator_z_max", 1.7, 4.0),
        ],
        details=details or {"states": 2},
    )


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_sorts_keys_and_strips_space():
    assert cf.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_floats_round_trip_exactly():
    values = [0.1, 1 / 3, 2 ** -1074, 1e308, -0.0, 123456789.123456789]
    text = cf.canonical_json(values)
    assert [float(x) for x in json.loads(text)] == values


def test_non_finite_floats_become_strings():
    text = cf.canonical_json([math.nan, math.inf, -math.inf])
    assert text == '["NaN","Infinity","-Infinity"]'


def _item_by_item(seq):
    # the per-item path: every element serialised on its own
    return "[" + ",".join(cf.canonical_json(x) for x in seq) + "]"


def test_float_runs_match_the_per_item_path():
    runs = [
        [-0.0, 0.0, 1.0, -1.5],
        [5e-324, 2.2250738585072009e-308, 2.225073858507201e-308 / 3],
        [1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3],
        [0.1 * i for i in range(50)],
        np.linspace(-1.0, 1.0, 7),
        (0.5, 0.25),
        [],
    ]
    for seq in runs:
        assert cf.canonical_json(seq) == _item_by_item(list(seq))
    mixed = [1, 0.5, -0.0, 2, 5e-324, True, np.float64(0.1), Fraction(1, 3)]
    assert cf.canonical_json(mixed) == _item_by_item(mixed)
    assert cf.canonical_json(mixed) == \
        '[1,0.5,-0,2,4.9406564584124654e-324,true,0.10000000000000001,"1/3"]'


def test_non_finite_floats_keep_their_strings_in_a_run():
    assert cf.canonical_json([0.5, math.nan, 1.0]) == '[0.5,"NaN",1]'
    assert cf.canonical_json([math.inf, 0.25]) == '["Infinity",0.25]'
    assert cf.canonical_json(np.array([1.0, -math.inf])) == '[1,"-Infinity"]'


def test_arrays_are_written_as_their_nested_lists():
    # an array of any rank is written as the nested lists it gives
    arrays = [
        np.arange(12.0).reshape(3, 4) / 7,
        np.array([[0.5, math.nan], [-math.inf, -0.0]]),
        np.arange(6).reshape(2, 3),
        np.arange(24.0).reshape(2, 3, 4),
        np.zeros((0, 3)),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    ]
    for a in arrays:
        assert cf.canonical_json(a) == cf.canonical_json(a.tolist())
        assert cf.canonical_json({"m": a}) == \
            cf.canonical_json({"m": a.tolist()})


def test_fractions_serialise_exactly():
    assert cf.canonical_json({"x": Fraction(1, 3)}) == '{"x":"1/3"}'


def test_numpy_scalars_and_arrays():
    doc = {"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(3),
           "d": np.bool_(True)}
    assert cf.canonical_json(doc) == '{"a":0.5,"b":3,"c":[0,1,2],"d":true}'


def test_strings_are_escaped():
    assert cf.canonical_json('a"b\\c\n') == '"a\\"b\\\\c\\u000a"'
    # only characters below 0x20 become \u escapes; the rest stay as they are
    assert cf.canonical_json("\x00\x1f \x7f\u00e9\U0001f600") == \
        '"\\u0000\\u001f \x7f\u00e9\U0001f600"'


def test_identical_documents_identical_bytes():
    a = make_report().to_document()
    b = make_report().to_document()
    assert cf.canonical_json(a) == cf.canonical_json(b)


def test_unserialisable_values_are_rejected():
    with pytest.raises(TypeError):
        cf.canonical_json({"x": object()})
    with pytest.raises(TypeError):
        cf.canonical_json({1: "non-string key"})


# ---------------------------------------------------------------------------
# checks


def test_check_pass_is_computed_from_comparator():
    assert cf.CheckResult("a", 0.5, 1.0).passed
    assert not cf.CheckResult("a", 2.0, 1.0).passed
    assert cf.CheckResult("a", 2.0, 1.0, comparator=">=").passed
    assert not cf.CheckResult("a", 0.5, 1.0, comparator=">=").passed


def test_check_boundary_counts_as_pass():
    assert cf.CheckResult("a", 1e-12, 1e-12).passed
    assert cf.CheckResult("a", 1.0, 1.0, comparator=">=").passed


def test_check_infinite_value_fails_upper_bound():
    assert not cf.CheckResult("a", math.inf, 4.0).passed


def test_check_verdict_is_not_settable():
    # passed is always computed from value, comparator and threshold
    with pytest.raises(TypeError):
        cf.CheckResult("a", 2.0, 1.0, passed=True)
    with pytest.raises(TypeError):
        cf.CheckResult("a", 2.0, 1.0, "<=", True)


def test_check_rejects_unknown_comparator():
    with pytest.raises(ValueError):
        cf.CheckResult("a", 0.0, 1.0, comparator="<")


def test_exact_check_values_stay_exact():
    check = cf.CheckResult("a", Fraction(0), 1e-12)
    assert check.passed
    assert '"value":"0"' in cf.canonical_json(check.to_document())


# ---------------------------------------------------------------------------
# report documents


def test_overall_pass_requires_every_check():
    report = make_report()
    assert report.overall_pass
    report.checks.append(cf.CheckResult("bad", 1.0, 1e-12))
    assert not report.overall_pass


def test_report_without_checks_fails():
    # no check has shown anything, so the report cannot pass
    report = make_report(checks=[])
    assert '"overall_pass":false' in render(report, "json")
    assert "overall: FAIL" in render(report, "text")
    assert cf.emit_report(report, "json", stream=io.StringIO()) == 1


def test_document_has_schema_and_no_timing():
    report = make_report()
    report.timing_s = 1.23
    doc = report.to_document()
    assert doc["schema"] == "cycleflow/1"
    assert "timing" not in cf.canonical_json(doc)
    assert doc["overall_pass"] is True


# ---------------------------------------------------------------------------
# renderings


def test_csv_has_header_and_one_row_per_check():
    lines = to_csv(make_report()).strip().split("\n")
    assert lines[0] == "name,value,threshold,comparator,passed"
    assert len(lines) == 4
    assert lines[1].startswith("cycle_invariance,")
    assert lines[1].endswith(",pass")


def test_text_shows_failure_and_timing():
    report = make_report(checks=[cf.CheckResult("broken", 1.0, 1e-12)])
    report.timing_s = 0.5
    text = to_text(report)
    assert "FAIL" in text
    assert "overall: FAIL (0.500 s)" in text
    assert "model hash abababababab" in text


def test_render_dispatch():
    report = make_report()
    assert render(report, "json").startswith('{"checks":')
    assert render(report, "csv").startswith("name,")
    assert render(report, "text").startswith("verify markov_chain chain.json")
    with pytest.raises(ValueError):
        render(report, "yaml")


# ---------------------------------------------------------------------------
# emission


def test_emit_exit_codes_follow_pass(tmp_path):
    passing = make_report()
    failing = make_report(checks=[cf.CheckResult("broken", 1.0, 1e-12)])
    assert cf.emit_report(passing, "json", stream=io.StringIO()) == 0
    assert cf.emit_report(failing, "json", stream=io.StringIO()) == 1


def test_emit_writes_failing_report_to_file(tmp_path):
    failing = make_report(checks=[cf.CheckResult("broken", 1.0, 1e-12)])
    out = tmp_path / "report.json"
    assert cf.emit_report(failing, "json", path=str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is False


def test_emit_unwritable_path_raises(tmp_path):
    with pytest.raises(OutputError):
        cf.emit_report(make_report(), "json",
                       path=str(tmp_path / "no" / "such" / "dir.json"))


def test_emit_to_stream():
    buf = io.StringIO()
    cf.emit_report(make_report(), "csv", stream=buf)
    assert buf.getvalue().startswith("name,")
