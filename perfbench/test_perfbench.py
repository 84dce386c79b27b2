"""Tests of the benchmark itself:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, generate, reference_law, referee, write_model  # noqa: E402


def _invocation(model):
    return next(inv for w in WORKLOADS.values() for inv in w.invocations
                if inv.model == model)


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_same_seed_writes_identical_model_files(tmp_path):
    for name in workloads.GENERATORS:
        first, second, other = (tmp_path / d for d in ("a", "b", "c"))
        for d in (first, second, other):
            d.mkdir(exist_ok=True)
        a = write_model(name, 3, first).read_bytes()
        assert write_model(name, 3, second).read_bytes() == a
        changed = write_model(name, 4, other).read_bytes() != a
        assert changed == (name not in workloads.FIXED_MODELS + ("h3",))


def test_benchmark_json_names_the_workloads_defined_here():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]


@pytest.fixture(scope="module")
def h3_report(tmp_path_factory):
    from cycleflow.cli import main
    d = tmp_path_factory.mktemp("h3")
    inv = _invocation("h3")
    out = d / "report.json"
    code = main(inv.argv(write_model("h3", 0, d)) + ["--output", str(out)])
    return inv, code, json.loads(out.read_text()), reference_law(
        generate("h3", 0))


def _rerefereed(h3_report, tamper):
    inv, code, doc, law = h3_report
    doc = json.loads(json.dumps(doc))
    tamper(doc)
    return referee(inv, code, json.dumps(doc), law)


def test_referee_accepts_an_honest_report(h3_report):
    assert _rerefereed(h3_report, lambda doc: None) == []


def test_referee_flags_a_removed_check(h3_report):
    def drop(doc):
        doc["checks"] = [c for c in doc["checks"]
                         if c["name"] != "regeneration_draw_gof"]
    assert _rerefereed(h3_report, drop) == [
        "check regeneration_draw_gof missing"]


def test_referee_flags_pi_hat_shifted_by_ten_se(h3_report):
    def shift(doc):
        d = doc["details"]
        d["pi_hat"][1] += 10 * d["standard_errors"][1]
    problems = _rerefereed(h3_report, shift)
    assert problems == ["pi_hat lies beyond 4 SE of the law at 1 states"]


def test_referee_never_counts_pass_without_checks(h3_report):
    def empty(doc):
        doc["checks"] = []
        doc["overall_pass"] = True
    assert "no checks ran" in _rerefereed(h3_report, empty)


def test_referee_flags_wrong_work_counts_and_stationary(h3_report):
    def tamper(doc):
        doc["details"]["n_cycles"] = 19999
        doc["details"]["stationary"][0] += 1e-9
    problems = _rerefereed(h3_report, tamper)
    assert "n_cycles is 19999, asked for 20000" in problems
    assert any(p.startswith("stationary differs") for p in problems)
    inv, _, doc, law = h3_report
    assert referee(inv, 1, json.dumps(doc), law) == ["exit code 1"]


def test_aggregate_self_time_and_missing_callables():
    spans = [
        ("suite.run_suite", 0.0, 10.0, -1, None),
        ("markov.class_structure", 1.0, 3.0, 0, None),
        ("markov.cycle_stationary", 4.0, 9.0, 0, {"base": 0}),
        ("markov.cycle_stationary", 9.0, 9.5, -1, {"base": 0}),
    ]
    out = tracer.aggregate([spans, spans])
    assert out["suite.run_suite.s"] == 20.0
    assert out["suite.run_suite.self_s"] == 6.0
    assert out["markov.cycle_stationary.calls"] == 4
    assert out["markov.cycle_stationary.distinct_bases"] == 2
    assert out["kernels.split_chain_batch.calls"] == 0


def test_install_patches_every_holder_and_skips_missing_callables():
    code = "\n".join((
        "import tracer",
        "tracer.TARGETS += (('_kernels', 'retired_kernel', None),",
        "                   ('gone', 'main', None),",
        "                   ('harris', 'Retired.method', None))",
        "tracer.Tracer().install()",
        "from cycleflow import cli, modelio, suite",
        "assert cli.model_hash is suite.model_hash is modelio.model_hash",
        "assert cli.model_hash.__wrapped__ is not None",
        "assert cli.run_suite is suite.run_suite",
    ))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   cwd=HERE, env=_child_env())


def test_import_times_parse_importtime_output():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        100 |   _io\n"
           "import time:       700 |        900 |     scipy._lib\n"
           "import time:       300 |       1300 |   scipy\n"
           "import time:       500 |     500000 |   cycleflow\n"
           "import time:        10 |     500010 | cycleflow.cli\n")
    assert tracer.import_times(err) == (0.50001, 0.001)


def _traced(tmp_path, model, seed=0):
    inv = _invocation(model)
    spans = tmp_path / (model + ".spans")
    path = write_model(model, seed, tmp_path)
    argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
            *inv.argv(path), "--output", str(tmp_path / (model + ".out"))]
    subprocess.run(argv, check=True, env=_child_env(), timeout=170)
    return tracer.aggregate([json.loads(spans.read_text())])


def test_traced_counts_match_the_baseline_on_the_default_seed(tmp_path):
    chain = _traced(tmp_path, "mc1000")
    assert chain["markov.class_structure.calls"] == 153
    assert (chain["markov.cycle_occupation.calls"]
            + chain["markov.stationary_leftnull.calls"]) == 102
    exact = _traced(tmp_path, "fs8x")
    assert exact["measure.identity_suite.pairs"] == 65536
    assert exact["measure.identity_suite.base_sets"] == 256


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_law_is_stationary():
    doc = generate("mc300", 0)
    pi = reference_law(doc)
    p = np.array(doc["P"])
    p /= p.sum(axis=1, keepdims=True)
    assert abs(pi.sum() - 1) < 1e-12
    assert np.abs(pi @ p - pi).max() < 1e-14
