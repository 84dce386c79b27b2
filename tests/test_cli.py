import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.cli import main
from cycleflow.measure import EXHAUSTIVE_CAP
from conftest import tilted

FINITE = {
    "kind": "finite_system",
    "map": [1, 2, 3, 0],
    "weights": [0.25, 0.25, 0.25, 0.25],
    "invertible": True,
}

MARKOV = {
    "kind": "markov_chain",
    "P": [[2 / 3, 1 / 3], [1 / 4, 3 / 4]],
}

HARRIS = {
    "kind": "harris_discrete",
    "K": [[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]],
    "R": [0],
    "ell": 2,
    "epsilon": 0.5,
}


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, doc in (("finite", FINITE), ("markov", MARKOV),
                      ("harris", HARRIS)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    return out


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("CYCLEFLOW_SEED", raising=False)


def run_json(args, capsys):
    code = main(args + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


# ---------------------------------------------------------------------------
# parser surface


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for code in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 70):
        assert "\n  %d " % code in text or "\n  %d  " % code in text


def test_verify_help_states_exhaustive_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "more than %d points" % EXHAUSTIVE_CAP in text
    assert "exit 7" in text
    assert "over %d bytes is refused with exit 7" % cf.measure.MAX_PLAN_BYTES \
        in text


def test_fit_minorization_help_states_power_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit-minorization", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "each counted as at least 4096 bytes" in text
    assert "over %d bytes in all" % cf.harris.MAX_POWER_BYTES in text
    assert "exit 7" in text


def run_fresh(code, *args, **environ):
    # run `code` in a new interpreter that imports this checkout's package,
    # with `environ` added to its environment
    src = os.path.dirname(os.path.dirname(cf.__file__))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code] + list(args), env=env,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def test_import_leaves_scipy_unloaded():
    code = ("import sys, cycleflow, cycleflow.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    assert run_fresh(code) == "[]"


def test_harris_verify_leaves_scipy_stats_unloaded(files):
    # the chi-square gates take their tail from the closed form, so neither
    # scipy.stats nor scipy.special is loaded
    code = ("import sys; from cycleflow.cli import main; "
            "code = main(['verify', sys.argv[1], '--cycles', '500', "
            "'--format', 'json', '--output', sys.argv[2]]); "
            "print(code, 'scipy.special' in sys.modules, "
            "sorted(k for k in sys.modules if k.startswith('scipy.stats')))")
    assert run_fresh(code, files["harris"],
                     files["harris"] + ".report") == "0 False []"


def test_runs_leave_scipy_unloaded(files):
    # every command path runs on numpy and the standard library alone
    finite, markov, harris = files["finite"], files["markov"], files["harris"]
    runs = [["verify", finite], ["verify", markov],
            ["verify", harris, "--cycles", "500"],
            ["stationary", markov, "--method", "cycles", "--cycles", "500"],
            ["harris", harris, "--cycles", "500"]]
    code = ("import json, sys; from cycleflow.cli import main; "
            "print([main(args + ['--format', 'json', '--output', sys.argv[2]]) "
            "for args in json.loads(sys.argv[1])], "
            "sorted(k for k in sys.modules if k.startswith('scipy')))")
    assert run_fresh(code, json.dumps(runs),
                     finite + ".report") == "[0, 0, 0, 0, 0] []"


def test_no_source_module_imports_scipy():
    # nor bisect: the package draws with one rule, the guide-table lanes
    package = os.path.dirname(cf.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("scipy", "bisect")
                           for m in modules), \
                (name, node.lineno)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert cf.__version__ in capsys.readouterr().out


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_format_is_usage_error(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", files["markov"], "--format", "yaml"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_finite_text(files, capsys, clean_env):
    assert main(["verify", files["finite"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verify finite_system finite.json")
    assert "overall: PASS" in out


def test_verify_markov_json(files, capsys, clean_env):
    code, doc = run_json(["verify", files["markov"]], capsys)
    assert code == 0
    assert doc["schema"] == "cycleflow/1"
    assert doc["command"] == "verify"
    assert doc["kind"] == "markov_chain"
    assert doc["overall_pass"] is True
    assert doc["model"]["source"] == "markov.json"


def test_verify_harris_csv(files, capsys, clean_env):
    assert main(["verify", files["harris"], "--format", "csv",
                 "--cycles", "200"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "name,value,threshold,comparator,passed"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "minorization_residual" in names
    assert all(line.endswith(",pass") for line in lines[1:])


def test_verify_failing_model_exits_one(tmp_path, capsys, clean_env):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "kind": "finite_system", "map": [1, 0],
        "weights": [0.7, 0.3], "invertible": True}))
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--format", "json",
                 "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is False


def test_verify_output_file_leaves_stdout_quiet(files, tmp_path, capsys,
                                                clean_env):
    out = tmp_path / "r.json"
    assert main(["verify", files["finite"], "--format", "json",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["overall_pass"] is True


def test_verify_passes_knobs_into_config(files, capsys, clean_env):
    code, doc = run_json(["verify", files["finite"], "--tolerance", "1e-9",
                          "--exhaustive-limit", "3", "--sample-pairs", "7",
                          "--seed", "42", "--cycles", "10"], capsys)
    assert code == 0
    cfg = doc["config"]
    assert cfg["tolerance"] == 1e-9
    assert cfg["exhaustive_limit"] == 3
    assert cfg["sample_pairs"] == 7
    assert cfg["seed"] == 42
    assert cfg["cycles"] == 10


# ---------------------------------------------------------------------------
# stationary


def test_stationary_exact(files, capsys, clean_env):
    code, doc = run_json(["stationary", files["markov"], "--base", "1"],
                         capsys)
    assert code == 0
    details = doc["details"]
    assert details["occupation"][1] == 1.0
    assert details["occupation"][0] == pytest.approx(0.75, abs=1e-12)
    assert details["mean_return"] == pytest.approx(1.75, abs=1e-12)
    assert np.abs(np.array(details["stationary"])
                  - [3 / 7, 4 / 7]).max() <= 1e-15


def test_stationary_cycles(files, capsys, clean_env):
    code, doc = run_json(["stationary", files["markov"], "--method", "cycles",
                          "--cycles", "800", "--seed", "3"], capsys)
    assert code == 0
    assert doc["details"]["n_cycles"] == 800
    names = [c["name"] for c in doc["checks"]]
    assert names == ["estimator_z_max"]
    assert doc["checks"][0]["passed"] is True


def test_stationary_accepts_harris_kernel(files, capsys, clean_env):
    code, doc = run_json(["stationary", files["harris"]], capsys)
    assert code == 0
    assert doc["kind"] == "harris_discrete"
    assert np.abs(np.array(doc["details"]["stationary"])
                  - np.array([13, 25, 15]) / 53).max() <= 1e-12


def test_stationary_cycles_needs_two_cycles(files, capsys, clean_env):
    # a single cycle has no standard error, so the report would carry no
    # check at all
    for cycles in ("0", "1"):
        assert main(["stationary", files["markov"], "--method", "cycles",
                     "--cycles", cycles]) == 7
        assert "at least 2 cycles" in capsys.readouterr().err


def test_stationary_rejects_finite_system(files, capsys, clean_env):
    assert main(["stationary", files["finite"]]) == 7
    assert "transition kernel" in capsys.readouterr().err


def test_stationary_transient_base(tmp_path, capsys, clean_env):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "kind": "markov_chain", "P": [[0.5, 0.5], [0.0, 1.0]]}))
    assert main(["stationary", str(path), "--base", "0"]) == 7
    assert "transient" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# harris


def test_harris_simulation_report(files, capsys, clean_env):
    code, doc = run_json(["harris", files["harris"], "--cycles", "300",
                          "--seed", "8"], capsys)
    assert code == 0
    details = doc["details"]
    assert details["ell"] == 2
    assert details["epsilon"] == 0.5
    assert details["n_cycles"] == 300
    assert len(details["pi_hat"]) == 3
    names = [c["name"] for c in doc["checks"]]
    assert names == ["estimator_z_max", "regeneration_draw_gof"]
    assert all(c["passed"] for c in doc["checks"])


def test_harris_and_verify_share_the_regeneration_details(files, capsys,
                                                          clean_env):
    _, harris_doc = run_json(["harris", files["harris"], "--cycles", "300"],
                             capsys)
    _, verify_doc = run_json(["verify", files["harris"], "--cycles", "300"],
                             capsys)
    shared = ("regen_set", "ell", "epsilon", "lambda", "fitted")
    for key in shared:
        assert harris_doc["details"][key] == verify_doc["details"][key]
    assert verify_doc["details"]["states"] == 3
    assert "states" not in harris_doc["details"]


def test_harris_gates_a_two_class_kernel_against_its_cycle_law(
        tmp_path, capsys, clean_env):
    # two closed classes, R in the first: the split chain never leaves it,
    # and its cycles' exact law mu / |mu| is the first class's law
    path = tmp_path / "two_classes.json"
    path.write_text(json.dumps({
        "kind": "harris_discrete",
        "K": [[0.5, 0.5, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0],
              [0.0, 0.0, 0.4, 0.6], [0.0, 0.0, 0.9, 0.1]],
        "R": [0], "ell": 1}))
    code, doc = run_json(["harris", str(path), "--cycles", "300"], capsys)
    assert code == 0
    details = doc["details"]
    np.testing.assert_allclose(details["stationary"], [3 / 8, 5 / 8, 0, 0],
                               rtol=0, atol=1e-15)
    assert [c["name"] for c in doc["checks"]] == \
        ["estimator_z_max", "regeneration_draw_gof"]
    assert details["pi_hat"][2:] == [0.0, 0.0]


# a minorization false by little: K - epsilon * lam has its worst entry,
# 0.5 - 0.900001 * 5/9 = -5.56e-7, in column 1, between -1e-3 and -1e-12
NEARLY_TRUE = {"kind": "harris_discrete", "K": [[0.5, 0.5], [0.4, 0.6]],
               "R": [0, 1], "ell": 1, "epsilon": 0.900001,
               "lambda": [4 / 9, 5 / 9]}


def _no_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(cf._kernels, "split_chain_batch", no_draws)


def test_harris_refuses_a_false_minorization_before_its_run(
        tmp_path, capsys, clean_env, monkeypatch):
    # K^2(0, 2) = 0.15 < epsilon * lam(2): refused before anything is
    # drawn, naming epsilon, whether epsilon is 1 or below it, and so is
    # a minorization false by 5.56e-7 only
    _no_draws(monkeypatch)
    models = [dict(HARRIS, epsilon=epsilon, **{"lambda": [0, 0, 1]})
              for epsilon in (1, 0.5)] + [NEARLY_TRUE]
    for model in models:
        path = tmp_path / "false.json"
        path.write_text(json.dumps(model))
        assert main(["harris", str(path), "--cycles", "300"]) == 7
        assert capsys.readouterr().err.startswith(
            "cycleflow: error: epsilon: K^ell - epsilon * lambda has entry")


def test_verify_fails_a_nearly_true_minorization_without_its_run(
        tmp_path, capsys, clean_env, monkeypatch):
    # verify reports the false minorization as a failed check, exit 1,
    # and skips the simulation: one threshold, harris._RESIDUAL_TOL,
    # defines a false minorization for both commands
    _no_draws(monkeypatch)
    path = tmp_path / "false.json"
    path.write_text(json.dumps(NEARLY_TRUE))
    code, doc = run_json(["verify", str(path), "--cycles", "300"], capsys)
    assert code == 1
    check = {c["name"]: c for c in doc["checks"]}["minorization_residual"]
    assert not check["passed"]
    assert -1e-3 < check["value"] < -1e-12
    assert check["threshold"] == -cf.harris._RESIDUAL_TOL
    assert doc["details"]["simulation"] == \
        "skipped: structural checks failed"


def test_harris_refuses_a_model_whose_cycles_need_not_close(
        tmp_path, capsys, clean_env):
    # lam charges the absorbing state 1: refused before the run draws
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "kind": "harris_discrete", "R": [0], "ell": 1,
        "K": [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]}))
    assert main(["harris", str(path), "--cycles", "1000"]) == 7
    assert "R: a block chain" in capsys.readouterr().err


def test_near_singular_harris_kernel_verifies(tmp_path, capsys, clean_env):
    # irreducible, so R is entered from both states, however rarely state 1
    # leaves
    path = tmp_path / "k13.json"
    path.write_text(json.dumps({"kind": "harris_discrete", "R": [0],
                                "ell": 1,
                                "K": [[0.5, 0.5], [1e-13, 1.0 - 1e-13]]}))
    code, doc = run_json(["verify", str(path), "--cycles", "0"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["regeneration_reachability"]["value"] == 1.0
    assert checks["regeneration_reachability"]["passed"]
    assert checks["lambda_return_finite"]["passed"]


@pytest.mark.parametrize("kind, argv, system", [
    ("markov_chain", ["verify"], "cycle system of base 0"),
    ("markov_chain", ["exchange", "--states", "0,1"],
     "cycle system of base 0"),
    ("harris_discrete", ["verify", "--cycles", "0"],
     "first-entry system of R from lambda"),
])
def test_float_singular_systems_exit_seven(tmp_path, capsys, clean_env,
                                           kind, argv, system):
    # 1 - 1e-17 rounds to 1, so state 1 never leaves in float64
    path = tmp_path / "p17.json"
    rows = [[0.5, 0.5], [1e-17, 1.0]]
    doc = {"kind": kind, "P": rows} if kind == "markov_chain" else \
        {"kind": kind, "K": rows, "R": [0], "ell": 1}
    path.write_text(json.dumps(doc))
    assert main(argv[:1] + [str(path)] + argv[1:]) == 7
    err = capsys.readouterr().err
    assert system + " is singular in float64" in err
    assert "LinAlgError" not in err


def test_harris_rejects_markov_files(files, capsys, clean_env):
    assert main(["harris", files["markov"]]) == 7


# ---------------------------------------------------------------------------
# exchange


def test_exchange_pass(files, capsys, clean_env):
    code, doc = run_json(["exchange", files["markov"], "--states", "0,1"],
                         capsys)
    assert code == 0
    assert doc["checks"][0]["name"] == "exchange_identity"
    assert doc["details"]["states"] == [0, 1]


def test_exchange_needs_exactly_two(files, capsys, clean_env):
    assert main(["exchange", files["markov"], "--states", "0"]) == 7
    assert main(["exchange", files["markov"], "--states", "0,1,1"]) == 7
    assert main(["exchange", files["markov"], "--states", "a,b"]) == 7


def test_an_empty_state_list_is_refused(files, capsys, clean_env):
    for argv in (["fit-minorization", files["markov"], "--set", ","],
                 ["exchange", files["markov"], "--states", ","]):
        assert main(argv) == 7
        assert "expected at least one state" in capsys.readouterr().err


def test_exchange_refuses_one_state_twice(files, capsys, clean_env):
    # comparing a base's cycle law with itself would PASS at 0
    for states in ("0,0", "1,1"):
        assert main(["exchange", files["markov"], "--states", states]) == 7
        assert "two distinct bases" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit-minorization


def test_fit_minorization(files, capsys, clean_env):
    code, doc = run_json(["fit-minorization", files["harris"],
                          "--set", "0,1", "--ell", "1"], capsys)
    assert code == 0
    assert abs(doc["details"]["epsilon"] - 0.7) <= 1e-12
    assert np.abs(np.array(doc["details"]["lambda"])
                  - [2 / 7, 5 / 7, 0]).max() <= 1e-12
    assert doc["checks"][0]["name"] == "minorization_residual"


def test_fit_minorization_and_verify_share_one_false_minorization_bound(
        files, capsys, clean_env, monkeypatch):
    # both thresholds read -harris._RESIDUAL_TOL, which is 1e-12: a
    # changed constant moves both
    assert cf.harris._RESIDUAL_TOL == 1e-12
    for tol in (1e-12, 1e-3):
        monkeypatch.setattr(cf.harris, "_RESIDUAL_TOL", tol)
        for argv in (["fit-minorization", files["harris"], "--set", "0"],
                     ["verify", files["harris"], "--cycles", "0"]):
            code, doc = run_json(argv, capsys)
            assert code == 0
            check = {c["name"]: c for c in doc["checks"]}
            assert check["minorization_residual"]["threshold"] == -tol


@pytest.mark.parametrize("argv, module, law", [
    (["verify", "harris"], "harris", "split_cycle_measure"),
    (["stationary", "markov", "--method", "cycles"], "markov",
     "cycle_stationary"),
], ids=["verify-h3", "stationary-cycles"])
def test_z_gate_reads_its_exact_law(argv, module, law, files, capsys,
                                    clean_env, monkeypatch):
    # the exact law tilted by 20 standard errors between its two heaviest
    # states fails estimator_z_max, and nothing else
    argv = [argv[0], files[argv[1]], *argv[2:], "--cycles", "20000",
            "--seed", "1"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    details = doc["details"]
    first, second = np.argsort(details["stationary"])[::-1][:2]
    shift = 20 * max(details["standard_errors"][i] for i in (first, second))
    module = getattr(cf, module)
    monkeypatch.setattr(module, law, tilted(getattr(module, law), shift))
    code, doc = run_json(argv, capsys)
    assert code == 1
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["estimator_z_max"]
    assert failed[0]["value"] >= 15


def test_fit_minorization_infeasible(tmp_path, capsys, clean_env):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "kind": "markov_chain", "P": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["fit-minorization", str(path), "--set", "0,1"]) == 11


# ---------------------------------------------------------------------------
# error exit codes


def test_missing_file_exit(tmp_path, capsys, clean_env):
    assert main(["verify", str(tmp_path / "no.json")]) == 3


def test_garbage_json_exit(tmp_path, capsys, clean_env):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["verify", str(path)]) == 4


def test_unknown_kind_exit(tmp_path, capsys, clean_env):
    # any kind but the three known strings, hashable or not
    for i, kind in enumerate(("tensor_network", [], {}, 1)):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps({"kind": kind}))
        assert main(["verify", str(path)]) == 5, kind
        err = capsys.readouterr().err
        assert err.startswith("cycleflow: error: kind: ")
        assert "Error" not in err and "Traceback" not in err


def test_invariant_violation_exit(tmp_path, capsys, clean_env):
    path = tmp_path / "row.json"
    path.write_text(json.dumps({
        "kind": "markov_chain", "P": [[0.5, 0.4], [0.25, 0.75]]}))
    assert main(["verify", str(path)]) == 6
    assert "row sums" in capsys.readouterr().err


def test_oversized_exhaustive_plan_exit(tmp_path, capsys, clean_env):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(FINITE, map=list(range(1, 14)) + [0],
                                    weights=[1.0] * 14)))
    assert main(["verify", str(path), "--exhaustive-limit", "14"]) == 7
    err = capsys.readouterr().err
    assert "16384 base sets" in err and "268435456 subset pairs" in err


def test_oversized_sampled_plan_is_refused_up_front(files, capsys,
                                                    clean_env):
    # 10^7 pairs over 4 points: 8e7 bytes of masks, refused before the
    # first mask is drawn, so in far less time than drawing them takes
    started = time.perf_counter()
    assert main(["verify", files["finite"], "--exhaustive-limit", "0",
                 "--sample-pairs", "10000000"]) == 7
    assert time.perf_counter() - started < 5.0
    err = capsys.readouterr().err
    assert err.startswith("cycleflow: error: sample_pairs: ")
    assert "take 80000000 bytes" in err
    assert "cap of %d bytes" % cf.measure.MAX_PLAN_BYTES in err


def test_unwritable_output_exit(files, capsys, clean_env):
    assert main(["verify", files["markov"], "--output",
                 files["markov"] + "/sub/dir.json"]) == 9


def test_int64_overflow_exit(tmp_path, capsys, clean_env):
    big = 100000000000000000000
    docs = (
        ("map", dict(FINITE, map=[1, 2, 3, big])),
        ("R", dict(HARRIS, R=[big])),
    )
    for field, doc in docs:
        path = tmp_path / (field + ".json")
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 6
        assert "%s[" % field in capsys.readouterr().err


def test_malformed_labels_and_boolean_epsilon_exit(tmp_path, capsys,
                                                   clean_env):
    # a label field that is not a list, and a boolean epsilon, are
    # malformed input: exit 6 naming the field, not an unclassified error
    exact = {"num": [1, 1, 1, 1], "den": [4, 4, 4, 4]}
    docs = (
        ("states", dict(MARKOV, states=5)),
        ("states", dict(HARRIS, states=5)),
        ("points", dict(FINITE, points=7)),
        ("points", dict(FINITE, points=7, weights=exact)),
        ("points", dict(FINITE, points=[0, 1])),
        ("epsilon", dict(HARRIS, epsilon=True)),
    )
    for i, (field, doc) in enumerate(docs):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("cycleflow: error: %s: " % field)
        assert "Error" not in err and "Traceback" not in err


def test_model_errors_name_the_document_field(tmp_path, capsys, clean_env):
    # an index out of range or a negative entry exits 6 naming the field
    # of the model document or the option, not the constructor's argument
    two = [[0.5, 0.5], [0.5, 0.5]]
    negative = [[1.5, -0.5], [0.5, 0.5]]
    runs = (
        ("R[0]", dict(HARRIS, K=two, R=[5], ell=1), []),
        ("P[0][1]", dict(MARKOV, P=negative), []),
        ("K[0][1]", dict(HARRIS, K=negative, ell=1), []),
        ("map[1]", dict(FINITE, map=[1, 5], weights=[0.5, 0.5]), []),
        ("set[0]", dict(MARKOV, P=two), ["--set", "5"]),
    )
    for i, (field, doc, extra) in enumerate(runs):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps(doc))
        command = "fit-minorization" if extra else "verify"
        assert main([command, str(path)] + extra) == 6, field
        err = capsys.readouterr().err
        assert err.startswith("cycleflow: error: %s: " % field), err


def test_non_finite_entries_name_their_document_field(tmp_path, capsys,
                                                     clean_env):
    # NaN, Infinity and -Infinity, as Python's JSON reader accepts them,
    # exit 6 naming the entry's path, as a negative entry does
    two = [[0.5, 0.5], [0.5, 0.5]]
    for value in (math.nan, math.inf, -math.inf):
        bad = [[0.5, 0.5], [value, 0.5]]
        runs = (
            ("P[1][0]", dict(MARKOV, P=bad)),
            ("K[1][0]", dict(HARRIS, K=bad, ell=1)),
            ("weights[1]", dict(FINITE, map=[1, 0], weights=[0.5, value])),
            ("lambda[1]", dict(HARRIS, K=two, ell=1,
                               **{"lambda": [0.5, value]})),
        )
        for field, doc in runs:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", str(path)]) == 6, (field, value)
            err = capsys.readouterr().err
            assert err.startswith("cycleflow: error: %s: " % field), err


def test_huge_ell_is_refused_up_front(tmp_path, capsys, clean_env):
    path = tmp_path / "ell.json"
    path.write_text(json.dumps(dict(HARRIS, ell=4611686018427387904)))
    started = time.perf_counter()
    assert main(["verify", str(path)]) == 7
    assert time.perf_counter() - started < 5.0
    err = capsys.readouterr().err
    assert "bytes" in err and "cap" in err


def test_oversized_split_chain_run_is_refused_up_front(tmp_path, capsys,
                                                      clean_env):
    # 10^6 cycles over 1000 states: 4e9 bytes of visit counts
    n = 1000
    rows = np.zeros((n, n))
    rows[np.arange(n), np.arange(n)] = 0.5
    rows[np.arange(n), (np.arange(n) + 1) % n] = 0.5
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(HARRIS, K=rows.tolist(), ell=1,
                                    epsilon=1.0)))
    started = time.perf_counter()
    assert main(["harris", str(path), "--cycles", "1000000"]) == 7
    assert time.perf_counter() - started < 5.0
    err = capsys.readouterr().err
    assert "take 4000000000 bytes" in err
    assert "cap of %d bytes" % cf.harris.MAX_OCCUPATION_BYTES in err


def test_cycles_help_states_the_count_cap(capsys):
    for command in ("harris", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "over %d bytes is refused with exit 7" \
            % cf.harris.MAX_OCCUPATION_BYTES in text


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, clean_env):
    # a chain whose one state label is the byte 0xff
    path = tmp_path / "latin.json"
    head = b'{"kind": "markov_chain", "states": ["'
    path.write_bytes(head + b'\xff"], "P": [[1.0]]}')
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err
    assert "byte 0xff at offset %d" % len(head) in err


def test_unclassified_error_exit(files, capsys, clean_env, monkeypatch):
    def broken(model, cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("cycleflow.cli.run_suite", broken)
    assert main(["verify", files["markov"]]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cycleflow: error: LinAlgError: Singular matrix\n"


def test_errors_go_to_stderr_not_stdout(tmp_path, capsys, clean_env):
    main(["verify", str(tmp_path / "no.json")])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cycleflow: error:")


# a 4-point finite system with rational weights, the README chain and h3,
# each with every optional field
_FUZZ_BASES = (
    {"kind": "finite_system", "points": ["a", "b", "c", "d"],
     "map": [1, 2, 3, 0], "weights": {"num": [1, 1, 1, 1],
                                      "den": [4, 4, 4, 4]},
     "invertible": True},
    dict(MARKOV, states=["x", "y"]),
    dict(HARRIS, states=["a", "b", "c"], **{"lambda": [0.5, 0.5, 0.0]}),
)
_FUZZ_VALUES = ([], {}, "x", True, None, 2 ** 70, -1, 5e-324, 1e308, [[]],
                {"num": [1], "den": [0]}, math.nan, math.inf, -math.inf)
_FUZZ_FORMS = (
    ["verify", "--cycles", "20"],
    ["stationary"],
    ["stationary", "--method", "cycles", "--cycles", "20"],
    ["harris", "--cycles", "20"],
    ["exchange", "--states", "0,1"],
    ["fit-minorization", "--set", "0"],
    ["fit-minorization", "--set", "0,1", "--ell", "2"],
)


def _entries(node, path=()):
    # the path of every entry below a document's top level
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if path:
            yield path + (key,)
        yield from _entries(value, path + (key,))


def test_mutated_models_exit_within_the_contract(tmp_path, clean_env,
                                                 monkeypatch):
    # every top-level field of each base, and two seeded entries below it,
    # set to each value in turn, through all seven command forms: every
    # exit is a classified one (0-12), never 70.  A split-chain run gets
    # 10**4 steps instead of 10**7: a hopeless run is not refused before
    # it draws, so the epsilon = 5e-324 mutant exits 10 in milliseconds
    # here, where the full budget takes about 45 s
    monkeypatch.setattr(cf.harris.simulate_split_chain, "__defaults__",
                        (10 ** 4,))
    rng = np.random.default_rng(34)
    path = tmp_path / "mutant.json"
    out = str(tmp_path / "out")
    seen = set()
    for base in _FUZZ_BASES:
        nested = list(_entries(base))
        picks = [nested[i] for i in rng.choice(len(nested), 2, replace=False)]
        for where in [(key,) for key in base] + picks:
            for value in _FUZZ_VALUES:
                doc = json.loads(json.dumps(base))
                node = doc
                for key in where[:-1]:
                    node = node[key]
                node[where[-1]] = value
                path.write_text(json.dumps(doc))
                for command, *options in _FUZZ_FORMS:
                    argv = [command, str(path), *options, "--output", out]
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        code = main(argv)
                    assert 0 <= code <= 12, (argv, doc, err.getvalue())
                    seen.add(code)
    # the loop reaches passing runs, refusals and an exhausted budget
    assert {0, 5, 6, 7, 10} <= seen


# ---------------------------------------------------------------------------
# seeding


def test_env_seed_is_picked_up(files, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEFLOW_SEED", "99")
    code, doc = run_json(["verify", files["markov"]], capsys)
    assert code == 0
    assert doc["config"]["seed"] == 99


def test_cli_seed_overrides_env(files, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEFLOW_SEED", "99")
    code, doc = run_json(["verify", files["markov"], "--seed", "5"], capsys)
    assert doc["config"]["seed"] == 5


def test_bad_env_seed(files, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEFLOW_SEED", "not-a-number")
    assert main(["verify", files["markov"]]) == 7
    assert "CYCLEFLOW_SEED" in capsys.readouterr().err


def test_default_seed_is_zero(files, capsys, clean_env):
    code, doc = run_json(["verify", files["markov"]], capsys)
    assert doc["config"]["seed"] == 0


# ---------------------------------------------------------------------------
# reproducibility


def test_chain_report_bytes_do_not_depend_on_threads(tmp_path):
    # four closed classes of 100 states, one of 520, whose bases go by
    # GMRES, and 100 transient states whose rows spread over every state.
    # Two BLAS threads give a class's left-null solve other bits than one
    # does, so every solve runs on one BLAS thread, however many run side
    # by side
    rng = np.random.default_rng(1)
    sizes = [100, 100, 100, 100, 520]
    n = sum(sizes) + 100
    p = np.zeros((n, n))
    for start, size in zip(np.cumsum([0] + sizes), sizes):
        block = slice(start, start + size)
        p[block, block] = rng.dirichlet(np.full(size, 0.2), size=size)
    p[-100:] = rng.dirichlet(np.full(n, 0.2), size=100)
    path = tmp_path / "mcr1020.json"
    path.write_text(json.dumps({"kind": "markov_chain", "P": p.tolist()}))
    code = ("import os, sys\n"
            "if sys.argv[2] == 'one core':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from cycleflow.cli import main\n"
            "sys.exit(main(['verify', sys.argv[1], '--format', 'json']))\n")
    one = run_fresh(code, str(path), "all cores", OPENBLAS_NUM_THREADS="1")
    two = run_fresh(code, str(path), "all cores", OPENBLAS_NUM_THREADS="2")
    assert json.loads(one)["overall_pass"]
    assert two == one
    if hasattr(os, "sched_setaffinity"):
        assert run_fresh(code, str(path), "one core",
                         OPENBLAS_NUM_THREADS="2") == one


def test_harris_report_bytes_do_not_depend_on_threads(tmp_path):
    # a fitted 120-state kernel: the kernel powers, the fit and the
    # mean-return solve all run on one BLAS thread, so two BLAS threads
    # leave the report's bits as one does
    rng = np.random.default_rng(1)
    k = rng.dirichlet(np.ones(120), size=120)
    path = tmp_path / "h120.json"
    path.write_text(json.dumps({"kind": "harris_discrete", "K": k.tolist(),
                                "R": [0, 1, 2], "ell": 2}))
    code = ("import sys\n"
            "from cycleflow.cli import main\n"
            "sys.exit(main(['verify', sys.argv[1], '--format', 'json', "
            "'--cycles', '200']))\n")
    one = run_fresh(code, str(path), OPENBLAS_NUM_THREADS="1")
    two = run_fresh(code, str(path), OPENBLAS_NUM_THREADS="2")
    assert json.loads(one)["details"]["fitted"] == ["lambda", "epsilon"]
    assert json.loads(one)["overall_pass"]
    assert two == one


def test_json_reports_are_byte_identical(files, tmp_path, clean_env):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", files["harris"], "--format", "json",
                     "--cycles", "400", "--seed", "17",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


_HARRIS_SPLIT = ["ell", "epsilon", "fitted", "lambda", "regen_set"]
_SIMULATED = ["gof_dof", "gof_statistic", "mean_cycle_length", "n_cycles",
              "pi_hat", "standard_errors", "stationary"]
_CYCLES_DETAILS = ["base", "mean_return_hat", "method", "n_cycles", "pi_hat",
                   "standard_errors", "stationary", "steps"]
_EXACT_DETAILS = ["base", "mean_return", "method", "occupation", "stationary"]
_FIT_DETAILS = ["ell", "epsilon", "lambda", "regen_set"]
# (command and its options, fixture, sorted details keys, check names in
# report order): every command on every kind it accepts
_REPORT_SHAPES = [
    (["verify"], "finite",
     ["base_sets", "exact_arithmetic", "exhaustive", "invertible",
      "pairs_examined", "points"],
     ["measure_preserving", "excursion_identity_forward",
      "excursion_identity_backward", "entrance_invariance_forward",
      "entrance_invariance_backward", "shift_invariance_forward",
      "shift_invariance_backward", "shift_invariance_restriction",
      "precapacity", "poincare_forward", "poincare_backward", "kac_product",
      "kac_integral_forward", "kac_integral_backward", "positivity_bound",
      "positivity_equivalence_violations"]),
    (["verify"], "markov",
     ["bases", "classes", "exchange_pairs", "recurrent_classes", "states",
      "stationary", "transient_states"],
     ["cycle_invariance", "exchange_identity", "eigenvector_crosscheck"]),
    (["verify", "--cycles", "300"], "harris",
     sorted(_HARRIS_SPLIT + _SIMULATED + ["bridge_pairs",
                                          "expected_lambda_return",
                                          "states"]),
     ["minorization_residual", "mixture_identity",
      "regeneration_reachability", "lambda_return_finite",
      "bridge_total_mass", "estimator_z_max", "regeneration_draw_gof"]),
    (["stationary"], "markov", _EXACT_DETAILS, ["cycle_invariance"]),
    (["stationary"], "harris", _EXACT_DETAILS, ["cycle_invariance"]),
    (["stationary", "--method", "cycles", "--cycles", "300"], "markov",
     _CYCLES_DETAILS, ["estimator_z_max"]),
    (["stationary", "--method", "cycles", "--cycles", "300"], "harris",
     _CYCLES_DETAILS, ["estimator_z_max"]),
    (["harris", "--cycles", "300"], "harris",
     sorted(_HARRIS_SPLIT + _SIMULATED + ["steps"]),
     ["estimator_z_max", "regeneration_draw_gof"]),
    (["exchange", "--states", "0,1"], "markov", ["states"],
     ["exchange_identity"]),
    (["exchange", "--states", "0,1"], "harris", ["states"],
     ["exchange_identity"]),
    (["fit-minorization", "--set", "0"], "markov", _FIT_DETAILS,
     ["minorization_residual"]),
    (["fit-minorization", "--set", "0"], "harris", _FIT_DETAILS,
     ["minorization_residual"]),
]


def test_report_shapes_are_pinned(files, capsys, clean_env):
    # a details key or check that appears or goes away on any command
    # shows here, whether or not a digest covers that command
    for (command, *options), kind, keys, checks in _REPORT_SHAPES:
        code, doc = run_json([command, files[kind]] + options, capsys)
        assert code == 0, (command, kind)
        assert sorted(doc["details"]) == keys, (command, kind)
        assert [c["name"] for c in doc["checks"]] == checks, (command, kind)
