"""Package hygiene: what the source modules import, what a load of the
package imports, and the public API.

The API pins are literals on purpose: a change to what ``cycleflow``
exports, or to the fields of ``ClassStructure``, shows in this file's
diff.
"""

import ast
import dataclasses
import json
import os
import sys

import cycleflow as cf
from conftest import run_fresh

PUBLIC = [
    "BACKWARD", "BudgetExceededError", "CheckResult", "ClassStructure",
    "CycleflowError", "DecompositionResult", "FORWARD", "FileAccessError",
    "FiniteSystem", "HarrisConditions", "HarrisModel", "HittingProfile",
    "IdentitySuiteResult", "InfeasibleMinorizationError",
    "InternalInconsistencyError", "InvariantError", "ModelParseError",
    "OutputError", "PreconditionError", "RatioEstimate",
    "RunConfig", "SplitChainRun", "StochasticMatrix", "SuiteReport",
    "UnknownKindError", "UnsupportedOperationError",
    "canonical_json", "check_preserving",
    "class_structure", "convex_decomposition",
    "cycle_occupation", "cycle_stationary", "emit_report",
    "errors", "event_mask", "exchange_residual", "harris",
    "harris_conditions", "hitting_profile", "identity_residuals",
    "identity_suite", "invariance_residual",
    "load_model", "markov", "measure", "minorization_residual",
    "mixture_residual", "model_hash", "model_size",
    "modelio", "parse_model", "regen_distribution_gof", "report",
    "run_suite", "simulate_cycle_estimator",
    "simulate_split_chain", "split_cycle_measure",
    "stationary_leftnull", "suite",
]


def _source_nodes():
    # (module file name, node) over every node of every source module
    package = os.path.dirname(cf.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            yield name, node


def test_source_modules_import_only_the_standard_library_and_numpy():
    # the package's one dependency is numpy (pyproject.toml); scipy is a
    # test referee only.  Relative imports are the package's own
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names or top == "numpy", \
                (name, node.lineno, module)


def test_only_the_entry_check_asks_numpy_whether_values_are_finite():
    # every model input is checked by errors.check_entries, which names
    # the entry it refuses; a second np.isfinite check would grow its own
    # wording and field names
    for name, node in _source_nodes():
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            assert name == "errors.py", (name, node.lineno)


def test_public_names_and_class_structure_fields_are_pinned():
    assert sorted(cf.__all__) == PUBLIC
    assert [f.name for f in dataclasses.fields(cf.ClassStructure)] == [
        "labels", "classes", "recurrent"]


def test_loading_a_finite_system_loads_no_other_layer(tmp_path):
    # ``import cycleflow`` is lazy, and modelio imports a model's layer
    # only when it builds one
    path = tmp_path / "fs.json"
    path.write_text(json.dumps({"kind": "finite_system", "map": [1, 0],
                                "weights": [0.5, 0.5], "invertible": True}))
    code = ("import sys, cycleflow; cycleflow.load_model(sys.argv[1]); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'cycleflow'))")
    assert run_fresh(code, str(path)) == str([
        "cycleflow", "cycleflow._kernels", "cycleflow.errors",
        "cycleflow.measure", "cycleflow.modelio"])


def test_every_public_name_is_its_submodules_own_object():
    code = ("import sys, cycleflow as cf\n"
            "bad = []\n"
            "for name in cf.__all__:\n"
            "    value = getattr(cf, name)\n"
            "    if name in cf._SUBMODULES:\n"
            "        home = sys.modules['cycleflow.' + name]\n"
            "    else:\n"
            "        home = getattr(sys.modules['cycleflow.' + cf._HOME[name]],"
            " name)\n"
            "    if value is not home or name not in vars(cf):\n"
            "        bad.append(name)\n"
            "print(bad)")
    assert run_fresh(code) == "[]"


def test_star_import_and_dir_cover_every_public_name():
    # dir() is read before any name is loaded; an unknown name still fails
    code = ("import cycleflow as cf\n"
            "listed = set(dir(cf))\n"
            "ns = {}\n"
            "exec('from cycleflow import *', ns)\n"
            "print(sorted(set(cf.__all__) - listed),"
            " sorted(set(cf.__all__) - set(ns)),"
            " hasattr(cf, 'no_such_name'))")
    assert run_fresh(code) == "[] [] False"


# the tracer TARGETS that name code deleted since; their metrics read 0
RETIRED_TARGETS = ["_kernels.markov_cycle_batch", "harris.BridgeLaw.total_mass"]


def test_cli_import_loads_every_module_the_layer_tracer_wraps():
    # perfbench's tracer wraps only what ``import cycleflow.cli`` loaded,
    # and skips a callable it cannot find, so a rename would leave that
    # layer's metric at zero without a word
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(cf.__file__))), "perfbench")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
            "import cycleflow.cli\n"
            "unloaded, missing = set(), []\n"
            "for module, qualname, _ in tracer.TARGETS:\n"
            "    obj = sys.modules.get('cycleflow.' + module)\n"
            "    if obj is None:\n"
            "        unloaded.add(module)\n"
            "    for attr in qualname.split('.'):\n"
            "        obj = getattr(obj, attr, None)\n"
            "    if not callable(obj):\n"
            "        missing.append(module + '.' + qualname)\n"
            "print(sorted(unloaded), sorted(missing))")
    assert run_fresh(code, bench) == "[] %s" % sorted(RETIRED_TARGETS)
