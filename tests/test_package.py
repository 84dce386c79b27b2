"""Package hygiene: what the source modules import, and the public API.

The API pins are literals on purpose: a change to what ``cycleflow``
exports, or to the fields of ``ClassStructure``, shows in this file's
diff.
"""

import ast
import dataclasses
import os
import sys

import cycleflow as cf

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
