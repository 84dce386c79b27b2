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
    "BACKWARD", "BridgeLaw", "BudgetExceededError", "CheckResult",
    "ClassStructure", "CrosscheckReport", "CycleEstimate", "CycleMeasure",
    "CycleflowError", "DecompositionResult", "FORWARD", "FileAccessError",
    "FiniteSystem", "HarrisConditions", "HarrisModel", "HittingProfile",
    "IdentitySuiteResult", "InfeasibleMinorizationError",
    "InternalInconsistencyError", "InvariantError", "ModelParseError",
    "OutputError", "PreconditionError", "RESTRICTION", "RegenReport",
    "RunConfig", "SplitChainRun", "StochasticMatrix", "SuiteReport",
    "UnknownKindError", "UnsupportedOperationError",
    "block_marginal_gof", "canonical_json", "check_preserving",
    "class_structure", "convex_decomposition", "cycle_measure",
    "cycle_occupation", "cycle_stationary", "emit_report",
    "entrance_invariance_residual", "errors", "event_mask",
    "exchange_residual", "excursion_identity_residual", "harris",
    "harris_conditions", "hitting_profile", "identity_suite",
    "image_invariance_residual", "induced_map", "invariance_residual",
    "kac_check", "load_model", "markov", "measure", "minorization_residual",
    "mixture_residual", "model_document", "model_hash", "model_size",
    "modelio", "occupation_count", "parse_model", "poincare_residual",
    "positivity_equivalence", "precapacity_residual",
    "regen_distribution_gof", "regen_ratio_estimator", "report",
    "run_suite", "shift_invariance_residual", "simulate_cycle_estimator",
    "simulate_split_chain", "split_cycle_measure",
    "stationary_leftnull", "suite", "uniqueness_crosscheck", "z_scores",
]


def test_source_modules_import_only_the_standard_library_and_numpy():
    # the package's one dependency is numpy (pyproject.toml); scipy is a
    # test referee only.  Relative imports are the package's own
    package = os.path.dirname(cf.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
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


def test_public_names_and_class_structure_fields_are_pinned():
    assert sorted(cf.__all__) == PUBLIC
    assert [f.name for f in dataclasses.fields(cf.ClassStructure)] == [
        "labels", "classes", "recurrent"]
