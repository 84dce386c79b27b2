"""Verification toolkit for cycle structure of finite measure-preserving
maps, Markov chains and regenerative (split-chain) simulation.

Three layers share one theme: the long-run behaviour of a system is
captured by what happens between returns to a small set.

``measure``
    Finite measure-preserving systems: hitting times, excursion
    measures and the identities tying them together.
``markov``
    Stationary distributions assembled from return cycles, the
    exchange identity, reducible-chain decomposition, and a Monte
    Carlo cycle estimator.
``harris``
    Discrete minorization fitting, the split chain with ell-step
    blocks, regenerative estimation and its diagnostics.

``suite``/``cli`` wrap everything into batch verification runs with
canonical reports.

``import cycleflow`` loads no layer: each public name is imported from
its submodule on first use (PEP 562) and kept in the package namespace.
So ``cycleflow.load_model`` of a finite-system file loads ``modelio``,
``errors``, ``measure`` and ``_kernels`` only, while ``import
cycleflow.cli`` still loads every layer.
"""

import sys

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "BudgetExceededError", "CycleflowError", "FileAccessError",
        "InfeasibleMinorizationError", "InternalInconsistencyError",
        "InvariantError", "ModelParseError", "OutputError",
        "PreconditionError", "UnknownKindError", "UnsupportedOperationError",
    ),
    "measure": (
        "BACKWARD", "FORWARD", "FiniteSystem", "HittingProfile",
        "IdentitySuiteResult", "check_preserving", "event_mask",
        "hitting_profile", "identity_residuals", "identity_suite",
    ),
    "markov": (
        "ClassStructure", "DecompositionResult", "StochasticMatrix",
        "class_structure", "convex_decomposition", "cycle_occupation",
        "cycle_stationary", "exchange_residual", "invariance_residual",
        "simulate_cycle_estimator", "stationary_leftnull",
    ),
    "harris": (
        "HarrisConditions", "HarrisModel", "SplitChainRun",
        "harris_conditions", "minorization_residual", "mixture_residual",
        "regen_distribution_gof", "simulate_split_chain",
        "split_cycle_measure",
    ),
    "_stats": ("RatioEstimate",),
    "modelio": ("load_model", "model_hash", "model_size", "parse_model"),
    "report": ("CheckResult", "SuiteReport", "canonical_json", "emit_report"),
    "suite": ("RunConfig", "run_suite"),
}
_SUBMODULES = ("errors", "harris", "markov", "measure", "modelio", "report",
               "suite")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULES + tuple(_HOME))


def _submodule(name):
    # the import statement's own path, which ``-X importtime`` logs; it
    # also binds the submodule in this namespace
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
