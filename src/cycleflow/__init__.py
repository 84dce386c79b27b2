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
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CycleflowError,
    FileAccessError,
    InfeasibleMinorizationError,
    InternalInconsistencyError,
    InvariantError,
    ModelParseError,
    OutputError,
    PreconditionError,
    UnknownKindError,
    UnsupportedOperationError,
)
from .measure import (
    BACKWARD,
    FORWARD,
    RESTRICTION,
    CycleMeasure,
    FiniteSystem,
    HittingProfile,
    IdentitySuiteResult,
    check_preserving,
    cycle_measure,
    entrance_invariance_residual,
    event_mask,
    excursion_identity_residual,
    hitting_profile,
    identity_suite,
    image_invariance_residual,
    induced_map,
    kac_check,
    occupation_count,
    poincare_residual,
    positivity_equivalence,
    precapacity_residual,
    shift_invariance_residual,
)
from .markov import (
    ClassStructure,
    CycleEstimate,
    DecompositionResult,
    StochasticMatrix,
    class_structure,
    convex_decomposition,
    cycle_occupation,
    cycle_stationary,
    exchange_residual,
    invariance_residual,
    simulate_cycle_estimator,
    stationary_leftnull,
)
from .harris import (
    BridgeLaw,
    CrosscheckReport,
    HarrisConditions,
    HarrisModel,
    RegenReport,
    SplitChainRun,
    block_marginal_gof,
    harris_conditions,
    minorization_residual,
    mixture_residual,
    regen_distribution_gof,
    regen_ratio_estimator,
    simulate_split_chain,
    split_cycle_measure,
    uniqueness_crosscheck,
    z_scores,
)
from .modelio import (
    load_model,
    model_document,
    model_hash,
    model_size,
    parse_model,
)
from .report import CheckResult, SuiteReport, canonical_json, emit_report
from .suite import RunConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
