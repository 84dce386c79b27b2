"""Whole-model verification suites.

``run_suite`` takes any loaded model and runs every check its kind
supports, producing a ``SuiteReport``: dynamical systems get the
excursion-identity battery, transition matrices the stationary-law
checks, regeneration models the minorization battery plus simulation
gates.  Check thresholds derive from the configured tolerance; the
cross-check and simulation gates have documented floors because they
accumulate error from linear solves and Monte Carlo noise.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import harris as _harris
from . import markov as _markov
from . import measure as _measure
from .errors import PreconditionError, UnknownKindError
from .modelio import model_hash, model_size
from .report import CheckResult, SuiteReport

# bound on the largest |z| over n states: under the normal approximation
# one state passes it with probability 6.3e-5, so a correct estimator
# fails the gate with probability 1 - (1 - 6.3e-5)**n, the family-wise
# level: 0.02% at n = 3, 0.25% at n = 40, 1.9% at n = 300, 6.1% at
# n = 1000
_Z_MAX = 4.0
_GOF_LEVEL = 0.01
_BRIDGE_PATH_CAP = 4096

_FORMATS = ("json", "csv", "text")


@dataclass
class RunConfig:
    """Knobs shared by all suites.

    ``cycles`` counts regeneration cycles for the simulation gates: at
    least 2 (``require_gate_cycles``), or zero to skip the suite's.
    """

    tolerance: float = 1e-12
    exhaustive_limit: int = 8
    sample_pairs: int = 50
    seed: int = 0
    cycles: int = 20000
    output_format: str = "text"

    def __post_init__(self):
        # integers only: a float or bool is refused, not truncated
        for name, low, high in (("exhaustive_limit", 0, math.inf),
                                ("sample_pairs", 1, math.inf),
                                ("seed", 0, 2 ** 64), ("cycles", 0, math.inf)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))
                    or not low <= value < high):
                raise PreconditionError("%s must be an integer in [%d, %s)"
                                        % (name, low, high), field=name)
        self.seed = int(self.seed)
        if isinstance(self.tolerance, bool) or not (
                math.isfinite(self.tolerance) and self.tolerance > 0):
            raise PreconditionError("tolerance must be positive",
                                    field="tolerance")
        if self.output_format not in _FORMATS:
            raise PreconditionError(
                "output_format must be one of %s" % (", ".join(_FORMATS)),
                field="output_format")


def model_kind(model):
    if isinstance(model, _measure.FiniteSystem):
        return "finite_system"
    if isinstance(model, _markov.StochasticMatrix):
        return "markov_chain"
    if isinstance(model, _harris.HarrisModel):
        return "harris_discrete"
    raise UnknownKindError("no suite for %r" % type(model).__name__)


def model_identity(model, kind):
    """The ``model`` block of a report: kind, size, hash and source."""
    return {
        "kind": kind,
        "size": model_size(model),
        "hash": model_hash(model),
        "source": getattr(model, "source", None),
    }


def _finite_system_suite(system, cfg):
    checks = []
    pres = _measure.check_preserving(system, tol=cfg.tolerance)
    checks.append(CheckResult("measure_preserving", pres.max_violation,
                              cfg.tolerance))
    result = _measure.identity_suite(
        system, exhaustive_limit=cfg.exhaustive_limit,
        sample_pairs=cfg.sample_pairs, seed=cfg.seed)
    for name, value in result.residuals.items():
        checks.append(CheckResult(name, value, cfg.tolerance))
    checks.append(CheckResult("positivity_equivalence_violations",
                              float(result.positivity_violations), 0.0))
    details = {
        "points": system.size,
        "invertible": system.invertible,
        "exhaustive": result.exhaustive,
        "exact_arithmetic": result.exact,
        "base_sets": result.n_base_sets,
        "pairs_examined": result.n_pairs,
    }
    return checks, details


def _markov_suite(chain, cfg):
    structure = _markov.class_structure(chain)
    recurrent = structure.recurrent_classes
    rng = np.random.default_rng(cfg.seed)

    # every seeded pair first, class by class, so that all cycle systems
    # are solved in one batch; the mixture weights are drawn after them
    quota = max(1, cfg.sample_pairs // len(recurrent))
    pairs = []
    for c in recurrent:
        members = structure.classes[c]
        if members.size >= 2:
            for _ in range(quota):
                first, second = rng.choice(members, size=2, replace=False)
                pairs.append((int(first), int(second)))
    bases = [int(structure.classes[c].min()) for c in recurrent]
    _markov._fill_occupations(chain, structure,
                              bases + [s for pair in pairs for s in pair])

    invariance_worst = 0.0
    eigen_worst = 0.0
    laws = {}  # per class: its return-cycle law and its left-null law
    for c, base in zip(recurrent, bases):
        pi = _markov.cycle_stationary(chain, base)
        invariance_worst = max(
            invariance_worst, _markov.invariance_residual(chain, pi))
        eigen = _markov.stationary_leftnull(chain, base)
        laws[c] = pi, eigen
        eigen_worst = max(eigen_worst, float(np.abs(pi - eigen).max()))
    exchange_worst = 0.0
    for first, second in pairs:
        exchange_worst = max(exchange_worst,
                             _markov.exchange_residual(chain, first, second))

    cross_tol = max(cfg.tolerance, _markov.CROSS_FLOOR)
    checks = [
        CheckResult("cycle_invariance", invariance_worst, cfg.tolerance),
        CheckResult("exchange_identity", exchange_worst, cross_tol),
        CheckResult("eigenvector_crosscheck", eigen_worst, cross_tol),
    ]
    details = {
        "states": chain.n,
        "classes": len(structure.classes),
        "recurrent_classes": len(recurrent),
        "transient_states": int(chain.n - sum(
            structure.classes[c].size for c in recurrent)),
        "bases": bases,
        "exchange_pairs": len(pairs),
    }
    if len(recurrent) == 1 and details["transient_states"] == 0:
        details["stationary"] = laws[recurrent[0]][0]
    else:
        # reducible: a seeded mixture of the left-null laws, taken apart
        # by convex_decomposition with the return-cycle laws, so that the
        # two sides come from independent solves
        weights = rng.dirichlet(np.ones(len(recurrent)))
        mixture = np.zeros(chain.n)
        for w, c in zip(weights, recurrent):
            mixture += w * laws[c][1]
        decomp = _markov.convex_decomposition(chain, mixture)
        weight_gap = float(np.abs(decomp.class_weights - weights).max())
        checks.append(CheckResult("decomposition_residual", decomp.residual,
                                  cross_tol))
        checks.append(CheckResult("decomposition_weights", weight_gap,
                                  cross_tol))
        details["mixture_weights"] = weights
    return checks, details


def harris_details(model):
    """The regeneration structure a Harris report starts from: set,
    block length, minorization and which of its fields were fitted."""
    return {
        "regen_set": list(model.regen_indices),
        "ell": model.ell,
        "epsilon": model.epsilon,
        "lambda": model.lam,
        "fitted": list(model.fitted_fields),
    }


def _harris_suite(model, cfg):
    checks = []
    details = harris_details(model)
    details["states"] = model.n

    minor = _harris.minorization_residual(model)
    checks.append(CheckResult("minorization_residual", minor,
                              -_harris._RESIDUAL_TOL, comparator=">="))
    checks.append(CheckResult("mixture_identity",
                              _harris.mixture_residual(model),
                              max(cfg.tolerance, 1e-12)))

    cond = _harris.harris_conditions(model)
    checks.append(CheckResult("regeneration_reachability",
                              cond.hit_probability_min, 1.0, comparator=">="))
    checks.append(CheckResult("lambda_return_finite",
                              1.0 if cond.integrable else 0.0, 1.0,
                              comparator=">="))
    details["expected_lambda_return"] = cond.expected_lambda_return

    if model.ell >= 2 and model.n ** (model.ell - 1) <= _BRIDGE_PATH_CAP:
        pairs = np.argwhere(model.k_ell > 0)[:cfg.sample_pairs]
        worst = max(abs(_harris.bridge_mass(model, x, y) - 1.0)
                    for x, y in pairs)
        checks.append(CheckResult("bridge_total_mass", worst,
                                  max(cfg.tolerance, 1e-12)))
        details["bridge_pairs"] = len(pairs)

    structural_ok = all(c.passed for c in checks)
    if cfg.cycles < 1:
        details["simulation"] = "skipped: no cycles requested"
        return checks, details
    if not structural_ok:
        details["simulation"] = "skipped: structural checks failed"
        return checks, details

    sim_checks, _ = harris_simulation(model, cfg, details)
    return checks + sim_checks, details


def require_gate_cycles(cycles):
    """Refuse a simulation too short for its z gate before it draws."""
    if cycles < 2:
        raise PreconditionError("a simulation needs at least 2 cycles for "
                                "its z gate, got %d" % cycles, field="cycles")


def estimator_gate(details, estimate, pi):
    """The z gate of every simulator: put its ``_stats.RatioEstimate``
    and ``pi``, the exact law of the cycles it drew, into ``details``,
    and return the check on the largest |z| over the states."""
    details["n_cycles"] = estimate.n_cycles
    details["pi_hat"] = estimate.pi_hat
    details["standard_errors"] = estimate.standard_errors
    details["stationary"] = pi
    z = float(np.abs(estimate.z_scores(pi)).max())
    return CheckResult("estimator_z_max", z, _Z_MAX)


def harris_simulation(model, cfg, details):
    """Simulate ``cfg.cycles`` split-chain cycles and gate the estimate.

    The z gate scores the run's estimate against mu / |mu|, mu being
    the exact cycle measure ``split_cycle_measure`` of the split chain
    that was simulated; the goodness-of-fit gate tests the
    regeneration draws against lambda.  Estimates go into ``details``;
    returns the checks and the run.
    """
    require_gate_cycles(cfg.cycles)
    run = _harris.simulate_split_chain(model, cfg.cycles, cfg.seed)
    mu = _harris.split_cycle_measure(model)
    checks = [estimator_gate(details, run.estimate, mu / mu.sum())]
    details["mean_cycle_length"] = run.estimate.mean_cycle_length

    stat, dof, pvalue = _harris.regen_distribution_gof(run, model)
    checks.append(CheckResult("regeneration_draw_gof", pvalue, _GOF_LEVEL,
                              comparator=">="))
    details["gof_statistic"] = stat
    details["gof_dof"] = dof
    return checks, run


def run_suite(model, cfg=None):
    """Run every verification check the model's kind supports."""
    if cfg is None:
        cfg = RunConfig()
    kind = model_kind(model)
    # hashed before the suite: what the solve threads free stays in their
    # own malloc arenas, where the model document could not reuse it
    identity = model_identity(model, kind)
    started = time.perf_counter()
    if kind == "finite_system":
        checks, details = _finite_system_suite(model, cfg)
    elif kind == "markov_chain":
        checks, details = _markov_suite(model, cfg)
    else:
        checks, details = _harris_suite(model, cfg)
    elapsed = time.perf_counter() - started
    return SuiteReport(kind=kind, model=identity,
                       config=asdict(cfg), checks=checks, details=details,
                       timing_s=elapsed)
