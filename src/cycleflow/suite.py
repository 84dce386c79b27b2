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

    ``cycles`` counts regeneration cycles for the simulation gates; zero
    skips simulation entirely.
    """

    tolerance: float = 1e-12
    exhaustive_limit: int = 8
    sample_pairs: int = 50
    seed: int = 0
    cycles: int = 20000
    output_format: str = "text"

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise PreconditionError("tolerance must be positive",
                                    field="tolerance")
        if self.exhaustive_limit < 0:
            raise PreconditionError("exhaustive_limit must be nonnegative",
                                    field="exhaustive_limit")
        if self.sample_pairs < 1:
            raise PreconditionError("sample_pairs must be at least 1",
                                    field="sample_pairs")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise PreconditionError("seed must fit in 64 unsigned bits",
                                    field="seed")
        self.seed = int(self.seed)
        if self.cycles < 0:
            raise PreconditionError("cycles must be nonnegative",
                                    field="cycles")
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
    class_pis = {}
    for c, base in zip(recurrent, bases):
        pi = _markov.cycle_stationary(chain, base)
        class_pis[c] = pi
        invariance_worst = max(
            invariance_worst, _markov.invariance_residual(chain, pi))
        eigen = _markov.stationary_leftnull(chain, base)
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
        details["stationary"] = class_pis[recurrent[0]]
    else:
        # reducible: rebuild a seeded invariant mixture and take it apart
        weights = rng.dirichlet(np.ones(len(recurrent)))
        mixture = np.zeros(chain.n)
        for w, c in zip(weights, recurrent):
            mixture += w * class_pis[c]
        decomp = _markov.convex_decomposition(chain, mixture)
        weight_gap = float(np.abs(decomp.class_weights - weights).max())
        checks.append(CheckResult("decomposition_residual", decomp.residual,
                                  cross_tol))
        checks.append(CheckResult("decomposition_weights", weight_gap,
                                  cross_tol))
        details["mixture_weights"] = weights
    return checks, details


def _kernel_stationary(chain):
    """Unique stationary law of the kernel ``chain``, or None when it is
    not unique (more than one closed class)."""
    structure = _markov.class_structure(chain)
    recurrent = structure.recurrent_classes
    if len(recurrent) != 1:
        return None
    base = int(structure.classes[recurrent[0]].min())
    return _markov.stationary_leftnull(chain, base)


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
    checks.append(CheckResult("minorization_residual", minor, -1e-12,
                              comparator=">="))
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
        worst = 0.0
        examined = 0
        k_ell = model.k_ell
        for x in range(model.n):
            for y in range(model.n):
                if k_ell[x, y] > 0 and examined < cfg.sample_pairs:
                    law = _harris.bridge_distribution(model, x, y)
                    worst = max(worst, abs(law.total_mass() - 1.0))
                    examined += 1
        checks.append(CheckResult("bridge_total_mass", worst,
                                  max(cfg.tolerance, 1e-12)))
        details["bridge_pairs"] = examined

    structural_ok = all(c.passed for c in checks)
    if cfg.cycles < 1:
        details["simulation"] = "skipped: no cycles requested"
        return checks, details
    if not structural_ok:
        details["simulation"] = "skipped: structural checks failed"
        return checks, details

    sim_checks, _ = harris_simulation(model, cfg, details)
    return checks + sim_checks, details


def harris_simulation(model, cfg, details):
    """Simulate ``cfg.cycles`` split-chain cycles and gate the estimate.

    The z gate compares the regenerative estimate with the kernel's
    stationary law when that law is unique; the goodness-of-fit gate
    tests the regeneration draws against lambda.  Estimates go into
    ``details``; returns the checks and the run.
    """
    checks = []
    run = _harris.simulate_split_chain(model, cfg.cycles, cfg.seed)
    estimate = _harris.regen_ratio_estimator(run.occupations, run.lengths)
    details["n_cycles"] = estimate.n_cycles
    details["pi_hat"] = estimate.pi_hat
    details["standard_errors"] = estimate.standard_errors
    details["mean_cycle_length"] = estimate.mean_cycle_length

    pi_exact = _kernel_stationary(model.kernel)
    if pi_exact is not None:
        details["stationary"] = pi_exact
    if pi_exact is None:
        details["simulation_note"] = \
            "stationary law not unique; z gate skipped"
    elif estimate.standard_errors is None:
        details["simulation_note"] = "single cycle; z gate skipped"
    else:
        z = _harris.z_scores(estimate, pi_exact)
        checks.append(CheckResult("estimator_z_max", float(np.abs(z).max()),
                                  _Z_MAX))

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
