"""Workloads of the cycleflow benchmark.

Each workload is a fixed list of ``cycleflow`` command-line invocations
over model files that seeded generators write.  The program sees only
the generated files; the workload seed never reaches its command line
(and does not reach the statistically gated models, see FIXED_MODELS).
The models follow the baseline the repository's roadmap fixes: finite
systems are random permutations (or random maps) with uniform weights,
chains have Dirichlet rows.

The referee at the bottom decides whether an invocation counts as
verified.  Its rules do not depend on the seed: they read the report and
compare it with quantities the benchmark computes itself from the
generated matrices.
"""

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

# the 3-state kernel of the package README
README_KERNEL = [[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]]


def _rng(seed, name):
    # one stream per model, so adding a model never shifts the others
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _dirichlet_rows(rng, n, alpha):
    rows = rng.dirichlet(np.full(n, alpha), size=n)
    return rows.tolist()


def _permutation_system(rng, m, exact):
    if exact:
        weights = {"num": [1] * m, "den": [m] * m}
    else:
        weights = [1.0 / m] * m
    return {"kind": "finite_system", "map": rng.permutation(m).tolist(),
            "weights": weights, "invertible": True}


def _endomorphism_system(rng, m):
    """A random self-map with uniform mass on its periodic points, the
    invariant measures of a non-invertible map being carried there."""
    mapping = rng.integers(0, m, size=m)
    periodic = np.zeros(m, dtype=bool)
    x = np.arange(m)
    for _ in range(m):
        x = mapping[x]
    # after m steps every orbit sits on its cycle
    periodic[x] = True
    weights = np.where(periodic, 1.0 / periodic.sum(), 0.0)
    return {"kind": "finite_system", "map": mapping.tolist(),
            "weights": weights.tolist(), "invertible": False}


def _reducible_chain(rng, n_classes, class_size, n_transient, alpha):
    """Closed classes on the diagonal, then transient states whose rows
    spread over every state."""
    n = n_classes * class_size + n_transient
    p = np.zeros((n, n))
    for c in range(n_classes):
        block = slice(c * class_size, (c + 1) * class_size)
        p[block, block] = rng.dirichlet(np.full(class_size, alpha),
                                        size=class_size)
    p[n - n_transient:] = rng.dirichlet(np.full(n, alpha), size=n_transient)
    return p.tolist()


def _markov(rows):
    return {"kind": "markov_chain", "P": rows}


def _harris(rows, regen, ell, epsilon=None):
    doc = {"kind": "harris_discrete", "K": rows, "R": regen, "ell": ell}
    if epsilon is not None:
        doc["epsilon"] = epsilon
    return doc


GENERATORS = {
    "fs8x": lambda rng: _permutation_system(rng, 8, exact=True),
    "fs2000": lambda rng: _permutation_system(rng, 2000, exact=False),
    "fse2000": lambda rng: _endomorphism_system(rng, 2000),
    "mc1000": lambda rng: _markov(_dirichlet_rows(rng, 1000, 0.2)),
    "mcr500": lambda rng: _markov(_reducible_chain(rng, 4, 100, 100, 0.2)),
    "h3": lambda rng: _harris(README_KERNEL, [0], 2, epsilon=0.5),
    "h40": lambda rng: _harris(_dirichlet_rows(rng, 40, 1.0), [0, 1, 2], 2),
    "mc300": lambda rng: _markov(_dirichlet_rows(rng, 300, 0.2)),
}


# Models behind statistical gates (z <= 4 at every state, gof p >= 0.01)
# do not vary with the workload seed.  Those gates reject a few percent
# of random models by design (the mc300 cycle estimate failed its z gate
# on 1 of 30 seeded models), and a run's verdict must not depend on the
# seeds it is given.
FIXED_MODELS = ("h40", "mc300")


def generate(name, seed):
    """The model document ``name`` for ``seed``."""
    return GENERATORS[name](_rng(0 if name in FIXED_MODELS else seed, name))


def write_model(name, seed, directory):
    """Write the model file and return its path."""
    path = directory / (name + ".json")
    path.write_text(json.dumps(generate(name, seed)) + "\n")
    return path


# ---------------------------------------------------------------------------
# invocations

FS_INVERTIBLE_CHECKS = (
    "measure_preserving",
    "excursion_identity_forward", "excursion_identity_backward",
    "entrance_invariance_forward", "entrance_invariance_backward",
    "shift_invariance_forward", "shift_invariance_backward",
    "shift_invariance_restriction", "precapacity",
    "poincare_forward", "poincare_backward", "kac_product",
    "kac_integral_forward", "kac_integral_backward", "positivity_bound",
    "positivity_equivalence_violations",
)
FS_ENDOMORPHISM_CHECKS = ("measure_preserving",
                          "restriction_preimage_invariance",
                          "poincare_forward",
                          "positivity_equivalence_violations")
CHAIN_CHECKS = ("cycle_invariance", "exchange_identity",
                "eigenvector_crosscheck")
REDUCIBLE_CHAIN_CHECKS = CHAIN_CHECKS + ("decomposition_residual",
                                         "decomposition_weights")
HARRIS_CHECKS = ("minorization_residual", "mixture_identity",
                 "regeneration_reachability", "lambda_return_finite",
                 "bridge_total_mass", "estimator_z_max",
                 "regeneration_draw_gof")
CYCLE_ESTIMATE_CHECKS = ("estimator_z_max",)


@dataclass(frozen=True)
class Invocation:
    """One ``cycleflow`` run and what its report must show.

    ``details`` maps report detail fields to the exact values asked
    for; ``law`` is true when the report's ``stationary`` vector and any
    ``pi_hat`` are refereed against the benchmark's own solve.
    """

    command: str
    model: str
    extra: tuple = ()
    checks: tuple = ()
    details: dict = field(default_factory=dict)
    law: bool = False

    @property
    def label(self):
        return " ".join((self.command, self.model) + self.extra)

    def argv(self, model_path):
        return [self.command, str(model_path), *self.extra, "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        "identities",
        "The measure layer (subset-sum reduction) and the orbit kernels do "
        "nearly all non-start-up work here and none elsewhere; exact, float "
        "and endomorphism inputs use them in three different ways.",
        (
            Invocation("verify", "fs8x", checks=FS_INVERTIBLE_CHECKS,
                       details={"pairs_examined": 65536, "base_sets": 256,
                                "exhaustive": True,
                                "exact_arithmetic": True}),
            Invocation("verify", "fs2000", checks=FS_INVERTIBLE_CHECKS),
            Invocation("verify", "fse2000", checks=FS_ENDOMORPHISM_CHECKS),
        ),
    ),
    Workload(
        "chains",
        "Dense markov algebra plus modelio/report hashing of a large "
        "matrix, with no random kernel; the reducible chain takes the "
        "many-class path and runs convex_decomposition.",
        (
            Invocation("verify", "mc1000", checks=CHAIN_CHECKS, law=True),
            Invocation("verify", "mcr500", checks=REDUCIBLE_CHAIN_CHECKS,
                       details={"recurrent_classes": 4,
                                "transient_states": 100}),
        ),
    ),
    Workload(
        "simulation",
        "The random kernels split_chain_batch and markov_cycle_batch take "
        "most of the time and dense algebra is negligible; n = 3 against "
        "n = 40 changes the cost of a bridge step.",
        (
            Invocation("verify", "h3", ("--cycles", "20000"),
                       checks=HARRIS_CHECKS, details={"n_cycles": 20000},
                       law=True),
            Invocation("verify", "h40", checks=HARRIS_CHECKS,
                       details={"n_cycles": 20000}, law=True),
            Invocation("stationary", "mc300",
                       ("--method", "cycles", "--cycles", "3000"),
                       checks=CYCLE_ESTIMATE_CHECKS,
                       details={"n_cycles": 3000}, law=True),
        ),
    ),
)}


# ---------------------------------------------------------------------------
# referee

LAW_TOL = 1e-10
Z_LIMIT = 4.0


def reference_law(doc):
    """Stationary law of a generated chain or kernel, by a numpy left-null
    solve of pi (P - I) = 0 with sum(pi) = 1 on the row-normalised
    matrix.  Only used for irreducible models."""
    p = np.array(doc["P"] if doc["kind"] == "markov_chain" else doc["K"])
    p = p / p.sum(axis=1, keepdims=True)
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    return np.linalg.solve(a, b)


def referee(inv, returncode, report_text, law=None):
    """Reasons the invocation does not count as verified; empty when it
    does.  ``law`` is the reference stationary law for ``inv.law``."""
    if returncode != 0:
        return ["exit code %d" % returncode]
    try:
        doc = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return ["report is not JSON: %s" % exc]
    problems = []
    if doc.get("overall_pass") is not True:
        problems.append("overall_pass is not true")
    checks = doc.get("checks") or []
    if not checks:
        problems.append("no checks ran")
    names = {c.get("name") for c in checks}
    for name in inv.checks:
        if name not in names:
            problems.append("check %s missing" % name)
    for c in checks:
        if c.get("passed") is not True:
            problems.append("check %s failed" % c.get("name"))
    details = doc.get("details") or {}
    for key, want in inv.details.items():
        if details.get(key) != want:
            problems.append("%s is %r, asked for %r"
                            % (key, details.get(key), want))
    if inv.law:
        problems.extend(_referee_law(details, law))
    return problems


def _referee_law(details, law):
    problems = []
    stationary = details.get("stationary")
    if stationary is None:
        problems.append("no stationary vector")
    else:
        gap = np.abs(np.asarray(stationary, dtype=float) - law).max()
        if not gap <= LAW_TOL:
            problems.append("stationary differs from the reference by %g"
                            % gap)
    if "pi_hat" in details:
        pi_hat = np.asarray(details["pi_hat"], dtype=float)
        se = np.asarray(details.get("standard_errors") or np.nan, dtype=float)
        gap = np.abs(pi_hat - law)
        # a zero or missing SE admits only an exact match
        beyond = (gap > 0) & ~(gap <= Z_LIMIT * se)
        if beyond.any():
            problems.append("pi_hat lies beyond %g SE of the law at %d states"
                            % (Z_LIMIT, int(beyond.sum())))
    return problems
