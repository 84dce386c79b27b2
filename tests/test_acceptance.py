# End-to-end gate: each test covers one headline guarantee at its
# stated tolerance and prints a single "[acceptance] name: PASS/FAIL"
# line.  The kernels are plain Python and numpy with no compile step,
# so the timed budgets here measure the work itself.

import time
from fractions import Fraction

import numpy as np

import cycleflow as cf
from conftest import H3, H3_PI

IDENTITY_NAMES = {
    "excursion_identity_forward", "excursion_identity_backward",
    "entrance_invariance_forward", "entrance_invariance_backward",
    "shift_invariance_forward", "shift_invariance_backward",
    "shift_invariance_restriction", "precapacity",
    "poincare_forward", "poincare_backward", "kac_product",
    "kac_integral_forward", "kac_integral_backward", "positivity_bound",
}


def finish(name, failures, elapsed=None, budget=None):
    if budget is not None and elapsed > budget:
        failures.append("runtime %.1f s exceeds the %.0f s budget"
                        % (elapsed, budget))
    print("[acceptance] %s: %s" % (name, "FAIL" if failures else "PASS"))
    assert not failures, "; ".join(failures[:12])


def cycle_constant_weights(perm, rng, exact=False):
    # the invariant measures of a permutation are exactly the ones
    # constant along each cycle
    m = perm.shape[0]
    weights = np.empty(m, dtype=object if exact else np.float64)
    seen = np.zeros(m, dtype=bool)
    for i in range(m):
        if seen[i]:
            continue
        if exact:
            value = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        else:
            value = float(rng.uniform(0.2, 3.0))
        j = i
        while not seen[j]:
            seen[j] = True
            weights[j] = value
            j = int(perm[j])
    return weights


def random_preserving_endomorphism(rng):
    # permutation on a positive-mass core plus zero-mass points mapping
    # anywhere: on a finite space that is the general preserving
    # endomorphism, and mapping[core] lands in the core so the map is
    # genuinely non-injective
    m = int(rng.integers(3, 33))
    core = int(rng.integers(2, m))
    perm = rng.permutation(core).astype(np.int64)
    mapping = np.empty(m, dtype=np.int64)
    mapping[:core] = perm
    mapping[core] = int(rng.integers(0, core))
    if core + 1 < m:
        mapping[core + 1:] = rng.integers(0, m, size=m - core - 1)
    weights = np.zeros(m)
    weights[:core] = cycle_constant_weights(perm, rng)
    return cf.FiniteSystem(mapping, weights, invertible=False)


def test_exhaustive_identity_battery(rot4, rot4_exact, two2):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2026)

    float_systems = [("rot4", rot4), ("two2", two2)]
    for k in range(12):
        m = int(rng.integers(2, 9))
        perm = rng.permutation(m).astype(np.int64)
        system = cf.FiniteSystem(perm, cycle_constant_weights(perm, rng))
        float_systems.append(("perm%d_m%d" % (k, m), system))
    # exact arithmetic over the full subset lattice is kept at m <= 5
    # (1024 pairs per system) so the batch stays inside its budget
    exact_systems = [("rot4_exact", rot4_exact)]
    for k in range(8):
        m = int(rng.integers(2, 6))
        perm = rng.permutation(m).astype(np.int64)
        weights = cycle_constant_weights(perm, rng, exact=True)
        exact_systems.append(("ratperm%d_m%d" % (k, m),
                              cf.FiniteSystem(perm, weights)))
    assert len(float_systems) + len(exact_systems) >= 20

    for label, system in float_systems:
        result = cf.identity_suite(system)
        if set(result.residuals) != IDENTITY_NAMES:
            failures.append("%s: identity battery incomplete" % label)
        if not result.exhaustive or result.n_pairs != 4 ** system.size:
            failures.append("%s: subset enumeration incomplete" % label)
        bad = {n: float(v) for n, v in result.residuals.items() if v > 1e-12}
        if bad:
            failures.append("%s: residuals %r" % (label, bad))
        if result.positivity_violations:
            failures.append("%s: positivity violations" % label)

    for label, system in exact_systems:
        result = cf.identity_suite(system)
        exact = all(isinstance(v, Fraction) for v in result.residuals.values())
        if not (exact and result.exhaustive):
            failures.append("%s: expected exact exhaustive run" % label)
        bad = {n: str(v) for n, v in result.residuals.items() if v != 0}
        if bad:
            failures.append("%s: nonzero exact residuals %r" % (label, bad))
        if result.positivity_violations:
            failures.append("%s: positivity violations" % label)

    finish("exhaustive_identity_battery", failures,
           time.perf_counter() - t0, 60.0)


def test_endomorphism_poincare(endo3, endo2):
    failures = []
    rng = np.random.default_rng(7)
    systems = [("endo3", endo3)]
    for k in range(50):
        systems.append(("endo%d" % k, random_preserving_endomorphism(rng)))

    for label, system in systems:
        defect = cf.check_preserving(system)
        if defect > 1e-12:
            failures.append("%s: generator produced a non-preserving map "
                            "(defect %g)" % (label, defect))
            continue
        result = cf.identity_suite(system)
        if result.residuals["poincare_forward"] > 1e-12:
            failures.append("%s: recurrence defect %g over subset pairs"
                            % (label, result.residuals["poincare_forward"]))
        worst = max(
            cf.identity_residuals(system, [i], [])["poincare_forward"]
            for i in range(system.size))
        if worst > 1e-12:
            failures.append("%s: singleton recurrence defect %g"
                            % (label, worst))

    # committed regression: pushing the restriction measure forward is
    # genuinely not invariant for a non-invertible map (defect 1, not 0).
    # The restriction to the points that enter {0} is a point mass at 0,
    # and the image of {1} is {0}
    restriction = np.where(cf.hitting_profile(endo2, [0]).finite,
                           endo2.weights, 0)
    image = cf.event_mask(endo2.size, endo2.mapping[[1]])
    defect = abs(restriction[image].sum() - restriction[1])
    if not (abs(defect - 1.0) <= 1e-15 and defect != 0.0):
        failures.append("endo2 image-invariance defect %r, expected exactly 1"
                        % (defect,))

    finish("endomorphism_poincare", failures)


def test_markov_uniqueness(mc2):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(11)

    for k in range(100):
        n = int(rng.integers(2, 31))
        chain = cf.StochasticMatrix(rng.dirichlet(np.ones(n), size=n))
        pis = np.stack([cf.cycle_stationary(chain, b) for b in range(n)])
        invariance = max(cf.invariance_residual(chain, pi) for pi in pis)
        if invariance > 1e-12:
            failures.append("chain %d: invariance defect %g" % (k, invariance))
        spread = float((pis.max(axis=0) - pis.min(axis=0)).max())
        if spread > 1e-10:
            failures.append("chain %d: base states disagree by %g"
                            % (k, spread))
        oracle = cf.stationary_leftnull(chain, 0)
        gap = float(np.abs(pis - oracle).max())
        if gap > 1e-10:
            failures.append("chain %d: left-null oracle gap %g" % (k, gap))

    # closed form: pi = (3/7, 4/7), expected return to state 0 is 7/3
    pi = cf.cycle_stationary(mc2, 0)
    if np.abs(pi - np.array([3.0, 4.0]) / 7.0).max() > 1e-12:
        failures.append("mc2 stationary law off: %r" % (pi,))
    mean_return = cf.cycle_occupation(mc2, 0).mean_return
    if abs(mean_return - 7.0 / 3.0) > 1e-12:
        failures.append("mc2 mean return %r, expected 7/3" % (mean_return,))

    finish("markov_uniqueness", failures, time.perf_counter() - t0, 30.0)


def test_reducible_decomposition():
    failures = []
    rng = np.random.default_rng(13)

    for k in range(20):
        sizes = [int(rng.integers(2, 7))
                 for _ in range(int(rng.integers(2, 4)))]
        n_recurrent = sum(sizes)
        n = n_recurrent + int(rng.integers(0, 4))
        matrix = np.zeros((n, n))
        starts = []
        offset = 0
        for s in sizes:
            matrix[offset:offset + s, offset:offset + s] = \
                rng.dirichlet(np.ones(s), size=s)
            starts.append(offset)
            offset += s
        for t in range(n_recurrent, n):
            matrix[t] = rng.dirichlet(np.ones(n))
        chain = cf.StochasticMatrix(matrix)

        weights = rng.dirichlet(np.ones(len(sizes)))
        pi = np.zeros(n)
        for w, start in zip(weights, starts):
            pi += w * cf.cycle_stationary(chain, start)

        result = cf.convex_decomposition(chain, pi)
        if result.residual > 1e-10:
            failures.append("chain %d: reassembly residual %g"
                            % (k, result.residual))
        recovered = dict(zip(result.representatives, result.class_weights))
        wanted = dict(zip(starts, weights))
        if set(recovered) != set(wanted) or any(
                abs(recovered[r] - wanted[r]) > 1e-10 for r in wanted):
            failures.append("chain %d: class weights %r != %r"
                            % (k, recovered, wanted))

    finish("reducible_decomposition", failures)


def test_harris_splitting():
    t0 = time.perf_counter()
    failures = []
    variants = [
        ("single_state", dict(regen_members=[0], ell=1),
         1.0, [0.5, 0.5, 0.0], ("lambda", "epsilon"), 424201),
        ("two_state", dict(regen_members=[0, 1], ell=1),
         0.7, [2 / 7, 5 / 7, 0.0], ("lambda", "epsilon"), 424202),
        ("two_step", dict(regen_members=[0], ell=2, epsilon=0.5),
         0.5, [0.35, 0.5, 0.15], ("lambda",), 424203),
    ]

    for label, kwargs, eps_want, lam_want, fitted_want, seed in variants:
        model = cf.HarrisModel(H3, **kwargs)
        if abs(model.epsilon - eps_want) > 1e-12:
            failures.append("%s: epsilon %r != %r"
                            % (label, model.epsilon, eps_want))
        if np.abs(model.lam - np.asarray(lam_want)).max() > 1e-12:
            failures.append("%s: lam %r != %r" % (label, model.lam, lam_want))
        if model.fitted_fields != fitted_want:
            failures.append("%s: fitted %r != %r"
                            % (label, model.fitted_fields, fitted_want))
        mixture = cf.mixture_residual(model)
        if mixture > 1e-12:
            failures.append("%s: mixture identity defect %g" % (label, mixture))
        if cf.minorization_residual(model) < -1e-12:
            failures.append("%s: claimed minorization infeasible" % label)

        run = cf.simulate_split_chain(model, 100000, seed)
        z = run.estimate.z_scores(H3_PI)
        if np.abs(z).max() > 4.0:
            failures.append("%s: worst z %g at 1e5 cycles"
                            % (label, np.abs(z).max()))
        stat, dof, pvalue = cf.regen_distribution_gof(run, model)
        if pvalue < 0.01:
            failures.append("%s: regeneration draws reject lam "
                            "(chi2 %g, dof %d, p %g)"
                            % (label, stat, dof, pvalue))

    finish("harris_splitting", failures, time.perf_counter() - t0, 120.0)


def test_cross_module_coherence(mc2):
    # the same chain, read as return cycles and as a split chain with
    # regeneration after every visit, must tell one story
    failures = []
    cases = [("h3", cf.StochasticMatrix(H3), 0, 313),
             ("mc2", mc2, 1, 314)]

    for label, chain, base, seed in cases:
        pi_cycle = cf.cycle_stationary(chain, base)
        oracle_gap = float(np.abs(
            pi_cycle - cf.stationary_leftnull(chain, base)).max())
        if oracle_gap > 1e-12:
            failures.append("%s: exact routes disagree by %g"
                            % (label, oracle_gap))
        model = cf.HarrisModel(chain, [base], ell=1, epsilon=1.0,
                               lam=chain.matrix[base])
        run = cf.simulate_split_chain(model, 20000, seed)
        z = run.estimate.z_scores(pi_cycle)
        if np.abs(z).max() > 3.0:
            failures.append("%s: regenerative estimate %g standard errors "
                            "from the cycle-formula law"
                            % (label, np.abs(z).max()))

    finish("cross_module_coherence", failures)


def test_determinism(mc2):
    failures = []
    rng = np.random.default_rng(5)
    perm = rng.permutation(12).astype(np.int64)
    sampled_system = cf.FiniteSystem(perm, cycle_constant_weights(perm, rng))
    harris_model = cf.HarrisModel(H3, [0], ell=2, epsilon=0.5)
    cfg = cf.RunConfig(seed=29, cycles=2000)

    for label, model in [("finite_sampled", sampled_system),
                         ("markov", mc2),
                         ("harris", harris_model)]:
        first = cf.canonical_json(cf.run_suite(model, cfg).to_document())
        second = cf.canonical_json(cf.run_suite(model, cfg).to_document())
        if first != second:
            failures.append("%s: repeated run changed the report" % label)

    finish("determinism", failures)
