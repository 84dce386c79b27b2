import hashlib
import json
import zlib
from fractions import Fraction

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.errors import PreconditionError, UnknownKindError
from conftest import H3, rational, recorded_split_chain, tilted


def check_names(report):
    return [c.name for c in report.checks]


def by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1, name
    return matches[0]


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_are_valid():
    cfg = cf.RunConfig()
    assert cfg.tolerance == 1e-12
    assert cfg.exhaustive_limit == 8
    assert cfg.sample_pairs == 50
    assert cfg.cycles == 20000
    assert cfg.output_format == "text"


@pytest.mark.parametrize("kwargs", [
    {"tolerance": 0.0},
    {"tolerance": float("nan")},
    {"exhaustive_limit": -1},
    {"sample_pairs": 0},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"cycles": -1},
    {"output_format": "xml"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(PreconditionError):
        cf.RunConfig(**kwargs)


@pytest.mark.parametrize("name,value", [
    ("cycles", 2.5),
    ("sample_pairs", 2.5),
    ("exhaustive_limit", 2.5),
    ("seed", 1.5),
    ("seed", True),
    ("tolerance", True),
])
def test_config_refuses_a_number_of_the_wrong_type(name, value):
    # a float or bool where an integer is meant, or a bool tolerance, is
    # refused up front rather than truncated or failing in a kernel
    with pytest.raises(PreconditionError) as err:
        cf.RunConfig(**{name: value})
    assert err.value.field == name


def test_model_kind_dispatch(rot4, mc2):
    assert cf.suite.model_kind(rot4) == "finite_system"
    assert cf.suite.model_kind(mc2) == "markov_chain"
    assert cf.suite.model_kind(cf.HarrisModel(H3, [0])) == "harris_discrete"
    with pytest.raises(UnknownKindError):
        cf.suite.model_kind({"kind": "mystery"})


# ---------------------------------------------------------------------------
# finite systems


def test_finite_suite_passes_on_rotation(rot4):
    report = cf.run_suite(rot4)
    assert report.kind == "finite_system"
    assert report.overall_pass
    assert "measure_preserving" in check_names(report)
    assert "kac_product" in check_names(report)
    assert by_name(report, "positivity_equivalence_violations").value == 0.0
    assert report.details["exhaustive"]
    assert report.details["pairs_examined"] == 256
    assert report.timing_s is not None


def test_finite_suite_exact_flag(rot4_exact):
    report = cf.run_suite(rot4_exact)
    assert report.overall_pass
    assert report.details["exact_arithmetic"]


def test_finite_suite_endomorphism_checks(endo3):
    report = cf.run_suite(endo3)
    assert report.overall_pass
    names = check_names(report)
    assert "restriction_preimage_invariance" in names
    assert "poincare_forward" in names
    assert "shift_invariance_forward" not in names
    assert not report.details["invertible"]


def test_finite_suite_fails_on_non_preserving():
    skew = cf.FiniteSystem([1, 0], [0.7, 0.3])
    report = cf.run_suite(skew)
    assert not report.overall_pass
    assert not by_name(report, "measure_preserving").passed


def _preserving_float_permutation(m, seed):
    # cycle-constant weights, so the float residuals are rounding noise
    # that any change of summation order shows
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    labels = np.arange(m)
    for _ in range(m):
        labels = np.minimum(labels, labels[perm])
    return cf.FiniteSystem(perm, rng.uniform(0.5, 2.0, m)[labels])


def test_finite_report_bytes_are_fixed():
    # digests of the canonical verify document of an exact exhaustive
    # permutation and two float sampled ones; the two that are not
    # preserving have every residual nonzero.  The suite's residual bits
    # must never drift
    exact = cf.FiniteSystem(
        [3, 0, 5, 1, 7, 2, 4, 6],
        rational([1, 2, 3, 4, 5, 6, 7, 8], [3, 5, 7, 2, 9, 4, 11, 6]))
    rng = np.random.default_rng(40)
    floats = cf.FiniteSystem(rng.permutation(40), rng.uniform(0.0, 2.0, 40))
    sampled = cf.RunConfig(sample_pairs=200, seed=3)
    cases = (
        (exact, cf.RunConfig(),
         "1b01745bdb6e920b051c184ade28c2f29997a511d6142d123d4ded5f8f600f61"),
        (floats, sampled,
         "76144107a3e2e59b32d41138ce018a33c790d0be48e22f74b29167a67b3c5ecf"),
        (_preserving_float_permutation(40, 41), sampled,
         "b1c6e73909327da44aa51f16959bb6dc567bac194fbdf67412e322ec5a8b72cc"),
    )
    for system, cfg, digest in cases:
        report = cf.run_suite(system, cfg)
        assert report.details["exhaustive"] == (system is exact)
        doc = cf.canonical_json(report.to_document())
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# transition matrices


def test_markov_suite_irreducible(mc2):
    report = cf.run_suite(mc2)
    assert report.overall_pass
    assert check_names(report) == [
        "cycle_invariance", "exchange_identity", "eigenvector_crosscheck"]
    assert report.details["recurrent_classes"] == 1
    assert report.details["transient_states"] == 0
    assert np.abs(np.asarray(report.details["stationary"])
                  - [3 / 7, 4 / 7]).max() <= 1e-12


def _failed(report):
    return [c.name for c in report.checks if not c.passed]


def test_eigenvector_crosscheck_reads_its_oracle(mc2, monkeypatch):
    # the left-null side scaled by 1 + 1e-9 moves by 4/7 * 1e-9, above
    # CROSS_FLOOR = 1e-10: the check fails, so it reads that side
    leftnull = cf.markov.stationary_leftnull
    monkeypatch.setattr(cf.markov, "stationary_leftnull",
                        lambda chain, base: leftnull(chain, base)
                        * (1 + 1e-9))
    report = cf.run_suite(mc2)
    assert _failed(report) == ["eigenvector_crosscheck"]
    assert by_name(report, "eigenvector_crosscheck").value == \
        pytest.approx(4 / 7 * 1e-9, rel=1e-4)


def test_exchange_identity_reads_both_bases(mc2, monkeypatch):
    # base 1's return-cycle law scaled by 1 + 1e-9, base 0's (the class
    # base) left alone: every drawn pair holds one of each, so the check
    # fails by 4/7 * 1e-9, and only it
    stationary = cf.markov.cycle_stationary

    def perturbed(chain, base):
        pi = stationary(chain, base)
        return pi * (1 + 1e-9) if base != 0 else pi

    monkeypatch.setattr(cf.markov, "cycle_stationary", perturbed)
    report = cf.run_suite(mc2)
    assert _failed(report) == ["exchange_identity"]
    assert by_name(report, "exchange_identity").value == \
        pytest.approx(4 / 7 * 1e-9, rel=1e-4)


# two 3-cycles and a light 2-cycle, points 6 and 7 at 1e-9 of the mass
# of a point of the first cycle
_LIGHT_MAP = [1, 2, 0, 4, 5, 3, 7, 6]
_LIGHT_WEIGHTS = [1, 1, 1, 2, 2, 2, Fraction(1, 10 ** 9), Fraction(1, 10 ** 9)]


def _nudge_sweep(monkeypatch, forward):
    # the excursion mass of one direction 1e-9 heavier (float), or one
    # lattice unit heavier at its first massive point (exact); the other
    # direction's sweep is left alone
    sweep = cf.measure._excursion_sweep

    def nudged(step, b_mask, weights):
        mu = sweep(step, b_mask, weights)
        if np.array_equal(step, _LIGHT_MAP) != forward:
            return mu
        if mu.dtype.kind == "f":
            return mu * (1 + 1e-9)
        mu = mu.copy()
        mu[np.argmax(mu > 0)] += 1
        return mu

    monkeypatch.setattr(cf.measure, "_excursion_sweep", nudged)


def _forward_sweep_nudged(monkeypatch):
    _nudge_sweep(monkeypatch, forward=True)


def _backward_sweep_nudged(monkeypatch):
    _nudge_sweep(monkeypatch, forward=False)


def _backward_hits_less_point_6(monkeypatch):
    # the OR-doubled backward hitting set without point 6
    hits = cf._kernels.backward_hits

    def less(inv_mapping, in_set):
        out = hits(inv_mapping, in_set).copy()
        out[6] = False
        return out

    monkeypatch.setattr(cf._kernels, "backward_hits", less)


def _edit_profile(monkeypatch, direction, edit):
    # the hitting profile in one direction, after edit(times, entry) has
    # changed copies of its arrays at point 6
    profile = cf.measure.hitting_profile

    def edited(system, members, d=cf.measure.FORWARD):
        out = profile(system, members, d)
        if d == direction:
            times, entry = out.times.copy(), out.entry.copy()
            edit(times, entry)
            out = cf.measure.HittingProfile(times, entry)
        return out

    monkeypatch.setattr(cf.measure, "hitting_profile", edited)


def _never_hits(times, entry):
    times[6] = -1


def _hits_a_step_later(times, entry):
    if times[6] > 0:
        times[6] += 1


def _enters_at_point_7(times, entry):
    entry[6] = 7


def _backward_times_less_point_6(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.BACKWARD, _never_hits)


def _forward_times_less_point_6(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.FORWARD, _never_hits)


def _forward_times_longer_at_point_6(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.FORWARD, _hits_a_step_later)


def _backward_times_longer_at_point_6(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.BACKWARD, _hits_a_step_later)


def _forward_entry_of_point_6_moved(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.FORWARD, _enters_at_point_7)


def _backward_entry_of_point_6_moved(monkeypatch):
    _edit_profile(monkeypatch, cf.measure.BACKWARD, _enters_at_point_7)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("side,fails", [
    (_forward_sweep_nudged, {"excursion_identity_forward", "precapacity"}),
    (_backward_hits_less_point_6, {"precapacity"}),
    (_backward_times_less_point_6, {"excursion_identity_forward",
                                    "kac_integral_forward", "kac_product"}),
    (_backward_sweep_nudged, {"excursion_identity_backward"}),
    (_forward_times_less_point_6, {"excursion_identity_backward",
                                   "kac_integral_backward"}),
    (_forward_times_longer_at_point_6, {"kac_integral_forward",
                                        "kac_product"}),
    (_backward_times_longer_at_point_6, {"kac_integral_backward"}),
    (_forward_entry_of_point_6_moved, {"entrance_invariance_forward"}),
    (_backward_entry_of_point_6_moved, {"entrance_invariance_backward"}),
])
def test_finite_cross_identities_read_both_sides(side, fails, exact,
                                                 monkeypatch):
    # each cross-check compares two independent computations: an
    # excursion sweep with a hitting set of the other direction (the
    # excursion identities) or with the backward hits (precapacity),
    # entry points with B's weights (entrance invariance), hitting-time
    # integrals with hit-set masses (Kac).  Moving one side by 1e-9 of
    # the mass (float weights) or by one lattice unit (exact weights), or
    # point 6 (of mass 1e-9) in a hitting profile, fails the checks that
    # read it, so neither side is derived from the other
    weights = [Fraction(w) if exact else float(w) for w in _LIGHT_WEIGHTS]
    if exact:
        weights = np.array(weights, dtype=object)
    system = cf.FiniteSystem(_LIGHT_MAP, weights)
    assert cf.run_suite(system).overall_pass
    side(monkeypatch)
    assert fails <= set(_failed(cf.run_suite(system)))


def test_markov_suite_reducible_adds_decomposition():
    p = np.zeros((4, 4))
    p[:2, :2] = [[2 / 3, 1 / 3], [1 / 4, 3 / 4]]
    p[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    report = cf.run_suite(cf.StochasticMatrix(p))
    assert report.overall_pass
    names = check_names(report)
    assert "decomposition_residual" in names
    assert "decomposition_weights" in names
    assert "stationary" not in report.details
    assert report.details["bases"] == [0, 2]
    assert len(report.details["mixture_weights"]) == 2


def _mcr500():
    # perfbench's mcr500 at seed 1: four closed Dirichlet(0.2) classes of
    # 100 states and 100 transient states whose rows spread over every
    # state
    rng = np.random.default_rng([1, zlib.crc32(b"mcr500")])
    p = np.zeros((500, 500))
    for c in range(4):
        block = slice(100 * c, 100 * (c + 1))
        p[block, block] = rng.dirichlet(np.full(100, 0.2), size=100)
    p[400:] = rng.dirichlet(np.full(500, 0.2), size=100)
    return cf.StochasticMatrix(p / p.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("side", ["cycle_stationary", "stationary_leftnull"])
def test_decomposition_reads_both_sides(side, monkeypatch):
    # the suite mixes the left-null laws and convex_decomposition takes
    # the mixture apart with the return-cycle laws: tilting either side
    # by 1e-9 moves the residual by the largest mixture weight times
    # 1e-9, above CROSS_FLOOR = 1e-10
    chain = _mcr500()
    report = cf.run_suite(chain)
    assert report.overall_pass
    assert by_name(report, "decomposition_residual").value <= 1e-15
    weights = report.details["mixture_weights"]
    monkeypatch.setattr(cf.markov, side,
                        tilted(getattr(cf.markov, side), 1e-9))
    report = cf.run_suite(chain)
    check = by_name(report, "decomposition_residual")
    assert not check.passed
    assert check.value == pytest.approx(max(weights) * 1e-9, rel=1e-4)
    assert by_name(report, "decomposition_weights").passed


def test_markov_suite_seed_changes_exchange_pairs():
    rng = np.random.default_rng(0)
    chain = cf.StochasticMatrix(rng.dirichlet(np.ones(6), size=6))
    a = cf.run_suite(chain, cf.RunConfig(seed=1))
    b = cf.run_suite(chain, cf.RunConfig(seed=1))
    assert cf.canonical_json(a.to_document()) == \
        cf.canonical_json(b.to_document())
    assert a.details["exchange_pairs"] == 50


def test_reducible_chain_draws_are_fixed():
    # classes of 5, 7 and 9 states and 3 transient states.  The exchange
    # pairs are drawn class by class from the seeded stream, then the
    # mixture weights; these digests pin the pairs (through the exchange
    # residual) and the weights, whatever order the solves run in
    rng = np.random.default_rng(23)
    p = np.zeros((24, 24))
    start = 0
    for k in (5, 7, 9):
        p[start:start + k, start:start + k] = rng.dirichlet(np.ones(k),
                                                            size=k)
        start += k
    p[21:] = rng.dirichlet(np.ones(24), size=3)
    report = cf.run_suite(cf.StochasticMatrix(p),
                          cf.RunConfig(sample_pairs=20, seed=6))
    drawn = cf.canonical_json({k: report.details[k] for k in (
        "bases", "exchange_pairs", "mixture_weights")})
    assert hashlib.sha256(drawn.encode()).hexdigest() == \
        "0c0171e5511974a7829192570ae7d990df6c81dce029dc7d9ce87bfef6c1c4b4"
    doc = cf.canonical_json(report.to_document())
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "c74ed9fccbb785e4131cc61c9e5127b0872e34b3d541c57c754067c4b095776f"


# ---------------------------------------------------------------------------
# regeneration models


def test_harris_suite_passes(h3):
    model = cf.HarrisModel(h3, [0, 1], ell=1)
    report = cf.run_suite(model, cf.RunConfig(cycles=2000))
    assert report.overall_pass
    names = check_names(report)
    assert names[:4] == ["minorization_residual", "mixture_identity",
                         "regeneration_reachability", "lambda_return_finite"]
    assert "estimator_z_max" in names
    assert "regeneration_draw_gof" in names
    assert report.details["n_cycles"] == 2000
    assert "bridge_total_mass" not in names  # ell = 1 has no interior


def test_harris_suite_bridge_check_on_blocks(h3):
    model = cf.HarrisModel(h3, [0], ell=2, epsilon=0.5)
    report = cf.run_suite(model, cf.RunConfig(cycles=500))
    assert by_name(report, "bridge_total_mass").value <= 1e-12
    assert report.details["bridge_pairs"] >= 1
    assert report.overall_pass


def test_harris_suite_skips_simulation_when_asked(h3):
    model = cf.HarrisModel(h3, [0], ell=1)
    report = cf.run_suite(model, cf.RunConfig(cycles=0))
    assert report.details["simulation"] == "skipped: no cycles requested"
    assert "estimator_z_max" not in check_names(report)
    assert report.overall_pass


def test_harris_simulations_need_two_cycles(tmp_path, capsys,
                                            monkeypatch):
    # one cycle has no standard errors to scale the z gate by, so the
    # simulation is refused before it draws
    from cycleflow.cli import main
    monkeypatch.delenv("CYCLEFLOW_SEED", raising=False)
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"kind": "harris_discrete", "K": H3.tolist(),
                                "R": [0], "ell": 2, "epsilon": 0.5}))
    for command, cycles in (("verify", "1"), ("harris", "1"),
                            ("harris", "0")):
        assert main([command, str(path), "--cycles", cycles]) == 7
        err = capsys.readouterr().err
        assert err.startswith("cycleflow: error: cycles: ")
        assert "at least 2 cycles" in err


@pytest.mark.parametrize("side", ["residual_rows", "k_ell"])
def test_harris_mixture_identity_reads_both_sides(side, monkeypatch):
    # the identity compares epsilon lam + (1 - epsilon) times the residual
    # rows with the R rows of K^ell.  On H3 with R = {0, 1} (epsilon 0.7,
    # residual rows 0/1), tilting either side by 1e-9 relative moves the
    # largest defect from 0 to about 5e-10 (k_ell) or 3e-10 (the rows)
    model = cf.HarrisModel(H3, [0, 1], ell=1)
    cfg = cf.RunConfig(cycles=0)
    assert cf.run_suite(model, cfg).overall_pass
    read = getattr(cf.HarrisModel, side)
    read = read.fget if isinstance(read, property) else read.func
    # a property outranks the residual rows already cached on the model
    monkeypatch.setattr(cf.HarrisModel, side,
                        property(lambda self: read(self) * (1 + 1e-9)))
    report = cf.run_suite(model, cfg)
    assert _failed(report) == ["mixture_identity"]
    assert by_name(report, "mixture_identity").value > 1e-10


def test_harris_suite_skips_simulation_on_structural_failure(h3):
    model = cf.HarrisModel(h3, [0, 1], ell=1, epsilon=0.8,
                           lam=[2 / 7, 5 / 7, 0.0])
    report = cf.run_suite(model, cf.RunConfig(cycles=100))
    assert not report.overall_pass
    assert not by_name(report, "minorization_residual").passed
    assert report.details["simulation"] == "skipped: structural checks failed"
    assert "estimator_z_max" not in check_names(report)


def test_harris_suite_flags_unreachable_set():
    block = np.zeros((4, 4))
    block[:2, :2] = [[0.5, 0.5], [2 / 7, 5 / 7]]
    block[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    model = cf.HarrisModel(block, [0], ell=1)
    report = cf.run_suite(model, cf.RunConfig(cycles=100))
    assert not by_name(report, "regeneration_reachability").passed
    assert not report.overall_pass


def test_suite_reports_are_deterministic(h3):
    model = cf.HarrisModel(h3, [0], ell=2, epsilon=0.5)
    cfg = cf.RunConfig(cycles=300, seed=9)
    a = cf.run_suite(model, cfg)
    b = cf.run_suite(model, cf.RunConfig(cycles=300, seed=9))
    assert cf.canonical_json(a.to_document()) == \
        cf.canonical_json(b.to_document())


# ---------------------------------------------------------------------------
# simulated report bytes


def _dirichlet_harris40():
    rng = np.random.default_rng(40)
    return cf.HarrisModel(rng.dirichlet(np.ones(40), size=40), [0, 1, 2],
                          ell=2)


def test_harris_gate_targets_the_exact_cycle_law():
    # the z gate's target is mu / |mu| of the simulated split chain, to
    # the bit, not a law solved another way
    for model in (cf.HarrisModel(H3, [0], ell=2, epsilon=0.5),
                  _dirichlet_harris40()):
        report = cf.run_suite(model, cf.RunConfig(cycles=300, seed=1))
        mu = cf.split_cycle_measure(model)
        assert np.array_equal(report.details["stationary"], mu / mu.sum())
        assert "estimator_z_max" in check_names(report)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


class _CountingGen:
    """Counts the calls a kernel makes to its generator: one per lockstep
    iteration of the lanes."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        return self.gen.random(size)


def test_simulation_report_bytes_are_fixed(tmp_path, monkeypatch):
    # digests of canonical documents whose estimates, standard errors,
    # gof statistics and p-values all come from the random kernel; each
    # run takes many lockstep iterations of its lanes
    from cycleflow import _kernels
    from cycleflow.cli import main

    iterations = []
    kernel = _kernels.split_chain_batch

    def counted(gen, *args):
        gen = _CountingGen(gen)
        result = kernel(gen, *args)
        iterations.append(gen.calls)
        return result

    monkeypatch.setattr(_kernels, "split_chain_batch", counted)
    cases = (
        (cf.HarrisModel(H3, [0], ell=2, epsilon=0.5),
         cf.RunConfig(cycles=600, seed=5),
         "0d4cf9967bae893fcbe0b925eba3f8a1b28e039f9689cb40e1b5a2b0e91e4448"),
        (_dirichlet_harris40(), cf.RunConfig(cycles=400, seed=6),
         "226a97ea6b0cf73c3304a16f8375938e5f2bb385232c9b0a69501d1649c401c2"),
    )
    for model, cfg, digest in cases:
        report = cf.run_suite(model, cfg)
        assert report.overall_pass
        doc = cf.canonical_json(report.to_document())
        assert _digest(doc.encode()) == digest
        iterations.clear()
        cf.simulate_split_chain(model, cfg.cycles, cfg.seed)
        assert sum(iterations) > 50

    rng = np.random.default_rng(12)
    chain = {"kind": "markov_chain",
             "P": rng.dirichlet(np.full(12, 0.5), size=12).tolist()}
    path = tmp_path / "mc12.json"
    path.write_text(json.dumps(chain))
    out = tmp_path / "mc12-cycles.json"
    iterations.clear()
    assert main(["stationary", str(path), "--method", "cycles",
                 "--cycles", "500", "--seed", "7", "--format", "json",
                 "--output", str(out)]) == 0
    assert _digest(out.read_bytes()) == \
        "7ac6bbc76751e238b798e5863a5d37b0306c700951a461e384364cc4c14ab270"
    assert sum(iterations) > 50

    # a run recorded through the kernel's hooks draws exactly what the
    # unrecorded run does
    model = cf.HarrisModel(H3, [0, 1], ell=3)
    iterations.clear()
    run = recorded_split_chain(model, 500, seed=11)
    assert _digest(run.trajectory.tobytes() + run.marks.tobytes()) == \
        "da69b302e48325986c1e0cb0441391bf023b1ee38153693031adfe5e01b0ebd3"
    taped = list(iterations)
    iterations.clear()
    cf.simulate_split_chain(model, 500, seed=11)
    assert taped == iterations and sum(iterations) > 20
