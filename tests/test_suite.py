import hashlib
import json

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.errors import PreconditionError, UnknownKindError
from conftest import H3


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
    exact = cf.FiniteSystem.from_rational(
        [3, 0, 5, 1, 7, 2, 4, 6], [1, 2, 3, 4, 5, 6, 7, 8],
        [3, 5, 7, 2, 9, 4, 11, 6])
    rng = np.random.default_rng(40)
    floats = cf.FiniteSystem(rng.permutation(40), rng.uniform(0.0, 2.0, 40))
    sampled = cf.RunConfig(sample_pairs=200, seed=3)
    cases = (
        (exact, cf.RunConfig(),
         "14f11811fd9a5909a1fa374b280fbfddaa3a1d0db0d9c58d22fb5e908a2e514b"),
        (floats, sampled,
         "b555692d6098ef7862037bbc42eed10c93e042e5aa23cc5e5d1f52e0104d19b0"),
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
        "650a6e57be4b249d55ccdc9b4edff817e968bd12e21132d2652095375032db85"


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


def test_harris_suite_skips_the_z_gate_on_a_single_cycle(h3):
    # one cycle has no standard errors to scale the z gate by
    model = cf.HarrisModel(h3, [0], ell=2, epsilon=0.5)
    report = cf.run_suite(model, cf.RunConfig(cycles=1))
    assert report.details["n_cycles"] == 1
    assert report.details["simulation_note"] == "single cycle; z gate skipped"
    assert "estimator_z_max" not in check_names(report)
    assert "regeneration_draw_gof" in check_names(report)


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
         "86b06a8393d3dd326959ddbfa3c9d82d603716ce6400f38e2779e7f649e249dc"),
        (_dirichlet_harris40(), cf.RunConfig(cycles=400, seed=6),
         "7894cf1e42772a1283078d24525ff9f44652e9b47478d402634d88f29b65e330"),
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

    # a recorded run draws exactly what the unrecorded run does
    model = cf.HarrisModel(H3, [0, 1], ell=3)
    iterations.clear()
    run = cf.simulate_split_chain(model, 500, seed=11, record_trajectory=True)
    assert _digest(run.trajectory.tobytes() + run.marks.tobytes()) == \
        "da69b302e48325986c1e0cb0441391bf023b1ee38153693031adfe5e01b0ebd3"
    taped = list(iterations)
    iterations.clear()
    cf.simulate_split_chain(model, 500, seed=11)
    assert taped == iterations and sum(iterations) > 20
