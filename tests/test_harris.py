import inspect
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import cycleflow as cf
from cycleflow import _kernels
from cycleflow._stats import RatioAccumulator
from cycleflow.errors import (
    BudgetExceededError,
    InfeasibleMinorizationError,
    InternalInconsistencyError,
    InvariantError,
    PreconditionError,
)
from conftest import H3, H3_PI

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def variant_a():
    return cf.HarrisModel(H3, [0], ell=1)


def variant_b():
    return cf.HarrisModel(H3, [0, 1], ell=1)


def variant_c():
    return cf.HarrisModel(H3, [0], ell=2, epsilon=0.5)


# ---------------------------------------------------------------------------
# minorization fitting


def test_fit_single_row_is_the_row_itself(h3):
    model = cf.HarrisModel(h3, [0], ell=1)
    assert model.epsilon == pytest.approx(1.0, abs=1e-12)
    assert np.abs(model.lam - [0.5, 0.5, 0.0]).max() <= 1e-12


def test_fit_two_rows_takes_columnwise_minima(h3):
    model = cf.HarrisModel(h3, [0, 1], ell=1)
    assert model.epsilon == pytest.approx(0.7, abs=1e-12)
    assert np.abs(model.lam - [2 / 7, 5 / 7, 0.0]).max() <= 1e-12


def test_fit_two_step_blocks(h3):
    model = cf.HarrisModel(h3, [0], ell=2)
    assert model.epsilon == pytest.approx(1.0, abs=1e-12)
    assert np.abs(model.lam - [0.35, 0.5, 0.15]).max() <= 1e-12


def test_fit_on_one_state_caps_epsilon_at_one():
    # one K^ell row can sum to just above 1; the fit caps epsilon at 1 and
    # leaves lam as the row over its own sum
    rng = np.random.default_rng(0)
    above = 0
    for _ in range(40):
        k = rng.dirichlet(np.ones(7), size=7)
        for ell in (1, 2, 3):
            row = np.linalg.matrix_power(k, ell)[0]
            above += row.sum() > 1.0
            model = cf.HarrisModel(k, [0], ell=ell)
            assert model.epsilon == min(row.sum(), 1.0)
            assert model.lam.tobytes() == (row / row.sum()).tobytes()
    assert above > 0


def test_fit_rejects_disjoint_row_supports():
    with pytest.raises(InfeasibleMinorizationError):
        cf.HarrisModel(np.eye(2), [0, 1], ell=1)


# ---------------------------------------------------------------------------
# model construction


def test_fitted_fields_record_what_was_filled(h3):
    assert variant_a().fitted_fields == ("lambda", "epsilon")
    assert variant_c().fitted_fields == ("lambda",)
    full = cf.HarrisModel(h3, [0], ell=1, epsilon=1.0, lam=[0.5, 0.5, 0.0])
    assert full.fitted_fields == ()


def test_given_lambda_gets_maximal_epsilon(h3):
    model = cf.HarrisModel(h3, [0, 1], ell=1, lam=[2 / 7, 5 / 7, 0.0])
    assert model.fitted_fields == ("epsilon",)
    assert model.epsilon == pytest.approx(0.7, abs=1e-12)


def test_lambda_validation(h3):
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [0], lam=[0.5, 0.5])
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [0], lam=[0.7, 0.5, 0.0])
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [0], lam=[1.5, -0.5, 0.0])


def test_zero_block_length_rejected(h3):
    with pytest.raises(InvariantError) as err:
        cf.HarrisModel(h3, [0], ell=0)
    assert err.value.field == "ell"


def test_epsilon_range_checked(h3):
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [0], epsilon=0.0)
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [0], epsilon=1.2)


def test_empty_regen_set_rejected(h3):
    with pytest.raises(InvariantError):
        cf.HarrisModel(h3, [])


def test_unsupported_lambda_is_infeasible(h3):
    # lam charges state 2, which row 0 of K cannot reach in one step
    with pytest.raises(InfeasibleMinorizationError):
        cf.HarrisModel(h3, [0], ell=1, lam=[0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# minorization and mixture residuals


def test_genuine_fits_have_nonnegative_residual():
    for model in (variant_a(), variant_b(), variant_c()):
        assert cf.minorization_residual(model) >= -1e-12
        assert cf.mixture_residual(model) <= 1e-12


def test_overclaimed_epsilon_residual_is_exact(h3):
    # with lam = (2/7, 5/7, 0) the worst entry is K(0,1) - 0.8 * 5/7,
    # which is 0.5 - 4/7 = -1/14
    model = cf.HarrisModel(h3, [0, 1], ell=1, epsilon=0.8,
                           lam=[2 / 7, 5 / 7, 0.0])
    assert cf.minorization_residual(model) == pytest.approx(-1 / 14, abs=1e-12)


def test_false_minorization_blocks_residual_rows(h3):
    model = cf.HarrisModel(h3, [0, 1], ell=1, epsilon=0.8,
                           lam=[2 / 7, 5 / 7, 0.0])
    with pytest.raises(InvariantError):
        model.residual_rows()
    rows = model.residual_rows(clip=True)
    sums = rows[[0, 1]].sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert cf.mixture_residual(model) > 1e-3


def test_epsilon_one_has_zero_residual_rows():
    model = variant_a()
    assert model.epsilon == pytest.approx(1.0)
    assert np.all(model.residual_rows() == 0.0)


def test_residual_reconstruction_on_regen_rows():
    model = variant_c()
    recon = model.epsilon * model.lam + \
        (1 - model.epsilon) * model.residual_rows()[0]
    assert np.abs(recon - model.k_ell[0]).max() <= 1e-15


# ---------------------------------------------------------------------------
# reachability and integrability


def test_whole_space_regen_returns_in_one_step(h3):
    model = cf.HarrisModel(h3, [0, 1, 2], ell=1)
    cond = cf.harris_conditions(model)
    assert cond.hit_probability_min == pytest.approx(1.0, abs=1e-12)
    assert cond.expected_lambda_return == pytest.approx(1.0, abs=1e-12)
    assert cond.recurrent and cond.integrable


def test_expected_return_from_lambda_start():
    # fundamental-matrix solve by hand: w = (80/13, 90/13) off the set,
    # lam = (1/2, 1/2, 0) gives E = 1 + (40/13 + 67/13)/2 = 133/26
    cond = cf.harris_conditions(variant_a())
    assert cond.hit_probability_min == pytest.approx(1.0, abs=1e-12)
    assert cond.expected_lambda_return == pytest.approx(133 / 26, abs=1e-10)


def test_unreachable_block_is_flagged():
    block = np.zeros((4, 4))
    block[:2, :2] = H3[:2, :2] / H3[:2, :2].sum(axis=1, keepdims=True)
    block[2:, 2:] = FLIP2
    model = cf.HarrisModel(block, [0], ell=1)
    cond = cf.harris_conditions(model)
    assert cond.hit_probability_min == 0.0
    assert not cond.recurrent


def test_conditions_take_no_tolerance():
    assert list(inspect.signature(cf.harris_conditions).parameters) == \
        ["model"]


def _closure(support):
    # reach[x, y]: y can be reached from x in zero or more steps
    reach = support | np.eye(support.shape[0], dtype=bool)
    while True:
        grown = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _first_passage(model, tol=1e-10):
    # the hitting probabilities of R at times >= 1 and the mean first
    # entry time from lam, by the first-passage linear system
    k = model.kernel.matrix
    r = model.regen_mask
    reach = _closure(k > 0)
    h = r.astype(float)
    idx = np.flatnonzero(reach[:, r].any(axis=1) & ~r)
    if idx.size:
        h[idx] = np.linalg.solve(np.eye(idx.size) - k[np.ix_(idx, idx)],
                                 k[np.ix_(idx, np.flatnonzero(r))].sum(axis=1))
    closure = reach[model.lam > 0].any(axis=0)
    if np.any(h[closure] < 1.0 - tol):
        return float((k @ h).min()), math.inf
    idx = np.flatnonzero(closure & ~r)
    w = np.zeros(model.n)
    if idx.size:
        w[idx] = np.linalg.solve(np.eye(idx.size) - k[np.ix_(idx, idx)],
                                 np.ones(idx.size))
    return float((k @ h).min()), float(1.0 + model.lam @ (k @ w))


def test_conditions_match_the_classes_and_the_first_passage_solve():
    # random reducible kernels, entries 0 or at least 0.05 before the rows
    # are normalised, with random R and lam
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 10))
        support = rng.random((n, n)) < rng.uniform(0.1, 0.5)
        support[np.arange(n), rng.integers(0, n, size=n)] = True
        k = np.where(support, rng.uniform(0.05, 1.0, size=(n, n)), 0.0)
        k /= k.sum(axis=1, keepdims=True)
        regen = rng.choice(n, size=int(rng.integers(1, n + 1)),
                           replace=False)
        lam = np.where(rng.random(n) < rng.choice([0.0, 0.4]),
                       rng.random(n), 0.0)
        lam[rng.integers(0, n)] = 1.0
        model = cf.HarrisModel(k, regen, ell=1, epsilon=0.5,
                               lam=lam / lam.sum())
        cond = cf.harris_conditions(model)
        # a state is recurrent when all it reaches reaches it back, and
        # its class is then all it reaches
        reach = _closure(k > 0)
        recurrent = [x for x in range(n)
                     if np.all(reach[:, x][reach[x]])]
        meets = all(model.regen_mask[reach[x]].any() for x in recurrent)
        assert cond.recurrent == meets
        assert cond.hit_probability_min == (1.0 if meets else 0.0)
        hit, expected = _first_passage(model)
        assert abs(cond.hit_probability_min - hit) <= 1e-10
        if math.isinf(expected):
            assert cond.expected_lambda_return == math.inf
        else:
            assert abs(cond.expected_lambda_return - expected) <= \
                1e-12 * expected
        assert cond.integrable == math.isfinite(expected)
        seen.add((cond.recurrent, cond.integrable))
    assert seen == {(True, True), (False, True), (False, False)}


def test_near_singular_kernel_is_recurrent():
    # irreducible, so recurrent, although state 1 leaves only at 1e-13: a
    # first-passage solve put its hitting probability at 0.9997
    model = cf.HarrisModel([[0.5, 0.5], [1e-13, 1.0 - 1e-13]], [0], ell=1)
    cond = cf.harris_conditions(model)
    assert cond.recurrent and cond.integrable
    assert cond.hit_probability_min == 1.0
    # one step from lam = (1/2, 1/2), then 1e13 steps on average from 1
    assert cond.expected_lambda_return == pytest.approx(
        1.0 + 0.75 / 1e-13, rel=1e-3)


def test_float_singular_systems_are_refused():
    # 1 - 1e-17 rounds to 1: the first-entry and block systems are singular
    model = cf.HarrisModel([[0.5, 0.5], [1e-17, 1.0]], [0], ell=1)
    with pytest.raises(PreconditionError, match="first-entry system"):
        cf.harris_conditions(model)
    with pytest.raises(PreconditionError, match="block system"):
        cf.split_cycle_measure(model)


# ---------------------------------------------------------------------------
# pinned blocks


def test_one_step_bridge_is_empty():
    law = cf.BridgeLaw(variant_a(), 0, 1)
    assert law.length == 0
    paths = list(law.enumerate_paths())
    assert paths == [((), 1.0)]
    assert law.total_mass() == pytest.approx(1.0)


def test_two_step_bridge_forced_interior():
    # only state 1 connects 0 to 2 in two steps
    law = cf.BridgeLaw(variant_c(), 0, 2)
    assert np.abs(law.step_distribution(1, 0) - [0.0, 1.0, 0.0]).max() <= 1e-15


def test_two_step_bridge_mixed_interior():
    law = cf.BridgeLaw(variant_c(), 0, 0)
    dist = law.step_distribution(1, 0)
    assert np.abs(dist - [5 / 7, 2 / 7, 0.0]).max() <= 1e-12
    assert law.path_probability([0]) == pytest.approx(5 / 7, abs=1e-12)
    assert law.path_probability([1]) == pytest.approx(2 / 7, abs=1e-12)


def test_bridge_requires_positive_endpoint_mass():
    with pytest.raises(PreconditionError):
        cf.BridgeLaw(variant_a(), 0, 2)  # K(0, 2) = 0


def test_bridge_paths_sum_to_one_everywhere(h3):
    model = cf.HarrisModel(h3, [0], ell=3)
    for x in range(3):
        for y in range(3):
            if model.k_ell[x, y] > 0:
                law = cf.BridgeLaw(model, x, y)
                assert law.total_mass() == pytest.approx(1.0, abs=1e-12)
                probs = {p: pr for p, pr in law.enumerate_paths()}
                for path, prob in probs.items():
                    assert law.path_probability(path) == pytest.approx(prob)


def _bridge_lanes(model, prev, end, steps_left, u):
    # one _lane_bridge draw per lane, as the simulator's bridge lanes draw
    return _kernels._lane_bridge(
        model.kernel.matrix, model.kernel_powers, np.asarray(prev),
        np.asarray(end), np.asarray(steps_left), u)


def test_bridge_sampler_follows_the_law():
    # the interior of a two-step block from 0 pinned at 0, on 2000 lanes
    lanes = np.zeros(2000, dtype=np.intp)
    draws = _bridge_lanes(variant_c(), lanes, lanes, lanes + 2,
                          np.random.default_rng(11).random(2000))
    counts = np.bincount(draws, minlength=3)
    assert counts[2] == 0
    # 5/7 of 2000 is about 1429; give it four sigmas
    assert abs(counts[0] - 2000 * 5 / 7) < 4 * math.sqrt(2000 * 5 / 7 * 2 / 7)


def test_bridge_lanes_follow_the_law_at_every_position(h3):
    # ell = 3: every (prev, end) a block can pass through at interior
    # positions 1 and 2, 4000 lanes each, all drawn in one call; each
    # count vector against step_distribution at the 0.01% level of
    # chi-square(support - 1)
    model = cf.HarrisModel(h3, [0], ell=3)
    cells = {}
    for x in range(3):
        for y in range(3):
            if model.k_ell[x, y] > 0:
                law = cf.BridgeLaw(model, x, y)
                first = law.step_distribution(1, x)
                cells[1, x, y] = first
                for s in np.flatnonzero(first):
                    cells[2, int(s), y] = law.step_distribution(2, s)
    keys = sorted(cells)
    lanes = 4000
    prev, end, steps_left = (np.repeat(np.array(col), lanes) for col in
                             zip(*[(p, y, model.ell + 1 - pos)
                                    for pos, p, y in keys]))
    draws = _bridge_lanes(model, prev, end, steps_left,
                          np.random.default_rng(61).random(prev.size))
    limit = {1: 15.14, 2: 18.42}  # chi-square at the 0.01% level
    for i, key in enumerate(keys):
        counts = np.bincount(draws[i * lanes:(i + 1) * lanes], minlength=3)
        expected = lanes * cells[key]
        support = expected > 0
        assert counts[~support].sum() == 0, key
        if support.sum() > 1:
            chi2 = ((counts - expected)[support] ** 2
                    / expected[support]).sum()
            assert chi2 < limit[support.sum() - 1], (key, chi2)


# ---------------------------------------------------------------------------
# block endpoints


def test_block_endpoint_law_when_lambda_is_proportional():
    # epsilon 0.5 with lam = K^2(0, .) leaves the residual equal to lam,
    # so both coin values give the same endpoint law; draw 3000 residual
    # endpoints as the simulator's end lanes do
    model = cf.HarrisModel(H3, [0], ell=2, epsilon=0.5, lam=[0.35, 0.5, 0.15])
    table, res_rows = model.lane_table()
    base = np.full(3000, res_rows[0] * (model.n + 1))
    ends = _kernels._lane_draw(table, base,
                               np.random.default_rng(23).random(3000))
    counts = np.bincount(ends, minlength=3)
    expected = 3000 * np.array([0.35, 0.5, 0.15])
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 13.8  # chi-square(2) at the 0.1% level


def test_kernel_power_stack_is_capped(monkeypatch):
    # three states, ell = 3: four 3x3 float64 matrices, each counted as a
    # 4096-byte page, 16384 bytes
    monkeypatch.setattr(cf.harris, "MAX_POWER_BYTES", 16384)
    model = cf.HarrisModel(H3, [0], ell=3)
    assert model.kernel_powers.shape == (4, 3, 3)
    assert np.allclose(model.k_ell, np.linalg.matrix_power(H3, 3))
    with pytest.raises(PreconditionError) as err:
        cf.HarrisModel(H3, [0], ell=4)
    assert err.value.field == "ell"
    assert "20480 bytes" in str(err.value)
    assert "cap of 16384 bytes" in str(err.value)


def test_kernel_power_count_is_capped_on_small_kernels():
    # one state: ell = 65535 fills the cap with 65536 pages; longer
    # blocks are refused before a single matmul, however cheap each is
    model = cf.HarrisModel([[1.0]], [0], ell=65535)
    assert model.kernel_powers.shape == (65536, 1, 1)
    started = time.perf_counter()
    for ell in (65536, 10 ** 6):
        with pytest.raises(PreconditionError) as err:
            cf.HarrisModel([[1.0]], [0], ell=ell)
        assert err.value.field == "ell"
        assert "at least 4096" in str(err.value)
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# split-chain simulation


def test_deterministic_flip_cycles():
    model = cf.HarrisModel(FLIP2, [0], ell=1)
    run = cf.simulate_split_chain(model, 50, seed=7)
    assert run.n_cycles == 50
    assert np.all(run.lengths == 2)
    assert np.all(run.occupations == 1)
    assert np.all(run.regen_states == 1)
    report = cf.regen_ratio_estimator(run.occupations, run.lengths)
    assert list(report.pi_hat) == [0.5, 0.5]
    assert list(report.standard_errors) == [0.0, 0.0]
    assert report.mean_cycle_length == 2.0


def test_run_is_reproducible():
    model = variant_a()
    a = cf.simulate_split_chain(model, 300, seed=13)
    b = cf.simulate_split_chain(model, 300, seed=13)
    assert np.array_equal(a.occupations, b.occupations)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.regen_states, b.regen_states)
    c = cf.simulate_split_chain(model, 300, seed=14)
    assert not np.array_equal(a.occupations, c.occupations)


def _same_cycles(a, b):
    # byte for byte: counts (and their dtype), lengths, endpoints, steps
    for field in ("occupations", "lengths", "regen_states"):
        assert getattr(a, field).dtype == getattr(b, field).dtype
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.steps == b.steps


def test_recording_does_not_change_the_cycles(monkeypatch):
    # Recording observes the lanes: the recorded run has the unrecorded
    # run's cycles byte for byte, and its path and coins show them, each
    # cycle's slice reproducing its counts and ending in a heads block, in
    # chunks of the default size, of one cycle and of seven
    rng = np.random.default_rng(1402)
    chain = cf.StochasticMatrix(rng.dirichlet(np.full(12, 0.3), size=12))
    markov = cf.HarrisModel(chain.matrix, [0], ell=1, epsilon=1.0,
                            lam=chain.matrix[0])
    h40 = cf.HarrisModel(rng.dirichlet(np.ones(40), size=40), [0, 1, 2],
                         ell=2)
    lane_chunk = cf._stats.lane_chunk
    for model in (variant_a(), variant_c(),
                  cf.HarrisModel(H3, [0, 1], ell=3), h40, markov):
        for chunk in (lane_chunk, lambda n_states: 1, lambda n_states: 7):
            monkeypatch.setattr(cf._stats, "lane_chunk", chunk)
            plain = cf.simulate_split_chain(model, 60, seed=3)
            taped = cf.simulate_split_chain(model, 60, seed=3,
                                            record_trajectory=True)
            assert plain.trajectory is None and plain.marks is None
            _same_cycles(plain, taped)
            path, ell = taped.trajectory, model.ell
            assert path.shape == (taped.steps,)
            ends = np.cumsum(taped.lengths)
            for c in range(60):
                np.testing.assert_array_equal(
                    taped.occupations[c],
                    np.bincount(path[ends[c] - taped.lengths[c]:ends[c]],
                                minlength=model.n))
            last = ends // ell - 1
            assert taped.marks.shape == (ends[-1] // ell,)
            assert np.all(taped.marks[last] == 1)
            assert np.all(np.delete(taped.marks, last) != 1)


def test_trajectory_marks_coins_only_inside_set():
    model = variant_a()
    run = cf.simulate_split_chain(model, 60, seed=3, record_trajectory=True)
    starts = run.trajectory[::model.ell]
    assert starts.shape == run.marks.shape
    inside = run.marks[model.regen_mask[starts]]
    outside = run.marks[~model.regen_mask[starts]]
    assert np.all(inside == 1)  # epsilon 1: the coin always lands on 1
    assert np.all(outside == -1)


def test_cycle_lengths_are_block_multiples():
    model = variant_c()
    run = cf.simulate_split_chain(model, 200, seed=9)
    assert np.all(run.lengths % model.ell == 0)
    assert run.steps == int(run.lengths.sum())


def test_occupations_account_for_every_step():
    model = variant_b()
    run = cf.simulate_split_chain(model, 200, seed=21)
    assert np.array_equal(run.occupations.sum(axis=1), run.lengths)


def test_step_budget_is_enforced():
    model = variant_a()
    with pytest.raises(BudgetExceededError):
        cf.simulate_split_chain(model, 10 ** 6, seed=0, step_budget=500)


def test_split_chain_needs_a_cycle():
    with pytest.raises(PreconditionError):
        cf.simulate_split_chain(variant_a(), 0, seed=0)


# ---------------------------------------------------------------------------
# ratio estimation


def test_estimator_validates_shapes():
    with pytest.raises(PreconditionError):
        cf.regen_ratio_estimator(np.zeros((3, 2)), np.ones(2))
    with pytest.raises(PreconditionError):
        cf.regen_ratio_estimator(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(PreconditionError):
        cf.regen_ratio_estimator(np.ones((2, 2)), np.array([1, 0]))


def test_single_cycle_reports_no_errors():
    report = cf.regen_ratio_estimator(np.array([[2, 1]]), np.array([3]))
    assert report.standard_errors is None
    assert np.abs(report.pi_hat - [2 / 3, 1 / 3]).max() <= 1e-15
    with pytest.raises(PreconditionError):
        cf.z_scores(report, [0.5, 0.5])


def test_estimates_agree_with_exact_law():
    for model in (variant_a(), variant_b(), variant_c()):
        run = cf.simulate_split_chain(model, 3000, seed=101)
        report = cf.regen_ratio_estimator(run.occupations, run.lengths)
        z = cf.z_scores(report, H3_PI)
        assert np.abs(z).max() <= 3.0


def test_z_scores_on_zero_variance_states():
    report = cf.regen_ratio_estimator(np.ones((4, 2), dtype=np.int64),
                                      np.full(4, 2))
    z = cf.z_scores(report, [0.5, 0.5])
    assert list(z) == [0.0, 0.0]
    z = cf.z_scores(report, [0.4, 0.6])
    assert math.isinf(z[0]) and math.isinf(z[1])


def _two_pass_standard_errors(occ, lengths):
    occ = occ.astype(np.float64)
    t = lengths.astype(np.float64)
    resid = occ - occ.sum(axis=0) / t.sum() * t[:, None]
    n = t.shape[0]
    return np.sqrt((resid * resid).sum(axis=0) / (n - 1) / n) / t.mean()


def test_standard_errors_on_long_nearly_equal_cycles():
    # 1000 cycles of length 1e7 + {0, 1, 2}, each split in half: expanded
    # raw moments cancel to nothing here, centred ones keep the two-pass
    # value, in one chunk or merged from several
    lengths = 10 ** 7 + np.arange(1000) % 3
    occ = np.stack([lengths // 2, lengths - lengths // 2], axis=1)
    expected = _two_pass_standard_errors(occ, lengths)
    assert expected.min() > 7e-10
    report = cf.regen_ratio_estimator(occ, lengths)
    assert np.allclose(report.standard_errors, expected, rtol=1e-6, atol=0)
    acc = RatioAccumulator(2)
    for rows in np.array_split(np.arange(1000), 7):
        acc.add(occ[rows], lengths[rows])
    pi_hat, se, mean_len = acc.estimate()
    assert np.array_equal(pi_hat, report.pi_hat)
    assert mean_len == report.mean_cycle_length
    assert np.allclose(se, expected, rtol=1e-6, atol=0)


def test_merged_moments_match_two_pass_on_random_chunks():
    rng = np.random.default_rng(12)
    lengths = rng.geometric(1e-3, size=500)
    occ = rng.binomial(lengths[:, None], [0.2, 0.5, 0.3])
    acc = RatioAccumulator(3)
    acc.add(occ[:0], lengths[:0])
    for rows in np.array_split(rng.permutation(500), 9):
        acc.add(occ[rows], lengths[rows])
    assert acc.n_cycles == 500
    _, se, _ = acc.estimate()
    assert np.allclose(se, _two_pass_standard_errors(occ, lengths),
                       rtol=1e-9, atol=0)


def _add_with_float_copies(acc, occ, lengths):
    # RatioAccumulator.add as it was before one chunk buffer: a float64
    # copy of the counts and a fresh array for each centred term
    occ = np.asarray(occ, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    k = lengths.shape[0]
    if k == 0:
        return
    acc.sum_occ += occ.sum(axis=0)
    acc.sum_len += lengths.sum()
    mean_occ = occ.mean(axis=0)
    mean_len = lengths.mean()
    d_occ = occ - mean_occ
    d_len = lengths - mean_len
    n = acc.n_cycles
    total = n + k
    delta_occ = mean_occ - acc.mean_occ
    delta_len = mean_len - acc.mean_len
    weight = n * k / total
    acc.m2_occ += (d_occ * d_occ).sum(axis=0) + delta_occ ** 2 * weight
    acc.m2_len += (d_len * d_len).sum() + delta_len ** 2 * weight
    acc.cross += ((d_occ * d_len[:, None]).sum(axis=0)
                  + delta_occ * delta_len * weight)
    acc.mean_occ += delta_occ * (k / total)
    acc.mean_len += delta_len * (k / total)
    acc.n_cycles = total


_MOMENTS = ("n_cycles", "sum_occ", "sum_len", "mean_occ", "mean_len",
            "m2_occ", "m2_len", "cross")


def test_one_buffer_add_matches_the_float_copy_add_bit_for_bit():
    rng = np.random.default_rng(3000)
    for k in (1, 2, 3000):
        for n in (1, 3, 300):
            for top in (2, 10 ** 4, 10 ** 7):
                got, want = RatioAccumulator(n), RatioAccumulator(n)
                for _ in range(3):
                    occ = rng.integers(0, top, size=(k, n))
                    lengths = occ.sum(axis=1) + rng.integers(1, top, size=k)
                    got.add(occ, lengths)
                    _add_with_float_copies(want, occ, lengths)
                    for name in _MOMENTS:
                        assert np.asarray(getattr(got, name)).tobytes() == \
                            np.asarray(getattr(want, name)).tobytes(), \
                            (k, n, top, name)
    # non-integer occupations take the float64 path, with the same bits
    occ = rng.random((50, 4)) * 10
    lengths = occ.sum(axis=1) + 1.0
    got, want = RatioAccumulator(4), RatioAccumulator(4)
    got.add(occ.astype(np.float32), lengths)
    _add_with_float_copies(want, occ.astype(np.float32), lengths)
    for name in _MOMENTS:
        assert np.asarray(getattr(got, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name


def test_add_holds_about_one_chunk_beyond_its_input():
    rng = np.random.default_rng(300)
    occ = rng.integers(0, 10 ** 7, size=(3000, 300))
    lengths = occ.sum(axis=1)
    acc = RatioAccumulator(300)
    tracemalloc.start()
    try:
        acc.add(occ, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * occ.nbytes


def _add_with_one_chunk_buffer(acc, occ, lengths):
    # RatioAccumulator.add as it was before the fixed block buffer: integer
    # counts read as they are, each centred term in one float64 buffer of
    # the chunk's shape
    occ = np.asarray(occ)
    if occ.dtype.kind not in "iu":
        occ = occ.astype(np.float64, copy=False)
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu":
        lengths = lengths.astype(np.float64, copy=False)
    k = lengths.shape[0]
    if k == 0:
        return
    acc.sum_occ += occ.sum(axis=0, dtype=np.float64)
    acc.sum_len += lengths.sum(dtype=np.float64)
    mean_occ = occ.mean(axis=0, dtype=np.float64)
    mean_len = lengths.mean(dtype=np.float64)
    d_len = lengths - mean_len
    buf = np.subtract(occ, mean_occ, dtype=np.float64)
    buf *= d_len[:, None]
    cross = buf.sum(axis=0)
    np.subtract(occ, mean_occ, out=buf, dtype=np.float64)
    buf *= buf
    m2_occ = buf.sum(axis=0)
    n = acc.n_cycles
    total = n + k
    delta_occ = mean_occ - acc.mean_occ
    delta_len = mean_len - acc.mean_len
    weight = n * k / total
    acc.m2_occ += m2_occ + delta_occ ** 2 * weight
    acc.m2_len += (d_len * d_len).sum() + delta_len ** 2 * weight
    acc.cross += cross + delta_occ * delta_len * weight
    acc.mean_occ += delta_occ * (k / total)
    acc.mean_len += delta_len * (k / total)
    acc.n_cycles = total


def _same_moments(got, want, case):
    for name in _MOMENTS:
        assert np.asarray(getattr(got, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), (case, name)


def _chunk(rng, dtype, k, n):
    # counts up to 1e7 (the default split-chain budget), or float weights
    if dtype is np.float64:
        occ = rng.random((k, n)) * 1e4
        return occ, occ.sum(axis=1) + rng.random(k) + 1.0
    occ = rng.integers(0, 10 ** 7 // n, size=(k, n), dtype=dtype)
    return occ, occ.sum(axis=1, dtype=np.int64) + rng.integers(1, 100, k)


def test_block_add_matches_the_one_buffer_add_bit_for_bit():
    # 2^15-element blocks: 3000 x 40 and 3000 x 300 cross them (819 and
    # 109 rows a block), 70 000 x {2, 3, 40} cross them with a short last
    # block, and a single column stays one pairwise-summed block at 70 000
    # rows.  70 000 x 300 (21e6 counts a chunk) is left out for its size;
    # the patched-block test below covers every shape at small sizes.
    rng = np.random.default_rng(1400)
    for k in (1, 2, 3000, 70000):
        for n in (1, 2, 3, 40, 300):
            if k * n > 70000 * 40:
                continue
            for dtype in (np.int32, np.int64, np.float64):
                got, want = RatioAccumulator(n), RatioAccumulator(n)
                for _ in range(3):
                    occ, lengths = _chunk(rng, dtype, k, n)
                    got.add(occ, lengths)
                    _add_with_one_chunk_buffer(want, occ, lengths)
                    _same_moments(got, want, (k, n, dtype))


def test_block_add_keeps_its_bits_at_every_block_size(monkeypatch):
    # blocks of one row (a row longer than the buffer), a few rows with a
    # ragged last block, and exact multiples of the chunk
    rng = np.random.default_rng(1401)
    for elements in (1, 7, 64, 600):
        monkeypatch.setattr(cf._stats, "_BLOCK_ELEMENTS", elements)
        for k in (1, 2, 5, 97, 600):
            for n in (1, 2, 3, 40):
                for dtype in (np.int32, np.int64, np.float64):
                    got, want = RatioAccumulator(n), RatioAccumulator(n)
                    for _ in range(3):
                        occ, lengths = _chunk(rng, dtype, k, n)
                        got.add(occ, lengths)
                        _add_with_one_chunk_buffer(want, occ, lengths)
                        _same_moments(got, want, (elements, k, n, dtype))


def test_add_holds_a_fixed_buffer_beyond_its_input():
    # the block buffer is 256 KB whatever the chunk; a chunk-sized float64
    # buffer would be twice the int32 counts
    rng = np.random.default_rng(301)
    occ = rng.integers(0, 10 ** 5, size=(3000, 300), dtype=np.int32)
    lengths = occ.sum(axis=1, dtype=np.int64)
    acc = RatioAccumulator(300)
    tracemalloc.start()
    try:
        acc.add(occ, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * occ.nbytes


# ---------------------------------------------------------------------------
# visit-count storage


def test_counts_are_int32_below_a_budget_of_2_31(monkeypatch):
    model = variant_c()
    run = cf.simulate_split_chain(model, 50, seed=4)
    assert run.occupations.dtype == np.int32
    wide = cf.simulate_split_chain(model, 50, seed=4, step_budget=2 ** 31)
    assert wide.occupations.dtype == np.int64
    np.testing.assert_array_equal(wide.occupations, run.occupations)
    np.testing.assert_array_equal(wide.lengths, run.lengths)
    np.testing.assert_array_equal(wide.regen_states, run.regen_states)
    table, res_rows = model.lane_table()
    args = (model.kernel.matrix, table, model.n, res_rows,
            model.kernel_powers, model.regen_mask, model.epsilon, model.ell)
    monkeypatch.setattr(cf._stats, "lane_chunk", lambda n_states: 4)
    for budget, dtype in ((2 ** 31 - 1, np.int32), (2 ** 31, np.int64)):
        chunks = list(cf._stats.split_chain_chunks(5, 10, budget, args))
        assert [c[0].dtype for c in chunks] == [dtype] * 3


def _shared_kernel(n, seed):
    # half of every row is one law, so every state regenerates with
    # epsilon >= 1/2 and cycles close in about two steps
    rng = np.random.default_rng(seed)
    common = rng.dirichlet(np.ones(n))
    return 0.5 * common + 0.5 * rng.dirichlet(np.ones(n), size=n)


def test_one_chunk_run_keeps_its_counts_without_a_copy():
    model = cf.HarrisModel(_shared_kernel(300, 6), range(300), ell=1)
    model.lane_table()  # built once per model; not part of the run
    tracemalloc.start()
    try:
        run = cf.simulate_split_chain(model, 3000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.occupations.shape == (3000, 300)
    assert run.occupations.dtype == np.int32
    # the counts themselves plus lane state; a concatenated copy would
    # make it at least twice the counts
    assert peak <= 1.5 * run.occupations.nbytes


def test_runs_over_the_count_cap_are_refused_before_drawing(monkeypatch):
    # three states at 4 bytes a count: 100 cycles take 1200 bytes
    monkeypatch.setattr(cf.harris, "MAX_OCCUPATION_BYTES", 1200)
    model = variant_a()
    assert cf.simulate_split_chain(model, 100, seed=1).occupations.nbytes \
        == 1200

    def no_draws(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(cf._kernels, "split_chain_batch", no_draws)
    for cycles, budget, size in ((101, 10 ** 7, 1212),
                                 (100, 2 ** 31, 2400)):
        with pytest.raises(PreconditionError) as err:
            cf.simulate_split_chain(model, cycles, seed=1,
                                    step_budget=budget)
        assert err.value.field == "n_regens"
        assert "take %d bytes" % size in str(err.value)
        assert "cap of 1200 bytes" in str(err.value)


def test_mean_cycle_length_is_one_plus_hit_time():
    # a cycle spans the lam draw through the block that closes the next
    # regeneration: 1 + E_lam[first entry into R counted from time zero]
    # = 1 + (1/2) * 0 + (1/2) * 80/13 = 53/13
    run = cf.simulate_split_chain(variant_a(), 4000, seed=77)
    report = cf.regen_ratio_estimator(run.occupations, run.lengths)
    assert report.mean_cycle_length == pytest.approx(53 / 13, rel=0.05)


# ---------------------------------------------------------------------------
# one law, many regeneration structures


def _cycle_measure_cases():
    # (name, model): the three variants (c is the README's h3), a
    # 40-state kernel of Dirichlet(1) rows with R = {0, 1, 2} and ell = 2,
    # and periodic kernels whose skeleton K^ell has more than one class
    h40 = np.random.default_rng(1).dirichlet(np.ones(40), size=40)
    cycle4 = np.roll(np.eye(4), 1, axis=1)
    return [
        ("a", variant_a()), ("b", variant_b()), ("c", variant_c()),
        ("h40", cf.HarrisModel(h40, [0, 1, 2], ell=2)),
        ("flip ell 2", cf.HarrisModel(FLIP2, [0], ell=2)),
        ("4-cycle ell 2", cf.HarrisModel(cycle4, [0], ell=2)),
        ("4-cycle ell 4", cf.HarrisModel(cycle4, [0], ell=4)),
    ]


def test_split_cycle_measure_normalises_to_the_left_null_law():
    for name, model in _cycle_measure_cases():
        mu = cf.split_cycle_measure(model)
        law = cf.stationary_leftnull(model.kernel, 0)
        gap = np.abs(mu / mu.sum() - law).max()
        assert gap <= 1e-12, name


def test_split_cycle_measure_total_is_the_mean_cycle_length():
    lengths = {name: cf.split_cycle_measure(model).sum()
               for name, model in _cycle_measure_cases()}
    # 1 + E_lam[first entry into R], as in
    # test_mean_cycle_length_is_one_plus_hit_time
    assert lengths["a"] == pytest.approx(53 / 13, rel=1e-14)
    # an aperiodic skeleton meets Kac's identity ell / (epsilon * pi(R))
    assert lengths["b"] == pytest.approx(1 / (0.7 * 38 / 53), rel=1e-14)
    assert lengths["c"] == pytest.approx(2 / (0.5 * 13 / 53), rel=1e-14)
    # a cycle of a periodic kernel is one lap, every state visited once;
    # Kac's ell / (epsilon * pi(R)) would say 4 for the flip, and 8 and
    # 16 for the 4-cycle at ell 2 and 4
    assert lengths["flip ell 2"] == 2.0
    assert lengths["4-cycle ell 2"] == 4.0
    assert lengths["4-cycle ell 4"] == 4.0


def test_split_cycle_measure_of_one_state_is_the_cycle_occupation(
        monkeypatch):
    # two codes for one measure: a chain's cycle counts of base b, and
    # Nummelin's formula for the split chain with R = {b}, ell = 1,
    # epsilon = 1 and lam = P[b].  The chain solves bases of a class of
    # 300 states by LU and of 600 states by GMRES, whose gaps reach a few
    # 1e-14 (up to 2.4e-14 here)
    lu = cf.markov._cycle_occupation
    by_lu = []
    monkeypatch.setattr(
        cf.markov, "_cycle_occupation",
        lambda chain, members, system, base, buf: by_lu.append(base)
        or lu(chain, members, system, base, buf))
    for alpha in (0.2, 1.0):
        for n in (300, 600):
            rng = np.random.default_rng([n, int(10 * alpha)])
            chain = cf.StochasticMatrix(rng.dirichlet(np.full(n, alpha),
                                                      size=n))
            bases = rng.choice(n, size=4, replace=False).tolist()
            del by_lu[:]
            for b in bases:
                occ = cf.cycle_occupation(chain, b)
                mu = cf.split_cycle_measure(cf.HarrisModel(
                    chain, [b], ell=1, epsilon=1.0, lam=chain.matrix[b]))
                gap = np.abs(mu - occ.counts).max() / occ.counts.max()
                assert gap <= 1e-12, (alpha, n, b)
                assert abs(mu.sum() - occ.mean_return) <= \
                    1e-12 * occ.mean_return, (alpha, n, b)
            assert by_lu == (bases if n <= cf.markov._KRYLOV_MIN else [])


def test_split_cycle_measure_agrees_with_the_simulated_cycles():
    model = variant_c()
    run = cf.simulate_split_chain(model, 4000, seed=3)
    mean_visits = run.occupations.sum(axis=0) / run.n_cycles
    se = run.occupations.std(axis=0) / np.sqrt(run.n_cycles)
    z = (mean_visits - cf.split_cycle_measure(model)) / se
    assert np.abs(z).max() <= 4.0


def test_split_cycle_measure_refuses_a_chain_that_need_not_regenerate():
    # state 1 is absorbing and lam charges it: a cycle that enters it
    # never closes
    k = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    model = cf.HarrisModel(k, [0], ell=1)
    with pytest.raises(PreconditionError) as err:
        cf.split_cycle_measure(model)
    assert err.value.field == "R"


def test_split_chain_run_that_need_not_close_is_refused_up_front():
    # the same model: the run is refused before it draws, where it used to
    # spend its whole step budget
    k = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    model = cf.HarrisModel(k, [0], ell=1)
    started = time.perf_counter()
    with pytest.raises(PreconditionError) as err:
        cf.simulate_split_chain(model, 1000, seed=0)
    assert err.value.field == "R"
    assert time.perf_counter() - started < 0.5


def _rescanned_closure(matrix, start_mask):
    # the closure as a loop that rescans every reached row on each pass
    reach = start_mask.copy()
    while True:
        grown = reach | (matrix[reach].max(axis=0) > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def test_forward_closure_matches_the_rescanning_loop():
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 40, 150):
        for density in (0.0, 0.01, 0.05, 0.3):
            support = rng.random((n, n)) < density
            # signed entries: only those above 0 are edges
            m = np.where(support, rng.uniform(-0.5, 1.0, (n, n)), 0.0)
            start = rng.random(n) < 0.1
            start[rng.integers(n)] = True
            before = start.copy()
            for matrix in (m, m.T):
                got = cf.harris._forward_closure(matrix, start)
                assert got.tolist() == _rescanned_closure(matrix,
                                                          start).tolist()
                assert start.tolist() == before.tolist()


def test_closures_of_a_long_cycle_take_one_pass_per_state():
    # the 2000-state cycle i -> i + 1: each pass reaches one more state,
    # so rescanning every reached row on each pass took about 28 s on a
    # 2-vCPU machine
    n = 2000
    k = np.zeros((n, n))
    k[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    model = cf.HarrisModel(k, [0], ell=1)
    started = time.perf_counter()
    cond = cf.harris_conditions(model)
    _, reach = cf.harris._block_reach(model)
    assert time.perf_counter() - started < 2.0
    assert cond.recurrent and reach.all()


def test_false_minorization_cannot_pass_the_exact_crosscheck():
    # epsilon = 0.9 and lam = delta_2 on h3 with R = {0}, ell = 1: K(0, 2)
    # is 0, so the minorization is false, yet the cycle measure of such a
    # structure normalises to the true law all the same
    model = cf.HarrisModel(H3, [0], ell=1, epsilon=0.9, lam=[0.0, 0.0, 1.0])
    assert cf.minorization_residual(model) == pytest.approx(-0.9)
    for check in (lambda: cf.split_cycle_measure(model),
                  lambda: cf.uniqueness_crosscheck([model], H3_PI)):
        with pytest.raises(PreconditionError) as err:
            check()
        assert err.value.field == "epsilon"


def test_split_cycle_measure_solves_only_the_reached_states():
    # R and lam in the first closed class: the second is never reached,
    # and its block of I - Q, singular, stays out of the solve
    k = np.array([[0.5, 0.5, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0],
                  [0.0, 0.0, 0.4, 0.6], [0.0, 0.0, 0.9, 0.1]])
    mu = cf.split_cycle_measure(cf.HarrisModel(k, [0], ell=1))
    assert mu[2:].tolist() == [0.0, 0.0]
    assert np.abs(mu[:2] / mu.sum() - [3 / 8, 5 / 8]).max() <= 1e-15


def test_crosscheck_all_variants_agree():
    rep = cf.uniqueness_crosscheck(
        [variant_a(), variant_b(), variant_c()], H3_PI)
    assert rep.all_passed is True
    assert rep.tolerance == cf.markov.CROSS_FLOOR
    assert max(rep.deviations) <= 1e-12
    assert rep.mean_cycle_lengths == pytest.approx(
        [53 / 13, 1 / (0.7 * 38 / 53), 2 / (0.5 * 13 / 53)], rel=1e-14)


def test_crosscheck_fails_against_another_law():
    rep = cf.uniqueness_crosscheck(
        [variant_a(), variant_b(), variant_c()], H3_PI[[1, 0, 2]])
    assert rep.all_passed is False
    assert min(rep.deviations) > 0.2


def test_crosscheck_takes_no_sampling_knobs():
    params = inspect.signature(cf.uniqueness_crosscheck).parameters
    assert list(params) == ["variants", "pi_exact"]


def test_split_chain_variants_estimate_the_exact_law():
    # the sampler side of uniqueness: every variant's simulated estimate
    # scores within the z gate against the one law
    streams = np.random.SeedSequence(5).spawn(3)
    for model, stream in zip([variant_a(), variant_b(), variant_c()],
                             streams):
        run = cf.simulate_split_chain(model, 2000, stream)
        report = cf.regen_ratio_estimator(run.occupations, run.lengths)
        assert np.abs(cf.z_scores(report, H3_PI)).max() <= 4.0


def test_crosscheck_demands_one_kernel():
    other = cf.HarrisModel(FLIP2, [0], ell=1)
    with pytest.raises(PreconditionError):
        cf.uniqueness_crosscheck([variant_a(), other], H3_PI)


def test_crosscheck_needs_variants():
    with pytest.raises(PreconditionError):
        cf.uniqueness_crosscheck([], H3_PI)


def test_crosscheck_needs_a_law_over_the_kernel_states():
    with pytest.raises(PreconditionError) as err:
        cf.uniqueness_crosscheck([variant_a()], H3_PI[:2])
    assert err.value.field == "pi_exact"


# ---------------------------------------------------------------------------
# goodness of fit


def test_regeneration_draws_follow_lambda():
    run = cf.simulate_split_chain(variant_b(), 3000, seed=19)
    stat, dof, pvalue = cf.regen_distribution_gof(run, variant_b())
    assert dof >= 1
    assert pvalue >= 0.01


def test_mass_off_lambda_support_fails_immediately():
    model = variant_a()
    run = cf.simulate_split_chain(model, 20, seed=1)
    run.regen_states[0] = 2  # lam gives state 2 no mass
    stat, dof, pvalue = cf.regen_distribution_gof(run, model)
    assert pvalue == 0.0 and math.isinf(stat)


def test_block_marginals_follow_the_kernel_power():
    model = variant_c()
    run = cf.simulate_split_chain(model, 2500, seed=29,
                                  record_trajectory=True)
    stat, dof, pvalue = cf.block_marginal_gof(run, model)
    assert dof >= 1
    assert pvalue >= 0.01


def test_block_gof_needs_a_trajectory():
    run = cf.simulate_split_chain(variant_a(), 20, seed=1)
    with pytest.raises(PreconditionError):
        cf.block_marginal_gof(run, variant_a())


def _run_against_a_kernel_without_the_arrow_2_to_0():
    # a recorded run of H3 with R = {0} and ell = 1, and the model of H3
    # with K(2, 0) = 0; every step starts a block
    run = cf.simulate_split_chain(variant_a(), 200, seed=5,
                                  record_trajectory=True)
    k = np.array(H3)
    k[2, 0] = 0.0
    k[2] /= k[2].sum()
    starts = np.bincount(run.trajectory, minlength=3)
    return run, cf.HarrisModel(k, [0], ell=1), starts


def test_block_gof_fails_a_transition_outside_the_kernel_power():
    run, other, starts = _run_against_a_kernel_without_the_arrow_2_to_0()
    assert starts[2] >= 25  # row 2 is tested at the default count
    assert cf.block_marginal_gof(run, other) == (math.inf, 0, 0.0)
    # the run passes against its own kernel
    assert cf.block_marginal_gof(run, variant_a())[2] >= 0.01


def test_block_gof_skips_rows_under_the_minimum_count():
    run, other, starts = _run_against_a_kernel_without_the_arrow_2_to_0()
    # rows 0 and 2 fall under the count, the foreign arrow with row 2;
    # row 1 alone is tested, its three bins giving two degrees of freedom
    assert starts[0] <= starts[2] < starts[1]
    stat, dof, pvalue = cf.block_marginal_gof(run, other,
                                              min_row_count=starts[2] + 1)
    assert math.isfinite(stat) and dof == 2 and pvalue > 0.0
    # every row skipped: nothing is tested
    assert cf.block_marginal_gof(run, other,
                                 min_row_count=starts.max() + 1) == \
        (0.0, 0, 1.0)


def test_bin_merging_respects_totals():
    obs = np.array([1.0, 2.0, 100.0, 50.0])
    exp = np.array([0.5, 1.5, 99.0, 52.0])
    merged_obs, merged_exp = cf.harris._merge_small_bins(obs, exp)
    assert merged_obs.sum() == obs.sum()
    assert merged_exp.sum() == exp.sum()
    assert merged_exp.min() >= 5.0 or len(merged_exp) == 1


def _merge_small_bins_referee(observed, expected, min_expected=5.0):
    # pools the two smallest bins while the smallest is under the floor,
    # sorting the whole pool again after each merge by expected value; a
    # stable sort puts a merged bin before the bins it ties with
    def by_expected(bins):
        return sorted(bins, key=lambda b: b[0])

    bins = by_expected(zip(expected.tolist(), observed.tolist()))
    while len(bins) > 1 and bins[0][0] < min_expected:
        (e0, o0), (e1, o1) = bins[:2]
        bins = by_expected([(e0 + e1, o0 + o1)] + bins[2:])
    exp, obs = zip(*bins)
    return np.array(obs), np.array(exp)


def test_bin_merging_keeps_the_pool_sorted():
    # 1 + 2 = 3 passes 2.5, so the merged bin must move before the next
    # merge: 2.5 and 3 pool next, not 3 and 10
    obs = np.array([7.0, 3.0, 11.0, 4.0])
    exp = np.array([10.0, 2.0, 2.5, 1.0])
    merged_obs, merged_exp = cf.harris._merge_small_bins(obs, exp)
    assert merged_exp.tolist() == [5.5, 10.0]
    assert merged_obs.tolist() == [18.0, 7.0]
    ref_obs, ref_exp = _merge_small_bins_referee(obs, exp)
    assert merged_obs.tolist() == ref_obs.tolist()
    assert merged_exp.tolist() == ref_exp.tolist()
    # the same on random pools of distinct expected values
    rng = np.random.default_rng(712)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        exp = rng.permutation(rng.choice(np.arange(1, 400) / 20.0,
                                         size=size, replace=False))
        obs = rng.permutation(size).astype(np.float64)
        got = cf.harris._merge_small_bins(obs, exp)
        ref = _merge_small_bins_referee(obs, exp)
        assert got[0].tolist() == ref[0].tolist()
        assert got[1].tolist() == ref[1].tolist()


# ---------------------------------------------------------------------------
# the chi-square helper against scipy, used here only as a referee


def _same_tail(got, ref):
    # the closed-form tail and scipy's agree to 1e-12 relative; below
    # 1e-300 both are only required to be negligible
    if ref > 1e-300:
        return abs(got - ref) <= 1e-12 * ref
    return 0.0 <= got <= 1e-299


def test_chi2_upper_tail_matches_chdtrc():
    from scipy.special import chdtrc
    rng = np.random.default_rng(85)
    dofs = np.concatenate([np.arange(1, 401), rng.integers(1, 401, 24000)])
    # the bulk, the far tail and statistics near zero
    scale = np.where(rng.random(dofs.size) < 0.7, dofs,
                     rng.uniform(1.0, 3000.0, dofs.size))
    xs = scale * rng.uniform(0.0, 5.0, dofs.size)
    xs[rng.random(dofs.size) < 0.1] *= 1e-3
    compared = 0
    for k, x in zip(dofs.tolist(), xs.tolist()):
        ref = float(chdtrc(k, x))
        assert _same_tail(cf.harris._chi2_upper_tail(x, k), ref), (k, x)
        compared += ref > 1e-300
    assert compared >= 20000


def test_chi2_upper_tail_edges():
    from scipy.special import chdtrc
    for k in (1, 2, 3, 4, 400):
        assert cf.harris._chi2_upper_tail(0.0, k) == 1.0
    # one and two degrees of freedom are erfc and exp alone
    for x in (1e-8, 0.3, 1.0, 7.5, 60.0, 700.0):
        assert _same_tail(cf.harris._chi2_upper_tail(x, 1),
                          math.erfc(math.sqrt(x / 2)))
        assert _same_tail(cf.harris._chi2_upper_tail(x, 2),
                          math.exp(-x / 2))
        assert _same_tail(cf.harris._chi2_upper_tail(x, 1),
                          float(chdtrc(1, x)))
        assert _same_tail(cf.harris._chi2_upper_tail(x, 2),
                          float(chdtrc(2, x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for k in (1, 2, 3, 40, 400, 10 ** 4):
                for x in (1e5, 1e300, math.inf):
                    assert cf.harris._chi2_upper_tail(x, k) == 0.0
            # many degrees of freedom: no term overflows, and the error
            # grows only with the size of the logarithms summed
            for x in (10.0, 1e4, 1.1e4):
                got = cf.harris._chi2_upper_tail(x, 10 ** 4)
                ref = float(chdtrc(10 ** 4, x))
                assert abs(got - ref) <= 1e-10 * ref


def _bin_tables(rng, count):
    # (observed, expected) tables with equal totals; a third of them
    # observed under another law, so large statistics and tiny p-values
    # occur too
    for _ in range(count):
        k = int(rng.integers(2, 40))
        p = rng.dirichlet(np.full(k, rng.uniform(0.2, 5.0))) + 1e-3
        p /= p.sum()
        total = int(rng.integers(k, 10 ** 6))
        law = rng.dirichlet(np.ones(k)) if rng.random() < 0.3 else p
        yield rng.multinomial(total, law).astype(np.float64), total * p


def test_chisquare_test_matches_scipy_bit_for_bit():
    from scipy import stats
    rng = np.random.default_rng(83)
    for obs, exp in _bin_tables(rng, 1200):
        stat, dof, pvalue = cf.harris._chisquare_test([(obs, exp)])
        ref = stats.chisquare(obs, exp)
        assert dof == obs.shape[0] - 1
        assert stat.hex() == float(ref.statistic).hex()
        assert _same_tail(pvalue, float(ref.pvalue))


def test_pooled_chisquare_test_matches_scipy_bit_for_bit():
    # the pooled form of block_marginal_gof: per-table statistics summed in
    # order, one upper tail on the summed degrees of freedom
    from scipy import stats
    rng = np.random.default_rng(84)
    for _ in range(300):
        tables = list(_bin_tables(rng, int(rng.integers(1, 5))))
        total_stat = 0.0
        total_dof = 0
        for obs, exp in tables:
            total_stat += float(stats.chisquare(obs, exp).statistic)
            total_dof += obs.shape[0] - 1
        stat, dof, pvalue = cf.harris._chisquare_test(tables)
        assert (stat.hex(), dof) == (total_stat.hex(), total_dof)
        assert _same_tail(pvalue, float(stats.chi2.sf(total_stat, total_dof)))


def test_chisquare_test_refuses_mismatched_totals():
    from scipy import stats
    obs = np.array([30.0, 40.0, 30.0])
    for gap, refused in ((1e-10, False), (1e-9, False), (1e-7, True),
                         (1e-3, True), (-1e-7, True)):
        exp = np.array([30.0, 40.0, 30.0 + 100.0 * gap])
        if refused:
            with pytest.raises(InternalInconsistencyError):
                cf.harris._chisquare_test([(obs, exp)])
            with pytest.raises(ValueError):
                stats.chisquare(obs, exp)
        else:
            cf.harris._chisquare_test([(obs, exp)])
            stats.chisquare(obs, exp)
    # a mismatch in any pooled table is refused
    with pytest.raises(InternalInconsistencyError):
        cf.harris._chisquare_test([(obs, obs.copy()), (obs, obs * 1.001)])


def test_chisquare_test_without_degrees_of_freedom():
    assert cf.harris._chisquare_test([]) == (0.0, 0, 1.0)
    one_bin = (np.array([7.0]), np.array([7.0]))
    assert cf.harris._chisquare_test([one_bin, one_bin]) == (0.0, 0, 1.0)
