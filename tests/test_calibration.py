"""Calibration of the statistical gates across replicates.

A digest pins the bytes of one seeded run; these tests check the law of
the gate statistics themselves (simulation-based calibration, Cook,
Gelman & Rubin 2006; Talts et al. 2018).  Under a correct simulator and
a correct delta-method standard error (Asmussen & Glynn 2007, ch. IV)
each z-score is close to N(0, 1), and each regeneration gof p-value is
close to uniform.

The z-scores of one replicate are correlated across states (the
estimates sum to one), so every band is built on per-replicate
statistics, which are independent: for replicate r, a_r = mean_i z_ri,
b_r = mean_i z_ri**2 and c_r = the fraction of states with |z| > 1.96.
Whatever the correlation, Var a_r <= 1, Var b_r <= 2 and
Var c_r <= 0.05 * 0.95, so over S replicates the pooled means lie within

    mean a:  0    +- 4 sqrt(1 / S)
    mean b:  1    +- 4 sqrt(2 / S)        (sd(z) near 1)
    mean c:  0.05 +- 4 sqrt(0.0475 / S)   (the binomial band of S trials)

and the number of gof p-values below 0.05 within 4 binomial standard
deviations of 0.05 S.  Every band is 4 sigma, so a correct simulator
fails one by chance with probability of the order of 1e-4.  The seeds,
replicate counts and bands were fixed from this law before any run.

Cycles are i.i.d. by construction (each lane of the kernel runs its own
cycle from its own lam draw), so consecutive groups of ``_CYCLES`` cycles
of one seeded split-chain run are independent replicates of a
``_CYCLES``-cycle run; one wide run then costs far less than ``_REPLICATES``
short ones.  A kernel with a second closed class outside the cycles'
reach is scored on the states its cycles visit only.  The Markov cycle
estimator returns only its pooled estimate, so it runs once per seed.
"""

import math

import numpy as np
import pytest

import cycleflow as cf
from cycleflow._stats import RatioAccumulator
from conftest import H3, H3_PI

_REPLICATES = 1000
_CYCLES = 200
_CHAIN_SEEDS = range(250)
_CHAIN_CYCLES = 400
_BAND_SIGMAS = 4.0


def _h3():
    # the README kernel with R = {0}, ell = 2, epsilon = 0.5
    return cf.HarrisModel(H3, [0], ell=2, epsilon=0.5), H3_PI


def _ring():
    # a 5-state ring that stays or moves one state on, at rates that
    # differ by state, with R = {0, 1} and ell = 3 (epsilon fitted, 0.6).
    # A block's endpoint pins its two interior states, so a bridge that
    # conditions on the wrong number of steps shifts the occupations; the
    # README kernel mixes in about one step and could not show that
    move = np.array([0.7, 0.5, 0.8, 0.6, 0.9])
    k = np.diag(1.0 - move)
    k[np.arange(5), (np.arange(5) + 1) % 5] = move
    pi = cf.markov.stationary_leftnull(cf.StochasticMatrix(k), 0)
    return cf.HarrisModel(k, [0, 1], ell=3), pi


def _two_classes():
    # two closed classes, R = {0} in the first, ell = 1 (epsilon fitted,
    # 1): the split chain never leaves the first class, so its cycles'
    # law is that class's law and the second class's states score z = 0
    k = np.array([[0.5, 0.5, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0],
                  [0.0, 0.0, 0.4, 0.6], [0.0, 0.0, 0.9, 0.1]])
    pi = cf.markov.stationary_leftnull(cf.StochasticMatrix(k), 0)
    return cf.HarrisModel(k, [0], ell=1), pi


# name: (model and exact stationary law, seed of its one run)
_MODELS = {"h3": (_h3, 1), "ring_ell3": (_ring, 2),
           "two_classes": (_two_classes, 3)}


def _check_z_law(z):
    # z: (replicates, states) z-scores; the pooled per-replicate
    # statistics must lie in their 4-sigma null bands
    s = z.shape[0]
    a = z.mean(axis=1).mean()
    b = (z ** 2).mean(axis=1).mean()
    c = (np.abs(z) > 1.96).mean(axis=1).mean()
    assert abs(a) <= _BAND_SIGMAS * math.sqrt(1.0 / s), a
    assert abs(b - 1.0) <= _BAND_SIGMAS * math.sqrt(2.0 / s), b
    assert abs(c - 0.05) <= _BAND_SIGMAS * math.sqrt(0.0475 / s), c


@pytest.fixture(scope="module")
def replicates():
    # per model: (model, exact law, run of _REPLICATES * _CYCLES cycles)
    out = {}
    for name, (build, seed) in _MODELS.items():
        model, pi = build()
        out[name] = (model, pi, cf.simulate_split_chain(
            model, _REPLICATES * _CYCLES, seed))
    return out


def _groups(run):
    # the run's cycles as _REPLICATES runs of _CYCLES consecutive cycles,
    # each with the estimate of its own cycles
    for g in range(_REPLICATES):
        part = slice(g * _CYCLES, (g + 1) * _CYCLES)
        acc = RatioAccumulator(run.occupations.shape[1])
        acc.add(run.occupations[part], run.lengths[part])
        yield cf.SplitChainRun(
            occupations=run.occupations[part], lengths=run.lengths[part],
            regen_states=run.regen_states[part], estimate=acc.estimate())


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_regen_ratio_z_scores_are_calibrated(replicates, name):
    model, pi, run = replicates[name]
    z = np.array([g.estimate.z_scores(pi) for g in _groups(run)])
    assert z.shape == (_REPLICATES, model.n) and np.all(np.isfinite(z))
    # the law over the states the cycles can visit: the others have se 0
    # and z 0, which would pull every band towards its null
    visited = pi > 0
    assert np.all(z[:, ~visited] == 0)
    _check_z_law(z[:, visited])


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_regen_gof_pvalues_are_calibrated(replicates, name):
    model, _, run = replicates[name]
    pvalues = np.array([cf.regen_distribution_gof(g, model)[2]
                        for g in _groups(run)])
    low = int((pvalues < 0.05).sum())
    sd = math.sqrt(_REPLICATES * 0.05 * 0.95)
    assert abs(low - 0.05 * _REPLICATES) <= _BAND_SIGMAS * sd, low


def test_cycle_estimator_z_scores_are_calibrated():
    # return cycles of base 0 of a 6-state Dirichlet(1) chain, one run per
    # seed, scored against the left-null stationary law
    chain = cf.StochasticMatrix(
        np.random.default_rng(1501).dirichlet(np.ones(6), size=6))
    pi = cf.markov.stationary_leftnull(chain, 0)
    z = []
    for seed in _CHAIN_SEEDS:
        est = cf.simulate_cycle_estimator(chain, 0, _CHAIN_CYCLES, seed)
        z.append(est.z_scores(pi))
    _check_z_law(np.array(z))
