"""Regeneration by splitting: minorization fitting, pinned blocks, and
the regenerative ratio estimator.

A Harris model wraps a transition kernel K with a small set R, a block
length ell, and a minorization  K^ell(x, .) >= epsilon * lam(.)  for
every x in R.  Whenever a block starts inside R, an independent coin
with success probability epsilon decides whether the block ends in a
fresh draw from lam; the interior of the block is then filled from the
bridge law conditioned on both endpoints, so the X-marginal of the chain
is untouched.  Successful coins are regeneration times and the cycles
between them are i.i.d., which is what makes the ratio estimator's
standard error honest.

Blocks are scheduled back to back (starts at 0, ell, 2*ell, ...); visits
to R strictly inside a block never toss the coin.

On a finite kernel, R is entered almost surely from every state exactly
when every closed class of K meets R: ``harris_conditions`` reads that
off the kernel's classes, and solves only for the mean return from lam.

The cycle measure mu(x), the expected visits to x per cycle, is exact
(Nummelin 1978; Meyn & Tweedie, ch. 10).  Block starts that do not
regenerate move by Q = K^ell - epsilon * 1_R (x) lam, and every block,
the closing one too, is a K path over its coin, so
mu = lam (I - Q)^-1 (K^0 + ... + K^(ell-1)), and |mu| is the mean cycle
length.  I - Q is singular on a closed set of Q that misses R, so it is
solved on the states Q reaches from supp(lam), once each can reach R.
Kernel products and solves run on one BLAS thread, so their bits do not
depend on the core count.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._stats import RatioAccumulator, count_dtype, split_chain_chunks
from .errors import (
    InfeasibleMinorizationError,
    InternalInconsistencyError,
    InvariantError,
    PreconditionError,
)
from .markov import (CROSS_FLOOR, StochasticMatrix, _cycle_system,
                     _one_blas_thread, _solve_or_refuse, class_structure)
from .measure import event_mask

_LAM_SUM_TOL = 1e-9
_RESIDUAL_TOL = 1e-12
_DEFAULT_STEP_BUDGET = 10 ** 7
# relative gap allowed between observed and expected chi-square totals
_CHI2_SUM_RTOL = float(np.finfo(np.float64).eps) ** 0.5
# the stack of kernel powers I, K, ..., K^ell is refused beyond this size,
# each power counting as at least one page: that also bounds the number
# of matmuls a small kernel may ask for (ell <= 65535 at one state)
MAX_POWER_BYTES = 2 ** 28
MIN_POWER_BYTES = 4096
# a split-chain run's (cycles x states) visit counts are refused beyond this
# size, before anything is drawn
MAX_OCCUPATION_BYTES = 2 ** 30


def _as_kernel(kernel):
    if isinstance(kernel, StochasticMatrix):
        return kernel
    return StochasticMatrix(np.asarray(kernel, dtype=np.float64))


def _fit(k_ell, idx, ell):
    mins = k_ell[idx].min(axis=0)
    total = float(mins.sum())
    if total <= 0.0:
        raise InfeasibleMinorizationError(
            "rows of K^%d share no common support over the set; no "
            "minorization exists" % ell)
    # one K^ell row of a one-state set can sum to just above 1
    return min(total, 1.0), mins / total


def _kernel_powers(matrix, ell):
    # I, K, ..., K^ell by sequential products on one BLAS thread; the
    # bridge needs every intermediate power
    n = matrix.shape[0]
    size = (ell + 1) * max(n * n * 8, MIN_POWER_BYTES)
    if size > MAX_POWER_BYTES:
        raise PreconditionError(
            "the kernel powers K^0..K^%d of %d states count as %d bytes "
            "(at least %d per power), over the cap of %d bytes"
            % (ell, n, size, MIN_POWER_BYTES, MAX_POWER_BYTES), field="ell")
    powers = np.empty((ell + 1, n, n))
    powers[0] = np.eye(n)
    with _one_blas_thread():
        for s in range(1, ell + 1):
            np.matmul(powers[s - 1], matrix, out=powers[s])
    return powers


class HarrisModel:
    """A kernel with a declared regeneration structure.

    Parameters
    ----------
    kernel : StochasticMatrix or square array
    regen_members : set of state indices (the small set R)
    ell : int
        Block length; the minorization constrains the ell-step kernel.
    epsilon, lam : optional
        Minorization constant and measure.  Whatever is omitted is
        fitted: lam defaults to the normalised columnwise minimum of the
        R rows of K^ell, epsilon to the largest feasible constant for
        the lam in force.  ``fitted_fields`` records what was filled in.

    The minorization itself is not verified at construction; it is a
    check (``minorization_residual``), and the sampling paths refuse to
    run when the residual kernel dips below -1e-12.
    """

    def __init__(self, kernel, regen_members, ell=1, epsilon=None, lam=None):
        self.kernel = _as_kernel(kernel)
        n = self.kernel.n
        self.regen_mask = event_mask(n, regen_members)
        self.regen_indices = tuple(int(i) for i in np.flatnonzero(self.regen_mask))
        if not self.regen_indices:
            raise InvariantError("regeneration set is empty", field="R")
        if not isinstance(ell, (int, np.integer)) or ell < 1:
            raise InvariantError("block length must be a positive integer",
                                 field="ell")
        self.ell = int(ell)
        self.kernel_powers = _kernel_powers(self.kernel.matrix, self.ell)

        fitted = []
        if lam is None:
            fit_epsilon, lam = _fit(self.k_ell, list(self.regen_indices),
                                    self.ell)
            fitted.append("lambda")
            if epsilon is None:
                epsilon = fit_epsilon
                fitted.append("epsilon")
        else:
            lam = np.asarray(lam, dtype=np.float64)
            if lam.shape != (n,):
                raise InvariantError("lambda length does not match kernel",
                                     field="lambda")
            if not np.all(np.isfinite(lam)) or lam.min() < 0:
                raise InvariantError("lambda must be a nonnegative vector",
                                     field="lambda")
            total = lam.sum()
            if abs(total - 1.0) > _LAM_SUM_TOL:
                raise InvariantError(
                    "lambda must sum to one (defect %g)" % abs(total - 1.0),
                    field="lambda")
            lam = lam / total
            if epsilon is None:
                support = lam > 0
                ratios = self.k_ell[np.ix_(self.regen_mask, support)] / lam[support]
                epsilon = float(min(ratios.min(), 1.0))
                if epsilon <= 0.0:
                    raise InfeasibleMinorizationError(
                        "the given lambda is not minorized by any positive "
                        "constant at this block length")
                fitted.append("epsilon")
        epsilon = float(epsilon)
        if not 0.0 < epsilon <= 1.0:
            raise InvariantError("epsilon must lie in (0, 1]", field="epsilon")
        self.epsilon = epsilon
        self.lam = lam
        self.fitted_fields = tuple(fitted)
        self._lane_table = None

    @property
    def n(self):
        return self.kernel.n

    @property
    def k_ell(self):
        return self.kernel_powers[self.ell]

    def residual_rows(self, clip=False):
        """Residual endpoint kernel (K^ell - epsilon*lam) / (1-epsilon) on
        the regeneration rows, clipped at zero and renormalised.

        Entries below -1e-12 mean the declared minorization is false;
        that raises unless ``clip`` asks to repair and carry on.
        """
        n = self.n
        if self.epsilon >= 1.0:
            return np.zeros((n, n))
        res = (self.k_ell - self.epsilon * self.lam) / (1.0 - self.epsilon)
        worst = res[list(self.regen_indices)].min()
        if worst < -_RESIDUAL_TOL and not clip:
            raise InvariantError(
                "residual kernel has entry %g; (epsilon, lambda, ell) do "
                "not minorize K^ell" % worst, field="epsilon")
        res = np.clip(res, 0.0, None)
        rows = np.zeros((n, n))
        for i in self.regen_indices:
            total = res[i].sum()
            if total > 0:
                rows[i] = res[i] / total
            else:
                # epsilon exhausts the row; the residual branch has
                # probability zero of being taken from state i
                rows[i, i] = 1.0
        return rows

    def lane_table(self):
        """(table, res_rows) for the lane kernel: one guide table whose
        rows are the kernel rows, lam at row n, then the residual rows
        of the regeneration set when epsilon < 1, the one of state x at
        row res_rows[x].  Built once per model."""
        if self._lane_table is None:
            n = self.n
            cum = [np.cumsum(self.kernel.matrix, axis=1),
                   np.cumsum(self.lam)[None, :]]
            res_rows = np.zeros(n, dtype=np.intp)
            if self.epsilon < 1.0:
                regen = list(self.regen_indices)
                cum.append(np.cumsum(self.residual_rows()[regen], axis=1))
                res_rows[regen] = np.arange(n + 1, n + 1 + len(regen))
            self._lane_table = (_kernels.guide_table(np.concatenate(cum)),
                                res_rows)
        return self._lane_table


def minorization_residual(model):
    """Smallest entry of K^ell - epsilon*lam over the regeneration rows;
    the declared minorization is genuine iff this is >= -1e-12."""
    idx = np.array(model.regen_indices)
    return float((model.k_ell[idx] - model.epsilon * model.lam).min())


def mixture_residual(model):
    """Largest entrywise defect of epsilon*lam + (1-epsilon)*residual
    against K^ell on the regeneration rows, using the residual rows the
    sampler would actually draw from."""
    recon = model.epsilon * model.lam + (1.0 - model.epsilon) * \
        model.residual_rows(clip=True)
    idx = np.array(model.regen_indices)
    return float(np.abs(recon[idx] - model.k_ell[idx]).max())


@dataclass
class HarrisConditions:
    hit_probability_min: float
    expected_lambda_return: float
    recurrent: bool
    integrable: bool


def _forward_closure(matrix, start_mask):
    # each pass reads only the rows reached on the pass before
    reach = start_mask.copy()
    new = reach
    while new.any():
        new = (matrix[new].max(axis=0) > 0) & ~reach
        reach |= new
    return reach


@_one_blas_thread()
def harris_conditions(model):
    """Reachability and integrability of the regeneration set, from the
    kernel's classes (``markov.class_structure``).

    hit_probability_min, the smallest over states x of the probability
    that the chain from x enters R at a time >= 1, is exactly 1 when
    every closed class meets R and 0 otherwise: a finite chain enters a
    closed class almost surely and then visits each of its states
    infinitely often.  expected_lambda_return, the mean time of first
    entry into R from a lam start, is infinite when lam's forward closure
    holds a closed class that misses R; otherwise every state of the
    closure can reach R, and one solve gives it.
    """
    k = model.kernel.matrix
    structure = class_structure(model.kernel)
    missed = structure.recurrent.copy()   # the closed classes missing R
    missed[structure.labels[model.regen_mask]] = False
    closure = _forward_closure(k, model.lam > 0)
    if missed[structure.labels[closure]].any():
        expected = math.inf
    else:
        idx = np.flatnonzero(closure & ~model.regen_mask)
        w = np.zeros(model.n)
        if idx.size:
            a = np.eye(idx.size) - k[np.ix_(idx, idx)]
            w[idx] = _solve_or_refuse(
                a, np.ones(idx.size), "the first-entry system of R from lambda")
        expected = float(1.0 + model.lam @ (k @ w))
    return HarrisConditions(
        hit_probability_min=0.0 if missed.any() else 1.0,
        expected_lambda_return=expected,
        recurrent=not missed.any(),
        integrable=math.isfinite(expected),
    )


@dataclass(eq=False)
class BridgeLaw:
    """Conditional law of the interior of an ell-step block pinned at
    both ends.  Sequential: given the previous state and the remaining
    step count, the next interior state s has probability proportional
    to K(prev, s) * K^(steps_left-1)(s, end).  ``_kernels._lane_bridge``
    draws this law in the simulator's lanes."""

    model: HarrisModel
    start: int
    end: int

    def __post_init__(self):
        self.start = self.model.kernel._check_state(self.start, "x")
        self.end = self.model.kernel._check_state(self.end, "y")
        if not self.model.k_ell[self.start, self.end] > 0:
            raise PreconditionError(
                "K^%d(%r, %r) = 0: conditional block law undefined"
                % (self.model.ell, self.start, self.end))

    @property
    def length(self):
        return self.model.ell - 1

    def step_distribution(self, position, prev):
        """Law of the interior state at 1-based ``position`` given the
        state before it."""
        if not 1 <= position <= self.length:
            raise PreconditionError("interior position out of range",
                                    field="position")
        kpow = self.model.kernel_powers
        steps_left = self.model.ell - position + 1
        w = self.model.kernel.matrix[prev] * kpow[steps_left - 1][:, self.end]
        return w / kpow[steps_left][prev, self.end]

    def path_probability(self, path):
        """Exact probability of one interior path."""
        path = tuple(int(s) for s in path)
        if len(path) != self.length:
            raise PreconditionError("path length must be ell - 1",
                                    field="path")
        k = self.model.kernel.matrix
        states = (self.start,) + path + (self.end,)
        prob = 1.0
        for a, b in zip(states[:-1], states[1:]):
            prob *= k[a, b]
        return prob / self.model.k_ell[self.start, self.end]

    def enumerate_paths(self):
        """All positive-probability interior paths with their exact
        probabilities; they sum to one."""
        k = self.model.kernel.matrix
        kpow = self.model.kernel_powers

        def walk(prefix, prev, steps_left):
            if steps_left == 1:
                yield prefix
                return
            for s in range(self.model.n):
                if k[prev, s] > 0 and kpow[steps_left - 1][s, self.end] > 0:
                    yield from walk(prefix + (s,), s, steps_left - 1)

        for path in walk((), self.start, self.model.ell):
            yield path, self.path_probability(path)

    def total_mass(self):
        return float(sum(p for _, p in self.enumerate_paths()))


@dataclass
class SplitChainRun:
    """Cycles produced by a split-chain simulation.

    Each cycle runs from its own lam draw to the regeneration that closes
    it.  occupations[c, x] counts visits to x during cycle c (cycle start
    included, closing regeneration excluded); lengths[c] is the cycle
    duration; regen_states[c] is the state drawn from lam at the
    regeneration closing cycle c, which no other cycle visits.
    occupations are int32 when the step budget is below 2**31 (a count
    never exceeds the steps taken) and int64 otherwise
    (``_stats.count_dtype``); lengths and regen_states are int64.  A run
    of one chunk holds that chunk's arrays as they are, with no copy.

    trajectory and marks are kept only when recording was requested, and
    recording changes no draw.  trajectory holds each cycle's visited
    states in order, cycle after cycle, ``steps`` entries in all: with
    ends = cumsum(lengths), cycle c is trajectory[ends[c] - lengths[c]:
    ends[c]], and its endpoint is regen_states[c].  marks holds each
    cycle's lengths[c] // ell block coins in order: 1 for heads (always
    when epsilon = 1), 0 for tails, -1 for a block that starts outside
    the regeneration set.
    """

    n_cycles: int
    seed: object
    occupations: np.ndarray
    lengths: np.ndarray
    regen_states: np.ndarray
    steps: int
    ell: int
    trajectory: np.ndarray = None
    marks: np.ndarray = None


def _joined(chunks):
    # one chunk as it is, several concatenated
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _by_cycle(records):
    # the values of a chunk's (cycles, values) records, stably sorted by
    # cycle: the kernel appends each lane's records in the order it steps
    cycles, values = (np.concatenate(part) for part in zip(*records))
    return values[np.argsort(cycles, kind="stable")]


def simulate_split_chain(model, n_regens, seed, record_trajectory=False,
                         step_budget=_DEFAULT_STEP_BUDGET):
    """Run the split chain until ``n_regens`` cycles close.

    Cycles come from ``_stats.split_chain_chunks`` in fixed chunks of
    ``_stats.lane_chunk(n)`` cycles, one spawned seed stream per chunk;
    chunk k always owns cycles [k*size, (k+1)*size), so the output is
    identical however chunks are scheduled.  A chunk's cycles run side by
    side as lanes of ``_kernels.split_chain_batch``, each from its own
    X_0 ~ lam.  Recording observes those lanes: a recorded run has the
    cycles, steps and draws of the unrecorded run of the same seed, and
    its trajectory and marks are the lanes' records sorted by cycle (see
    ``SplitChainRun``).  A block that starts in R draws no coin when
    epsilon = 1.  No run takes more than ``step_budget`` steps; one that
    would raises ``BudgetExceededError``.  Refused with
    ``PreconditionError`` before anything is drawn: a run whose visit
    counts would take more than ``MAX_OCCUPATION_BYTES``, and a model
    whose cycles need not close (``_block_reach``, field ``R``).
    """
    if n_regens < 1:
        raise PreconditionError("need at least one regeneration",
                                field="n_regens")
    size = int(n_regens) * model.n * np.dtype(count_dtype(step_budget)).itemsize
    if size > MAX_OCCUPATION_BYTES:
        raise PreconditionError(
            "the visit counts of %d cycles over %d states take %d bytes, "
            "over the cap of %d bytes" % (n_regens, model.n, size,
                                          MAX_OCCUPATION_BYTES),
            field="n_regens")
    _block_reach(model)
    table, res_rows = model.lane_table()
    traj = [] if record_trajectory else None
    marks = [] if record_trajectory else None
    chunks, path, coins = [], [], []
    for chunk in split_chain_chunks(
            seed, n_regens, step_budget,
            (model.kernel.matrix, table, model.n, res_rows,
             model.kernel_powers, model.regen_mask, model.epsilon,
             model.ell), traj, marks):
        chunks.append(chunk)
        if record_trajectory:  # each chunk numbers its cycles from 0
            path.append(_by_cycle(traj))
            coins.append(_by_cycle(marks))
            del traj[:], marks[:]
    occ, lengths, regen_states, used = zip(*chunks)
    if record_trajectory:
        traj = np.concatenate(path).astype(np.int64, copy=False)
        marks = np.concatenate(coins).astype(np.int8)
    return SplitChainRun(
        n_cycles=int(n_regens),
        seed=seed,
        occupations=_joined(occ),
        lengths=_joined(lengths),
        regen_states=_joined(regen_states),
        steps=used[-1],
        ell=model.ell,
        trajectory=traj,
        marks=marks,
    )


@dataclass
class RegenReport:
    n_cycles: int
    pi_hat: np.ndarray
    standard_errors: np.ndarray  # None with fewer than two cycles
    mean_cycle_length: float


def regen_ratio_estimator(occupations, lengths):
    """Stationary estimate from regeneration cycles.

    pi_hat is total occupation over total length; standard errors use
    the delta method on i.i.d. (occupation, length) pairs, exact for
    the non-overlapping block schedule.
    """
    occupations = np.asarray(occupations)
    lengths = np.asarray(lengths)
    if occupations.ndim != 2 or lengths.ndim != 1 or \
            occupations.shape[0] != lengths.shape[0]:
        raise PreconditionError("occupations must be (cycles, states) with "
                                "matching lengths", field="occupations")
    if lengths.shape[0] < 1:
        raise PreconditionError("need at least one complete cycle",
                                field="lengths")
    if lengths.min() < 1:
        raise PreconditionError("cycle lengths must be positive",
                                field="lengths")
    acc = RatioAccumulator(occupations.shape[1])
    acc.add(occupations, lengths)
    pi_hat, se, mean_len = acc.estimate()
    return RegenReport(
        n_cycles=int(lengths.shape[0]),
        pi_hat=pi_hat,
        standard_errors=se,
        mean_cycle_length=mean_len,
    )


def z_scores(report, pi_exact):
    """Per-state z-scores of an estimate against an exact distribution.

    Zero-variance states score 0 when they agree exactly and inf when
    they do not; they occur on deterministic cycles.
    """
    if report.standard_errors is None:
        raise PreconditionError("standard errors unavailable with fewer "
                                "than two cycles")
    diff = report.pi_hat - np.asarray(pi_exact, dtype=np.float64)
    se = report.standard_errors
    out = np.empty_like(diff)
    for i in range(diff.shape[0]):
        if se[i] > 0:
            out[i] = diff[i] / se[i]
        else:
            out[i] = 0.0 if diff[i] == 0 else math.inf
    return out


def _block_reach(model):
    """(Q, the states the block chain Q reaches from supp(lam)), Q being
    K^ell - epsilon * 1_R (x) lam; refused with ``PreconditionError``
    (field ``R``) when one of those states cannot reach R under Q, so
    that a split-chain cycle need not close."""
    q = model.k_ell - model.epsilon * np.outer(model.regen_mask, model.lam)
    reach = _forward_closure(q, model.lam > 0)
    if np.any(reach & ~_forward_closure(q.T, model.regen_mask)):
        raise PreconditionError(
            "a block chain started from lambda can stay out of R forever, "
            "so the split chain need not regenerate", field="R")
    return q, reach


@_one_blas_thread()
def split_cycle_measure(model):
    """Expected visits to each state during one split-chain cycle, as
    ``SplitChainRun.occupations`` counts them, from one solve (see the
    module docstring); its total is the mean cycle length.  Refused with
    ``PreconditionError`` when the declared minorization is false
    (``minorization_residual`` below -1e-12, field ``epsilon``): summing
    nu (I - Q) = lam gives epsilon * nu(R) = 1 for any epsilon and lam,
    so the measure would be invariant however false they are.  Refused
    too when a cycle need not close (``_block_reach``)."""
    worst = minorization_residual(model)
    if worst < -_RESIDUAL_TOL:
        raise PreconditionError(
            "K^ell - epsilon * lambda has entry %g on R; (epsilon, lambda, "
            "ell) do not minorize K^ell" % worst, field="epsilon")
    q, reach = _block_reach(model)
    idx = np.flatnonzero(reach)
    nu = np.zeros(model.n)
    nu[idx] = _solve_or_refuse(_cycle_system(q, idx), model.lam[idx],
                               "the block system of the split chain")
    return (nu @ model.kernel_powers[:model.ell]).sum(axis=0)


@dataclass
class CrosscheckReport:
    """Per variant, in order: the largest gap between its normalised
    cycle measure and the exact law, and its exact mean cycle length."""

    deviations: list
    mean_cycle_lengths: list
    tolerance: float
    all_passed: bool


def uniqueness_crosscheck(variants, pi_exact):
    """Every regeneration structure over one kernel must generate the
    same stationary law: each variant's ``split_cycle_measure``,
    normalised, must lie within ``markov.CROSS_FLOOR`` of ``pi_exact``,
    a law computed another way (say ``markov.stationary_leftnull``)."""
    variants = list(variants)
    if not variants:
        raise PreconditionError("no variants given", field="variants")
    base = variants[0].kernel.matrix
    if any(not np.array_equal(v.kernel.matrix, base) for v in variants):
        raise PreconditionError(
            "variants must share one kernel; uniqueness across "
            "constructions is only defined for a single chain")
    pi_exact = np.asarray(pi_exact, dtype=np.float64)
    if pi_exact.shape != (base.shape[0],):
        raise PreconditionError("pi_exact length does not match the kernel",
                                field="pi_exact")
    measures = [split_cycle_measure(model) for model in variants]
    lengths = [float(mu.sum()) for mu in measures]
    deviations = [float(np.abs(mu / total - pi_exact).max())
                  for mu, total in zip(measures, lengths)]
    return CrosscheckReport(
        deviations=deviations,
        mean_cycle_lengths=lengths,
        tolerance=CROSS_FLOOR,
        all_passed=all(d <= CROSS_FLOOR for d in deviations),
    )


# ---------------------------------------------------------------------------
# goodness of fit on simulated runs


def _merge_small_bins(observed, expected, min_expected=5.0):
    """Greedily pool the smallest expected bins until all pass the usual
    chi-square validity floor.  Returns (observed, expected) arrays."""
    order = np.argsort(expected)
    obs = list(observed[order].astype(np.float64))
    exp = list(expected[order])
    while len(exp) > 1 and exp[0] < min_expected:
        exp[1] += exp[0]
        obs[1] += obs[0]
        del exp[0], obs[0]
        # keep the pool sorted; only the merged bin can be out of place
        for i in range(len(exp) - 1):
            if exp[i] <= exp[i + 1]:
                break
            exp[i], exp[i + 1] = exp[i + 1], exp[i]
            obs[i], obs[i + 1] = obs[i + 1], obs[i]
    return np.array(obs), np.array(exp)


def _chi2_upper_tail(x, dof):
    """Upper tail Q(x; dof) of the chi-square law with a positive integer
    number of degrees of freedom, in closed form (Abramowitz & Stegun
    26.4.4-26.4.5).  With y = x/2 and m = dof // 2,

        even dof:  Q = sum_{j<m} e^-y y^j / j!
        odd dof:   Q = erfc(sqrt(y)) + sum_{j<m} e^-y y^(j+1/2) / Gamma(j+3/2)

    Each term is exponentiated from its logarithm, so no factorial or
    power overflows, and the positive terms are summed with ``math.fsum``.
    The rounding of those logarithms bounds the relative error by a few
    eps * dof * log(x): under 1e-12 up to 400 degrees of freedom.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    half = (dof % 2) * 0.5
    terms = [math.exp((j + half) * log_y - y - math.lgamma(j + half + 1.0))
             for j in range(dof // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


def _chisquare_test(tables):
    """Pooled Pearson chi-square test over (observed, expected) bin tables.

    Each table of two or more bins adds sum((o - e)**2 / e) to the
    statistic and its bin count less one to the degrees of freedom;
    tables of one bin add nothing.  Returns (statistic, dof, pvalue), the
    p-value being the upper chi-square tail ``_chi2_upper_tail(statistic,
    dof)``, or (0.0, 0, 1.0) with no degrees of freedom.  Observed and
    expected totals that differ by more than sqrt(eps) relative are an
    internal inconsistency, refused as ``scipy.stats.chisquare`` refuses
    them.
    """
    stat = 0.0
    dof = 0
    for obs, exp in tables:
        if obs.shape[0] < 2:
            continue
        total_obs = obs.sum()
        total_exp = exp.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = abs(total_obs - total_exp) / min(total_obs, total_exp)
        if gap > _CHI2_SUM_RTOL:
            raise InternalInconsistencyError(
                "chi-square bins: observed total %r and expected total %r "
                "differ by %g relative" % (float(total_obs),
                                           float(total_exp), gap))
        stat += float(np.sum((obs - exp) ** 2 / exp))
        dof += obs.shape[0] - 1
    if dof == 0:
        return 0.0, 0, 1.0
    return stat, dof, _chi2_upper_tail(stat, dof)


def regen_distribution_gof(run, model):
    """Chi-square test of the states observed at regenerations against
    lam.  Returns (statistic, dof, pvalue); mass observed outside the
    support of lam is an immediate failure (pvalue 0)."""
    counts = np.bincount(run.regen_states, minlength=model.n).astype(np.float64)
    support = model.lam > 0
    if counts[~support].sum() > 0:
        return math.inf, 0, 0.0
    expected = run.n_cycles * model.lam[support]
    return _chisquare_test([_merge_small_bins(counts[support], expected)])


def block_marginal_gof(run, model, min_row_count=25):
    """Chi-square test that block-start transitions follow K^ell.

    The split must be invisible at the X level: looking only at states
    sampled every ell steps, transition frequencies from each start
    state match the corresponding K^ell row.  Each block is paired with
    the next start of its cycle, and the last block of cycle c with
    regen_states[c].  Rows with fewer than ``min_row_count`` starts are
    skipped; per-row Pearson statistics are pooled.  Needs a recorded
    trajectory.
    """
    if run.trajectory is None:
        raise PreconditionError("block test needs a recorded trajectory",
                                field="run")
    # cycle lengths are block multiples, so the blocks start every ell
    # steps and cycle c's last one is block cumsum(lengths)[c] / ell - 1
    pairs_from = run.trajectory[::run.ell]
    pairs_to = np.empty_like(pairs_from)
    pairs_to[:-1] = pairs_from[1:]
    pairs_to[np.cumsum(run.lengths) // run.ell - 1] = run.regen_states
    k_ell = model.kernel_powers[model.ell]
    tables = []
    for s in range(model.n):
        sel = pairs_from == s
        count = int(sel.sum())
        if count < min_row_count:
            continue
        observed = np.bincount(pairs_to[sel], minlength=model.n).astype(np.float64)
        support = k_ell[s] > 0
        if observed[~support].sum() > 0:
            return math.inf, 0, 0.0
        tables.append(_merge_small_bins(observed[support],
                                        count * k_ell[s][support]))
    return _chisquare_test(tables)
