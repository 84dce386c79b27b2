"""Regeneration by splitting: minorization fitting, the split chain's
regenerative estimate and its exact cycle measure.

A Harris model wraps a transition kernel K with a small set R, a block
length ell, and a minorization  K^ell(x, .) >= epsilon * lam(.)  for
every x in R.  Whenever a block starts inside R, an independent coin
with success probability epsilon decides whether the block ends in a
fresh draw from lam; the interior of the block is then filled from the
bridge law conditioned on both endpoints, so the X-marginal of the chain
is untouched.  Successful coins are regeneration times and the cycles
between them are i.i.d., which is what makes the standard errors of the
run's ``_stats.RatioEstimate`` honest.

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
When the kernel has one invariant law, every regeneration structure
over it gives that law as mu / |mu|: comparing ``split_cycle_measure``
across structures checks uniqueness.  ``bridge_mass`` sums the bridge
law's interior paths from K entries alone, against K^ell.
Kernel products and solves run on one BLAS thread, so their bits do not
depend on the core count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._stats import (RatioAccumulator, RatioEstimate, count_dtype,
                     split_chain_chunks)
from .errors import (
    InfeasibleMinorizationError,
    InternalInconsistencyError,
    InvariantError,
    PreconditionError,
    check_entries,
)
from .markov import (_ROW_SUM_TOL, StochasticMatrix, _cycle_system,
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


@dataclass(frozen=True, eq=False)
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
    source : str, optional
        The file the model was loaded from, for reports.

    The model is frozen (``dataclasses.replace`` builds another); it keeps
    R as the sorted tuple ``regen_indices``, and ``lam``, ``regen_mask``,
    ``kernel_powers`` and each table derived from them are read-only.

    The minorization itself is not verified at construction; it is a
    check (``minorization_residual``), and ``simulate_split_chain`` and
    ``split_cycle_measure`` refuse a model on which it dips below -1e-12.
    """

    kernel: StochasticMatrix
    regen_members: tuple
    ell: int = 1
    epsilon: float = None
    lam: np.ndarray = None
    source: str = None

    def __post_init__(self):
        kernel, epsilon, lam = self.kernel, self.epsilon, self.lam
        if not isinstance(kernel, StochasticMatrix):
            kernel = StochasticMatrix(kernel)
        n = kernel.n
        regen_mask = event_mask(n, self.regen_members, "R")
        regen_indices = tuple(int(i) for i in np.flatnonzero(regen_mask))
        if not regen_indices:
            raise InvariantError("regeneration set is empty", field="R")
        if (isinstance(self.ell, bool)
                or not isinstance(self.ell, (int, np.integer))
                or self.ell < 1):
            raise InvariantError("block length must be a positive integer",
                                 field="ell")
        ell = int(self.ell)
        powers = _kernel_powers(kernel.matrix, ell)

        fitted = []
        if lam is None:
            fit_epsilon, lam = _fit(powers[ell], list(regen_indices), ell)
            fitted.append("lambda")
            if epsilon is None:
                epsilon = fit_epsilon
                fitted.append("epsilon")
        else:
            lam = np.array(lam, dtype=np.float64)
            if lam.shape != (n,):
                raise InvariantError("lambda length does not match kernel",
                                     field="lambda")
            total = check_entries(lam, "lambda").sum()
            if abs(total - 1.0) > _LAM_SUM_TOL:
                raise InvariantError(
                    "lambda must sum to one (defect %g)" % abs(total - 1.0),
                    field="lambda")
            # a lambda normalised already (a fitted one among them) is
            # kept to the bit, so replace() leaves the model as it was
            if abs(total - 1.0) > _ROW_SUM_TOL:
                lam /= total
            if epsilon is None:
                support = lam > 0
                ratios = powers[ell][np.ix_(regen_mask, support)] / lam[support]
                epsilon = float(min(ratios.min(), 1.0))
                if epsilon <= 0.0:
                    raise InfeasibleMinorizationError(
                        "the given lambda is not minorized by any positive "
                        "constant at this block length")
                fitted.append("epsilon")
        epsilon = float(epsilon)
        if not 0.0 < epsilon <= 1.0:
            raise InvariantError("epsilon must lie in (0, 1]", field="epsilon")
        lam.flags.writeable = regen_mask.flags.writeable = False
        powers.flags.writeable = False
        for name, value in (("kernel", kernel), ("regen_members", regen_indices),
                            ("regen_indices", regen_indices),
                            ("regen_mask", regen_mask), ("ell", ell),
                            ("kernel_powers", powers), ("epsilon", epsilon),
                            ("lam", lam), ("fitted_fields", tuple(fitted))):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.kernel.n

    @property
    def k_ell(self):
        return self.kernel_powers[self.ell]

    @cached_property
    def residual_rows(self):
        """Residual endpoint kernel (K^ell - epsilon*lam) / (1-epsilon) on
        the regeneration rows, clipped at zero and renormalised; zero off
        R, and everywhere when epsilon = 1.  Under a false minorization
        the clip changes the rows: the sampler refuses such a model before
        it draws, and ``mixture_residual`` measures what the clip lost."""
        rows = np.zeros((self.n, self.n))
        if self.epsilon < 1.0:
            idx = np.array(self.regen_indices)
            res = np.clip((self.k_ell[idx] - self.epsilon * self.lam)
                          / (1.0 - self.epsilon), 0.0, None)
            total = res.sum(axis=1)
            live = total > 0
            rows[idx[live]] = res[live] / total[live, None]
            # epsilon exhausts the other rows; the residual branch has
            # probability zero of being taken from their states
            rows[idx[~live], idx[~live]] = 1.0
        rows.flags.writeable = False
        return rows

    @cached_property
    def lane_table(self):
        """(table, res_rows) for the lane kernel: one guide table whose
        rows are the kernel rows, lam at row n, then the residual rows
        of the regeneration set when epsilon < 1, the one of state x at
        row res_rows[x].  Built once per model; every array is read-only."""
        n = self.n
        cum = [np.cumsum(self.kernel.matrix, axis=1),
               np.cumsum(self.lam)[None, :]]
        res_rows = np.zeros(n, dtype=np.intp)
        if self.epsilon < 1.0:
            regen = list(self.regen_indices)
            cum.append(np.cumsum(self.residual_rows[regen], axis=1))
            res_rows[regen] = np.arange(n + 1, n + 1 + len(regen))
        res_rows.flags.writeable = False
        return _kernels.guide_table(np.concatenate(cum)), res_rows


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
        model.residual_rows
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


def bridge_mass(model, x, y):
    """Total probability of the interior paths of an ell-step block
    pinned at x and y (ell >= 2), which the bridge law makes one.  Each
    path's K product is formed left to right by broadcasting, divided by
    K^ell(x, y), and the n**(ell-1) paths are summed one by one in
    lexicographic order: no power other than that divisor is read, so the
    sum checks K^ell.  Refused when K^ell(x, y) = 0."""
    x = model.kernel._check_state(x, "x")
    y = model.kernel._check_state(y, "y")
    if model.ell < 2:
        raise PreconditionError("a block of one step has no interior",
                                field="ell")
    total = model.k_ell[x, y]
    if not total > 0:
        raise PreconditionError(
            "K^%d(%r, %r) = 0: conditional block law undefined"
            % (model.ell, x, y))
    k = model.kernel.matrix
    w = k[x]
    for _ in range(model.ell - 2):
        w = w[..., None] * k
    return float(sum((w * k[:, y] / total).ravel().tolist()))


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
    estimate is the run's ``_stats.RatioEstimate``, folded chunk by chunk.
    """

    seed: object
    occupations: np.ndarray
    lengths: np.ndarray
    regen_states: np.ndarray
    estimate: RatioEstimate


def _joined(chunks):
    # one chunk as it is, several concatenated
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def simulate_split_chain(model, n_regens, seed,
                         step_budget=_DEFAULT_STEP_BUDGET):
    """Run the split chain until ``n_regens`` cycles close.

    Cycles come from ``_stats.split_chain_chunks`` in fixed chunks of
    ``_stats.lane_chunk(n)`` cycles, one spawned seed stream per chunk;
    chunk k always owns cycles [k*size, (k+1)*size), so the output is
    identical however chunks are scheduled.  A chunk's cycles run side by
    side as lanes of ``_kernels.split_chain_batch``, each from its own
    X_0 ~ lam, and folded into the run's ``estimate`` by a
    ``RatioAccumulator``.  A block that starts in R draws no coin when
    epsilon = 1.  No run takes more than ``step_budget`` steps; one that
    would raises ``BudgetExceededError``.  Refused with
    ``PreconditionError`` before anything is drawn: a run whose visit
    counts would take more than ``MAX_OCCUPATION_BYTES``, then, as in
    ``split_cycle_measure``, a false minorization (field ``epsilon``) and
    a model whose cycles need not close (field ``R``; ``_block_reach``).
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
    table, res_rows = model.lane_table
    acc = RatioAccumulator(model.n)
    chunks = []
    for chunk in split_chain_chunks(
            seed, n_regens, step_budget,
            (model.kernel.matrix, table, model.n, res_rows,
             model.kernel_powers, model.regen_mask, model.epsilon,
             model.ell)):
        acc.add(chunk[0], chunk[1])
        chunks.append(chunk)
    occ, lengths, regen_states = zip(*chunks)
    return SplitChainRun(
        seed=seed,
        occupations=_joined(occ),
        lengths=_joined(lengths),
        regen_states=_joined(regen_states),
        estimate=acc.estimate(),
    )


def _block_reach(model):
    """(Q, the states the block chain Q reaches from supp(lam)), Q being
    K^ell - epsilon * 1_R (x) lam.  Refused with ``PreconditionError``:
    first a false minorization (``minorization_residual`` below -1e-12,
    field ``epsilon``), then a state of that reach that cannot reach R
    under Q (field ``R``), so that a split-chain cycle need not close."""
    worst = minorization_residual(model)
    if worst < -_RESIDUAL_TOL:
        raise PreconditionError(
            "K^ell - epsilon * lambda has entry %g on R; (epsilon, lambda, "
            "ell) do not minorize K^ell" % worst, field="epsilon")
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
    q, reach = _block_reach(model)
    idx = np.flatnonzero(reach)
    nu = np.zeros(model.n)
    nu[idx] = _solve_or_refuse(_cycle_system(q, idx), model.lam[idx],
                               "the block system of the split chain")
    return (nu @ model.kernel_powers[:model.ell]).sum(axis=0)


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
    expected = run.estimate.n_cycles * model.lam[support]
    return _chisquare_test([_merge_small_bins(counts[support], expected)])
