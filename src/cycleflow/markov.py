"""Finite Markov chains: communicating structure and stationary laws
built from return cycles.

The stationary distribution of a recurrent class is obtained by counting
expected visits during one return cycle of a base state and normalising
by the expected return time.  An independent route (the left null vector
of the transition matrix) is provided purely as a cross-check; the two
must agree to solver precision, and tests hold them to that.
"""

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._stats import RatioAccumulator, chunk_generators, chunk_plan
from .errors import BudgetExceededError, InvariantError, PreconditionError

# dense linear algebra everywhere; refuse sizes where that stops being sane
_MAX_DENSE = 2000

# type-level strictness; file loaders accept 1e-9 and renormalise first
_ROW_SUM_TOL = 1e-12


@dataclass(eq=False)
class StochasticMatrix:
    """Row-stochastic matrix over labelled states.

    Rows must sum to one within 1e-12; entries must be nonnegative and
    finite.  The matrix is stored as given (no silent renormalisation);
    loaders accept sloppier input (1e-9) and renormalise before
    building one.
    """

    matrix: np.ndarray
    states: list = None

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvariantError("transition matrix must be square",
                                 field="matrix")
        if matrix.shape[0] == 0:
            raise InvariantError("transition matrix must be nonempty",
                                 field="matrix")
        if not np.all(np.isfinite(matrix)):
            raise InvariantError("transition entries must be finite",
                                 field="matrix")
        if matrix.min() < 0:
            i, j = np.unravel_index(np.argmin(matrix), matrix.shape)
            raise InvariantError("negative entry", field="matrix[%d][%d]" % (i, j))
        gap = np.abs(matrix.sum(axis=1) - 1.0)
        if gap.max() > _ROW_SUM_TOL:
            raise InvariantError("row does not sum to one (defect %g)"
                                 % gap.max(), field="matrix[%d]" % gap.argmax())
        self.matrix = matrix
        if self.states is None:
            self.states = list(range(matrix.shape[0]))
        elif len(self.states) != matrix.shape[0]:
            raise InvariantError("states length does not match matrix",
                                 field="states")

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def row_cumulative(self):
        cum = getattr(self, "_row_cum", None)
        if cum is None:
            cum = np.cumsum(self.matrix, axis=1)
            self._row_cum = cum
        return cum

    def _check_state(self, i, name):
        if not 0 <= i < self.n:
            raise PreconditionError("state index out of range", field=name)
        return int(i)


@dataclass
class ClassStructure:
    """Communicating classes with recurrence flags.

    Classes are numbered by their smallest member, so ids are stable
    across runs; ``order`` lists class ids topologically (every arrow of
    the condensation points from an earlier class to a later one).
    A class is recurrent exactly when it is closed.
    """

    labels: np.ndarray
    classes: list
    recurrent: np.ndarray
    order: np.ndarray

    @property
    def recurrent_classes(self):
        return [c for c in range(len(self.classes)) if self.recurrent[c]]


def class_structure(chain):
    """Strongly connected classes of the support graph, their closure
    flags and a topological order of the condensation."""
    # scipy is imported on demand: it costs about a second of start-up
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    p = chain.matrix
    n = chain.n
    graph = sp.csr_matrix((p > 0).astype(np.int8))
    n_comp, raw = connected_components(graph, directed=True, connection="strong")
    # renumber components by smallest member state
    first = np.full(n_comp, n, dtype=np.int64)
    for i in range(n):
        first[raw[i]] = min(first[raw[i]], i)
    renum = np.empty(n_comp, dtype=np.int64)
    renum[np.argsort(first, kind="stable")] = np.arange(n_comp)
    labels = renum[raw]
    classes = [np.flatnonzero(labels == c) for c in range(n_comp)]
    recurrent = np.zeros(n_comp, dtype=bool)
    succ = [set() for _ in range(n_comp)]
    for c, members in enumerate(classes):
        rows = p[members]
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        recurrent[c] = not np.any(rows[:, ~mask] > 0)
        for j in np.flatnonzero(rows.max(axis=0) > 0):
            if labels[j] != c:
                succ[c].add(int(labels[j]))
    # Kahn with a heap frontier: deterministic topological order
    indeg = np.zeros(n_comp, dtype=np.int64)
    for c in range(n_comp):
        for d in succ[c]:
            indeg[d] += 1
    frontier = [c for c in range(n_comp) if indeg[c] == 0]
    heapq.heapify(frontier)
    order = []
    while frontier:
        c = heapq.heappop(frontier)
        order.append(c)
        for d in sorted(succ[c]):
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(frontier, d)
    return ClassStructure(labels, classes, recurrent,
                          np.array(order, dtype=np.int64))


class CycleOccupation(NamedTuple):
    base: int
    counts: np.ndarray
    mean_return: float


def _require_dense(chain):
    if chain.n > _MAX_DENSE:
        raise PreconditionError(
            "exact computations are dense and capped at %d states (got %d)"
            % (_MAX_DENSE, chain.n))


def _require_recurrent(chain, structure, base, name="base"):
    if not structure.recurrent[structure.labels[base]]:
        raise PreconditionError(
            "state %r is transient, its expected return time is infinite"
            % (chain.states[base],), field=name)


def cycle_occupation(chain, base):
    """Expected visits to each state during one return cycle of ``base``.

    counts[base] is exactly 1; counts vanish off the class of ``base``;
    the sum of counts is the expected return time.  ``base`` must be
    recurrent.
    """
    _require_dense(chain)
    base = chain._check_state(base, "base")
    structure = class_structure(chain)
    _require_recurrent(chain, structure, base)
    members = structure.classes[structure.labels[base]]
    rest = members[members != base]
    q = chain.matrix[np.ix_(rest, rest)]
    r = chain.matrix[base, rest]
    counts = np.zeros(chain.n)
    counts[base] = 1.0
    if rest.size:
        counts[rest] = np.linalg.solve((np.eye(rest.size) - q).T, r)
    return CycleOccupation(base, counts, float(counts.sum()))


def cycle_stationary(chain, base):
    """Stationary distribution of the class of ``base`` via its return
    cycle: occupation counts divided by the expected return time."""
    occ = cycle_occupation(chain, base)
    return occ.counts / occ.mean_return


def stationary_leftnull(chain, base):
    """Stationary distribution of the class of ``base`` as a left null
    vector of (P - I), normalised to sum one.

    This route never looks at return cycles, so it can referee them.
    """
    _require_dense(chain)
    base = chain._check_state(base, "base")
    structure = class_structure(chain)
    _require_recurrent(chain, structure, base)
    members = structure.classes[structure.labels[base]]
    k = members.size
    a = (chain.matrix[np.ix_(members, members)] - np.eye(k)).T
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.zeros(chain.n)
    pi[members] = np.linalg.solve(a, b)
    return pi


def invariance_residual(chain, pi):
    """Stationarity defect of a distribution: the largest component of
    pi P - pi."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (chain.n,):
        raise PreconditionError("distribution length does not match chain",
                                field="pi")
    return float(np.abs(pi @ chain.matrix - pi).max())


def exchange_residual(chain, first, second):
    """Largest difference between the stationary distributions built from
    the return cycles of two bases of the same recurrent class; the base
    point must not matter."""
    first = chain._check_state(first, "first")
    second = chain._check_state(second, "second")
    structure = class_structure(chain)
    if structure.labels[first] != structure.labels[second]:
        raise PreconditionError(
            "states %r and %r do not communicate"
            % (chain.states[first], chain.states[second]))
    _require_recurrent(chain, structure, first, "first")
    pi_a = cycle_stationary(chain, first)
    pi_b = cycle_stationary(chain, second)
    return float(np.abs(pi_a - pi_b).max())


@dataclass
class DecompositionResult:
    representatives: list
    class_weights: np.ndarray
    transient_mass: float
    residual: float


def convex_decomposition(chain, pi, tol=1e-9):
    """Split an invariant distribution into class weights.

    Any invariant pi is a convex mixture of the unique stationary laws of
    the recurrent classes; the weight of a class is the pi-mass it holds.
    ``pi`` must be invariant within ``tol`` and place no more than ``tol``
    mass on transient states.  Returns one representative base (the
    smallest state) per recurrent class, the weights, and the largest
    component of pi minus the reassembled mixture.
    """
    _require_dense(chain)
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (chain.n,):
        raise PreconditionError("distribution length does not match chain",
                                field="pi")
    if pi.min() < -1e-12 or abs(pi.sum() - 1.0) > tol:
        raise PreconditionError("pi is not a probability distribution",
                                field="pi")
    defect = invariance_residual(chain, pi)
    if defect > tol:
        raise PreconditionError(
            "pi is not invariant (defect %g exceeds %g)" % (defect, tol),
            field="pi")
    structure = class_structure(chain)
    transient = np.ones(chain.n, dtype=bool)
    reps = []
    weights = []
    mixture = np.zeros(chain.n)
    for c in structure.recurrent_classes:
        members = structure.classes[c]
        transient[members] = False
        rep = int(members.min())
        wt = float(pi[members].sum())
        reps.append(rep)
        weights.append(wt)
        if wt > 0:
            mixture += wt * cycle_stationary(chain, rep)
    transient_mass = float(pi[transient].sum())
    if transient_mass > tol:
        raise PreconditionError(
            "invariant distributions place no mass on transient states "
            "(found %g)" % transient_mass, field="pi")
    return DecompositionResult(
        representatives=reps,
        class_weights=np.array(weights),
        transient_mass=transient_mass,
        residual=float(np.abs(pi - mixture).max()),
    )


@dataclass
class CycleEstimate:
    base: int
    n_cycles: int
    seed: int
    pi_hat: np.ndarray
    standard_errors: np.ndarray  # None when fewer than two cycles
    mean_return: float
    steps: int


def simulate_cycle_estimator(chain, base, n_cycles, seed, chunk_size=4096,
                             step_budget=None):
    """Monte Carlo stationary estimate from independent return cycles.

    Cycles are simulated in fixed chunks, each on its own spawned seed
    stream, so results are reproducible and independent of how chunks
    are scheduled.  The ratio estimate and its per-state delta-method
    standard error come from accumulated moments; with a single cycle
    the standard errors are reported as unavailable (None).
    """
    base = chain._check_state(base, "base")
    if n_cycles < 1:
        raise PreconditionError("need at least one cycle", field="n_cycles")
    structure = class_structure(chain)
    _require_recurrent(chain, structure, base)
    if step_budget is None:
        mean_return = cycle_occupation(chain, base).mean_return
        step_budget = int(max(10 ** 6, 50.0 * n_cycles * mean_return))
    row_cum = chain.row_cumulative
    acc = RatioAccumulator(chain.n)
    plan = chunk_plan(n_cycles, chunk_size)
    gens = chunk_generators(seed, len(plan))
    used = 0
    for gen, count in zip(gens, plan):
        occ = np.zeros((count, chain.n), dtype=np.int64)
        lengths = np.zeros(count, dtype=np.int64)
        steps, status = _kernels.markov_cycle_batch(
            gen, row_cum, base, occ, lengths, step_budget - used)
        used += int(steps)
        if status != 0:
            raise BudgetExceededError(
                "step budget %d exhausted after %d steps; the base state "
                "may return too slowly" % (step_budget, used))
        acc.add(occ, lengths)
    pi_hat, se, mean_len = acc.estimate()
    return CycleEstimate(
        base=base,
        n_cycles=n_cycles,
        seed=seed,
        pi_hat=pi_hat,
        standard_errors=se,
        mean_return=mean_len,
        steps=used,
    )
