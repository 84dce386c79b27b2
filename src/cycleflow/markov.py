"""Finite Markov chains: communicating structure and stationary laws
built from return cycles.

The stationary distribution of a recurrent class is obtained by counting
expected visits during one return cycle of a base state and normalising
by the expected return time.  An independent route (the left null vector
of the transition matrix) is provided purely as a cross-check; the two
must agree to solver precision, and tests hold them to that.

The visit counts y of base b solve y (I - Q_b) = P[b], Q_b being the
class block of P less row and column b.  Each base is solved on its own:
by LU in a class of at most ``_KRYLOV_MIN`` states, by GMRES in a larger
one, where a base costs a few dozen products with the class block
instead of a factorisation; bases run side by side as the rows of a
block whose product bits do not depend on their place in it (see
``_fill_occupations``).  A base whose GMRES row has not stopped by step
``_KRYLOV_STEPS``, or whose solution's normwise backward error exceeds
``_KRYLOV_BOUND``, is solved by LU after all.
"""

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._stats import RatioAccumulator, split_chain_chunks
from .errors import InvariantError, PreconditionError, check_entries

# dense linear algebra everywhere; refuse sizes where that stops being sane
_MAX_DENSE = 2000

# type-level strictness; file loaders accept 1e-9 and renormalise first
_ROW_SUM_TOL = 1e-12
# floor of the tolerance for a check whose two sides come from separate
# linear solves; a tolerance looser than it still wins
CROSS_FLOOR = 1e-10
# bytes the side-by-side occupation solves may take: an LU worker holds a
# system buffer of side**2 float64 and numpy's copy of it, a GMRES worker
# the Krylov bases of its block
SOLVE_POOL_BYTES = 512 * 2 ** 20
# classes above this many states solve their cycle systems by GMRES, a
# class's bases as the rows of blocks of _KRYLOV_WIDTH.  A step takes one
# matrix product of the block, zero-padded to _KRYLOV_WIDTH rows, with
# the class block; a Dirichlet(0.2) class takes 16-20 steps, a class
# entered through a 9-state path 27.  A row that has not stopped by step
# _KRYLOV_STEPS is solved by LU.  The width is a multiple of 12: with
# OpenBLAS's SkylakeX dgemm kernel only such heights give a row's product
# the same bits at every position of the block, whatever its block-mates
# (16 rows gave other bits at rows 12-15)
_KRYLOV_MIN = 512
_KRYLOV_WIDTH = 12
_KRYLOV_STEPS = 32
_EPS = float(np.finfo(np.float64).eps)
# a GMRES solution with a larger normwise backward error is not taken;
# measured 1.6-7.1 eps on Dirichlet(0.2) classes of 520-2000 states,
# growing with the class as the rounding of the residual itself does
_KRYLOV_BOUND = 16 * _EPS


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic matrix over labelled states.

    Rows must sum to one within 1e-12; entries must be nonnegative and
    finite.  The chain keeps a read-only copy of the matrix as given (no
    silent renormalisation), so the tables derived from it are computed
    once per chain; loaders accept sloppier input (1e-9) and renormalise
    before building one.
    """

    # the document kind; a class attribute, not a field
    kind = "markov_chain"

    matrix: np.ndarray
    states: list = None
    source: str = None

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvariantError("transition matrix must be square",
                                 field="matrix")
        if matrix.shape[0] == 0:
            raise InvariantError("transition matrix must be nonempty",
                                 field="matrix")
        check_entries(matrix, "matrix")
        gap = np.abs(matrix.sum(axis=1) - 1.0)
        if gap.max() > _ROW_SUM_TOL:
            raise InvariantError("row does not sum to one (defect %g)"
                                 % gap.max(), field="matrix[%d]" % gap.argmax())
        n = matrix.shape[0]
        states = list(range(n) if self.states is None else self.states)
        if len(states) != n:
            raise InvariantError("states length does not match matrix",
                                 field="states")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "states", states)

    @property
    def n(self):
        return self.matrix.shape[0]

    @functools.cached_property
    def row_guide(self):
        """Guide table of the cumulative rows, for the lane kernel; its
        first array holds the running sums of each row."""
        return _kernels.guide_table(np.cumsum(self.matrix, axis=1))

    @functools.cached_property
    def structure(self):
        """The chain's ``ClassStructure``, as ``class_structure`` gives it."""
        return _class_structure(self.matrix)

    @functools.cached_property
    def occupations(self):
        """The ``CycleOccupation`` of each base solved so far, by base
        (``_fill_occupations`` fills it)."""
        return {}

    def _check_state(self, i, name):
        if not 0 <= i < self.n:
            raise PreconditionError("state index out of range", field=name)
        return int(i)


@dataclass(frozen=True)
class ClassStructure:
    """Communicating classes with recurrence flags.

    Classes are numbered by their smallest member, so ids are stable
    across runs.  A class is recurrent exactly when it is closed.  Kept
    on its chain, it is frozen, with a tuple of read-only class arrays.
    """

    labels: np.ndarray
    classes: tuple
    recurrent: np.ndarray

    @property
    def recurrent_classes(self):
        return [c for c in range(len(self.classes)) if self.recurrent[c]]


def class_structure(chain):
    """Strongly connected classes of the support graph and their closure
    flags.

    The result is computed once per chain, which owns a read-only copy of
    its matrix, and kept on it as ``chain.structure``.
    """
    return chain.structure


def _strong_components(n, rows, cols):
    """Strongly connected components of the graph whose edges are
    ``rows[k] -> cols[k]``, sorted by source (CSR order).  Returns
    (count, raw labels) with arbitrary label numbers.

    Tarjan (SIAM J. Comput. 1(2), 1972) with an explicit call stack, so
    no recursion however long the paths.  A resumed vertex finds its
    next unvisited successor with one scan of the rest of its edge
    segment; a finished vertex takes its low link from all successors at
    once, those already in a component having had theirs raised to n,
    above every index.  Taking the low links of the successors still on
    the stack rather than their indices leaves the roots, and so the
    components, unchanged.  That is O(n) numpy calls over at most 2n
    edge segments, so no more element work than reading a dense n x n
    support once or twice.
    """
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    index = np.full(n, -1, dtype=np.int64)
    low = np.empty(n, dtype=np.int64)
    raw = np.empty(n, dtype=np.int64)
    stack = []               # visited vertices not yet in a component
    depth = [0] * n          # where each vertex sits on ``stack``
    call = []                # the search path: [vertex, next edge to scan]
    ticket = itertools.count()
    n_comp = 0

    def visit(v):
        index[v] = low[v] = next(ticket)
        depth[v] = len(stack)
        stack.append(v)
        call.append([v, starts[v]])

    for root in range(n):
        if index[root] >= 0:
            continue
        visit(root)
        while call:
            frame = call[-1]
            v, at = frame
            end = starts[v + 1]
            seg = cols[at:end]
            fresh = np.flatnonzero(index[seg] < 0)
            if fresh.size:
                frame[1] = at + int(fresh[0]) + 1
                visit(int(seg[fresh[0]]))
                continue
            call.pop()
            low[v] = low[cols[starts[v]:end]].min(initial=index[v])
            if low[v] == index[v]:
                members = stack[depth[v]:]
                del stack[depth[v]:]
                raw[members] = n_comp
                low[members] = n
                n_comp += 1
    return n_comp, raw


def _class_structure(p):
    n = p.shape[0]
    rows, cols = np.nonzero(p > 0)
    n_comp, raw = _strong_components(n, rows, cols)
    # renumber components by smallest member state
    first = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(n))
    renum = np.empty(n_comp, dtype=np.int64)
    renum[np.argsort(first, kind="stable")] = np.arange(n_comp)
    labels = renum[raw]
    # members of each class in increasing order, sliced out of one sort
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
    order = np.argsort(labels, kind="stable")
    # a class is closed when no support edge leaves it
    src, dst = labels[rows], labels[cols]
    recurrent = np.ones(n_comp, dtype=bool)
    recurrent[src[src != dst]] = False
    # read-only before the split, so every class view is read-only too
    order.flags.writeable = labels.flags.writeable = False
    recurrent.flags.writeable = False
    return ClassStructure(labels, tuple(np.split(order, ends[:-1])), recurrent)


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
    recurrent.  The result is computed once per chain and base and kept
    in ``chain.occupations``, so its counts are read-only.
    """
    _require_dense(chain)
    base = chain._check_state(base, "base")
    structure = class_structure(chain)
    _require_recurrent(chain, structure, base)
    return _fill_occupations(chain, structure, [base])[0]


def _fill_occupations(chain, structure, bases):
    """``cycle_occupation`` of each of ``bases``, recurrent states of the
    chain's class ``structure``, in order.

    Each distinct base not yet in ``chain.occupations`` gets its own
    solve of y (I - Q_b) = P[b] with Q_b the class block of P less row
    and column b, so no two bases share a factorisation or any other
    arithmetic.

    A base whose class has at most ``_KRYLOV_MIN`` states is solved by
    LU.  A larger class's bases are solved by GMRES (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7(3), 1986), ``_KRYLOV_WIDTH`` at a time
    as the rows of one block cut from the sorted missing bases of the
    class (see ``_krylov_occupations``).  A step takes one product of
    the block, zero-padded to ``_KRYLOV_WIDTH`` rows, with the class
    block P_c; at that height, and with BLAS pinned to one thread, a
    row's product has the same bits at every position whatever its
    block-mates, and every other operation is elementwise or a
    reduction within its row.  A row's bits therefore depend only on its
    base, so a base solved alone gets the bits it gets in any block; the
    tests hold it to that.  A base whose GMRES row has not stopped by
    step ``_KRYLOV_STEPS``, or misses the backward-error bound
    ``_KRYLOV_BOUND``, is solved by LU, so whether a base takes LU
    depends on its own row alone, not on what else is asked for.  A
    class that never converges pays the capped steps once per block.

    The solves run side by side, one per core, with BLAS pinned to one
    thread: a base's counts have the same bits however many run at once,
    and no more at once than ``SOLVE_POOL_BYTES`` holds.
    """
    _require_dense(chain)
    kept = chain.occupations
    missing = sorted(set(bases) - kept.keys())
    if not missing:
        return [kept[b] for b in bases]
    by_class = {}
    for b in missing:
        by_class.setdefault(int(structure.labels[b]), []).append(b)
    large = [c for c in sorted(by_class)
             if structure.classes[c].size > _KRYLOV_MIN]
    lu = [b for c in sorted(by_class) if c not in large for b in by_class[c]]
    with _one_blas_thread() as width:
        if large:
            blocks = {c: _class_block(chain.matrix, structure.classes[c])
                      for c in large}
            # the Krylov bases of the widest block of the largest class
            size = (_KRYLOV_STEPS + 1) * _KRYLOV_WIDTH * max(
                a.shape[0] for a in blocks.values())
            tasks = [(c, by_class[c][s:s + _KRYLOV_WIDTH]) for c in large
                     for s in range(0, len(by_class[c]), _KRYLOV_WIDTH)]
            jobs = _pool_width(width, len(tasks), 8 * size)
            buffers = [np.empty(size) for _ in range(jobs)]

            def solve(j, task):
                c, share = task
                return _krylov_occupations(chain, structure.classes[c],
                                           blocks[c], share, buffers[j])

            for (c, share), occupations in zip(
                    tasks, _share_out(jobs, tasks, solve)):
                for b, occ in zip(share, occupations):
                    if occ is None:
                        lu.append(b)
                    else:
                        kept[b] = occ
            del blocks, buffers
        if lu:
            lu.sort()
            systems = {c: _cycle_system(chain.matrix, structure.classes[c])
                       for c in {int(structure.labels[b]) for b in lu}}
            side = max(a.shape[0] for a in systems.values()) - 1
            jobs = _pool_width(width, len(lu), 16 * side * side)
            # one system buffer per worker, taken on this thread: its heap
            # has room the load left free, where memory a worker takes
            # would grow the process in the worker's own malloc arena
            buffers = [np.empty(side * side) for _ in range(jobs)]
            kept.update(zip(lu, _share_out(jobs, lu, lambda j, b: (
                _cycle_occupation(
                    chain, structure.classes[structure.labels[b]],
                    systems[int(structure.labels[b])], b, buffers[j])))))
    return [kept[b] for b in bases]


def _pool_width(width, tasks, worker_bytes):
    # workers for ``tasks``: no more than the cores, nor than
    # SOLVE_POOL_BYTES holds at ``worker_bytes`` each, and at least one
    return min(width, tasks, max(1, SOLVE_POOL_BYTES // max(1, worker_bytes)))


def _share_out(jobs, tasks, solve):
    # solve(j, task) for each task in order, worker j taking every jobs-th
    def share(j):
        return [solve(j, task) for task in tasks[j::jobs]]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(jobs) as pool:
            shares = list(pool.map(share, range(jobs)))
    else:
        shares = [share(0)]
    out = [None] * len(tasks)
    for j, done in enumerate(shares):
        out[j::jobs] = done
    return out


def _class_block(p, members):
    # P_c, read-only: the one matrix every GMRES run of the class
    # multiplies by; a view of P when the class is every state
    a = p.view() if members.size == p.shape[0] else p[np.ix_(members, members)]
    a.flags.writeable = False
    return a


def _krylov_occupations(chain, members, pc, block, buf):
    """Cycle occupations of the bases in ``block`` (at most
    ``_KRYLOV_WIDTH``, all of the class ``members``) by GMRES, with
    ``pc`` the class block P_c and ``buf`` room for the bases'
    Krylov bases.  Run it under ``_one_blas_thread``: the bits of a
    product depend on the BLAS thread count.

    Row j of the block solves y (I - Q_b) = c_j for its base b, with
    c_j = P[b] on the class, in full class coordinates with entry b of y
    pinned to 0: y (I - Q_b) is y - y P_c with entry b set to 0, so no
    base builds its own system.  A step takes one matrix product of the
    block, zero-padded to ``_KRYLOV_WIDTH`` rows, with P_c, and every
    other operation is elementwise or a reduction within a row, so a
    row's bits do not depend on its block-mates or its place among them.
    Each row orthogonalises by classical Gram-Schmidt run twice (CGS2)
    and reduces its Hessenberg matrix by Givens rotations.  It stops at
    its first step whose residual estimate is at most eps ||c_j||_2, and
    is accepted when it stopped by step ``_KRYLOV_STEPS`` and its
    normwise backward error
    ||c - A y||_inf / (||c||_inf + ||A||_inf ||y||_inf) (Rigal & Gaches
    1967) is at most ``_KRYLOV_BOUND``, with A = (I - Q_b)^T: ||A||_inf,
    the norm consistent with the residual of the row system, is the
    largest column sum of |I - Q_b|.  Returns one ``CycleOccupation``,
    or None (no stop, or bound missed), per base of ``block``.
    """
    k = members.size
    w = len(block)
    steps = _KRYLOV_STEPS
    pin = np.searchsorted(members, block)
    rows = np.arange(w)
    padded = np.zeros((_KRYLOV_WIDTH, k))

    def apply(y):
        padded[:w] = y
        out = y - (padded @ pc)[:w]
        out[rows, pin] = 0.0
        return out

    c = chain.matrix[np.ix_(block, members)]
    row_b = c.copy()
    c[rows, pin] = 0.0
    basis = buf[:w * (steps + 1) * k].reshape((w, steps + 1, k))
    hess = np.zeros((steps, steps, w))   # triangular once rotated
    rot_c = np.empty((steps, w))
    rot_s = np.empty((steps, w))
    g = np.zeros((steps + 1, w))
    g[0] = size = np.sqrt((c * c).sum(axis=1))
    tol = _EPS * size
    done = np.zeros(w, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        basis[:, 0] = c / size[:, None]
        for m in range(steps):
            v = apply(basis[:, m])
            known = basis[:, :m + 1]
            h = np.zeros((m + 2, w))
            for _ in range(2):
                d = np.matmul(known, v[:, :, None])[:, :, 0]
                v -= np.matmul(d[:, None, :], known)[:, 0, :]
                h[:m + 1] += d.T
            h[m + 1] = np.sqrt((v * v).sum(axis=1))
            basis[:, m + 1] = v / h[m + 1][:, None]
            for i in range(m):
                h[i], h[i + 1] = (rot_c[i] * h[i] + rot_s[i] * h[i + 1],
                                  rot_c[i] * h[i + 1] - rot_s[i] * h[i])
            r = np.hypot(h[m], h[m + 1])
            rot_c[m], rot_s[m] = h[m] / r, h[m + 1] / r
            h[m] = r
            hess[:m + 1, m] = h[:m + 1]
            g[m + 1] = -rot_s[m] * g[m]
            g[m] = rot_c[m] * g[m]
            done[(done == 0) & (np.abs(g[m + 1]) <= tol)] = m + 1
            if done.all():
                break
        y = np.zeros((w, k))
        for j in np.flatnonzero(done):
            z = np.linalg.solve(hess[:done[j], :done[j], j], g[:done[j], j])
            y[j] = z @ basis[j, :done[j]]
        # ||A_j||_inf: the column sums of |I - P_c| less row b of P_c,
        # over every column but b
        diag = np.diagonal(pc)
        norm = np.abs(1.0 - diag) + pc.sum(axis=0) - diag - row_b
        norm[rows, pin] = 0.0
        error = np.abs(c - apply(y)).max(axis=1) / (
            np.abs(c).max(axis=1) + norm.max(axis=1) * np.abs(y).max(axis=1))
    out = []
    for j, b in enumerate(block):
        if not done[j] or not error[j] <= _KRYLOV_BOUND:
            out.append(None)
            continue
        counts = np.zeros(chain.n)
        counts[members] = y[j]
        counts[b] = 1.0
        counts.flags.writeable = False
        out.append(CycleOccupation(b, counts, float(counts.sum())))
    return out


def _cycle_system(p, members):
    # (I - Q)^T over the whole class, negated in place of its copy and
    # without an identity matrix, (-q) + 1 rounding as 1 - q
    a = p[np.ix_(members, members)].T
    np.negative(a, out=a)
    a[np.diag_indices(members.size)] += 1.0
    return a


def _cycle_occupation(chain, members, system, base, buf):
    # the class system less the base's row and column, copied by blocks
    # into ``buf`` column-major, as LAPACK takes it; members are sorted
    i = int(np.searchsorted(members, base))
    rest = np.delete(members, i)
    m = rest.size
    counts = np.zeros(chain.n)
    counts[base] = 1.0
    if m:
        a = buf[:m * m].reshape((m, m), order="F")
        a[:i, :i] = system[:i, :i]
        a[:i, i:] = system[:i, i + 1:]
        a[i:, :i] = system[i + 1:, :i]
        a[i:, i:] = system[i + 1:, i + 1:]
        counts[rest] = _solve_or_refuse(a, chain.matrix[base, rest], (
            "the cycle system of base %r" % (chain.states[base],)))
    counts.flags.writeable = False
    return CycleOccupation(base, counts, float(counts.sum()))


def _solve_or_refuse(a, b, system):
    """``np.linalg.solve(a, b)``, refusing a matrix singular in float64
    with a ``PreconditionError`` that names the ``system``."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise PreconditionError("%s is singular in float64" % system) from None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the OpenBLAS numpy loaded to one thread for the block, and
    restore its thread count on the way out.  Yields how many solves may
    run side by side: the cores this process may use, or 1 when numpy's
    BLAS has no thread control to pin."""
    threads = _openblas_threads()
    if threads is None:
        yield 1
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield (len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else 1)
    finally:
        put(before)


@functools.cache
def _openblas_threads():
    # the thread count getter and setter of the OpenBLAS bundled with
    # numpy's wheels, looked up once
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


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
    # P - I on the class, in place of its copy: x - 0.0 is x
    a = chain.matrix[np.ix_(members, members)]
    a[np.diag_indices(k)] -= 1.0
    a = a.T
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.zeros(chain.n)
    with _one_blas_thread():
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
    point must not matter.  One base compared with itself checks nothing,
    so it is refused."""
    first = chain._check_state(first, "first")
    second = chain._check_state(second, "second")
    structure = class_structure(chain)
    if structure.labels[first] != structure.labels[second]:
        raise PreconditionError(
            "states %r and %r do not communicate"
            % (chain.states[first], chain.states[second]))
    _require_recurrent(chain, structure, first, "first")
    if first == second:
        raise PreconditionError(
            "the exchange identity needs two distinct bases, got %r twice"
            % (chain.states[first],), field="second")
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


def simulate_cycle_estimator(chain, base, n_cycles, seed, step_budget=None):
    """Monte Carlo stationary estimate from independent return cycles.

    Cycles come from ``_stats.split_chain_chunks`` in fixed chunks of
    ``_stats.lane_chunk(n)`` cycles, each on its own spawned seed stream,
    so results are reproducible and independent of how chunks are
    scheduled.  Each chunk feeds a ``RatioAccumulator``, and its
    ``RatioEstimate`` is returned as it is: the ratio estimate, its
    per-state delta-method standard errors (None with a single cycle),
    the mean return time as ``mean_cycle_length`` and the steps taken.
    A run past ``step_budget`` steps raises ``BudgetExceededError``.
    """
    base = chain._check_state(base, "base")
    if n_cycles < 1:
        raise PreconditionError("need at least one cycle", field="n_cycles")
    structure = class_structure(chain)
    _require_recurrent(chain, structure, base)
    if step_budget is None:
        mean_return = cycle_occupation(chain, base).mean_return
        step_budget = int(max(10 ** 6, 50.0 * n_cycles * mean_return))
    # the split chain with R = {base}, ell = 1, epsilon = 1 and
    # lam = P[base]: each step from base closes a cycle, so its cycles are
    # the return cycles of base, each rotated to end at base
    in_regen = np.arange(chain.n) == base
    acc = RatioAccumulator(chain.n)
    for occ, lengths, _ in split_chain_chunks(
            seed, n_cycles, step_budget,
            (chain.matrix, chain.row_guide, base, None, None, in_regen, 1.0,
             1)):
        acc.add(occ, lengths)
    return acc.estimate()
