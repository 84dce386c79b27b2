import contextlib
import os
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf
from cycleflow.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)

MC2_PI = np.array([3 / 7, 4 / 7])


def block_chain():
    """Two irreducible blocks glued into one reducible chain."""
    p = np.zeros((4, 4))
    p[:2, :2] = [[2 / 3, 1 / 3], [1 / 4, 3 / 4]]
    p[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    return cf.StochasticMatrix(p)


def random_dense_chain(n, rng):
    return cf.StochasticMatrix(rng.dirichlet(np.ones(n), size=n))


# ---------------------------------------------------------------------------
# matrix validation


def test_rows_must_sum_to_one():
    with pytest.raises(InvariantError) as err:
        cf.StochasticMatrix([[0.5, 0.4], [0.3, 0.7]])
    assert err.value.field == "matrix[0]"


def test_entries_must_be_nonnegative():
    with pytest.raises(InvariantError):
        cf.StochasticMatrix([[1.5, -0.5], [0.5, 0.5]])


def test_matrix_must_be_square():
    with pytest.raises(InvariantError):
        cf.StochasticMatrix([[0.5, 0.5]])


def test_state_labels_length_checked():
    with pytest.raises(InvariantError):
        cf.StochasticMatrix(np.eye(2), states=["a"])


def test_row_sums_checked_strictly():
    p = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-10]])
    with pytest.raises(InvariantError):
        cf.StochasticMatrix(p)


# ---------------------------------------------------------------------------
# class structure


def test_irreducible_chain_is_one_recurrent_class(mc2):
    s = cf.class_structure(mc2)
    assert len(s.classes) == 1
    assert list(s.labels) == [0, 0]
    assert s.recurrent_classes == [0]


def test_absorbing_chain_splits_transient_and_recurrent():
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    s = cf.class_structure(chain)
    assert list(s.labels) == [0, 1]
    assert list(s.recurrent) == [False, True]


def test_block_chain_has_two_recurrent_classes():
    s = cf.class_structure(block_chain())
    assert list(s.labels) == [0, 0, 1, 1]
    assert s.recurrent_classes == [0, 1]


def test_class_ids_follow_smallest_member():
    # {0} feeds both absorbing states
    chain = cf.StochasticMatrix([[0.0, 0.5, 0.5],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    s = cf.class_structure(chain)
    assert [list(c) for c in s.classes] == [[0], [1], [2]]
    assert list(s.recurrent) == [False, True, True]


def _class_structure_loop(chain):
    """Reference for ``class_structure``: per-state and per-class Python
    loops over a dense support copy."""
    p = chain.matrix
    n = chain.n
    graph = sp.csr_matrix((p > 0).astype(np.int8))
    n_comp, raw = connected_components(graph, directed=True, connection="strong")
    first = np.full(n_comp, n, dtype=np.int64)
    for i in range(n):
        first[raw[i]] = min(first[raw[i]], i)
    renum = np.empty(n_comp, dtype=np.int64)
    renum[np.argsort(first, kind="stable")] = np.arange(n_comp)
    labels = renum[raw]
    classes = [np.flatnonzero(labels == c) for c in range(n_comp)]
    recurrent = np.zeros(n_comp, dtype=bool)
    for c, members in enumerate(classes):
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        recurrent[c] = not np.any(p[members][:, ~mask] > 0)
    return labels, classes, recurrent


def _random_reducible(rng, n):
    """Closed blocks on a shuffled diagonal, then transient rows that may
    point anywhere; zeros are common so classes and arrows vary."""
    p = np.zeros((n, n))
    perm = rng.permutation(n)
    n_transient = int(rng.integers(0, n // 2 + 1))
    closed, transient = perm[n_transient:], perm[:n_transient]
    if closed.size == 0:
        closed, transient = perm[:1], perm[1:]
    cuts = np.sort(rng.choice(np.arange(1, closed.size), replace=False,
                              size=min(int(rng.integers(0, 5)),
                                       closed.size - 1)))
    for block in np.split(closed, cuts):
        for i in block:
            k = int(rng.integers(1, block.size + 1))
            p[i, rng.choice(block, size=k, replace=False)] = 1.0
        # a cycle through the block keeps it one communicating class
        p[block, np.roll(block, -1)] = 1.0
    for i in transient:
        k = int(rng.integers(1, n + 1))
        p[i, rng.choice(n, size=k, replace=False)] = 1.0
    p *= rng.random((n, n))
    p[p.sum(axis=1) == 0, closed[0]] = 1.0
    return p / p.sum(axis=1, keepdims=True)


def _assert_matches_loop(chain):
    s = cf.class_structure(chain)
    labels, classes, recurrent = _class_structure_loop(chain)
    assert s.labels.dtype == labels.dtype
    assert np.array_equal(s.labels, labels)
    assert len(s.classes) == len(classes)
    for got, want in zip(s.classes, classes):
        assert np.array_equal(got, want)
    assert np.array_equal(s.recurrent, recurrent)


def test_class_structure_matches_loop_on_random_reducible_chains():
    rng = np.random.default_rng(20261018)
    for n in range(1, 61):
        for _ in range(3):
            _assert_matches_loop(cf.StochasticMatrix(_random_reducible(rng, n)))


def test_class_structure_matches_loop_when_every_state_is_a_class():
    # upper-triangular support: only the last state is closed
    n = 40
    p = np.triu(np.random.default_rng(3).random((n, n)))
    p /= p.sum(axis=1, keepdims=True)
    chain = cf.StochasticMatrix(p)
    _assert_matches_loop(chain)
    s = cf.class_structure(chain)
    assert len(s.classes) == n
    assert s.recurrent_classes == [n - 1]
    # the identity: n closed singletons, no arrows
    _assert_matches_loop(cf.StochasticMatrix(np.eye(n)))


def _support_chain(n, src, dst):
    """Uniform rows on the given arrows; a state with none keeps a loop."""
    p = np.zeros((n, n))
    p[src, dst] = 1.0
    lone = np.flatnonzero(p.sum(axis=1) == 0)
    p[lone, lone] = 1.0
    return cf.StochasticMatrix(p / p.sum(axis=1, keepdims=True))


def _same_partition(a, b):
    # the pairs (a[i], b[i]) pair the labels of a and b one to one
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_strong_components_on_long_graphs_need_no_recursion():
    # 2000 states is twice the default recursion limit: a recursive
    # search would fail on every one of these
    n = 2000
    i = np.arange(n)
    even = i[::2]
    cases = {
        "path": (i[:-1], i[1:], n),
        "reversed path": (i[1:], i[:-1], n),
        "upper triangular": (*np.nonzero(np.triu(np.ones((n, n)))), n),
        "line of 2-cycles": (np.concatenate([even, even + 1, even[1:] - 1]),
                             np.concatenate([even + 1, even, even[1:]]),
                             n // 2),
        "single cycle": (i, np.roll(i, -1), 1),
    }
    for name, (src, dst, n_classes) in cases.items():
        order = np.lexsort((dst, src))
        rows, cols = src[order], dst[order]
        count, raw = cf.markov._strong_components(n, rows, cols)
        graph = sp.csr_matrix((np.ones(rows.size, dtype=np.int8),
                               (rows, cols)), shape=(n, n))
        ref_count, ref = connected_components(graph, directed=True,
                                              connection="strong")
        assert count == ref_count == n_classes, name
        assert _same_partition(raw, ref), name
        # the full structure too: labels, classes and closure flags
        chain = _support_chain(n, src, dst)
        _assert_matches_loop(chain)
        assert len(cf.class_structure(chain).recurrent_classes) == 1


def test_class_structure_matches_loop_on_random_graphs():
    # arbitrary supports, from a few arrows per state to nearly complete
    rng = np.random.default_rng(8)
    for n in range(1, 61):
        for density in (0.5 / n, 2.0 / n, 0.3):
            support = rng.random((n, n)) < density
            _assert_matches_loop(_support_chain(n, *np.nonzero(support)))


def _perfbench_rng(name):
    # the benchmark's stream for model ``name`` at seed 1
    return np.random.default_rng([1, zlib.crc32(name.encode())])


def test_class_structure_matches_loop_on_benchmark_chains():
    rng = _perfbench_rng("mc1000")
    _assert_matches_loop(cf.StochasticMatrix(
        rng.dirichlet(np.full(1000, 0.2), size=1000)))
    # four closed classes of 100 states and 100 transient states whose
    # rows spread over every state
    rng = _perfbench_rng("mcr500")
    p = np.zeros((500, 500))
    for c in range(4):
        block = slice(100 * c, 100 * (c + 1))
        p[block, block] = rng.dirichlet(np.full(100, 0.2), size=100)
    p[400:] = rng.dirichlet(np.full(500, 0.2), size=100)
    chain = cf.StochasticMatrix(p / p.sum(axis=1, keepdims=True))
    _assert_matches_loop(chain)
    assert cf.class_structure(chain).recurrent_classes == [0, 1, 2, 3]


def test_class_structure_is_computed_once_per_matrix():
    chain = block_chain()
    s = cf.class_structure(chain)
    assert cf.class_structure(chain) is s
    chain.matrix = np.array([[0.5, 0.5, 0.0, 0.0],
                             [0.0, 0.5, 0.5, 0.0],
                             [0.0, 0.0, 0.5, 0.5],
                             [0.5, 0.0, 0.0, 0.5]])
    again = cf.class_structure(chain)
    assert again is not s
    assert list(again.labels) == [0, 0, 0, 0]
    assert cf.class_structure(chain) is again


def test_cycle_occupation_is_computed_once_per_matrix_and_base(
        mc2, monkeypatch):
    # the cycle estimator sizes its budget from the exact occupation the
    # stationary report needs too; the second call solves nothing
    occ = cf.cycle_occupation(mc2, 0)
    assert cf.cycle_occupation(mc2, 0) is occ
    assert cf.cycle_occupation(mc2, 1) is not occ
    assert not occ.counts.flags.writeable
    with pytest.raises(ValueError):
        occ.counts[0] = 2.0
    with pytest.raises(cf.errors.PreconditionError):
        cf.cycle_occupation(mc2, 2)
    mc2.matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
    again = cf.cycle_occupation(mc2, 0)
    assert again is not occ and again.mean_return == 2.0

    # three closed classes of 12 states and 4 transient states: the suite
    # solves one cycle system per distinct base it draws, each on its own,
    # and one left-null system per class
    rng = np.random.default_rng(8)
    p = np.zeros((40, 40))
    for c in range(3):
        block = slice(12 * c, 12 * (c + 1))
        p[block, block] = rng.dirichlet(np.ones(12), size=12)
    p[36:] = rng.dirichlet(np.ones(40), size=4)
    chain = cf.StochasticMatrix(p)
    solves, bases = [], []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(a.shape) or solve(a, b))
    occupation = cf.markov._cycle_occupation
    monkeypatch.setattr(
        cf.markov, "_cycle_occupation",
        lambda chain, members, system, base, buf: bases.append(base)
        or occupation(chain, members, system, base, buf))
    report = cf.run_suite(chain, cf.RunConfig(sample_pairs=9, seed=2))
    assert report.overall_pass and report.details["exchange_pairs"] == 9
    assert len(bases) == len(set(bases)) and 3 < len(bases) < 36
    assert set(report.details["bases"]) <= set(bases)
    assert solves.count((11, 11)) == len(bases)
    assert solves.count((12, 12)) == 3 and len(solves) == len(bases) + 3
    # a second run finds every cycle system kept on the chain
    cf.run_suite(chain, cf.RunConfig(sample_pairs=9, seed=2))
    assert len(bases) == len(solves) - 6


def test_occupations_are_filled_once_per_missing_base():
    chain = block_chain()
    structure = cf.class_structure(chain)
    first = cf.markov._fill_occupations(chain, structure, [3, 0, 3])
    assert first[0] is first[2]
    assert [o.base for o in first] == [3, 0, 3]
    again = cf.markov._fill_occupations(chain, structure, [0, 1, 2, 3])
    assert again[0] is first[1] and again[3] is first[0]
    assert cf.cycle_occupation(chain, 1) is again[1]
    # the class {0, 1} has stationary law (3/7, 4/7)
    assert again[1].mean_return == pytest.approx(7 / 4)


def test_solve_pool_width_is_bounded_by_memory(monkeypatch):
    # each worker solves in its own buffer, so the buffers the solves see
    # count the workers.  The pool is offered four cores; a budget of two
    # workers' system buffers and numpy's copies runs two, one byte less
    # runs one, and every base's counts keep their bits
    real = cf.markov._one_blas_thread

    @contextlib.contextmanager
    def four_cores():
        with real():
            yield 4

    buffers = set()
    solve = cf.markov._cycle_occupation

    def counted(chain, members, system, base, buf):
        buffers.add(buf.ctypes.data)
        return solve(chain, members, system, base, buf)

    monkeypatch.setattr(cf.markov, "_one_blas_thread", four_cores)
    monkeypatch.setattr(cf.markov, "_cycle_occupation", counted)
    p = np.random.default_rng(31).dirichlet(np.ones(30), size=30)
    two_workers = 2 * 2 * 8 * 29 ** 2
    runs = {}
    for budget in (cf.markov.SOLVE_POOL_BYTES, two_workers, two_workers - 1):
        monkeypatch.setattr(cf.markov, "SOLVE_POOL_BYTES", budget)
        chain = cf.StochasticMatrix(p.copy())
        buffers.clear()
        occupations = cf.markov._fill_occupations(
            chain, cf.class_structure(chain), list(range(30)))
        runs[len(buffers)] = b"".join(o.counts.tobytes() for o in occupations)
    assert sorted(runs) == [1, 2, 4]
    assert len(set(runs.values())) == 1


def test_class_systems_in_place_match_the_copying_expressions():
    # _cycle_system negates its np.ix_ copy in place and
    # stationary_leftnull subtracts 1 on the diagonal of its copy; both
    # must give the bits (and memory layout) of the expressions that built
    # a second class-sized array
    rng = np.random.default_rng(1729)
    for n in (1, 2, 7, 40, 120):
        chain = cf.StochasticMatrix(_random_reducible(rng, n))
        structure = cf.class_structure(chain)
        for c, members in enumerate(structure.classes):
            old = -chain.matrix[np.ix_(members, members)].T
            old[np.diag_indices(members.size)] += 1.0
            new = cf.markov._cycle_system(chain.matrix, members)
            assert new.tobytes(order="A") == old.tobytes(order="A")
            assert new.strides == old.strides
            if not structure.recurrent[c]:
                continue
            base = int(members[0])
            k = members.size
            a = (chain.matrix[np.ix_(members, members)] - np.eye(k)).T
            a[-1, :] = 1.0
            b = np.zeros(k)
            b[-1] = 1.0
            pi = np.zeros(chain.n)
            with cf.markov._one_blas_thread():
                pi[members] = np.linalg.solve(a, b)
            assert cf.stationary_leftnull(chain, base).tobytes() == \
                pi.tobytes()


def _openblas_thread_count():
    get, _ = cf.markov._openblas_threads()
    return get()


def test_blas_pin_finds_numpys_openblas():
    # numpy's wheels ship scipy-openblas; when they do, the pin must find
    # its thread control, or every solve would run one at a time
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas["name"] != "scipy-openblas":
        pytest.skip("numpy is not built on scipy-openblas")
    assert cf.markov._openblas_threads() is not None
    with cf.markov._one_blas_thread() as width:
        assert _openblas_thread_count() == 1
        assert width == len(os.sched_getaffinity(0))


def test_blas_pin_restores_the_prior_thread_count():
    if cf.markov._openblas_threads() is None:
        with cf.markov._one_blas_thread() as width:
            assert width == 1
        return
    _, put = cf.markov._openblas_threads()
    prior = _openblas_thread_count()
    try:
        put(2)
        with cf.markov._one_blas_thread():
            assert _openblas_thread_count() == 1
            with cf.markov._one_blas_thread():
                pass
            assert _openblas_thread_count() == 1
        assert _openblas_thread_count() == 2
        with pytest.raises(RuntimeError):
            with cf.markov._one_blas_thread():
                assert _openblas_thread_count() == 1
                raise RuntimeError("inside the pin")
        assert _openblas_thread_count() == 2
    finally:
        put(prior)


def test_solves_without_blas_thread_control_run_one_at_a_time(
        monkeypatch):
    # a BLAS whose threads cannot be pinned: one solve at a time, and
    # every base keeps the bits the pinned pool gives it
    p = np.random.default_rng(5).dirichlet(np.ones(30), size=30)

    def occupations():
        chain = cf.StochasticMatrix(p.copy())
        return [o.counts.tobytes() for o in cf.markov._fill_occupations(
            chain, cf.class_structure(chain), list(range(30)))]

    pinned = occupations()
    monkeypatch.setattr(cf.markov, "_openblas_threads", lambda: None)
    with cf.markov._one_blas_thread() as width:
        assert width == 1
    assert occupations() == pinned


def _dirichlet_rows(n, seed):
    return np.random.default_rng(seed).dirichlet(np.full(n, 0.2), size=n)


def _no_lu(monkeypatch):
    # the LU path, refused: what runs must be GMRES
    def refused(*args):
        raise AssertionError("a base was solved by LU")

    monkeypatch.setattr(cf.markov, "_cycle_occupation", refused)


def test_gmres_counts_of_a_base_do_not_depend_on_its_batch(monkeypatch):
    # a 600-state class: its bases go by GMRES, 16 to a block.  The suite
    # fills them in batches; a base asked for alone rides in a block of
    # copies of itself, at another column, and must get the same bits
    p = _dirichlet_rows(600, 600)
    _no_lu(monkeypatch)
    chain = cf.StochasticMatrix(p.copy())
    report = cf.run_suite(chain, cf.RunConfig(sample_pairs=12, seed=4))
    assert report.overall_pass
    kept = chain._occupations[1]
    assert len(kept) > cf.markov._KRYLOV_WIDTH
    for b in sorted(kept)[1::5]:
        alone = cf.cycle_occupation(cf.StochasticMatrix(p.copy()), b)
        assert alone.counts.tobytes() == kept[b].counts.tobytes()
    # the same with states 0-3 a path 0 -> 1 -> 2 -> 3 -> 4 into the
    # rest: the bases on the path take fewer steps than their block-mates
    p[:4] = 0.0
    p[np.arange(4), np.arange(1, 5)] = 1.0
    bases = [1, 2, 3] + list(range(20, 600, 37))
    chain = cf.StochasticMatrix(p.copy())
    batch = cf.markov._fill_occupations(chain, cf.class_structure(chain),
                                        bases)
    for b, occ in zip(bases, batch):
        alone = cf.cycle_occupation(cf.StochasticMatrix(p.copy()), b)
        assert alone.counts.tobytes() == occ.counts.tobytes()
    # and the counts are the LU counts to a few ulps of the return time
    monkeypatch.undo()
    members = np.arange(600)
    system = cf.markov._cycle_system(p, members)
    buf = np.empty(599 * 599)
    for b, occ in zip(bases, batch):
        lu = cf.markov._cycle_occupation(chain, members, system, b, buf)
        assert np.abs(lu.counts - occ.counts).max() <= 1e-13 * lu.mean_return


class _CountedProducts(np.ndarray):
    # a class block that counts the matrix products taken with it
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedProducts.products += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _lazy_ring(n):
    i = np.arange(n)
    p = np.zeros((n, n))
    p[i, i] = 0.5
    p[i, (i + 1) % n] += 0.25
    p[i, (i - 1) % n] += 0.25
    return p


def _recorded(monkeypatch, name, log):
    # cf.markov.<name>, each call's base (or block of bases) appended to log
    inner = getattr(cf.markov, name)

    def recorded(chain, members, matrix, bases, buf):
        log.append(bases if isinstance(bases, list) else int(bases))
        return inner(chain, members, matrix, bases, buf)

    monkeypatch.setattr(cf.markov, name, recorded)


def _lu_occupation(p, base):
    # base's LU counts, with _cycle_occupation's bits, in a class of all
    # of p's states
    n = p.shape[0]
    members = np.arange(n)
    system = cf.markov._cycle_system(p, members)
    with cf.markov._one_blas_thread():
        return cf.markov._cycle_occupation(
            cf.StochasticMatrix(p.copy()), members, system, base,
            np.empty((n - 1) ** 2))


def test_gmres_misses_fall_back_to_lu(monkeypatch):
    # the lazy walk on a 600-state ring: the spectrum of I - Q_b reaches
    # down to about 1/n**2, so GMRES cannot reach its bound in 64 steps.
    # The requested bases run as the rows of one block, which gives up
    # from step _KRYLOV_TRIAL on, each with one product a step, and every
    # base is then solved by LU, with the bits _cycle_occupation gives it
    n = 600
    p = _lazy_ring(n)
    chain = cf.StochasticMatrix(p)
    structure = cf.class_structure(chain)
    bases = [1, 150, 299, 598, 599]
    solved, tried = [], []
    _recorded(monkeypatch, "_cycle_occupation", solved)
    _recorded(monkeypatch, "_krylov_occupations", tried)
    class_block = cf.markov._class_block
    monkeypatch.setattr(cf.markov, "_class_block",
                        lambda p, members: class_block(p, members).view(
                            _CountedProducts))
    _CountedProducts.products = 0
    occupations = cf.markov._fill_occupations(chain, structure, bases)
    assert tried == [bases]
    assert _CountedProducts.products <= 5 * cf.markov._KRYLOV_TRIAL
    assert sorted(solved) == bases
    # no verdict is kept with the chain: the next request runs its own
    # rows, and goes to LU on what they find
    cf.markov._fill_occupations(chain, structure, [0, 7])
    assert tried == [bases, [0, 7]]
    assert sorted(solved) == [0, 1, 7, 150, 299, 598, 599]
    monkeypatch.undo()
    for occ in occupations:
        alone = _lu_occupation(p, occ.base)
        assert occ.counts.tobytes() == alone.counts.tobytes()
        assert occ.mean_return == pytest.approx(n, rel=1e-9)


def test_gmres_rows_that_miss_the_bound_go_to_lu(monkeypatch):
    # with the backward-error bound at 0 every row misses it, and each
    # base is solved by LU after its GMRES run, with _cycle_occupation's
    # bits
    p = _dirichlet_rows(600, 601)
    monkeypatch.setattr(cf.markov, "_KRYLOV_BOUND", 0.0)
    runs = []
    krylov = cf.markov._krylov_occupations

    def recorded(chain, members, pc, block, buf):
        out = krylov(chain, members, pc, block, buf)
        runs.append((list(block), out))
        return out

    monkeypatch.setattr(cf.markov, "_krylov_occupations", recorded)
    chain = cf.StochasticMatrix(p.copy())
    bases = [0, 5, 17, 300, 599]
    occupations = cf.markov._fill_occupations(
        chain, cf.class_structure(chain), bases)
    assert runs == [(bases, [None] * len(bases))]
    for b, occ in zip(bases, occupations):
        assert occ.counts.tobytes() == _lu_occupation(p, b).counts.tobytes()


def test_a_base_takes_lu_on_its_own_row_alone(monkeypatch):
    # on the 9-state path into a Dirichlet class, state 0's GMRES row
    # stalls on the path and gives up, while state 1's passes.  Each base
    # keeps its path and its bits asked for alone and in any batch: no
    # verdict of its class or of its block-mates picks them
    p = _dirichlet_rows(600, 600)
    p[:9] = 0.0
    p[np.arange(9), np.arange(1, 10)] = 1.0
    members = np.arange(600)
    pc = cf.markov._class_block(p, members)
    head, second = cf.markov._krylov_occupations(
        cf.StochasticMatrix(p.copy()), members, pc, [0, 1],
        np.empty(65 * 600 * 16))
    assert head is None and second is not None
    expected = {0: _lu_occupation(p, 0).counts.tobytes(),
                1: second.counts.tobytes()}
    solved = []
    _recorded(monkeypatch, "_cycle_occupation", solved)
    for request in ([0], [1], [1, 0], [1, 3, 100], [0, 1, 3, 100]):
        chain = cf.StochasticMatrix(p.copy())
        del solved[:]
        kept = cf.markov._fill_occupations(
            chain, cf.class_structure(chain), request)
        assert (0 in solved) == (0 in request)
        assert 1 not in solved
        for b, occ in zip(request, kept):
            if b in expected:
                assert occ.counts.tobytes() == expected[b]


def test_gmres_law_meets_the_left_null_law(monkeypatch):
    # mc1000's shape: one Dirichlet(0.2) class of 1000 states
    _no_lu(monkeypatch)
    chain = cf.StochasticMatrix(_dirichlet_rows(1000, 1000))
    law = cf.stationary_leftnull(chain, 0)
    for base in (0, 1, 500, 999):
        pi = cf.cycle_stationary(chain, base)
        assert np.abs(pi - law).max() <= 1e-14


def test_row_guide_follows_the_bound_matrix(flip2):
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    assert chain.row_guide[0][:, :-1].tolist() == [[0.5, 1.0], [0.5, 1.0]]
    chain.matrix = flip2.matrix
    assert chain.row_guide[0][:, :-1].tolist() == [[0.0, 1.0], [1.0, 1.0]]
    # the flip returns to its base in exactly two steps
    est = cf.simulate_cycle_estimator(chain, 0, 200, seed=1)
    assert est.mean_return == 2.0


def test_occupation_solve_keeps_the_bits_of_the_dense_transpose():
    rng = np.random.default_rng(11)
    for n in (2, 3, 9, 30):
        p = rng.dirichlet(np.full(n, 0.3), size=n)
        p[rng.random((n, n)) < 0.3] = 0.0
        p[:, 0] += 0.05
        p /= p.sum(axis=1, keepdims=True)
        chain = cf.StochasticMatrix(p)
        s = cf.class_structure(chain)
        for base in np.flatnonzero(s.recurrent[s.labels]):
            members = s.classes[s.labels[base]]
            rest = members[members != base]
            want = np.linalg.solve(
                (np.eye(rest.size) - p[np.ix_(rest, rest)]).T, p[base, rest])
            got = cf.cycle_occupation(chain, base).counts[rest]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# return-cycle occupation


def test_two_state_occupation_base_zero(mc2):
    occ = cf.cycle_occupation(mc2, 0)
    assert occ.counts[0] == 1.0
    assert occ.counts[1] == pytest.approx(4 / 3, abs=1e-15)
    assert occ.mean_return == pytest.approx(7 / 3, abs=1e-15)


def test_two_state_occupation_base_one(mc2):
    occ = cf.cycle_occupation(mc2, 1)
    assert occ.counts[0] == pytest.approx(3 / 4, abs=1e-15)
    assert occ.counts[1] == 1.0
    assert occ.mean_return == pytest.approx(7 / 4, abs=1e-15)


def test_flip_occupation(flip2):
    occ = cf.cycle_occupation(flip2, 0)
    assert list(occ.counts) == [1.0, 1.0]
    assert occ.mean_return == 2.0


def test_occupation_vanishes_off_class():
    occ = cf.cycle_occupation(block_chain(), 0)
    assert occ.counts[2] == 0.0 and occ.counts[3] == 0.0


def test_occupation_refuses_transient_base():
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        cf.cycle_occupation(chain, 0)


def test_occupation_checks_state_range(mc2):
    with pytest.raises(PreconditionError):
        cf.cycle_occupation(mc2, 2)


def test_occupation_refuses_chains_over_the_dense_cap(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a solve ran past the dense cap")

    monkeypatch.setattr(cf.markov, "_fill_occupations", no_solve)
    monkeypatch.setattr(cf.markov, "class_structure", no_solve)
    chain = cf.StochasticMatrix(np.eye(cf.markov._MAX_DENSE + 1))
    with pytest.raises(PreconditionError) as err:
        cf.cycle_occupation(chain, 0)
    assert "capped at %d states (got %d)" % (
        cf.markov._MAX_DENSE, cf.markov._MAX_DENSE + 1) in str(err.value)


# ---------------------------------------------------------------------------
# stationary distributions


def test_two_state_stationary_both_bases(mc2):
    for base in (0, 1):
        pi = cf.cycle_stationary(mc2, base)
        assert np.abs(pi - MC2_PI).max() <= 1e-15


def test_stationary_is_invariant(mc2, flip2):
    for chain in (mc2, flip2):
        pi = cf.cycle_stationary(chain, 0)
        assert cf.invariance_residual(chain, pi) <= 1e-15


def test_leftnull_agrees_with_cycle_formula(mc2):
    a = cf.cycle_stationary(mc2, 0)
    b = cf.stationary_leftnull(mc2, 0)
    assert np.abs(a - b).max() <= 1e-14


def test_exchange_between_bases(mc2):
    assert cf.exchange_residual(mc2, 0, 1) <= 1e-15


def test_exchange_refuses_non_communicating():
    with pytest.raises(PreconditionError):
        cf.exchange_residual(block_chain(), 0, 2)


def test_exchange_refuses_transient():
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(PreconditionError) as err:
        cf.exchange_residual(chain, 0, 0)
    assert "transient" in str(err.value)


def test_exchange_refuses_one_base_twice(mc2):
    # a base's cycle law compared with itself would pass at 0, checking
    # nothing; the refusal comes after the communication and recurrence
    # checks
    for b in (0, 1):
        with pytest.raises(PreconditionError) as err:
            cf.exchange_residual(mc2, b, b)
        assert err.value.field == "second"
        assert "two distinct bases" in str(err.value)


def test_invariance_residual_flags_non_invariant(mc2):
    assert cf.invariance_residual(mc2, [1.0, 0.0]) > 0.1


def test_invariance_residual_refuses_another_length(mc2):
    with pytest.raises(PreconditionError) as err:
        cf.invariance_residual(mc2, [1.0])
    assert err.value.field == "pi"


def test_random_chain_exchange_all_pairs():
    rng = np.random.default_rng(42)
    chain = random_dense_chain(10, rng)
    pis = [cf.cycle_stationary(chain, b) for b in range(10)]
    ref = cf.stationary_leftnull(chain, 0)
    for pi in pis:
        assert np.abs(pi - pis[0]).max() <= 1e-10
        assert np.abs(pi - ref).max() <= 1e-10
        assert cf.invariance_residual(chain, pi) <= 1e-12


# ---------------------------------------------------------------------------
# convex decomposition of invariant laws


def test_block_mixture_recovers_weights():
    chain = block_chain()
    pi = 0.5 * np.array([3 / 7, 4 / 7, 0, 0]) + 0.5 * np.array([0, 0, 0.5, 0.5])
    dec = cf.convex_decomposition(chain, pi)
    assert dec.representatives == [0, 2]
    assert np.abs(dec.class_weights - [0.5, 0.5]).max() <= 1e-15
    assert dec.residual <= 1e-15
    assert dec.transient_mass == 0.0


def test_extreme_point_gets_unit_weight():
    chain = block_chain()
    pi = np.array([3 / 7, 4 / 7, 0, 0])
    dec = cf.convex_decomposition(chain, pi)
    assert np.abs(dec.class_weights - [1.0, 0.0]).max() <= 1e-15
    assert dec.residual <= 1e-15


def test_irreducible_decomposition_is_trivial(mc2):
    dec = cf.convex_decomposition(mc2, MC2_PI)
    assert dec.representatives == [0]
    assert dec.class_weights[0] == pytest.approx(1.0, abs=1e-12)


def test_decomposition_rejects_non_invariant(mc2):
    with pytest.raises(PreconditionError):
        cf.convex_decomposition(mc2, [0.9, 0.1])


def test_decomposition_refuses_another_length(mc2):
    with pytest.raises(PreconditionError) as err:
        cf.convex_decomposition(mc2, [3 / 7, 4 / 7, 0.0])
    assert err.value.field == "pi"


def test_decomposition_rejects_non_distribution(mc2):
    with pytest.raises(PreconditionError):
        cf.convex_decomposition(mc2, [0.9, 0.3])


def test_decomposition_rejects_transient_mass():
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    # loose tolerance lets the invariance gate pass so the transient-mass
    # check is the one that fires
    with pytest.raises(PreconditionError) as err:
        cf.convex_decomposition(chain, [0.2, 0.8], tol=0.15)
    assert "transient" in str(err.value)


def test_random_reducible_decompositions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
        n = int(sizes.sum())
        p = np.zeros((n, n))
        start = 0
        reps = []
        pis = []
        for k in sizes:
            block = rng.dirichlet(np.ones(k), size=int(k))
            p[start:start + k, start:start + k] = block
            reps.append(start)
            sub = cf.StochasticMatrix(block)
            pi_block = np.zeros(n)
            pi_block[start:start + k] = cf.cycle_stationary(sub, 0)
            pis.append(pi_block)
            start += k
        chain = cf.StochasticMatrix(p)
        weights = rng.dirichlet(np.ones(len(sizes)))
        pi = sum(w * v for w, v in zip(weights, pis))
        dec = cf.convex_decomposition(chain, pi)
        assert dec.representatives == reps
        assert np.abs(dec.class_weights - weights).max() <= 1e-10
        assert dec.residual <= 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo cycle estimator


def test_flip_estimator_is_exact(flip2):
    est = cf.simulate_cycle_estimator(flip2, 0, 50, seed=1)
    assert list(est.pi_hat) == [0.5, 0.5]
    assert est.mean_return == 2.0
    assert list(est.standard_errors) == [0.0, 0.0]
    assert est.steps == 100


def test_single_cycle_has_no_standard_error(flip2):
    est = cf.simulate_cycle_estimator(flip2, 0, 1, seed=1)
    assert est.standard_errors is None
    assert est.n_cycles == 1


def test_estimator_reproducible(mc2):
    a = cf.simulate_cycle_estimator(mc2, 0, 500, seed=11)
    b = cf.simulate_cycle_estimator(mc2, 0, 500, seed=11)
    assert np.array_equal(a.pi_hat, b.pi_hat)
    assert a.steps == b.steps
    c = cf.simulate_cycle_estimator(mc2, 0, 500, seed=12)
    assert not np.array_equal(a.pi_hat, c.pi_hat)


def test_estimator_chunking_does_not_change_totals(mc2, monkeypatch):
    # more cycles than one chunk holds; plan is fixed by cycle index
    monkeypatch.setattr(cf._stats, "lane_chunk", lambda n_states: 4096)
    a = cf.simulate_cycle_estimator(mc2, 0, 5000, seed=11)
    b = cf.simulate_cycle_estimator(mc2, 0, 5000, seed=11)
    assert np.array_equal(a.pi_hat, b.pi_hat)
    assert np.array_equal(a.standard_errors, b.standard_errors)


def test_estimator_is_the_split_chain_of_one_state(mc2, flip2, monkeypatch):
    # the estimator runs the split chain with R = {base}, ell = 1,
    # epsilon = 1 and lam = P[base]; built as a HarrisModel, that split
    # chain gives the same estimate and step count from the same seed,
    # in chunks of 64 cycles
    monkeypatch.setattr(cf._stats, "lane_chunk", lambda n_states: 64)
    rng = np.random.default_rng(81)
    chains = [mc2, flip2] + [random_dense_chain(int(rng.integers(1, 12)), rng)
                             for _ in range(20)]
    for case, chain in enumerate(chains):
        base = int(rng.integers(0, chain.n))
        cycles = int(rng.integers(1, 300))
        est = cf.simulate_cycle_estimator(chain, base, cycles, seed=case)
        model = cf.HarrisModel(chain, [base], ell=1, epsilon=1.0,
                               lam=chain.matrix[base])
        run = cf.simulate_split_chain(model, cycles, case)
        report = cf.regen_ratio_estimator(run.occupations, run.lengths)
        assert est.pi_hat.tobytes() == report.pi_hat.tobytes()
        assert np.float64(est.mean_return).tobytes() == \
            np.float64(report.mean_cycle_length).tobytes()
        assert est.steps == run.steps == run.lengths.sum()
        # one step short of the run, both stop with the same message
        errors = []
        for route in (
                lambda b: cf.simulate_cycle_estimator(
                    chain, base, cycles, seed=case, step_budget=b),
                lambda b: cf.simulate_split_chain(
                    model, cycles, case, step_budget=b)):
            with pytest.raises(BudgetExceededError) as exc:
                route(est.steps - 1)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_estimator_near_truth(mc2):
    est = cf.simulate_cycle_estimator(mc2, 0, 4000, seed=5)
    z = np.abs(est.pi_hat - MC2_PI) / est.standard_errors
    assert z.max() <= 4.0
    assert est.mean_return == pytest.approx(7 / 3, rel=0.05)


def test_estimator_refuses_transient_base():
    chain = cf.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        cf.simulate_cycle_estimator(chain, 0, 10, seed=0)


def test_estimator_requires_positive_cycles(mc2):
    with pytest.raises(PreconditionError):
        cf.simulate_cycle_estimator(mc2, 0, 0, seed=0)


def test_estimator_step_budget(mc2):
    with pytest.raises(BudgetExceededError):
        cf.simulate_cycle_estimator(mc2, 0, 1000, seed=0, step_budget=10)


# ---------------------------------------------------------------------------
# property tests


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_property_cycle_formula_invariant(n, seed):
    chain = random_dense_chain(n, np.random.default_rng(seed))
    pi = cf.cycle_stationary(chain, 0)
    assert cf.invariance_residual(chain, pi) <= 1e-12
    assert pi.min() >= 0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31),
       st.data())
@settings(max_examples=40, deadline=None)
def test_property_base_point_immaterial(n, seed, data):
    chain = random_dense_chain(n, np.random.default_rng(seed))
    # two distinct bases; one base twice is refused
    first = data.draw(st.integers(0, n - 1))
    second = data.draw(st.integers(0, n - 1).filter(lambda s: s != first))
    assert cf.exchange_residual(chain, first, second) <= 1e-10
