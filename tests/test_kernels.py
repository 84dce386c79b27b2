import numpy as np

import cycleflow as cf
from cycleflow import _kernels as kr


def random_cases(seed, count):
    # mix of permutations and general endomorphisms with arbitrary masks,
    # including the occasional empty or full set
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        m = int(rng.integers(1, 65))
        if rng.random() < 0.5:
            mapping = rng.permutation(m)
        else:
            mapping = rng.integers(0, m, size=m)
        in_set = rng.random(m) < rng.uniform(0.05, 0.95)
        cases.append((mapping.astype(np.int64), in_set))
    return cases


# ---------------------------------------------------------------------------
# scalar reference walks: one start point at a time, independent of the
# vectorised kernels they referee


def _hitting_walk(mapping, in_set):
    # times[i] = least n >= 1 with map^n(i) in the set, -1 if none within m
    # steps; entry[i] = the point first entered (i itself when never).
    m = mapping.shape[0]
    times = np.full(m, -1, dtype=np.int64)
    entry = np.arange(m)
    for i in range(m):
        x = mapping[i]
        n = 1
        while n <= m and not in_set[x]:
            x = mapping[x]
            n += 1
        if n <= m:
            times[i] = n
            entry[i] = x
    return times, entry


def _excursion_walk(mapping, in_set, start_idx, start_wt):
    # Spread each start weight over its orbit until the orbit re-enters the
    # set; the entry point itself is not counted.  Start points must carry
    # positive weight; a walker that fails to return within m steps means
    # the caller's model contradicts itself (status 1).
    m = mapping.shape[0]
    values = np.zeros(m)
    k = start_idx.shape[0]
    cur = start_idx.copy()
    alive = np.ones(k, dtype=np.bool_)
    n_alive = k
    steps = 0
    while n_alive > 0:
        if steps > m:
            return values, 1
        for j in range(k):
            if alive[j]:
                values[cur[j]] += start_wt[j]
        for j in range(k):
            if alive[j]:
                nxt = mapping[cur[j]]
                if in_set[nxt]:
                    alive[j] = False
                    n_alive -= 1
                else:
                    cur[j] = nxt
        steps += 1
    return values, 0


def _backward_hits_walk(inv_mapping, in_set):
    # Does the strict backward orbit {inv(i), inv^2(i), ...} meet the set?
    m = inv_mapping.shape[0]
    out = np.zeros(m, dtype=np.bool_)
    for i in range(m):
        x = i
        for _ in range(m):
            x = inv_mapping[x]
            if in_set[x]:
                out[i] = True
                break
    return out


# ---------------------------------------------------------------------------
# deterministic kernels: scalar walk vs vectorised kernel


def test_hitting_walk_matches_sweep():
    for mapping, in_set in random_cases(11, 60):
        tw, ew = _hitting_walk(mapping, in_set)
        ts, es = kr.hitting_times(mapping, in_set)
        np.testing.assert_array_equal(tw, ts)
        np.testing.assert_array_equal(ew, es)


def test_hitting_times_on_cycle_and_against_walk():
    mapping = np.array([1, 2, 3, 0], dtype=np.int64)
    in_set = np.array([True, False, False, False])
    times, entry = kr.hitting_times(mapping, in_set)
    np.testing.assert_array_equal(times, [4, 3, 2, 1])
    np.testing.assert_array_equal(entry, [0, 0, 0, 0])
    for mapping, in_set in random_cases(12, 40):
        ts, es = kr.hitting_times(mapping, in_set)
        tw, ew = _hitting_walk(mapping, in_set)
        np.testing.assert_array_equal(ts, tw)
        np.testing.assert_array_equal(es, ew)


def test_hitting_empty_set_sentinels():
    mapping = np.array([1, 0], dtype=np.int64)
    none = np.zeros(2, dtype=np.bool_)
    for fn in (_hitting_walk, kr.hitting_times):
        times, entry = fn(mapping, none)
        np.testing.assert_array_equal(times, [-1, -1])
        np.testing.assert_array_equal(entry, [0, 1])


def test_excursion_walk_matches_sweep_bitwise():
    # walkers start inside the set, so every permutation orbit returns
    rng = np.random.default_rng(21)
    for _ in range(60):
        m = int(rng.integers(2, 65))
        mapping = rng.permutation(m).astype(np.int64)
        k = int(rng.integers(1, m + 1))
        members = np.sort(rng.choice(m, size=k, replace=False))
        in_set = np.zeros(m, dtype=np.bool_)
        in_set[members] = True
        start_idx = members.astype(np.int64)
        start_wt = rng.uniform(0.1, 3.0, size=k)
        vw, status_w = _excursion_walk(mapping, in_set, start_idx, start_wt)
        vs, status_s = kr.excursion_mass(mapping, in_set, start_idx, start_wt)
        assert status_w == status_s == 0
        assert vw.tobytes() == vs.tobytes()


def test_excursion_non_returning_orbit_status():
    # 0 is absorbing and outside the set, so the walker from 0 never
    # returns; both forms give up after m+1 sweeps with the same partial
    # accumulation
    mapping = np.array([0, 0], dtype=np.int64)
    in_set = np.array([False, True])
    start = np.array([0], dtype=np.int64)
    wt = np.ones(1)
    vw, status_w = _excursion_walk(mapping, in_set, start, wt)
    vs, status_s = kr.excursion_mass(mapping, in_set, start, wt)
    assert status_w == 1 and status_s == 1
    np.testing.assert_array_equal(vw, [3.0, 0.0])
    np.testing.assert_array_equal(vs, vw)


def test_backward_walk_matches_sweep():
    for inv, in_set in random_cases(31, 60):
        bw = _backward_hits_walk(inv, in_set)
        bs = kr.backward_hits(inv, in_set)
        np.testing.assert_array_equal(bw, bs)


def test_backward_hits_on_cycle():
    # every backward orbit of a 4-cycle passes through every state
    inv = np.array([3, 0, 1, 2], dtype=np.int64)
    hit = kr.backward_hits(inv, np.array([False, False, True, False]))
    np.testing.assert_array_equal(hit, [True, True, True, True])
    none = np.zeros(4, dtype=np.bool_)
    np.testing.assert_array_equal(kr.backward_hits(inv, none), [False] * 4)


def test_backward_fixed_point_reaches_itself():
    inv = np.zeros(1, dtype=np.int64)
    member = np.ones(1, dtype=np.bool_)
    for fn in (_backward_hits_walk, kr.backward_hits):
        np.testing.assert_array_equal(fn(inv, member), [True])


# ---------------------------------------------------------------------------
# doubling depth: random_cases stay below 65 points, six levels at most


def _depth_cases():
    # a 3000-cycle needs twelve levels; the hit set {0} makes every first
    # hit time from 1 to 3000 occur
    cycle = np.roll(np.arange(3000), -1)
    one = np.zeros(3000, dtype=np.bool_)
    one[0] = True
    yield cycle, one
    # rho: a 2000-point tail 0 -> 1 -> ... -> 1999 running into a 5-cycle;
    # hits far down the tail or only on the cycle
    m = 2005
    rho = np.arange(1, m + 1)
    rho[-1] = 2000
    on_cycle = np.zeros(m, dtype=np.bool_)
    on_cycle[2003] = True
    yield rho, on_cycle
    tail_and_cycle = on_cycle.copy()
    tail_and_cycle[1500] = True
    yield rho, tail_and_cycle
    # m = 1 and m = 2^k - 1, 2^k, 2^k + 1 around every level boundary up to
    # 128, on a cycle and on a random map, with empty, full and random sets
    rng = np.random.default_rng(41)
    sizes = [1] + [2 ** k + d for k in range(1, 8) for d in (-1, 0, 1)]
    for m in sizes:
        for mapping in (np.roll(np.arange(m), -1), rng.integers(0, m, size=m)):
            for in_set in (np.zeros(m, dtype=np.bool_),
                           np.ones(m, dtype=np.bool_),
                           rng.random(m) < 0.1):
                yield mapping.astype(np.int64), in_set


def test_hitting_times_at_doubling_depth():
    for mapping, in_set in _depth_cases():
        ts, es = kr.hitting_times(mapping, in_set)
        tw, ew = _hitting_walk(mapping, in_set)
        np.testing.assert_array_equal(ts, tw)
        np.testing.assert_array_equal(es, ew)


def test_backward_hits_at_doubling_depth():
    # backward_hits takes any map as its inverse, so the rho and random
    # maps serve too
    for mapping, in_set in _depth_cases():
        np.testing.assert_array_equal(kr.backward_hits(mapping, in_set),
                                      _backward_hits_walk(mapping, in_set))


# ---------------------------------------------------------------------------
# random kernel: the per-draw code it replaced, kept as referees.  Each
# draw calls gen.random() once and searches an array row.  The referee's
# _draw_index still clamps past-the-end uniforms to the last entry; random
# rows here never reach that clamp (see the stub tests below for it).


def _draw_index_ref(gen, cum):
    idx = np.searchsorted(cum, gen.random(), side="right")
    if idx >= cum.shape[0]:
        idx = cum.shape[0] - 1
    return idx


def _markov_cycle_ref(gen, row_cum, base, occ, lengths, budget):
    c_total = lengths.shape[0]
    steps = 0
    for c in range(c_total):
        occ[c, base] += 1
        x = base
        t = 0
        while True:
            x = _draw_index_ref(gen, row_cum[x])
            t += 1
            steps += 1
            if x == base:
                lengths[c] = t
                break
            occ[c, x] += 1
            if steps >= budget:
                return steps, 1
    return steps, 0


def _bridge_step_ref(gen, k_raw, kpow, prev, target, steps_left):
    total = kpow[steps_left, prev, target]
    u = gen.random() * total
    acc = 0.0
    last = 0
    n = k_raw.shape[0]
    for s in range(n):
        w = k_raw[prev, s] * kpow[steps_left - 1, s, target]
        if w > 0.0:
            acc += w
            last = s
            if u < acc:
                return s
    return last


def _block_states_ref(gen, branch, x0, k_raw, k_cum, lam_cum, res_row_cum,
                      kpow, ell, out):
    if branch == 0:
        prev = x0
        for j in range(ell):
            prev = _draw_index_ref(gen, k_cum[prev])
            out[j] = prev
    else:
        if branch == 1:
            xl = _draw_index_ref(gen, lam_cum)
        else:
            xl = _draw_index_ref(gen, res_row_cum)
        prev = x0
        for j in range(1, ell):
            s = _bridge_step_ref(gen, k_raw, kpow, prev, xl, ell - j + 1)
            out[j - 1] = s
            prev = s
        out[ell - 1] = xl


def _split_chain_ref(gen, k_raw, k_cum, lam_cum, res_cum, kpow, in_regen,
                     eps, ell, occ, lengths, regen_states, traj, marks,
                     budget):
    c_total = lengths.shape[0]
    block = np.empty(ell, dtype=np.int64)
    x = _draw_index_ref(gen, lam_cum)
    pos = 0
    c = 0
    start = 0
    blocks = 0
    occ[0, x] += 1
    record = traj is not None
    if record:
        traj.append(x)
    while True:
        regen = False
        if in_regen[x]:
            # a coin that lands heads with probability 1 is not a draw
            zeta = 1 if eps >= 1.0 or gen.random() < eps else 0
            if record:
                marks.append(zeta)
            if zeta == 1:
                _block_states_ref(gen, 1, x, k_raw, k_cum, lam_cum,
                                  None, kpow, ell, block)
                regen = True
            else:
                _block_states_ref(gen, 2, x, k_raw, k_cum, lam_cum,
                                  res_cum[x], kpow, ell, block)
        else:
            if record:
                marks.append(-1)
            _block_states_ref(gen, 0, x, k_raw, k_cum, lam_cum, None,
                              kpow, ell, block)
        for j in range(ell):
            s = block[j]
            pos += 1
            if record:
                traj.append(s)
            if regen and j == ell - 1:
                lengths[c] = pos - start
                regen_states[c] = s
                c += 1
                if c == c_total:
                    return c, pos, blocks + 1, 0
                start = pos
                occ[c, s] += 1
            else:
                occ[c, s] += 1
        x = block[ell - 1]
        blocks += 1
        if pos >= budget:
            return c, pos, blocks, 1


def _random_rows(rng, n):
    # Dirichlet rows with about a third of the off-diagonal entries zeroed,
    # renormalised; the diagonal stays positive, so no row is empty
    p = rng.dirichlet(np.full(n, rng.uniform(0.3, 2.0)), size=n)
    p[rng.random((n, n)) < 0.3] = 0.0
    p[np.arange(n), np.arange(n)] += 0.05
    return p / p.sum(axis=1, keepdims=True)


def _markov_kernel(gen, chain, base, occ, lengths, budget):
    # the split-kernel call simulate_cycle_estimator makes: R = {base},
    # ell = 1, epsilon = 1, lam = P[base]; returns (steps, status) as the
    # referee does
    in_regen = np.arange(chain.n) == base
    row_cum = chain.row_cumulative
    result = kr.split_chain_batch(
        gen, chain.matrix, row_cum, row_cum[base], None, None, in_regen, 1.0,
        1, occ, lengths, np.zeros(lengths.shape[0], dtype=np.int64), None,
        None, budget)
    return result[1], result[3]


def _markov_pair(chain, base, cycles, budget, seed):
    # (kernel outputs, referee outputs) from equal generators
    outs = []
    for fn, rows in ((_markov_kernel, chain), (_markov_cycle_ref,
                                               chain.row_cumulative)):
        occ = np.zeros((cycles, chain.n), dtype=np.int64)
        lengths = np.zeros(cycles, dtype=np.int64)
        result = fn(np.random.default_rng(seed), rows, base, occ, lengths,
                    budget)
        outs.append((tuple(int(v) for v in result), occ, lengths))
    return outs


def test_markov_cycles_on_split_kernel_match_referee():
    # a full run gives the referee's steps, occupations and lengths; each
    # cycle is rotated to end at base, which leaves its row unchanged
    rng = np.random.default_rng(61)
    long_runs = 0
    for case in range(40):
        n = int(rng.integers(1, 30))
        chain = cf.StochasticMatrix(_random_rows(rng, n))
        base = int(rng.integers(0, n))
        structure = cf.markov.class_structure(chain)
        if not structure.recurrent[structure.labels[base]]:
            continue
        cycles = int(rng.integers(1, 400))
        new, ref = _markov_pair(chain, base, cycles, 10 ** 6, case)
        assert new[0] == ref[0] and new[0][1] == 0
        np.testing.assert_array_equal(new[1], ref[1])
        np.testing.assert_array_equal(new[2], ref[2])
        long_runs += new[0][0] > 3 * kr.UNIFORM_BLOCK
    assert long_runs >= 5


def test_markov_cycles_on_split_kernel_budget_match_referee():
    # the budget runs out inside a cycle: both report status 1, and the
    # kernel stops after exactly `budget` steps with the referee's cycles
    # that closed within them.  The referee checks its budget only on
    # steps that do not return, so it may run on past it.
    rng = np.random.default_rng(62)
    chain = cf.StochasticMatrix(rng.dirichlet(np.ones(25), size=25))
    for budget in (1, 2, 7, 1000, kr.UNIFORM_BLOCK + 1, 5000):
        new, ref = _markov_pair(chain, 3, 10 ** 4, budget, budget)
        assert new[0] == (budget, 1) and ref[0][1] == 1
        ref_lengths = ref[2][ref[2] > 0]
        done = int((np.cumsum(ref_lengths) <= budget).sum())
        np.testing.assert_array_equal(new[2][:done], ref_lengths[:done])
        assert not new[2][done:].any()
        np.testing.assert_array_equal(new[1][:done], ref[1][:done])


def _harris_cases(seed):
    # random kernels with R of one to three states, ell in {1, 2, 3}, and
    # epsilon either fitted (1 on a single-state R) or shrunk below 1
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < 36:
        n = int(rng.integers(2, 16))
        k = _random_rows(rng, n)
        ell = len(cases) % 3 + 1
        regen = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)),
                           replace=False).tolist()
        try:
            fit = cf.fit_minorization(k, regen, ell)
        except cf.errors.InfeasibleMinorizationError:
            continue
        epsilon = fit.epsilon * (0.7 if len(cases) % 2 else 1.0)
        model = cf.HarrisModel(k, regen, ell=ell, epsilon=epsilon,
                               lam=fit.lam)
        # keep models whose cycles close quickly
        conditions = cf.harris_conditions(model)
        if conditions.recurrent and epsilon > 0.05 and \
                conditions.expected_lambda_return < 50:
            cases.append(model)
    return cases


def _split_args(model):
    return (model.kernel.matrix, model.kernel.row_cumulative,
            model.lam_cumulative, model.residual_cumulative(),
            model.kernel_powers, model.regen_mask, model.epsilon, model.ell)


def _split_pair(model, cycles, seed, budget=10 ** 6, record=False):
    # (kernel outputs, referee outputs) from equal generators
    outs = []
    for fn in (kr.split_chain_batch, _split_chain_ref):
        occ = np.zeros((cycles, model.n), dtype=np.int64)
        lengths = np.zeros(cycles, dtype=np.int64)
        regen = np.zeros(cycles, dtype=np.int64)
        traj = [] if record else None
        marks = [] if record else None
        result = fn(np.random.default_rng(seed), *_split_args(model), occ,
                    lengths, regen, traj, marks, budget)
        outs.append((tuple(int(v) for v in result), occ, lengths, regen,
                     traj, marks))
    return outs


def _assert_same(new, ref):
    assert new[0] == ref[0]
    for a, b in zip(new[1:], ref[1:]):
        np.testing.assert_array_equal(a, b)


def test_split_chain_batch_matches_referee():
    long_runs = 0
    seen = set()
    for i, model in enumerate(_harris_cases(71)):
        cycles = 1 + (i * 37) % 300
        new, ref = _split_pair(model, cycles, 100 + i)
        assert new[0][3] == 0
        _assert_same(new, ref)
        long_runs += new[0][1] > 3 * kr.UNIFORM_BLOCK
        seen.add((model.ell, model.epsilon == 1.0))
    assert seen == {(ell, one) for ell in (1, 2, 3) for one in (True, False)}
    assert long_runs >= 5


def test_split_chain_batch_recording_matches_referee():
    # the same trajectory (X_0 and every later state) and coin marks
    for i, model in enumerate(_harris_cases(72)[:18]):
        cycles = 40 + 10 * i
        new, ref = _split_pair(model, cycles, 200 + i, record=True)
        _assert_same(new, ref)
        assert new[0][3] == 0
        assert len(new[4]) == new[0][1] + 1 and len(new[5]) == new[0][2]


def test_split_chain_batch_budget_matches_referee():
    for i, model in enumerate(_harris_cases(73)[:12]):
        for budget in (1, 3, kr.UNIFORM_BLOCK + 2, 4000):
            new, ref = _split_pair(model, 10 ** 4, 300 + i, budget=budget)
            assert new[0][3] == 1
            _assert_same(new, ref)
            new, ref = _split_pair(model, 10 ** 4, 300 + i, budget=budget,
                                   record=True)
            _assert_same(new, ref)


def test_kernels_on_array_rows_and_without_bridge_memo(monkeypatch):
    # rows past the list budget are bisected as arrays, and bridge tables
    # past the memo's size are rebuilt on each use; the draws are the same
    monkeypatch.setattr(kr, "ROW_LIST_ENTRIES", 0)
    monkeypatch.setattr(kr, "BRIDGE_TABLES", 1)
    rng = np.random.default_rng(76)
    chain = cf.StochasticMatrix(rng.dirichlet(np.ones(20), size=20))
    new, ref = _markov_pair(chain, 4, 300, 10 ** 6, 76)
    _assert_same(new, ref)
    for i, model in enumerate(_harris_cases(77)[:12]):
        new, ref = _split_pair(model, 150, 400 + i, record=True)
        _assert_same(new, ref)


def test_scalar_block_and_bridge_paths_match_referee():
    # split_block and BridgeLaw.sample draw one uniform per gen.random()
    for i, model in enumerate(_harris_cases(74)):
        args = _split_args(model)
        gen = np.random.default_rng(i)
        gen_ref = np.random.default_rng(i)
        out = np.empty(model.ell, dtype=np.int64)
        for _ in range(30):
            x = int(gen.integers(0, model.n))
            gen_ref.integers(0, model.n)
            if model.regen_mask[x]:
                zeta = int(model.epsilon >= 1.0 or gen.random() < 0.5)
                if model.epsilon < 1.0:
                    gen_ref.random()
                branch = 1 if zeta else 2
            else:
                zeta, branch = None, 0
            got = cf.split_block(model, x, zeta, gen)
            _block_states_ref(gen_ref, branch, x, args[0], args[1], args[2],
                              args[3][x], args[4], model.ell, out)
            np.testing.assert_array_equal(got, out)
            end = int(got[-1])
            law = cf.BridgeLaw(model, x, end)
            path = law.sample(gen)
            prev = x
            for j in range(1, model.ell):
                prev = _bridge_step_ref(gen_ref, args[0], args[4], prev, end,
                                        model.ell - j + 1)
                assert path[j - 1] == prev
        assert gen.random() == gen_ref.random()


def _near(value):
    # value and its floating neighbours two ulps either side
    out = [value]
    up = down = value
    for _ in range(2):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return [float(v) for v in out]


def test_draws_match_referee_at_running_sum_boundaries():
    # uniforms placed on and around every running sum, where any change
    # in the order or rounding of the sums would pick a neighbour
    for model in _harris_cases(75)[:12]:
        k_raw, k_cum, _, _, kpow, _, _, ell = _split_args(model)
        for x in range(model.n):
            for u in {v for c in k_cum[x] for v in _near(c)}:
                if 0.0 <= u < k_cum[x, -1]:
                    assert kr._draw_index(_StubGen(u), k_cum[x].tolist()) \
                        == _draw_index_ref(_StubGen(u), k_cum[x])
            for end in range(model.n):
                for steps_left in range(2, ell + 1):
                    if kpow[steps_left, x, end] == 0.0:
                        continue
                    table = kr.bridge_table(k_raw, kpow, x, end, steps_left)
                    total = table[2]
                    for u in {v for c in table[1] for v in _near(c / total)}:
                        if 0.0 <= u < 1.0:
                            assert kr._bridge_step(_StubGen(u), table) == \
                                _bridge_step_ref(_StubGen(u), k_raw, kpow, x,
                                                 end, steps_left)


# ---------------------------------------------------------------------------
# the clamp: a uniform past a row's rounded total


class _StubGen:
    """Returns the same uniform every time, singly or in blocks."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


_SHORT_ROW = [0.1] * 10 + [0.0]
_TOP = 1.0 - 2.0 ** -53


def test_short_row_reaches_the_clamp():
    cum = np.cumsum(_SHORT_ROW)
    assert cum[-1] == 0.9999999999999999 and _TOP >= cum[-1]
    # the old clamp lands on the zero-probability last state
    assert _draw_index_ref(_StubGen(_TOP), cum) == 10


def test_draw_index_clamps_to_last_positive_entry():
    cum = np.cumsum(_SHORT_ROW)
    for row in (cum, cum.tolist()):
        assert kr._draw_index(_StubGen(_TOP), row) == 9
        assert kr._draw_index(_StubGen(0.95), row) == 9
        assert kr._draw_index(_StubGen(0.05), row) == 0
    # zeros before the last rise are skipped as well
    cum = np.cumsum([0.0, 0.5, 0.0, 0.4999999999999998, 0.0, 0.0])
    assert cum[-1] < _TOP
    assert kr._draw_index(_StubGen(_TOP), cum) == 3


def test_kernels_clamp_to_last_positive_entry():
    # Markov: from 0 the short row must go to 9, never to 10, and 9
    # returns to 0; each cycle is 0 -> 9 -> 0
    p = np.zeros((11, 11))
    p[0] = _SHORT_ROW
    p[1:, 0] = 1.0
    occ = np.zeros((3, 11), dtype=np.int64)
    lengths = np.zeros(3, dtype=np.int64)
    assert _markov_kernel(_StubGen(_TOP), cf.StochasticMatrix(p), 0, occ,
                          lengths, 100) == (6, 0)
    np.testing.assert_array_equal(lengths, [2, 2, 2])
    assert occ[:, 9].tolist() == [1, 1, 1] and occ[:, 10].sum() == 0
    # split chain: every row is the short row, every block starts in R
    # with epsilon = 1, so every endpoint is drawn from the short lam
    k = np.tile(_SHORT_ROW, (11, 1))
    lam_cum = np.cumsum(_SHORT_ROW)
    occ = np.zeros((4, 11), dtype=np.int64)
    lengths = np.zeros(4, dtype=np.int64)
    regen = np.zeros(4, dtype=np.int64)
    traj = []
    kpow = np.stack([np.eye(11), k])
    result = kr.split_chain_batch(
        _StubGen(_TOP), k, np.cumsum(k, axis=1), lam_cum,
        np.zeros((11, 11)), kpow, np.ones(11, dtype=bool), 1.0, 1, occ,
        lengths, regen, traj, [], 100)
    assert result == (4, 4, 4, 0)
    assert regen.tolist() == [9] * 4
    assert traj == [9] * 5
    assert occ[:, 10].sum() == 0
