import functools
from bisect import bisect_left, bisect_right

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
# random kernel.  The scalar single-chain code the lane kernel replaced is
# kept as a law oracle: the kernel's cycles must follow its law.  Each of
# its draws calls gen.random() once and searches an array row; it clamps
# past-the-end uniforms to the last entry, which random rows here never
# reach (see the stub tests below for the clamp).


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
    # the single chain the lanes must match in law; it records nothing
    c_total = lengths.shape[0]
    block = np.empty(ell, dtype=np.int64)
    x = _draw_index_ref(gen, lam_cum)
    pos = 0
    c = 0
    start = 0
    blocks = 0
    occ[0, x] += 1
    while True:
        regen = False
        if in_regen[x]:
            # a coin that lands heads with probability 1 is not a draw
            zeta = 1 if eps >= 1.0 or gen.random() < eps else 0
            if zeta == 1:
                _block_states_ref(gen, 1, x, k_raw, k_cum, lam_cum,
                                  None, kpow, ell, block)
                regen = True
            else:
                _block_states_ref(gen, 2, x, k_raw, k_cum, lam_cum,
                                  res_cum[x], kpow, ell, block)
        else:
            _block_states_ref(gen, 0, x, k_raw, k_cum, lam_cum, None,
                              kpow, ell, block)
        for j in range(ell):
            s = block[j]
            pos += 1
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


# ---------------------------------------------------------------------------
# scalar draws with the kernel's draw rule, one gen.random() each: the
# referees of _lane_draw and _lane_bridge


def _draw_index(gen, cum):
    # cum is a cumulative row ending at ~1.  A uniform at or past its end
    # takes the last entry whose running sum rises (the clamp).
    idx = bisect_right(cum, gen.random())
    if idx == len(cum):
        idx = bisect_left(cum, cum[-1])
    return idx


def _bridge_table(k_raw, kpow, prev, target, steps_left):
    # law of the next interior state s of a pinned block, steps_left steps
    # from target, K(prev, s) K^(steps_left-1)(s, target) /
    # K^steps_left(prev, target), as (states of positive weight in
    # increasing order, running sums of their weights, total)
    w = k_raw[prev] * kpow[steps_left - 1, :, target]
    states = np.flatnonzero(w > 0.0)
    return (states.tolist(), np.cumsum(w[states]).tolist(),
            float(kpow[steps_left, prev, target]))


def _bridge_step(gen, table):
    # one draw from a _bridge_table; past its last sum, its last state
    states, cum, total = table
    idx = bisect_right(cum, gen.random() * total)
    if idx < len(states):
        return states[idx]
    return states[-1] if states else 0


# ---------------------------------------------------------------------------
# the lane referee: a scalar replay of the lane kernel.  Lanes advance one
# at a time in lane order, each on the double the kernel hands it, with
# the scalar _draw_index and _bridge_step.  Lane c runs cycle c and is
# done when it closes; recording appends (cycle, state) per counted visit
# and (cycle, coin) per block.


class _Lane:
    def __init__(self, cycle):
        self.cycle = cycle
        self.phase = "plain"
        self.x = self.end = None
        self.left = self.length = 0
        self.heads = 1


def _lane_ref(gen, k_raw, k_cum, lam_cum, res_cum, kpow, in_regen, eps, ell,
              occ, lengths, regen_states, traj, marks, budget):
    # returns (cycles closed, steps, blocks, status) as the kernel does
    count = lengths.shape[0]
    tally = {"steps": 0, "blocks": 0, "closed": 0}

    def draw(cum, u):
        return _draw_index(_StubGen(float(u)), cum)

    def begin(lane):
        if in_regen[lane.x]:
            lane.phase = "endpoint" if eps >= 1.0 else "coin"
            lane.heads = 1
        else:
            lane.phase = "plain"
            lane.left = ell

    def step(lane, s):
        # the cycle visits the state it leaves
        occ[lane.cycle, lane.x] += 1
        lane.length += 1
        tally["steps"] += 1
        if traj is not None:
            traj.append((lane.cycle, lane.x))
        lane.x = s

    def end_block(lane, mark):
        tally["blocks"] += 1
        if marks is not None:
            marks.append((lane.cycle, mark))

    def close(lane, e):
        step(lane, e)
        end_block(lane, lane.heads)
        if lane.heads:
            lengths[lane.cycle] = lane.length
            regen_states[lane.cycle] = e
            tally["closed"] += 1
            lane.phase = "done"
            return
        begin(lane)

    def advance(lane, u):
        if lane.phase == "plain":
            step(lane, draw(k_cum[lane.x], u))
            lane.left -= 1
            if lane.left == 0:
                end_block(lane, -1)
                begin(lane)
        elif lane.phase == "coin":
            lane.heads = int(u < eps)
            lane.phase = "endpoint"
        elif lane.phase == "endpoint":
            e = draw(lam_cum if lane.heads else res_cum[lane.x], u)
            if ell == 1:
                close(lane, e)
            else:
                lane.end, lane.left, lane.phase = e, ell, "bridge"
        else:
            table = _bridge_table(k_raw, kpow, lane.x, lane.end, lane.left)
            step(lane, _bridge_step(_StubGen(float(u)), table))
            lane.left -= 1
            if lane.left == 1:
                close(lane, lane.end)

    def takes(lane):
        if lane.phase == "plain":
            return 1
        if lane.phase == "endpoint":
            return int(ell == 1)
        if lane.phase == "bridge":
            return 2 if lane.left == 2 else 1
        return 0

    lanes = [_Lane(j) for j in range(count)]
    for lane, u in zip(lanes, gen.random(count)):
        lane.x = draw(lam_cum, u)
        begin(lane)
    while lanes:
        take = sum(map(takes, lanes))
        if tally["steps"] + take > budget:
            return tally["closed"], tally["steps"], tally["blocks"], 1
        before = tally["steps"]
        for lane, u in zip(lanes, gen.random(len(lanes))):
            advance(lane, u)
        assert tally["steps"] - before == take
        lanes = [lane for lane in lanes if lane.phase != "done"]
    return tally["closed"], tally["steps"], tally["blocks"], 0


def _markov_kernel(gen, chain, base, occ, lengths, budget):
    # the split-kernel call simulate_cycle_estimator makes: R = {base},
    # ell = 1, epsilon = 1, lam = P[base]; returns (steps, status) as the
    # referee does
    in_regen = np.arange(chain.n) == base
    result = kr.split_chain_batch(
        gen, chain.matrix, chain.row_guide, base, None, None, in_regen, 1.0,
        1, occ, lengths, np.zeros(lengths.shape[0], dtype=np.int64), None,
        None, budget)
    return result[1], result[3]


def _markov_model(chain, base):
    # the same call as a Harris model, for the lane referee
    return cf.HarrisModel(chain.matrix, [base], ell=1, epsilon=1.0,
                          lam=chain.matrix[base])


def _markov_pair(chain, base, cycles, budget, seed):
    # (kernel outputs, law oracle outputs) on generators of the same seed
    outs = []
    row_cum = np.cumsum(chain.matrix, axis=1)
    for fn, rows in ((_markov_kernel, chain), (_markov_cycle_ref, row_cum)):
        occ = np.zeros((cycles, chain.n), dtype=np.int64)
        lengths = np.zeros(cycles, dtype=np.int64)
        result = fn(np.random.default_rng(seed), rows, base, occ, lengths,
                    budget)
        outs.append((tuple(int(v) for v in result), occ, lengths))
    return outs


def _same_law(a, b, bound=5.0):
    # Two-sample z of every column mean (per-state visits, lengths, ...)
    # between the row samples a and b; a column that never varies must
    # agree exactly.  Returns the largest |z|.
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gap = a.mean(axis=0) - b.mean(axis=0)
    se = np.sqrt(a.var(axis=0, ddof=1) / a.shape[0]
                 + b.var(axis=0, ddof=1) / b.shape[0])
    assert np.all(gap[se == 0] == 0)
    z = np.abs(gap[se > 0] / se[se > 0])
    assert z.size == 0 or z.max() <= bound
    return z.max() if z.size else 0.0


def test_markov_cycles_on_split_kernel_match_referee():
    # Law: the kernel's return cycles and the scalar walk's have the same
    # mean visits and lengths (two-sample z <= 5), and each cycle visits
    # base once and as many states as it takes steps
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
        assert new[0][1] == ref[0][1] == 0
        assert new[0][0] == new[2].sum()
        np.testing.assert_array_equal(new[1].sum(axis=1), new[2])
        assert np.all(new[1][:, base] == 1)
        if cycles > 1:
            _same_law(np.column_stack((new[1], new[2])),
                      np.column_stack((ref[1], ref[2])))
        long_runs += new[0][0] > 3 * 1024
    assert long_runs >= 5


def test_markov_cycles_on_split_kernel_budget_match_referee():
    # the budget runs out inside the run: both report status 1, and the
    # kernel stops before the iteration that would pass the budget, which
    # takes at most one step per cycle
    rng = np.random.default_rng(62)
    chain = cf.StochasticMatrix(rng.dirichlet(np.ones(25), size=25))
    cycles = 10 ** 4
    for budget in (1, 2, 7, 1000, 1025, 5000, 4 * 10 ** 4):
        new, ref = _markov_pair(chain, 3, cycles, budget, budget)
        assert new[0][1] == ref[0][1] == 1
        assert budget - cycles < new[0][0] <= budget
        closed = new[2] > 0
        np.testing.assert_array_equal(new[1][closed].sum(axis=1),
                                      new[2][closed])


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
            fitted = cf.HarrisModel(k, regen, ell=ell)
        except cf.errors.InfeasibleMinorizationError:
            continue
        epsilon = fitted.epsilon * (0.7 if len(cases) % 2 else 1.0)
        model = cf.HarrisModel(k, regen, ell=ell, epsilon=epsilon,
                               lam=fitted.lam)
        # keep models whose cycles close quickly
        conditions = cf.harris_conditions(model)
        if conditions.recurrent and epsilon > 0.05 and \
                conditions.expected_lambda_return < 50:
            cases.append(model)
    return cases


def _split_args(model):
    # the law oracle's and the lane referee's arguments: cumulative rows
    return (model.kernel.matrix, np.cumsum(model.kernel.matrix, axis=1),
            np.cumsum(model.lam), np.cumsum(model.residual_rows(), axis=1),
            model.kernel_powers, model.regen_mask, model.epsilon, model.ell)


def _split_kernel(gen, k_raw, k_cum, lam_cum, res_cum, kpow, in_regen, eps,
                  ell, *rest, model):
    # the kernel call simulate_split_chain makes
    table, res_rows = model.lane_table()
    return kr.split_chain_batch(gen, k_raw, table, model.n, res_rows, kpow,
                                in_regen, eps, ell, *rest)


def _by_cycle(records):
    # (cycle, value) records, the kernel's array pairs or the referee's
    # scalars, as the list of values in cycle order; list.sort is stable,
    # so each cycle's values keep their record order
    pairs = [pair for cycles, values in records
             for pair in zip(np.ravel(cycles).tolist(),
                             np.ravel(values).tolist())]
    pairs.sort(key=lambda pair: pair[0])
    return [value for _, value in pairs]


def _split_run(fn, model, cycles, seed, budget=10 ** 6, record=False):
    # (steps, blocks, ... as ints), counts, lengths, regeneration states,
    # and the recorded path and coins in cycle order (None unrecorded)
    occ = np.zeros((cycles, model.n), dtype=np.int64)
    lengths = np.zeros(cycles, dtype=np.int64)
    regen = np.zeros(cycles, dtype=np.int64)
    traj = [] if record else None
    marks = [] if record else None
    result = fn(np.random.default_rng(seed), *_split_args(model), occ,
                lengths, regen, traj, marks, budget)
    if record:
        traj, marks = _by_cycle(traj), _by_cycle(marks)
    return (tuple(int(v) for v in result), occ, lengths, regen, traj, marks)


def _split_pair(model, cycles, seed, budget=10 ** 6, record=False,
                other=_split_chain_ref):
    # (kernel outputs, other outputs) from generators of the same seed
    kernel = functools.partial(_split_kernel, model=model)
    return [_split_run(fn, model, cycles, seed, budget, record)
            for fn in (kernel, other)]


def _assert_same(new, ref):
    assert new[0] == ref[0]
    for a, b in zip(new[1:], ref[1:]):
        np.testing.assert_array_equal(a, b)


def _one_hot(states, n):
    return np.eye(n, dtype=np.int64)[states]


def test_split_chain_batch_matches_referee():
    # Law: the kernel's cycles and the scalar single chain's have the same
    # mean visits, lengths and regeneration states (two-sample z <= 5);
    # visits add up to lengths, and regeneration states lie in lam's
    # support
    long_runs = 0
    seen = set()
    for i, model in enumerate(_harris_cases(71)):
        cycles = 1 + (i * 37) % 300
        new, ref = _split_pair(model, cycles, 100 + i)
        assert new[0][3] == ref[0][3] == 0 and new[0][0] == cycles
        assert new[0][1] == new[2].sum()
        np.testing.assert_array_equal(new[1].sum(axis=1), new[2])
        assert np.all(model.lam[new[3]] > 0)
        if cycles > 1:
            _same_law(np.column_stack((new[1], new[2],
                                       _one_hot(new[3], model.n))),
                      np.column_stack((ref[1], ref[2],
                                       _one_hot(ref[3], model.n))))
        long_runs += new[0][1] > 3 * 1024
        seen.add((model.ell, model.epsilon == 1.0))
    assert seen == {(ell, one) for ell in (1, 2, 3) for one in (True, False)}
    assert long_runs >= 5


def test_split_chain_batch_recording_matches_referee():
    # Recording observes the lanes: a recorded run has the unrecorded
    # run's cycles, steps and blocks, and the lane referee's path and
    # coins; each cycle's path reproduces its counts and ends in heads
    for i, model in enumerate(_harris_cases(72)[:18]):
        cycles = 40 + 10 * i
        new, ref = _split_pair(model, cycles, 200 + i, record=True,
                               other=_lane_ref)
        _assert_same(new, ref)
        plain = _split_run(functools.partial(_split_kernel, model=model),
                           model, cycles, 200 + i)
        _assert_same(new[:4], plain[:4])
        assert new[0][3] == 0
        assert len(new[4]) == new[0][1] and len(new[5]) == new[0][2]
        path, coins = np.array(new[4]), np.array(new[5])
        ends = np.cumsum(new[2])
        for c in range(cycles):
            np.testing.assert_array_equal(
                np.bincount(path[ends[c] - new[2][c]:ends[c]],
                            minlength=model.n), new[1][c])
        last = np.cumsum(new[2] // model.ell) - 1
        assert np.all(coins[last] == 1)
        assert np.all(np.delete(coins, last) != 1)


def test_split_chain_batch_budget_matches_referee():
    # Both stop with status 1, and the kernel never passes its budget.  A
    # recorded run stops where the unrecorded one does, with the lane
    # referee's path and coins so far.
    exits = 0
    for i, model in enumerate(_harris_cases(73)[:12]):
        for budget in (1, 3, 1026, 4000):
            new, ref = _split_pair(model, 10 ** 4, 300 + i, budget=budget)
            assert new[0][3] == ref[0][3] == 1
            assert new[0][1] <= budget
            taped, lane = _split_pair(model, 300, 300 + i, budget=budget,
                                      record=True, other=_lane_ref)
            _assert_same(taped, lane)
            plain = _split_run(functools.partial(_split_kernel, model=model),
                               model, 300, 300 + i, budget)
            _assert_same(taped[:4], plain[:4])
            assert len(taped[4]) == taped[0][1] <= budget
            exits += taped[0][3]
    assert exits >= 30


def test_split_chain_batch_counts_alike_in_int32_and_int64():
    # an h40-like model (40 Dirichlet(1) rows, R = {0, 1, 2}, ell = 2,
    # fitted minorization) and Markov return cycles of a 60-state
    # Dirichlet(0.2) chain: the same steps, blocks, counts, lengths and
    # regeneration states whatever the count dtype, recorded runs too
    rng = np.random.default_rng(1402)
    harris = cf.HarrisModel(rng.dirichlet(np.ones(40), size=40), [0, 1, 2],
                            ell=2)
    chain = cf.StochasticMatrix(rng.dirichlet(np.full(60, 0.2), size=60))
    for model in (harris, _markov_model(chain, 0)):
        kernel = functools.partial(_split_kernel, model=model)
        for seed in range(3):
            for record, cycles in ((False, 2000), (True, 20)):
                got = []
                for dtype in (np.int32, np.int64):
                    occ = np.zeros((cycles, model.n), dtype=dtype)
                    lengths = np.zeros(cycles, dtype=np.int64)
                    regen = np.zeros(cycles, dtype=np.int64)
                    traj = [] if record else None
                    result = kernel(np.random.default_rng(seed),
                                    *_split_args(model), occ, lengths, regen,
                                    traj, None, 10 ** 6)
                    got.append((tuple(int(v) for v in result), occ, lengths,
                                regen, traj and _by_cycle(traj)))
                assert got[0][1].dtype == np.int32
                assert got[0][0][3] == 0
                _assert_same(*got)


def test_lane_kernel_matches_lane_referee():
    # bit for bit on visits, lengths, regeneration states, steps, blocks,
    # status, path and coins: full runs, budget exits and recording, on
    # ell 1-3 with epsilon = 1 and < 1, and on Markov return cycles
    models = _harris_cases(78)[:24]
    rng = np.random.default_rng(79)
    for _ in range(6):
        n = int(rng.integers(2, 20))
        chain = cf.StochasticMatrix(_random_rows(rng, n))
        if cf.markov.class_structure(chain).recurrent.all():
            models.append(_markov_model(chain, int(rng.integers(0, n))))
    exits = full = 0
    for i, model in enumerate(models):
        for budget in (10 ** 6, 1, 2, 5, 57, 400):
            for record in (False, True):
                cycles = 1 + (7 * i + budget) % 120
                new, ref = _split_pair(model, cycles, 500 + i, budget,
                                       record, other=_lane_ref)
                _assert_same(new, ref)
                assert new[0][1] <= budget
                exits += new[0][3]
                full += 1 - new[0][3]
                if record:
                    assert len(new[4]) == new[0][1]
                    assert len(new[5]) == new[0][2]
    assert exits > 50 and full > 50


def test_markov_lanes_match_lane_referee():
    # the kernel call simulate_cycle_estimator makes replays as the Harris
    # model with R = {base}, ell = 1, epsilon = 1 and lam = P[base]
    rng = np.random.default_rng(80)
    for case in range(12):
        n = int(rng.integers(2, 25))
        chain = cf.StochasticMatrix(rng.dirichlet(np.full(n, 0.3), size=n))
        base = int(rng.integers(0, n))
        for budget in (10 ** 6, 100):
            occ = np.zeros((150, n), dtype=np.int64)
            lengths = np.zeros(150, dtype=np.int64)
            got = _markov_kernel(np.random.default_rng(case), chain, base,
                                 occ, lengths, budget)
            ref = _split_run(_lane_ref, _markov_model(chain, base), 150,
                             case, budget)
            assert got == ref[0][1::2]
            np.testing.assert_array_equal(occ, ref[1])
            np.testing.assert_array_equal(lengths, ref[2])


def _near(value):
    # value and its floating neighbours two ulps either side
    out = [value]
    up = down = value
    for _ in range(2):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return [float(v) for v in out]


def _lane_draws(table, row, us):
    # the lane kernel's draws of the uniforms us from one table row
    us = np.array(us, dtype=np.float64)
    base = np.full(us.size, row * table[0].shape[1], dtype=np.intp)
    return kr._lane_draw(table, base, us).tolist()


def test_draws_match_referee_at_running_sum_boundaries():
    # uniforms placed on and around every running sum, where any change
    # in the order or rounding of the sums would pick a neighbour; the
    # lane draws of every row of the kernel's table (kernel rows, lam,
    # residual rows) and its bridge draws agree with the scalar ones
    for model in _harris_cases(75)[:12]:
        k_raw, k_cum, _, _, kpow, _, _, ell = _split_args(model)
        table = model.lane_table()[0]
        for x in range(model.n):
            us = sorted(u for u in {v for c in k_cum[x] for v in _near(c)}
                        if 0.0 <= u < k_cum[x, -1])
            assert [_draw_index(_StubGen(u), k_cum[x].tolist())
                    for u in us] == \
                [_draw_index_ref(_StubGen(u), k_cum[x]) for u in us]
            for end in range(model.n):
                for steps_left in range(2, ell + 1):
                    if kpow[steps_left, x, end] == 0.0:
                        continue
                    bridge = _bridge_table(k_raw, kpow, x, end, steps_left)
                    total = bridge[2]
                    us = [u for u in {v for c in bridge[1]
                                      for v in _near(c / total)}
                          if 0.0 <= u < 1.0]
                    want = [_bridge_step_ref(_StubGen(u), k_raw, kpow, x,
                                             end, steps_left) for u in us]
                    assert [_bridge_step(_StubGen(u), bridge)
                            for u in us] == want
                    k = len(us)
                    assert kr._lane_bridge(
                        k_raw, kpow, np.full(k, x), np.full(k, end),
                        np.full(k, steps_left), np.array(us)).tolist() == want
        for row in range(table[0].shape[0]):
            cum = table[0][row, :-1]
            us = [u for c in cum for u in _near(c) if 0.0 <= u < 1.0]
            us += [0.0, _TOP, 0.5]
            assert _lane_draws(table, row, us) == \
                [_draw_index(_StubGen(u), cum) for u in us]


def test_lane_draws_match_draw_index_on_edge_rows():
    # guide-table edges: a row whose last entry has no mass (its running
    # sum falls short of 1, so the clamp is reached), a single certain
    # state, subnormal and zero entries, and rows stacked in one table;
    # uniforms on and two ulps around every running sum, 0 and the top
    tiny = 5e-324
    rows = [
        _SHORT_ROW,
        [1.0],
        [tiny, 0.5, tiny, 0.0, 0.5 - 2 * tiny, 0.0],
        [0.0, 0.0, 1e-310, 1.0 - 1e-310, 0.0],
        [0.25, 0.0, 0.25, 0.0, 0.5],
        [1e-3] * 7 + [0.993],
        [0.0] * 5 + [1.0],
    ]
    for row in rows:
        cum = np.cumsum(row)
        table = kr.guide_table(cum[None, :])
        us = [u for c in cum for u in _near(c) if 0.0 <= u < 1.0]
        us += [0.0, tiny, _TOP, 0.95, 0.05]
        got = _lane_draws(table, 0, us)
        assert got == [_draw_index(_StubGen(u), cum) for u in us]
        assert all(row[i] > 0 for i in got)
    width = max(len(r) for r in rows)
    stacked = np.array([np.cumsum(r + [0.0] * (width - len(r)))
                        for r in rows])
    table = kr.guide_table(stacked)
    for i, cum in enumerate(stacked):
        us = [u for c in cum for u in _near(c) if 0.0 <= u < 1.0] + [_TOP]
        assert _lane_draws(table, i, us) == \
            [_draw_index(_StubGen(u), cum) for u in us]


def test_lane_bridge_falls_back_as_bridge_step():
    # a total above the weights' sum sends large uniforms past the last
    # running sum: the last positive state takes them, state 0 when no
    # weight is positive
    k_raw = np.array([[0.2, 0.0, 0.3, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.4, 0.0, 0.0],
                      [0.5, 0.5, 0.0, 0.0]])
    kpow = np.stack([np.eye(4), np.full((4, 4), 0.5), np.ones((4, 4))])
    us = [0.0, 0.1, 0.25, 0.3, 0.99, _TOP]
    for prev in range(4):
        for end in range(4):
            table = _bridge_table(k_raw, kpow, prev, end, 2)
            k = len(us)
            got = kr._lane_bridge(k_raw, kpow, np.full(k, prev),
                                  np.full(k, end), np.full(k, 2),
                                  np.array(us))
            assert got.tolist() == [_bridge_step(_StubGen(u), table)
                                    for u in us]


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
        assert _draw_index(_StubGen(_TOP), row) == 9
        assert _draw_index(_StubGen(0.95), row) == 9
        assert _draw_index(_StubGen(0.05), row) == 0
    # zeros before the last rise are skipped as well
    cum = np.cumsum([0.0, 0.5, 0.0, 0.4999999999999998, 0.0, 0.0])
    assert cum[-1] < _TOP
    assert _draw_index(_StubGen(_TOP), cum) == 3


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
    table = kr.guide_table(np.vstack((np.cumsum(k, axis=1), lam_cum)))
    result = kr.split_chain_batch(
        _StubGen(_TOP), k, table, 11, None, kpow, np.ones(11, dtype=bool),
        1.0, 1, occ, lengths, regen, traj, [], 100)
    assert result == (4, 4, 4, 0)
    assert regen.tolist() == [9] * 4
    assert _by_cycle(traj) == [9] * 4
    assert occ[:, 10].sum() == 0
    # the lane draws of an ell = 3 model on the same rows with lam the
    # short row: a plain block from 1 (rows 1, 9, 9), a lam endpoint from
    # 0 and its bridge from 0 to 9 each stay on 9
    model = cf.HarrisModel(k, [0], ell=3, lam=_SHORT_ROW)
    table, _ = model.lane_table()
    rows = np.array([1, 9, 9, model.n]) * (model.n + 1)
    assert kr._lane_draw(table, rows, _StubGen(_TOP).random(4)).tolist() \
        == [9] * 4
    bridge = kr._lane_bridge(model.kernel.matrix, model.kernel_powers,
                             np.array([0, 9]), np.array([9, 9]),
                             np.array([3, 2]), _StubGen(_TOP).random(2))
    assert bridge.tolist() == [9] * 2
