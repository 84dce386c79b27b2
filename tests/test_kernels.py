import numpy as np

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
