"""Hot loops.

Each kernel has one form.  The first-hit kernels (``hitting_times``,
``backward_hits``) use pointer doubling (Hillis & Steele 1986, "Data
parallel algorithms"): after level k every point knows what happens in
the window of steps [1, 2^k] along its orbit, so ceil(log2 m)
vectorised passes do the work of m single steps.  A first hit always
falls within m steps, so stopping once 2^k >= m gives the answer of a
step-by-step walk on any map, endomorphisms included.
``excursion_mass`` advances every start point one step at a time,
accumulating in step-major order in the dtype of its weights (float64,
int64 or Python ints).

The random-number kernel ``split_chain_batch`` runs the split chain
(Nummelin 1978) on lanes: numpy advances a chunk's cycles side by side,
one lane per cycle, and a lane is done when its cycle closes.  Its
``traj`` and ``marks`` hooks serve the kernel's referee tests; the
simulators pass None.  Recording observes the lanes: each step appends
the (cycle, state) pairs of the visits it counts, and each finished block
its (cycle, coin) pairs, as arrays, so a recorded run draws exactly what
an unrecorded one does.  The return cycles of a Markov chain from a base
state are the split chain with R = {base}, ell = 1, epsilon = 1 and
lam = P[base].  The first iteration draws each lane's X_0 from lam; each
later one reads ``gen.random(live)``, one double per live lane in lane
order, for the lane's next draw: a plain step outside R; in R the coin
(only when epsilon < 1), then the endpoint from lam or the residual row,
then the ell - 1 interior states from the bridge law.  So a seed fixes
every draw.  One draw rule serves all: the first running sum above u, or past
a row's rounded total its last positive entry, on a guide table (Chen &
Asau 1974, ``_lane_draw``) or a bridge row (``_lane_bridge``).

Status codes returned by kernels: 0 ok, 1 step budget exhausted (the
split chain stops before an iteration would take it past its budget).
"""

import numpy as np


# ---------------------------------------------------------------------------
# deterministic orbit kernels


def hitting_times(mapping, in_set):
    # times[i] = least n >= 1 with map^n(i) in the set, -1 if none within m
    # steps; entry[i] = the point first entered (i itself when never).
    # Level k holds the first hit within [1, span], span = 2^k, and
    # jump = map^span; a miss there is completed from the window of
    # jump[i], which starts span steps later.
    m = mapping.shape[0]
    hit = in_set[mapping]
    times = np.where(hit, 1, -1).astype(np.int64)
    entry = np.where(hit, mapping, np.arange(m))
    jump = mapping
    span = 1
    while span < m:
        late = (times == -1) & (times[jump] != -1)
        src = jump[late]
        times[late] = span + times[src]
        entry[late] = entry[src]
        jump = jump[jump]
        span *= 2
    return times, entry


def excursion_mass(mapping, in_set, start_idx, start_wt):
    # Spread each start weight over its orbit until the orbit re-enters the
    # set; the entry point itself is not counted.  Start points must carry
    # positive weight; a walker that fails to return within m steps means
    # the caller's model contradicts itself (status 1).
    m = mapping.shape[0]
    values = np.zeros(m, dtype=start_wt.dtype)
    cur = start_idx.copy()
    wt = start_wt.copy()
    steps = 0
    while cur.size > 0:
        if steps > m:
            return values, 1
        np.add.at(values, cur, wt)
        nxt = mapping[cur]
        keep = ~in_set[nxt]
        cur = nxt[keep]
        wt = wt[keep]
        steps += 1
    return values, 0


def backward_hits(inv_mapping, in_set):
    # Does the strict backward orbit {inv(i), inv^2(i), ...} meet the set?
    # OR-doubling: out covers the window [1, span] of inverse steps and
    # jump = inv^span.  No hitting times are involved.
    m = inv_mapping.shape[0]
    out = in_set[inv_mapping]
    jump = inv_mapping
    span = 1
    while span < m:
        out |= out[jump]
        jump = jump[jump]
        span *= 2
    return out


# ---------------------------------------------------------------------------
# random-number kernels


def guide_table(cum):
    # (running sums then +inf, guide, clamp), read-only, for _lane_draw.
    # guide[x, k] counts the entries of row x whose bucket floor(c * n) is
    # below k, each below every u of bucket k; the clamp is row x's last rise.
    r, n = cum.shape
    bucket = np.minimum((cum * n).astype(np.intp), n)
    bucket += (n + 1) * np.arange(r)[:, None]
    hist = np.bincount(bucket.ravel(), minlength=r * (n + 1)).reshape(r, -1)
    table = (np.hstack((cum, np.full((r, 1), np.inf))),
             np.cumsum(hist, axis=1) - hist, (cum < cum[:, -1:]).sum(axis=1))
    for a in table:
        a.flags.writeable = False
    return table


def _lane_draw(table, base, u):
    # Per lane, the first running sum above u on the row at base of the flat
    # table (its clamp past the end): walk on from the guide while <= u.
    cum, guide, last = table
    n = guide.shape[1] - 1
    flat = base + guide.ravel()[base + (u * n).astype(np.intp)]
    cum = cum.ravel()
    step = (cum[flat] <= u).nonzero()[0]
    while step.size:
        flat[step] += 1
        step = step[cum[flat[step]] <= u[step]]
    flat -= base
    over = (flat == n).nonzero()[0]
    if over.size:
        flat[over] = last[base[over] // (n + 1)]
    return flat


def _lane_bridge(k_raw, kpow, prev, end, steps_left, u):
    # The bridge law of a block pinned at both ends: given the previous
    # state and the steps left to the endpoint, the next interior state s
    # has probability
    #     K(prev, s) K^(steps_left-1)(s, end) / K^steps_left(prev, end).
    # Per lane, the s whose running sum of those weights is first above
    # u * total, past it the last positive.
    w = k_raw[prev] * kpow[steps_left - 1, :, end]
    run = np.cumsum(w, axis=1)
    idx = (run <= (u * kpow[steps_left, prev, end])[:, None]).sum(axis=1)
    over = np.flatnonzero(idx == w.shape[1])  # the last positive state, or 0
    idx[over] = ((w[over] > 0.0) * np.arange(w.shape[1])).max(axis=1)
    return idx


PLAIN, END, COIN, BRIDGE, DONE = range(5)  # a lane's next draw


def split_chain_batch(gen, k_raw, table, lam_row, res_rows, kpow, in_regen,
                      eps, ell, occ, lengths, regen_states, traj, marks,
                      budget):
    # table rows: the kernel's, lam (lam_row), x's residual (res_rows[x]).
    # occ[c], lengths[c], regen_states[c]: cycle c's visits (start
    # included), steps and closing lam draw.  traj and marks, when lists,
    # receive (cycles, states) and (cycles, coins) array pairs in the order
    # the lanes step; a stable sort by cycle puts each cycle's in order.
    count, n = occ.shape
    occ = occ.reshape(-1)
    one = occ.dtype.type(1)  # a Python 1 takes add.at off its fast path
    sure = eps >= 1.0
    # per lane: phase, occ offset of its cycle, state, table offset of its
    # next draw, block endpoint, steps left in the block, cycle length, coin
    lanes = np.zeros((8, count), dtype=np.intp)
    phase, row, x, src, end, left, length, heads = lanes
    row[:], heads[:] = np.arange(count) * n, sure
    done = [0, 0, 0]  # steps, blocks, closed cycles

    def step(idx, s):
        # lanes idx step from x, which their cycles visit, to s
        length[idx] += 1
        np.add.at(occ, row[idx] + x[idx], one)
        if traj is not None:
            traj.append((row[idx] // n, x[idx]))
        x[idx] = s

    def begin(idx):
        # a block starts at x: a coin block in the set, plain draws outside
        at = x[idx]
        inside = in_regen[at]
        phase[idx] = np.where(inside, END if sure else COIN, PLAIN)
        src[idx] = np.where(inside, lam_row, at) * (n + 1)
        left[idx] = ell

    def finish(idx, e):
        # coin blocks step to their endpoints e; heads close their cycles
        step(idx, e)
        done[1] += idx.size
        if marks is not None:
            marks.append((row[idx] // n, heads[idx]))
        won = heads[idx] == 1
        closing = idx[won]
        lengths[row[closing] // n] = length[closing]
        regen_states[row[closing] // n] = e[won]
        done[2] += closing.size
        phase[closing] = DONE
        begin(idx[~won])

    x[:] = _lane_draw(table, src + lam_row * (n + 1), gen.random(count))
    begin(np.arange(count))
    while phase.size:
        counts = np.bincount(phase, minlength=DONE).tolist()
        plain, ends, coin, bridge = [
            (phase == k).nonzero()[0] if counts[k] else x[:0]
            for k in range(DONE)]
        take = counts[PLAIN] + counts[BRIDGE] + (ell == 1) * counts[END]
        if bridge.size:
            take += int(np.count_nonzero(left[bridge] == 2))
        if done[0] + take > budget:
            return done[2], done[0], done[1], 1
        done[0] += take
        u = gen.random(phase.size)
        s = _lane_draw(table, src, u)  # coin and bridge lanes ignore theirs
        if plain.size:
            step(plain, s[plain])
            if ell > 1:
                src[plain] = s[plain] * (n + 1)
                left[plain] -= 1
                plain = plain[left[plain] == 0]
            done[1] += plain.size
            if marks is not None:
                marks.append((row[plain] // n, np.full(plain.size, -1)))
            begin(plain)
        if ends.size and ell == 1:
            finish(ends, s[ends])
        elif ends.size:
            end[ends] = s[ends]
            phase[ends] = BRIDGE
        if coin.size:
            heads[coin] = u[coin] < eps
            phase[coin] = END
            src[coin] = np.where(heads[coin], lam_row,
                                 res_rows[x[coin]]) * (n + 1)
        if bridge.size:
            step(bridge, _lane_bridge(k_raw, kpow, x[bridge], end[bridge],
                                      left[bridge], u[bridge]))
            left[bridge] -= 1
            bridge = bridge[left[bridge] == 1]
            finish(bridge, end[bridge])
        if (ell == 1) * ends.size + bridge.size:  # lanes may have closed
            lanes = lanes.take((phase != DONE).nonzero()[0], axis=1)
            phase, row, x, src, end, left, length, heads = lanes
    return done[2], done[0], done[1], 0
