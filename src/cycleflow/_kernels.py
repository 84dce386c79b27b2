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
int64 or Python ints).  The random-number kernels are scalar loops over
a ``numpy.random.Generator``, so a seed fixes every draw.

Status codes returned by kernels: 0 ok, 1 step budget exhausted,
2 record buffer too small (caller grows it and reruns the chunk).
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


def _draw_index(gen, cum):
    # cum is a cumulative row ending at ~1; clamp guards the float tail.
    idx = np.searchsorted(cum, gen.random(), side="right")
    if idx >= cum.shape[0]:
        idx = cum.shape[0] - 1
    return idx


def markov_cycle_batch(gen, row_cum, base, occ, lengths, budget):
    # Generate len(lengths) independent return cycles from `base`.
    # occ[c, x] counts visits to x during cycle c, the start included and
    # the closing return excluded; lengths[c] is the return time.
    c_total = lengths.shape[0]
    steps = 0
    for c in range(c_total):
        occ[c, base] += 1
        x = base
        t = 0
        while True:
            x = _draw_index(gen, row_cum[x])
            t += 1
            steps += 1
            if x == base:
                lengths[c] = t
                break
            occ[c, x] += 1
            if steps >= budget:
                return steps, 1
    return steps, 0


def _bridge_step(gen, k_raw, kpow, prev, target, steps_left):
    # One interior state of a pinned block: with steps_left transitions
    # remaining from prev to target, the next state s has law
    # K(prev, s) * K^(steps_left-1)(s, target) / K^steps_left(prev, target).
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


def _block_states(gen, branch, x0, k_raw, k_cum, lam_cum, res_row_cum, kpow, ell, out):
    # branch 0: ell plain one-step draws from x0.
    # branch 1: endpoint from lam, interior pinned by the bridge law.
    # branch 2: endpoint from the residual row of x0, interior bridged.
    if branch == 0:
        prev = x0
        for j in range(ell):
            prev = _draw_index(gen, k_cum[prev])
            out[j] = prev
    else:
        if branch == 1:
            xl = _draw_index(gen, lam_cum)
        else:
            xl = _draw_index(gen, res_row_cum)
        prev = x0
        for j in range(1, ell):
            s = _bridge_step(gen, k_raw, kpow, prev, xl, ell - j + 1)
            out[j - 1] = s
            prev = s
        out[ell - 1] = xl


def split_chain_batch(gen, k_raw, k_cum, lam_cum, res_cum, kpow, in_regen,
                      eps, ell, occ, lengths, regen_states, record, traj,
                      marks, budget):
    # Run the split chain until len(lengths) regenerations occur.  Blocks
    # start at multiples of ell; a coin with success probability eps is
    # tossed whenever a block starts inside the small set, and success
    # makes the block end a regeneration with endpoint drawn from lam.
    # Cycle c covers the half-open time window between regenerations;
    # regen_states[c] is the endpoint that closed it.
    c_total = lengths.shape[0]
    block = np.empty(ell, dtype=np.int64)
    x = _draw_index(gen, lam_cum)
    pos = 0
    c = 0
    start = 0
    blocks = 0
    occ[0, x] += 1
    if record:
        if traj.shape[0] < 1:
            return 0, 0, 0, 2
        traj[0] = x
    while True:
        if record and (pos + ell >= traj.shape[0] or blocks >= marks.shape[0]):
            return c, pos, blocks, 2
        regen = False
        if in_regen[x]:
            zeta = 1 if gen.random() < eps else 0
            if record:
                marks[blocks] = zeta
            if zeta == 1:
                _block_states(gen, 1, x, k_raw, k_cum, lam_cum, res_cum[x],
                              kpow, ell, block)
                regen = True
            else:
                _block_states(gen, 2, x, k_raw, k_cum, lam_cum, res_cum[x],
                              kpow, ell, block)
        else:
            if record:
                marks[blocks] = -1
            _block_states(gen, 0, x, k_raw, k_cum, lam_cum, res_cum[x],
                          kpow, ell, block)
        for j in range(ell):
            s = block[j]
            pos += 1
            if record:
                traj[pos] = s
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
