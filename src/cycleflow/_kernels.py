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

The random-number kernel ``split_chain_batch`` is a scalar loop over a
``numpy.random.Generator``, so a seed fixes every draw.  It serves both
cycle settings: the return cycles of a Markov chain from a base state
are the split chain with R = {base}, ell = 1, epsilon = 1 and
lam = P[base] (Nummelin 1978).  Every draw uses exactly one uniform
double, in a fixed order: the coin, then the block's states (a bridged
block draws its endpoint before its interior).  The coin is tossed only
when epsilon < 1; a coin that lands heads with probability 1 is not a
draw.  The kernel reads those doubles ``UNIFORM_BLOCK`` at a time with
``gen.random(k)``, which returns the same doubles as k calls of
``gen.random()``.  A state is drawn by bisecting its cumulative row,
kept as a Python list, which gives the index
``np.searchsorted(row, u, side="right")`` would.  Reading ahead is safe
because each caller gives a kernel call a fresh generator, one per
chunk, and discards it afterwards, so the unused doubles of the last
block are never wanted.  The scalar paths (``split_block``,
``BridgeLaw.sample``) take the caller's generator and call
``gen.random()`` once per draw.

Status codes returned by kernels: 0 ok, 1 step budget exhausted.
"""

from bisect import bisect_left, bisect_right
from itertools import chain

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

# uniforms are read from the generator in blocks of this many doubles
UNIFORM_BLOCK = 1024
# cumulative rows are bisected as Python lists up to this many entries per
# matrix, and as arrays beyond it (a list of floats takes four times the
# memory of the array)
ROW_LIST_ENTRIES = 2 ** 20
# at most this many bridge tables are kept per kernel call
BRIDGE_TABLES = 4096


class _Uniforms:
    """Stands in for a generator inside a kernel: iterating over it, or
    calling ``random()``, hands out the generator's doubles in the order
    ``gen.random()`` would."""

    def __init__(self, gen):
        blocks = iter(lambda: gen.random(UNIFORM_BLOCK).tolist(), None)
        self._stream = chain.from_iterable(blocks)
        self.random = self._stream.__next__

    def __iter__(self):
        return self._stream


def _row_lists(cum):
    # rows to bisect: lists while they fit, else the array's own rows
    return cum.tolist() if cum.size <= ROW_LIST_ENTRIES else cum


def _draw_index(gen, cum):
    # cum is a cumulative row (list or array) ending at ~1.  A uniform at
    # or past its end, which rounding allows, falls back on the last entry
    # whose cumulative value rises: that entry has positive probability.
    idx = bisect_right(cum, gen.random())
    if idx == len(cum):
        idx = bisect_left(cum, cum[-1])
    return idx


def bridge_table(k_raw, kpow, prev, target, steps_left):
    """Law of one interior state of a pinned block: with steps_left
    transitions remaining from prev to target, the next state s has
    probability K(prev, s) * K^(steps_left-1)(s, target) /
    K^steps_left(prev, target).

    Returns (states, cumulative, total): the states of positive weight in
    increasing order, the running sums of their weights, accumulated left
    to right, and the normalising total."""
    w = k_raw[prev] * kpow[steps_left - 1, :, target]
    states = np.flatnonzero(w > 0.0)
    return (states.tolist(), np.cumsum(w[states]).tolist(),
            float(kpow[steps_left, prev, target]))


def _bridge_step(gen, table):
    # one draw from a bridge_table; past the last running sum, the last
    # positive-weight state (state 0 if there is none)
    states, cum, total = table
    idx = bisect_right(cum, gen.random() * total)
    if idx < len(states):
        return states[idx]
    return states[-1] if states else 0


def _block_states(gen, branch, x0, rows, lam_cum, res_row_cum, bridge, ell):
    # The ell states of the block starting at x0, as a list.
    # branch 0: ell plain one-step draws from x0 (rows[x] is the
    #   cumulative row of x).
    # branch 1: endpoint from lam, interior pinned by the bridge law.
    # branch 2: endpoint from the residual row of x0, interior bridged.
    # bridge(prev, end, steps_left) gives the bridge_table of one step.
    out = []
    prev = x0
    if branch == 0:
        for _ in range(ell):
            prev = _draw_index(gen, rows[prev])
            out.append(prev)
        return out
    xl = _draw_index(gen, lam_cum if branch == 1 else res_row_cum)
    for steps_left in range(ell, 1, -1):
        prev = _bridge_step(gen, bridge(prev, xl, steps_left))
        out.append(prev)
    out.append(xl)
    return out


def _bridge_tables(k_raw, kpow):
    # bridge_table, remembering up to BRIDGE_TABLES tables
    tables = {}

    def table(prev, target, steps_left):
        key = (prev, target, steps_left)
        found = tables.get(key)
        if found is None:
            found = bridge_table(k_raw, kpow, prev, target, steps_left)
            if len(tables) < BRIDGE_TABLES:
                tables[key] = found
        return found

    return table


def split_chain_batch(gen, k_raw, k_cum, lam_cum, res_cum, kpow, in_regen,
                      eps, ell, occ, lengths, regen_states, traj, marks,
                      budget):
    # Run the split chain from X_0 ~ lam until len(lengths) regenerations
    # occur.  Blocks start at multiples of ell.  A block that starts in the
    # small set tosses a coin with success probability eps; success makes
    # the block end a regeneration with endpoint drawn from lam, failure
    # draws the endpoint from the residual row, and the interior is
    # bridged.  A block that starts outside the set is ell plain draws,
    # made inline.  res_cum is read only when eps < 1 and kpow only when
    # ell > 1.  Cycle c covers the half-open time window between
    # regenerations; regen_states[c] is the endpoint that closed it.
    # Visits are counted in a list and written into occ[c] when the cycle
    # closes or the kernel returns.  traj and marks, unless None, are
    # lists that receive X_0 and every later state, and the coin of each
    # block (-1 where none was tossed).
    c_total = lengths.shape[0]
    n = k_cum.shape[0]
    uniforms = _Uniforms(gen)
    rows = _row_lists(k_cum)
    res_rows = _row_lists(res_cum) if eps < 1.0 else None
    lam = lam_cum.tolist()
    bridge = _bridge_tables(k_raw, kpow)
    regen_set = in_regen.tolist()
    record = traj is not None
    x = _draw_index(uniforms, lam)
    pos = 0
    c = 0
    start = 0
    counts = [0] * n
    counts[x] += 1
    if record:
        traj.append(x)
    while True:
        if regen_set[x]:
            zeta = 1 if eps >= 1.0 or uniforms.random() < eps else 0
            block = _block_states(uniforms, 2 - zeta, x, rows, lam,
                                  None if zeta else res_rows[x], bridge, ell)
            if record:
                marks.append(zeta)
                traj.extend(block)
            x = block[-1]
            for s in block[:-1]:
                counts[s] += 1
            pos += ell
            if zeta:
                occ[c] = counts
                lengths[c] = pos - start
                regen_states[c] = x
                c += 1
                if c == c_total:
                    return c, pos, pos // ell, 0
                start = pos
                counts = [0] * n
            counts[x] += 1
            if pos >= budget:
                occ[c] = counts
                return c, pos, pos // ell, 1
        else:
            # plain blocks until one ends inside the set; the draw is
            # _draw_index, inlined: this loop is the hottest in the package
            block_end = pos + ell
            for u in uniforms:
                row = rows[x]
                x = bisect_right(row, u)
                if x == n:
                    x = bisect_left(row, row[-1])
                counts[x] += 1
                pos += 1
                if record:
                    traj.append(x)
                    if pos == block_end:
                        marks.append(-1)
                if pos < block_end:
                    continue
                if pos >= budget:
                    occ[c] = counts
                    return c, pos, pos // ell, 1
                if regen_set[x]:
                    break
                block_end = pos + ell
