"""Shared simulation plumbing: the chunk driver and the one regenerative
estimate.

Cycles are independent by construction, so a run of n cycles can be split
into chunks of ``lane_chunk(n_states)`` cycles with one spawned
``SeedSequence`` child per chunk.  Chunk k always owns cycles
[k*size, (k+1)*size), whatever order chunks are executed in, so a parallel
run merges to exactly the serial output.  Both simulators take their
chunks from ``split_chain_chunks`` and fold each into a
``RatioAccumulator``, whose ``estimate()`` is the only place a
``RatioEstimate`` is built.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import BudgetExceededError, PreconditionError


def chunk_plan(n_cycles, chunk_size):
    """Number of cycles handled by each chunk, in chunk order."""
    full, rest = divmod(n_cycles, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def lane_chunk(n_states):
    """Cycles per chunk.  A chunk's cycles run side by side as lanes and
    take as many lockstep iterations as the longest of them, so wide
    chunks cost less; the width is capped so that a chunk's lane state
    (64 bytes a lane) stays within 4 MB and its (cycles x states) int32
    visit counts near 4 MB."""
    return max(4096, min(2 ** 16, 2 ** 20 // n_states))


def count_dtype(budget):
    """dtype of the visit counts of a run of at most ``budget`` steps.  A
    count never exceeds its cycle's length, which never exceeds the steps
    taken, so int32 holds every count below 2**31 steps; int64 beyond."""
    return np.int32 if budget < 2 ** 31 else np.int64


def chunk_generators(seed, n_chunks):
    """One independent ``Generator`` per chunk, each on its own spawned
    ``SeedSequence``.  ``seed`` may be an int or an already-built
    SeedSequence (nested spawning)."""
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n_chunks)]


def split_chain_chunks(seed, n_cycles, budget, args):
    """Yield (occupations, lengths, regen_states) of each chunk of
    ``_kernels.split_chain_batch`` on ``args`` (its arguments from
    ``k_raw`` to ``ell``), occupations in ``count_dtype(budget)``.
    Chunks hold ``lane_chunk(n)`` cycles, the last one the rest.  A run
    past ``budget`` steps raises BudgetExceededError."""
    n = args[0].shape[0]
    plan = chunk_plan(n_cycles, lane_chunk(n))
    dtype = count_dtype(budget)
    used = closed = 0
    for gen, count in zip(chunk_generators(seed, len(plan)), plan):
        occ = np.zeros((count, n), dtype=dtype)
        lengths = np.zeros(count, dtype=np.int64)
        regen_states = np.zeros(count, dtype=np.int64)
        cycles, steps, _, status = _kernels.split_chain_batch(
            gen, *args, occ, lengths, regen_states, None, None,
            budget - used)
        used += int(steps)
        closed += int(cycles)
        if status:
            raise BudgetExceededError(
                "step budget %d exhausted after %d steps and %d of %d "
                "cycles; the regeneration set may be reached too slowly"
                % (budget, used, closed, n_cycles))
        yield occ, lengths, regen_states


def _as_counts(values):
    # integer arrays as they are, anything else as float64
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values
    return values.astype(np.float64, copy=False)


# float64 elements of the buffer that holds a block of centred terms
_BLOCK_ELEMENTS = 2 ** 15


def _centred_sums(occ, mean_occ, d_len):
    # column sums of (occ - mean_occ) * d_len and of (occ - mean_occ) ** 2,
    # a block of rows at a time in one float64 buffer.  sum(axis=0) adds
    # rows in order, so adding the running sum into a block's first row
    # first gives the bits of one sum over all rows.  A single column is
    # summed pairwise instead, so it stays one block
    k, n = occ.shape
    rows = k if n <= 1 else max(1, _BLOCK_ELEMENTS // n)
    buf = np.empty(min(rows, k) * n)
    cross = m2 = None
    for start in range(0, k, rows):
        part = occ[start:start + rows]
        block = buf[:part.size].reshape(part.shape)
        np.subtract(part, mean_occ, out=block, dtype=np.float64)
        block *= d_len[start:start + rows, None]
        if start:
            block[0] += cross
        cross = block.sum(axis=0)
        np.subtract(part, mean_occ, out=block, dtype=np.float64)
        block *= block
        if start:
            block[0] += m2
        m2 = block.sum(axis=0)
    return cross, m2


class RatioEstimate(NamedTuple):
    """The regenerative ratio estimate of a run of cycles.  Its
    ``standard_errors`` are None below two cycles, and ``steps`` is the
    exact sum of the cycle lengths: every step of a finished run lies in
    a closed cycle."""

    n_cycles: int
    pi_hat: np.ndarray
    standard_errors: np.ndarray
    mean_cycle_length: float
    steps: int

    def z_scores(self, pi):
        """Per-state z-scores (pi_hat - pi) / se against an exact law.

        A state of zero standard error, which deterministic cycles give,
        scores 0 when it agrees exactly and +inf when it does not.
        Refused with ``PreconditionError`` below two cycles.
        """
        if self.standard_errors is None:
            raise PreconditionError("standard errors unavailable with fewer "
                                    "than two cycles")
        diff = self.pi_hat - np.asarray(pi, dtype=np.float64)
        se = self.standard_errors
        with np.errstate(divide="ignore", invalid="ignore"):
            z = diff / se
        return np.where(se > 0, z, np.where(diff == 0, 0.0, math.inf))


class RatioAccumulator:
    """Running moments for the regenerative ratio estimate.

    Feeds on (occupation, length) pairs of i.i.d. cycles and produces the
    per-state ratio estimate with its delta-method standard error: with
    Y_c the occupation vector and t_c the length of cycle c,

        pi_hat  = sum Y / sum t
        se      = sd(Y - pi_hat * t) / (sqrt(n) * mean t)

    computed from accumulated moments only, so chunked runs never hold
    all cycles in memory.  pi_hat and the mean length come from plain
    sums; the spread comes from moments centred on each chunk's means and
    merged pairwise (Chan, Golub & LeVeque 1979), which keeps it accurate
    when cycles are long and nearly alike.

    A chunk's centred terms go through one float64 buffer of a fixed size
    (``_BLOCK_ELEMENTS``, 256 KB), a block of rows at a time; integer
    counts are read as they are, never copied to float64, so ``add`` holds
    a small fixed amount of memory beyond its input whatever the chunk's
    size.  On row-major chunks, the kernels' layout, the moments have the
    bits of one pass over the whole chunk (see ``_centred_sums``).
    """

    def __init__(self, n_states):
        self.n_cycles = 0
        self.steps = 0
        self.sum_occ = np.zeros(n_states)
        self.sum_len = 0.0
        # means, centred sums of squares and the centred cross sum
        self.mean_occ = np.zeros(n_states)
        self.mean_len = 0.0
        self.m2_occ = np.zeros(n_states)
        self.m2_len = 0.0
        self.cross = np.zeros(n_states)

    def add(self, occ, lengths):
        # integer counts sum exactly in float64, so they are read as they
        # are
        occ = _as_counts(occ)
        lengths = _as_counts(lengths)
        k = lengths.shape[0]
        if k == 0:
            return
        self.sum_occ += occ.sum(axis=0, dtype=np.float64)
        self.sum_len += lengths.sum(dtype=np.float64)
        self.steps += int(lengths.sum())
        mean_occ = occ.mean(axis=0, dtype=np.float64)
        mean_len = lengths.mean(dtype=np.float64)
        d_len = lengths - mean_len
        cross, m2_occ = _centred_sums(occ, mean_occ, d_len)
        n = self.n_cycles
        total = n + k
        # merge the chunk's centred moments into the running ones
        delta_occ = mean_occ - self.mean_occ
        delta_len = mean_len - self.mean_len
        weight = n * k / total
        self.m2_occ += m2_occ + delta_occ ** 2 * weight
        self.m2_len += (d_len * d_len).sum() + delta_len ** 2 * weight
        self.cross += cross + delta_occ * delta_len * weight
        self.mean_occ += delta_occ * (k / total)
        self.mean_len += delta_len * (k / total)
        self.n_cycles = total

    def estimate(self):
        """The ``RatioEstimate`` of the cycles added so far."""
        n = self.n_cycles
        if n < 1:
            raise ValueError("no cycles accumulated")
        pi_hat = self.sum_occ / self.sum_len
        mean_len = self.sum_len / n
        if n < 2:
            return RatioEstimate(n, pi_hat, None, mean_len, self.steps)
        # sum of squared residuals (Y - pi_hat t) from the centred moments;
        # clip the tiny negatives rounding can produce
        ssd = (self.m2_occ - 2.0 * pi_hat * self.cross
               + pi_hat * pi_hat * self.m2_len)
        ssd = np.maximum(ssd, 0.0)
        se = np.sqrt(ssd / (n - 1) / n) / mean_len
        return RatioEstimate(n, pi_hat, se, mean_len, self.steps)
