import os
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

import cycleflow as cf


@pytest.fixture
def rot4():
    """Rotation by one step on four points, uniform mass."""
    return cf.FiniteSystem([1, 2, 3, 0], [0.25] * 4)


def rational(numerators, denominators):
    """Exact weights, one Fraction per numerator and denominator."""
    return [Fraction(int(n), int(d))
            for n, d in zip(numerators, denominators)]


@pytest.fixture
def rot4_exact():
    return cf.FiniteSystem([1, 2, 3, 0], [Fraction(1, 4)] * 4)


@pytest.fixture
def two2():
    """Two disjoint transpositions (0 1)(2 3) with unequal masses."""
    return cf.FiniteSystem([1, 0, 3, 2], [0.3, 0.3, 0.2, 0.2])


@pytest.fixture
def endo3():
    """Non-invertible: 0 -> 1 -> 0 with 2 feeding in at zero mass."""
    return cf.FiniteSystem([1, 0, 0], [0.5, 0.5, 0.0], invertible=False)


@pytest.fixture
def endo2():
    """Everything collapses onto point 0, which carries all the mass."""
    return cf.FiniteSystem([0, 0], [1.0, 0.0], invertible=False)


@pytest.fixture
def mc2():
    return cf.StochasticMatrix(np.array([[2 / 3, 1 / 3], [1 / 4, 3 / 4]]))


@pytest.fixture
def flip2():
    return cf.StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


H3 = np.array([
    [0.5, 0.5, 0.0],
    [0.2, 0.5, 0.3],
    [0.1, 0.4, 0.5],
])

# left eigenvector of H3, solved by hand from pi = pi K
H3_PI = np.array([13.0, 25.0, 15.0]) / 53.0


@pytest.fixture
def h3():
    return H3.copy()


@pytest.fixture
def h3_pi():
    return H3_PI.copy()


def same_estimate(a, b):
    """Assert two ``RatioEstimate``s equal field by field, byte for byte."""
    assert type(a) is type(b) is cf.RatioEstimate
    for name, x, y in zip(a._fields, a, b):
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def by_cycle(records):
    """(cycle, value) records, the split-chain kernel's array pairs or a
    referee's scalars, as the list of values in cycle order; list.sort is
    stable, so each cycle's values keep their record order."""
    pairs = [pair for cycles, values in records
             for pair in zip(np.ravel(cycles).tolist(),
                             np.ravel(values).tolist())]
    pairs.sort(key=lambda pair: pair[0])
    return [value for _, value in pairs]


def recorded_split_chain(model, cycles, seed):
    """The first chunk of ``simulate_split_chain(model, cycles, seed)``,
    recorded through the kernel's ``traj`` and ``marks`` hooks on the
    chunk's own generator.  Returns a namespace with the run's
    occupations, lengths and regen_states, the visited states in cycle
    order as ``trajectory`` (int64) and each cycle's block coins in order
    as ``marks`` (int8: 1 heads, 0 tails, -1 a block started outside R).
    With ends = cumsum(lengths), cycle c is trajectory[ends[c] -
    lengths[c]:ends[c]] and closes at regen_states[c]."""
    assert cycles <= cf._stats.lane_chunk(model.n)  # one chunk
    budget = cf.harris._DEFAULT_STEP_BUDGET
    table, res_rows = model.lane_table
    occ = np.zeros((cycles, model.n), dtype=cf._stats.count_dtype(budget))
    lengths = np.zeros(cycles, dtype=np.int64)
    regen_states = np.zeros(cycles, dtype=np.int64)
    traj, marks = [], []
    status = cf._kernels.split_chain_batch(
        cf._stats.chunk_generators(seed, 1)[0], model.kernel.matrix, table,
        model.n, res_rows, model.kernel_powers, model.regen_mask,
        model.epsilon, model.ell, occ, lengths, regen_states, traj, marks,
        budget)[3]
    assert status == 0
    return types.SimpleNamespace(
        occupations=occ, lengths=lengths, regen_states=regen_states,
        trajectory=np.array(by_cycle(traj), dtype=np.int64),
        marks=np.array(by_cycle(marks), dtype=np.int8))


def tilted(law, shift):
    """``law`` for a monkeypatch, with the share ``shift`` of its result's
    total mass moved from its second heaviest state to its heaviest: the
    total is kept, and the normalised law moves by ``shift``."""
    def tilted_law(*args):
        pi = np.array(law(*args), dtype=np.float64)
        first, second = np.argsort(pi)[::-1][:2]
        mass = shift * pi.sum()
        pi[first] += mass
        pi[second] -= mass
        return pi
    return tilted_law


def run_fresh(code, *args, **environ):
    # run `code` in a new interpreter that imports this checkout's package,
    # with `environ` added to its environment
    src = os.path.dirname(os.path.dirname(cf.__file__))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code] + list(args), env=env,
                          check=True, capture_output=True,
                          text=True).stdout.strip()
