import numpy as np
import pytest

import cycleflow as cf


@pytest.fixture
def rot4():
    """Rotation by one step on four points, uniform mass."""
    return cf.FiniteSystem([1, 2, 3, 0], [0.25] * 4)


@pytest.fixture
def rot4_exact():
    return cf.FiniteSystem.from_rational([1, 2, 3, 0], [1, 1, 1, 1],
                                         [4, 4, 4, 4])


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
