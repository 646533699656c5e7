import numpy as np
import pytest

from spin7.algebra import PHI0, pack4, pi7, unpack4
from spin7.orbit import rotate_form, so8_exp

PHI0C = pack4(PHI0)    # the reference form in canonical storage


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def random_skew(rng):
    a = rng.standard_normal((8, 8))
    return a - a.T


@pytest.fixture
def random_admissible(rng):
    """An admissible form away from the reference point (dense)."""
    a = rng.standard_normal((8, 8))
    return unpack4(rotate_form(so8_exp(0.4 * (a - a.T)), PHI0C))


def unit_pi7_generator(rng):
    a = rng.standard_normal((8, 8))
    a = pi7(a - a.T, PHI0C)
    return a / np.sqrt(np.sum(a * a))
