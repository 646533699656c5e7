import numpy as np
import pytest

from spin7 import algebra
from spin7.algebra import PHI0C, QUADS, TRIPLES, pi7, pi21, unpack4
from spin7.orbit import rotate_form, so8_exp

# dense <-> canonical converters for the tests' dense oracles; the library
# converts one way only, by `unpack4` (the metric's input)
_FLAT4 = np.ravel_multi_index(np.array(QUADS).T, (8,) * 4)
_SLOT3, _SIGN3, _ = algebra._index_maps(TRIPLES)


def pack4(sigma):
    """Dense (...,8,8,8,8) -> canonical (...,70)."""
    flat = np.reshape(sigma, np.shape(sigma)[:-4] + (4096,))
    return np.take(flat, _FLAT4, axis=-1)


def pack3(gamma):
    """Dense 3-form -> its 56 ascending-triple components."""
    i, j, k = np.array(TRIPLES).T
    return gamma[..., i, j, k]


def unpack3(canon):
    """Canonical (...,56) -> dense (...,8,8,8)."""
    return algebra._signed_take(canon, _SLOT3, _SIGN3)


def torsion_21_defect(t_field, phi):
    """Max over grid and m of the Frobenius norm of pi21(T_m)."""
    defect = pi21(np.moveaxis(t_field, -3, 0), phi[None])
    return float(np.sqrt(np.max(np.sum(defect * defect, axis=(-1, -2)))))


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
