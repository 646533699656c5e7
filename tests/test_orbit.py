import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spin7 import orbit
from spin7.algebra import (PHI0, decompose4, diamond, lambda_op, metric_from_form,
                           pack4, pi7, pi21, unpack4)
from spin7.octonion import OCT_TABLE, oct_mul
from spin7.orbit import bryant_form, rotate_form, so8_exp, spinor_square4

from conftest import PHI0C

I8 = np.eye(8)


def brute_force_theta(x):
    """Loop oracle: Phi0(e_i x, e_j, e_k, e_l) on each ascending quadruple."""
    out = np.zeros((8,) * 4)
    for quad in itertools.combinations(range(8), 4):
        i, j, k, l = quad
        ex = oct_mul(I8[i], x)
        val = sum(ex[m] * PHI0[m, j, k, l] for m in range(8))
        for perm in itertools.permutations(range(4)):
            sign = 1
            p = list(perm)
            for u in range(4):
                for v in range(u + 1, 4):
                    if p[u] > p[v]:
                        sign = -sign
            out[tuple(quad[q] for q in perm)] = sign * val
    return out


# ---------------------------------------------------------------------------
# theta: the polarized square at the real unit, theta(x) = e_0^T _SQUARE x,
# half the derivative of the square along x at psi = 1


def theta_of_square(x):
    return unpack4(np.einsum("cb,...b->...c", orbit._SQUARE[:, 0], x))


def test_theta_matches_brute_force_oracle():
    np.testing.assert_allclose(theta_of_square(I8[1]), brute_force_theta(I8[1]), atol=1e-14)


def test_theta_random_matches_oracle(rng):
    x = rng.standard_normal(8)
    np.testing.assert_allclose(theta_of_square(x), brute_force_theta(x), atol=1e-13)


def test_theta_is_isometric_direction(rng):
    x = rng.standard_normal(8)
    x[0] = 0.0
    th = pack4(brute_force_theta(x))
    # exactly in the 7-summand: eigenvalue -12 under the equivariant operator
    np.testing.assert_allclose(lambda_op(th, PHI0C), -12 * th, atol=1e-12)


def test_theta_of_real_unit_is_cayley():
    np.testing.assert_allclose(brute_force_theta(I8[0]), PHI0, atol=1e-14)


# ---------------------------------------------------------------------------
# bryant parametrization


def unit_spinor(rng, lead=()):
    psi = rng.standard_normal(lead + (8,))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def test_bryant_reference_points():
    np.testing.assert_allclose(unpack4(bryant_form(I8[0])), PHI0, atol=1e-14)
    np.testing.assert_allclose(unpack4(bryant_form(-I8[0])), PHI0, atol=1e-14)


def test_bryant_antipodal_identification(rng):
    psi = unit_spinor(rng)
    np.testing.assert_array_equal(bryant_form(psi), bryant_form(-psi))


def test_bryant_constraint_checked():
    with pytest.raises(ValueError):
        bryant_form(np.array([1.0, 0.5, 0, 0, 0, 0, 0, 0]))
    # a NaN anywhere in a batch is off the sphere too, not a NaN form
    psi = np.tile(I8[0], (3, 1))
    psi[1, 2] = np.nan
    for bad in (np.full(8, np.nan), psi):
        with pytest.raises(ValueError, match="unit-sphere"):
            bryant_form(bad)


def test_bryant_matches_spinor_square(rng):
    for _ in range(5):
        psi = unit_spinor(rng)
        np.testing.assert_allclose(bryant_form(psi), spinor_square4(psi), atol=1e-12)


def test_bryant_is_the_closed_form(rng):
    """The square of psi = f + X, X imaginary, is
    (f^2 - |X|^2) Phi0 + 2 f theta(X) - 2 K(X), with
    K(X)_ijkl = M_ij M_kl - M_ik M_jl + M_il M_jk and M the right
    multiplication by X: the quadratic term is not a wedge with X."""
    for _ in range(3):
        psi = unit_spinor(rng)
        f, x = psi[0], np.concatenate([[0.0], psi[1:]])
        m = np.einsum("ajb,j->ab", OCT_TABLE, x)        # M[a, b] = <e_a x, e_b>
        k_form = (np.einsum("ij,kl->ijkl", m, m) - np.einsum("ik,jl->ijkl", m, m)
                  + np.einsum("il,jk->ijkl", m, m))
        closed = (f * f - x @ x) * PHI0 + 2.0 * f * brute_force_theta(x) - 2.0 * k_form
        np.testing.assert_allclose(unpack4(bryant_form(psi)), closed, rtol=0, atol=1e-15)


def test_bryant_isometric(rng):
    phi = unpack4(bryant_form(unit_spinor(rng)))
    np.testing.assert_allclose(metric_from_form(phi), I8, atol=1e-8)
    assert abs(np.sum(phi * phi) - 336.0) < 1e-10


def test_bryant_equator_admissible(rng):
    x = rng.standard_normal(8)
    x[0] = 0.0
    x /= np.linalg.norm(x)
    phi = bryant_form(x)
    np.testing.assert_allclose(metric_from_form(unpack4(phi)), I8, atol=1e-8)
    # eigen-structure of an admissible form: the form spans its own 1-summand
    parts = decompose4(phi, phi)
    np.testing.assert_allclose(parts[0], phi, atol=1e-10)


def test_spinor_square_stays_canonical(rng):
    """The square of 1024 unit spinors is built on the 70 stored components:
    no dense 8^4 array per point (that alone would take 32 MiB)."""
    psi = unit_spinor(rng, (1024,))
    tracemalloc.start()
    try:
        phi = bryant_form(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert phi.shape == (1024, 70)
    assert spinor_square4(psi[0]).shape == (70,)


def wedge_1_3(x, gamma):
    """Wedge of a vector (as 1-form) with a 3-form, determinant convention."""
    return (np.einsum("...i,...jkl->...ijkl", x, gamma)
            - np.einsum("...j,...ikl->...ijkl", x, gamma)
            + np.einsum("...k,...ijl->...ijkl", x, gamma)
            - np.einsum("...l,...ijk->...ijkl", x, gamma))


def bryant_wedge_form(f, x, alpha, beta):
    """(f^2-|x|^2) Phi0 + alpha f theta + beta x^(x . Phi0): the printed
    family, which misses the admissible orbit for every (alpha, beta)."""
    n2 = np.einsum("...i,...i->...", x, x)
    xphi = np.einsum("...m,mjkl->...jkl", x, PHI0)
    return ((f**2 - n2)[..., None, None, None, None] * PHI0
            + alpha * f[..., None, None, None, None] * brute_force_theta(x)
            + beta * wedge_1_3(x, xphi))


def test_printed_wedge_family_misses_the_orbit(rng):
    """No (alpha, beta) in the f,theta,wedge family reproduces the true
    parametrization: the quadratic term is not a wedge multiple.  The
    best fit is (2, 6/7) with an O(1) defect; document both."""
    psi = unit_spinor(rng)
    f, x = psi[0], np.concatenate([[0.0], psi[1:]])
    truth = unpack4(bryant_form(psi))
    n2 = x @ x
    base = (f * f - n2) * PHI0
    xphi = np.einsum("m,mjkl->jkl", x, PHI0)
    cols = np.stack([(f * brute_force_theta(x)).ravel(), wedge_1_3(x, xphi).ravel()], axis=1)
    coef, residual, *_ = np.linalg.lstsq(cols, (truth - base).ravel(), rcond=None)
    assert abs(coef[0] - 2.0) < 1e-10
    assert abs(coef[1] - 6.0 / 7.0) < 1e-8
    assert residual[0] > 1e-2 * np.sum(truth * truth)
    # and the printed coefficients (2, 8) are far from admissible
    printed = bryant_wedge_form(f, x, 2.0, 8.0)
    assert np.abs(printed - truth).max() > 0.1


# ---------------------------------------------------------------------------
# so8_exp


def test_exp_zero():
    np.testing.assert_array_equal(so8_exp(np.zeros((8, 8))), I8)


def test_exp_transpose_inverse(random_skew):
    r = so8_exp(random_skew)
    np.testing.assert_allclose(so8_exp(-random_skew), r.T, atol=1e-13)


def test_exp_orthogonal_unit_determinant(random_skew):
    r = so8_exp(random_skew)
    assert np.abs(r.T @ r - I8).max() < 1e-13
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_exp_matches_scipy(rng):
    for scale in (0.01, 0.3, 1.0, 3.0):
        a = rng.standard_normal((8, 8))
        a = scale * (a - a.T) / 2
        np.testing.assert_allclose(so8_exp(a), scipy.linalg.expm(a), atol=1e-12)


def test_exp_taylor_remainder(random_skew):
    a = 1e-3 * random_skew
    quad = I8 + a + a @ a / 2
    assert np.abs(so8_exp(a) - quad).max() < 10 * np.abs(a).max() ** 3


def test_exp_batched(rng):
    a = rng.standard_normal((4, 8, 8))
    a = 0.5 * (a - np.swapaxes(a, -1, -2))
    r = so8_exp(a)
    for i in range(4):
        np.testing.assert_allclose(r[i], scipy.linalg.expm(a[i]), atol=1e-12)


# ---------------------------------------------------------------------------
# rotate_form


def test_rotate_identity(rng):
    sigma = rng.standard_normal(70)
    np.testing.assert_allclose(rotate_form(I8, sigma), sigma, atol=1e-15)


def test_rotate_group_action(rng):
    a1, a2 = rng.standard_normal((2, 8, 8))
    r1, r2 = so8_exp(a1 - a1.T), so8_exp(a2 - a2.T)
    sigma = rng.standard_normal(70)
    np.testing.assert_allclose(rotate_form(r1 @ r2, sigma),
                               rotate_form(r1, rotate_form(r2, sigma)), atol=1e-12)


def test_rotate_preserves_admissibility(random_skew):
    phi = rotate_form(so8_exp(random_skew), PHI0C)
    np.testing.assert_allclose(metric_from_form(unpack4(phi)), I8, atol=1e-10)


def test_rotate_derivative_is_diamond(rng):
    a = rng.standard_normal((8, 8))
    a = a - a.T
    t = 1e-5
    fd = (rotate_form(so8_exp(t * a), PHI0C) - rotate_form(so8_exp(-t * a), PHI0C)) / (2 * t)
    np.testing.assert_allclose(fd, diamond(a, PHI0C),
                               atol=50 * t**2 * np.abs(a).max() ** 3)


def test_stabiliser_isotropy(random_skew):
    b21 = pi21(random_skew, PHI0C)
    np.testing.assert_allclose(rotate_form(so8_exp(b21), PHI0C), PHI0C, atol=1e-10)


def test_seven_directions_move_the_form(random_skew):
    b7 = pi7(random_skew, PHI0C)
    moved = rotate_form(so8_exp(b7), PHI0C)
    assert np.abs(moved - PHI0C).max() > 1e-3 * np.abs(b7).max()
