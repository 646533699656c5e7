import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spin7.algebra import (PHI0, QUADS, DegenerateFormError, decompose3, decompose4, diamond,
                           endo_split, hodge_star4, lambda_op, metric_from_form, pi7, pi21,
                           triple_contract, unpack4)
from spin7.orbit import rotate_form, so8_exp

from conftest import PHI0C, pack3, pack4, unpack3

I8 = np.eye(8)

canon70 = arrays(np.float64, (70,), elements=st.floats(-5, 5, allow_nan=False))


# ---------------------------------------------------------------------------
# the reference form and the contraction identities


def test_cayley_form_is_readonly_and_antisymmetric():
    assert not PHI0.flags.writeable
    np.testing.assert_array_equal(PHI0, -np.swapaxes(PHI0, 0, 1))
    np.testing.assert_array_equal(PHI0, unpack4(pack4(PHI0)))


def test_full_self_contraction_336():
    assert abs(np.sum(PHI0 * PHI0) - 336.0) < 1e-12


def test_triple_contraction_42():
    np.testing.assert_allclose(np.einsum("ijkl,ajkl->ia", PHI0, PHI0), 42 * I8,
                               atol=1e-12)


def test_double_contraction_identity():
    lhs = np.einsum("ijkl,abkl->ijab", PHI0, PHI0)
    rhs = (6 * np.einsum("ia,jb->ijab", I8, I8) - 6 * np.einsum("ib,ja->ijab", I8, I8)
           - 4 * PHI0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_identities_survive_rotation(rng):
    a = rng.standard_normal((8, 8))
    phi = unpack4(rotate_form(so8_exp(a - a.T), PHI0C))
    assert abs(np.sum(phi * phi) - 336.0) < 1e-10
    np.testing.assert_allclose(np.einsum("ijkl,ajkl->ia", phi, phi), 42 * I8, atol=1e-11)


# ---------------------------------------------------------------------------
# hodge star


def test_hodge_on_coordinate_form():
    canon = np.zeros(70)
    canon[QUADS.index((0, 1, 2, 3))] = 1.0
    star = hodge_star4(canon)
    assert star[QUADS.index((4, 5, 6, 7))] == 1.0
    assert np.sum(np.abs(star)) == 1.0


def test_hodge_involution(rng):
    sigma = rng.standard_normal((4, 70))
    np.testing.assert_array_equal(hodge_star4(hodge_star4(sigma)), sigma)


def test_cayley_self_dual():
    np.testing.assert_array_equal(hodge_star4(PHI0C), PHI0C)


def test_35_part_anti_self_dual(rng):
    sigma = rng.standard_normal(70)
    part35 = decompose4(sigma, PHI0C)[3]
    np.testing.assert_allclose(hodge_star4(part35), -part35, atol=1e-12)


def test_self_dual_parts(rng):
    sigma = rng.standard_normal(70)
    p1, p7, p27, _ = decompose4(sigma, PHI0C)
    for p in (p1, p7, p27):
        np.testing.assert_allclose(hodge_star4(p), p, atol=1e-12)


# ---------------------------------------------------------------------------
# inner product: the dot product of canonical components


def test_inner_cayley_is_14():
    assert abs(PHI0C @ PHI0C - 14.0) < 1e-13


def test_inner_g_diamond_224():
    gd = diamond(I8, PHI0C)
    assert abs(gd @ gd - 224.0) < 1e-12


# ---------------------------------------------------------------------------
# 2-form projections


@given(arrays(np.float64, (8, 8), elements=st.floats(-3, 3, allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_projection_resolution_of_identity(raw):
    beta = raw - raw.T
    np.testing.assert_allclose(pi7(beta, PHI0C) + pi21(beta, PHI0C), beta,
                               atol=1e-11)


def test_projection_eigenrelations(rng, random_skew):
    b7 = pi7(random_skew, PHI0C)
    b21 = pi21(random_skew, PHI0C)
    np.testing.assert_allclose(np.einsum("ab,abij->ij", b7, PHI0), -6 * b7, atol=1e-12)
    np.testing.assert_allclose(np.einsum("ab,abij->ij", b21, PHI0), 2 * b21, atol=1e-12)
    np.testing.assert_allclose(pi7(b7, PHI0C), b7, atol=1e-13)
    np.testing.assert_allclose(pi21(b7, PHI0C), 0 * b7, atol=1e-13)


def test_21_four_term_identity(random_skew):
    b21 = pi21(random_skew, PHI0C)
    lhs = np.einsum("ab,bpqr->apqr", b21, PHI0)
    rhs = (np.einsum("pi,iqra->apqr", b21, PHI0) + np.einsum("qi,irpa->apqr", b21, PHI0)
           + np.einsum("ri,ipqa->apqr", b21, PHI0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# lambda operator and the 4-form decomposition


def test_lambda_eigenvalue_on_cayley():
    np.testing.assert_allclose(lambda_op(PHI0C, PHI0C), -24 * PHI0C, atol=1e-12)


def test_lambda_eigenvalue_35(rng):
    a0 = rng.standard_normal((8, 8))
    a0 = 0.5 * (a0 + a0.T)
    a0 -= np.trace(a0) / 8 * I8
    img = diamond(a0, PHI0C)
    np.testing.assert_allclose(lambda_op(img, PHI0C), 0 * img, atol=1e-12)


def test_lambda_eigenvalue_7(random_skew):
    img = diamond(pi7(random_skew, PHI0C), PHI0C)
    np.testing.assert_allclose(lambda_op(img, PHI0C), -12 * img, atol=1e-11)


def test_decompose4_of_cayley():
    parts = decompose4(PHI0C, PHI0C)
    np.testing.assert_allclose(parts[0], PHI0C, atol=1e-12)
    for p in parts[1:]:
        np.testing.assert_allclose(p, 0 * PHI0C, atol=1e-12)


@given(canon70)
@settings(max_examples=25, deadline=None)
def test_decompose4_reconstruction_and_orthogonality(canon):
    parts = decompose4(canon, PHI0C)
    np.testing.assert_allclose(sum(parts), canon, atol=1e-10)
    scale = max(1.0, float(np.abs(canon).max()) ** 2)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(parts[i] @ parts[j]) < 1e-9 * scale


def test_decompose4_projector_algebra(rng):
    sigma = rng.standard_normal(70)
    parts = decompose4(sigma, PHI0C)
    for i, p in enumerate(parts):
        again = decompose4(p, PHI0C)
        np.testing.assert_allclose(again[i], p, atol=1e-11)
        for j, q in enumerate(again):
            if j != i:
                np.testing.assert_allclose(q, 0 * q, atol=1e-11)


def test_summand_dimensions():
    # the parts of the 70 canonical basis forms span each summand
    dims = [np.linalg.matrix_rank(p, tol=1e-8) for p in decompose4(np.eye(70), PHI0C)]
    assert dims == [1, 7, 27, 35]


# ---------------------------------------------------------------------------
# diamond and the triple contraction


def test_diamond_of_metric():
    np.testing.assert_allclose(diamond(I8, PHI0C), 4 * PHI0C, atol=1e-13)


def test_diamond_kernel_is_21(random_skew):
    b21 = pi21(random_skew, PHI0C)
    assert np.abs(diamond(b21, PHI0C)).max() < 1e-12


def test_diamond_hodge_transpose(rng):
    a = rng.standard_normal((8, 8))
    abar = 0.25 * np.trace(a) * I8 - a.T
    np.testing.assert_allclose(hodge_star4(diamond(a, PHI0C)), diamond(abar, PHI0C),
                               atol=1e-12)


def test_diamond_inner_product_formula(rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    tr_a, a0, a7, _ = endo_split(a, PHI0C)
    tr_b, b0, b7, _ = endo_split(b, PHI0C)
    lhs = diamond(a, PHI0C) @ diamond(b, PHI0C)
    rhs = 3.5 * tr_a * tr_b + 4 * np.trace(a0 @ b0) - 16 * np.trace(a7 @ b7)
    assert abs(lhs - rhs) < 1e-10


def test_diamond_image_dimensions():
    skew, sym0 = [], []
    for i in range(8):
        for j in range(i, 8):
            m = np.zeros((8, 8))
            m[i, j] = m[j, i] = 1.0
            sym0.append(m - np.trace(m) / 8 * I8)
            if i != j:
                s = np.zeros((8, 8))
                s[i, j], s[j, i] = 1.0, -1.0
                skew.append(s)
    skew = np.array(skew)

    def rank(mats):
        return np.linalg.matrix_rank(
            np.array([diamond(m, PHI0C) for m in mats]), tol=1e-8)

    assert rank([I8]) == 1
    assert rank(sym0) == 35
    assert rank(pi7(skew, PHI0C)) == 7
    assert rank(pi21(skew, PHI0C)) == 0


def test_triple_contract_inverts_diamond(random_skew):
    b7 = pi7(random_skew, PHI0C)
    np.testing.assert_allclose(triple_contract(diamond(b7, PHI0C), PHI0C), 96 * b7,
                               atol=1e-11)


def test_triple_contract_zero_and_kernel_content():
    assert np.abs(triple_contract(np.zeros(70), PHI0C)).max() == 0.0
    # the reference form itself carries no 7-summand content
    assert np.abs(pi7(triple_contract(PHI0C, PHI0C), PHI0C)).max() < 1e-12


def test_triple_contract_kills_other_summands(rng):
    a0 = rng.standard_normal((8, 8))
    a0 = 0.5 * (a0 + a0.T)
    a0 -= np.trace(a0) / 8 * I8
    assert np.abs(pi7(triple_contract(diamond(a0, PHI0C), PHI0C), PHI0C)).max() < 1e-11


# ---------------------------------------------------------------------------
# 3-form decomposition


def test_decompose3_recovers_vector():
    x = I8[1]
    gamma = pack3(np.einsum("l,ijkl->ijk", x, PHI0))
    xr, g48 = decompose3(gamma, PHI0C)
    np.testing.assert_allclose(xr, x, atol=1e-13)
    np.testing.assert_allclose(g48, 0 * g48, atol=1e-12)


def test_decompose3_annihilator(rng):
    _, g48 = decompose3(rng.standard_normal(56), PHI0C)
    np.testing.assert_allclose(np.einsum("ijk,ijkl->l", unpack3(g48), PHI0), np.zeros(8),
                               atol=1e-11)


def test_decompose3_zero():
    x, g48 = decompose3(np.zeros(56), PHI0C)
    assert np.abs(x).max() == 0.0 and np.abs(g48).max() == 0.0


def test_pack3_roundtrip(rng):
    canon = rng.standard_normal(56)
    np.testing.assert_array_equal(pack3(unpack3(canon)), canon)


# ---------------------------------------------------------------------------
# endomorphism split


def test_endo_split_of_metric():
    tr, a0, a7, a21 = endo_split(I8, PHI0C)
    assert tr == 8.0
    for part in (a0, a7, a21):
        assert np.abs(part).max() < 1e-14


def test_endo_split_skew(random_skew):
    tr, a0, _, _ = endo_split(random_skew, PHI0C)
    assert abs(tr) < 1e-13
    assert np.abs(a0).max() < 1e-13


@given(arrays(np.float64, (8, 8), elements=st.floats(-3, 3, allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_endo_split_reconstruction(a):
    tr, a0, a7, a21 = endo_split(a, PHI0C)
    recon = tr / 8.0 * I8 + a0 + a7 + a21
    np.testing.assert_allclose(recon, a, atol=1e-13)


# ---------------------------------------------------------------------------
# the induced metric


def test_metric_of_cayley_is_identity():
    np.testing.assert_allclose(metric_from_form(PHI0), I8, atol=1e-10)


def test_metric_rotation_invariance(random_admissible):
    np.testing.assert_allclose(metric_from_form(random_admissible), I8, atol=1e-10)


def test_metric_conformal_scaling():
    for c in (0.5, 1.3, 2.0):
        np.testing.assert_allclose(metric_from_form(c**4 * PHI0), c * c * I8,
                                   atol=1e-10 * c * c)


def test_metric_degenerate_input():
    canon = np.zeros(70)
    canon[0] = 1.0  # a decomposable 4-form induces no metric
    with pytest.raises(DegenerateFormError):
        metric_from_form(unpack4(canon))


def test_metric_batched(random_admissible):
    batch = np.stack([PHI0, random_admissible])
    g = metric_from_form(batch)
    assert g.shape == (2, 8, 8)
    np.testing.assert_allclose(g, np.broadcast_to(I8, (2, 8, 8)), atol=1e-10)


# ---------------------------------------------------------------------------
# canonical storage


@given(canon70)
@settings(max_examples=50, deadline=None)
def test_pack4_roundtrip(canon):
    np.testing.assert_array_equal(pack4(unpack4(canon)), canon)


def test_unpack4_total_antisymmetry(rng):
    dense = unpack4(rng.standard_normal(70))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        np.testing.assert_array_equal(np.transpose(dense, perm), sign * dense)
