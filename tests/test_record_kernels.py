"""The diagnostics-record kernels against their references.

`metric_from_form` evaluates the frame formula as B = Gamma M Gamma^T on
35 stored components, at the 15 vectors e_0, e_0 +- e_k of the one frame
{e_1..e_7}, in blocks of 16 points, and reads the 7 x 7 block off the B of
e_0.  Two codes it replaced live on here as oracles: the blocked
evaluation at the 36 vectors e_i, e_i + e_j over eight completion frames,
and the frame-by-frame shuffle einsum before it.  Off the orbit the
one-frame metric is first order in the 1-, 27- and 35-summands and
second order along the tangent 7-summand.  The Bianchi and Ricci residuals
read the torsion as stored, one m-slice per active axis; their oracles are
the full 8-slot einsums on that torsion embedded with zero slices.  Every comparison uses the tolerance 1e-13 * max(1, max|reference|).
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spin7 import algebra, lattice
from spin7.algebra import PHI0, DegenerateFormError, decompose4, metric_from_form, unpack4
from spin7.flow import initial_data
from spin7.lattice import LatticeSpec
from spin7.orbit import rotate_form

from conftest import PHI0C

SPECS = {
    "1-axis": LatticeSpec(active_axes=(0,), points=16),
    "2-axis": LatticeSpec(active_axes=(1, 4), points=8),
    "3-axis": LatticeSpec(active_axes=(0, 2, 7), points=6),
}


def assert_matches(value, reference):
    tol = 1e-13 * max(1.0, float(np.abs(reference).max()))
    assert float(np.abs(value - reference).max()) <= tol


# ---------------------------------------------------------------------------
# oracles: the replaced code


def _perm_sign(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _shuffles(total, sizes):
    """(sizes)-shuffles of range(total) with signs, as index arrays."""
    rows = []
    signs = []

    def rec(remaining, blocks):
        if not blocks:
            rows.append([i for blk in blocks_acc for i in blk])
            signs.append(_perm_sign(rows[-1]))
            return
        for blk in itertools.combinations(remaining, blocks[0]):
            blocks_acc.append(blk)
            rec(tuple(x for x in remaining if x not in blk), blocks[1:])
            blocks_acc.pop()
    blocks_acc: list = []
    rec(tuple(range(total)), list(sizes))
    return np.array(rows, dtype=np.int64), np.array(signs, dtype=np.float64)


B_SPLITS, B_SIGNS = _shuffles(7, (2, 2, 3))    # 210 rows: pair, pair, triple
A_SPLITS, A_SIGNS = _shuffles(7, (3, 4))       # 35 rows: triple, quadruple


def frame_g_ww(p3f, phif):
    s = B_SPLITS
    g1 = p3f[..., :, s[:, 0], s[:, 1]]
    g2 = p3f[..., :, s[:, 2], s[:, 3]]
    g3 = B_SIGNS * p3f[..., s[:, 4], s[:, 5], s[:, 6]]
    b = np.einsum("...it,...jt,...t->...ij", g1, g2, g3)
    a = A_SPLITS
    aval = np.einsum("...t,...t->...", A_SIGNS * p3f[..., a[:, 0], a[:, 1], a[:, 2]],
                     phif[..., a[:, 3], a[:, 4], a[:, 5], a[:, 6]])
    g_sq = -(7.0**3 / 6.0 ** (7.0 / 3.0)) * np.cbrt(np.linalg.det(b)) / aval**3
    return np.sqrt(g_sq)


def frame_metric(phi):
    """The frame-by-frame metric: one shuffle einsum per vector, all points at once."""
    g = np.zeros(phi.shape[:-4] + (8, 8))
    sums = {}
    for i in range(8):
        cols = np.array([c for c in range(8) if c != i])
        p3 = phi[..., cols[:, None, None], cols[None, :, None], cols[None, None, :]]
        phif = p3[..., cols, :, :, :]
        g[..., i, i] = frame_g_ww(p3[..., i, :, :, :], phif)
        for j in range(i + 1, 8):
            sums[i, j] = frame_g_ww(p3[..., i, :, :, :] + p3[..., j, :, :, :], phif)
    for (i, j), val in sums.items():
        g[..., i, j] = g[..., j, i] = 0.5 * (val - g[..., i, i] - g[..., j, j])
    return g


TRIPLES7 = np.array(list(itertools.combinations(range(7), 3))).T
QUADS7 = np.array([[x for x in range(7) if x not in r] for r in TRIPLES7.T]).T
QUAD_SIGNS = np.array([_perm_sign(tuple(r) + tuple(q)) for r, q in zip(TRIPLES7.T, QUADS7.T)],
                      dtype=np.float64)


def eight_frame_metric(phi):
    """The blocked eight-frame metric: g(w,w) at e_i and e_i + e_j (i < j), each
    in the completion frame {e_c : c != i}, 32 points at a time, then
    g(u,v) = (g(u+v,u+v) - g(u,u) - g(v,v)) / 2."""
    flat = phi.reshape((-1,) + (8,) * 4)
    g = np.empty((flat.shape[0], 8, 8))
    for start in range(0, flat.shape[0], 32):
        blk = flat[start:start + 32]
        for i in range(8):
            cols = np.delete(np.arange(8), i)
            t, q = cols[TRIPLES7], cols[QUADS7]
            gam = blk[:, i:, t[0], t[1], t[2]]                 # gamma(e_k), k = i..7
            gam[:, 1:] += gam[:, :1]                           # gamma(e_i + e_k)
            aval = gam @ (QUAD_SIGNS * blk[:, q[0], q[1], q[2], q[3]])[:, :, None]
            det_b = np.linalg.det(algebra._frame_b(gam))
            g_sq = -(7.0**3 / 6.0 ** (7.0 / 3.0)) * np.cbrt(det_b) / aval[..., 0] ** 3
            g[start:start + 32, i, i:] = np.sqrt(g_sq)
    lo, hi = np.triu_indices(8, 1)
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    g[:, lo, hi] = g[:, hi, lo] = 0.5 * (g[:, lo, hi] - diag[:, lo] - diag[:, hi])
    return g.reshape(phi.shape[:-4] + (8, 8))


def einsum_bianchi(spec, t_field):
    gt = lattice.fd_gradient_embedded(spec, t_field)
    quad = np.einsum("...iam,...jmb->...ijab", t_field, t_field)
    res = gt - np.swapaxes(gt, -4, -3) - 2.0 * quad + 2.0 * np.swapaxes(quad, -4, -3)
    return float(np.abs(res).max())


def einsum_ricci_field(spec, t_field):
    gt = lattice.fd_gradient_embedded(spec, t_field)
    return (4.0 * np.einsum("...iaja->...ij", gt)
            - 4.0 * np.einsum("...aija->...ij", gt)
            - 8.0 * np.einsum("...ijb,...aba->...ij", t_field, t_field)
            + 8.0 * np.einsum("...ajb,...iba->...ij", t_field, t_field))


# ---------------------------------------------------------------------------
# the induced metric


def pulled_back(a):
    """A^* Phi0, (A^* phi)(x, y, z, w) = phi(Ax, Ay, Az, Aw), in dense storage."""
    return unpack4(rotate_form(np.swapaxes(a, -1, -2), PHI0C))


def gl_plus(rng, count):
    """Random A in GL+(8), kept well conditioned: the frame formula loses
    digits with cond(A) in any evaluation order (1e-12 at cond 100)."""
    a = np.eye(8) + 0.1 * rng.standard_normal((count, 8, 8))
    a[np.linalg.det(a) < 0, 0] *= -1.0
    return a


def orbit_forms(count, seed=2):
    spec = LatticeSpec(active_axes=(0,), points=max(count, 4))
    return initial_data("random-smooth", {"eps": 0.4}, spec, seed=seed).phi_dense()[:count]


def gl_minus(rng, count):
    a = gl_plus(rng, count)
    a[:, 0] *= -1.0
    return a


def test_metric_matches_frame_oracle(rng):
    forms = np.concatenate([orbit_forms(8), pulled_back(gl_plus(rng, 8)),
                            pulled_back(gl_minus(rng, 4)), PHI0[None], 1.7**4 * PHI0[None]])
    g = metric_from_form(forms)
    assert_matches(g, eight_frame_metric(forms))
    assert_matches(g, frame_metric(forms))


def test_kappa_is_the_g2_constant_of_phi0():
    """B(gamma(e_0)) = -6 I_7 exactly at Phi0, and the module pins kappa from it."""
    gam = PHI0[0][np.arange(1, 8)[:, None, None], np.arange(1, 8)[:, None], np.arange(1, 8)]
    b = algebra._frame_b(gam[TRIPLES7[0], TRIPLES7[1], TRIPLES7[2]])
    assert np.array_equal(b, -6.0 * np.eye(7))
    assert algebra._G2_CONST == -6.0


def test_metric_of_pulled_back_form_is_gram_matrix(rng):
    a = gl_plus(rng, 40)
    assert np.all(np.linalg.det(a) > 0)
    assert_matches(metric_from_form(pulled_back(a)), np.swapaxes(a, -1, -2) @ a)


def test_metric_of_orientation_reversing_pullback_is_gram_matrix(rng):
    """det A < 0 flips both A(w)^3 and det(B)^(1/3), so g stays A^T A; -phi
    flips det(B) alone, so it induces no metric."""
    a = gl_minus(rng, 40)
    assert np.all(np.linalg.det(a) < 0)
    assert_matches(metric_from_form(pulled_back(a)), np.swapaxes(a, -1, -2) @ a)
    with pytest.raises(DegenerateFormError, match="not positive"):
        metric_from_form(-pulled_back(a))


@pytest.mark.parametrize("perm", [(1, 0, 2, 3, 4, 5, 6, 7), (7, 0, 1, 2, 3, 4, 5, 6),
                                  (3, 5, 0, 7, 1, 6, 2, 4), (6, 2, 7, 5, 0, 1, 4, 3)])
def test_metric_is_permutation_covariant(perm, rng):
    """With P e_i = e_perm[i], g(P^* phi) = P^T g(phi) P: the frame formula
    singles out e_0, and each perm moves it."""
    p = np.array(perm)
    forms = pulled_back(gl_plus(rng, 12))
    permuted = forms[:, p[:, None, None, None], p[:, None, None], p[:, None], p]
    g = metric_from_form(forms)
    assert_matches(metric_from_form(permuted), g[:, p[:, None], p])


@pytest.mark.parametrize("dim, order", [(1, 1), (7, 2), (27, 1), (35, 1)])
def test_metric_drift_order_per_summand(dim, order, rng):
    """At Phi0 + eps sigma, sigma in one summand, the drift |g - I| is first
    order in the 1- and 35-summands (true metric changes) and in a 27
    direction (off the GL(8)-orbit), and second order along the 7-summand,
    which is tangent to the orbit of rotations."""
    part = decompose4(np.eye(70), PHI0C)[(1, 7, 27, 35).index(dim)]
    sigma = unpack4(rng.standard_normal(70) @ part)
    sigma /= np.abs(sigma).max()
    drift = [float(np.abs(metric_from_form(PHI0 + eps * sigma) - np.eye(8)).max())
             for eps in (1e-4, 1e-5)]
    assert drift[0] / drift[1] == pytest.approx(10.0**order, rel=0.05)


@pytest.mark.parametrize("count", [1, 15, 16, 17, 31, 32, 33, 65])
def test_metric_across_block_edges(count, rng):
    forms = pulled_back(gl_plus(rng, count))
    g = metric_from_form(forms)
    assert g.shape == (count, 8, 8)
    assert_matches(g, frame_metric(forms))


@pytest.mark.parametrize("lead", [(), (5,), (3, 11)])
def test_metric_keeps_leading_shape(lead, rng):
    a = gl_plus(rng, int(np.prod(lead))).reshape(lead + (8, 8))
    g = metric_from_form(pulled_back(a))
    assert g.shape == lead + (8, 8)
    assert_matches(g, np.swapaxes(a, -1, -2) @ a)


def test_metric_reads_strided_input(rng):
    forms = pulled_back(gl_plus(rng, 40))
    strided = np.moveaxis(np.moveaxis(forms, 0, -1).copy(), -1, 0)    # point axis innermost
    assert not strided.flags.c_contiguous
    assert_matches(metric_from_form(strided), metric_from_form(forms))


@pytest.mark.parametrize("bad_point", [0, 40])
def test_degenerate_point_raises_in_any_block(bad_point, rng):
    forms = pulled_back(gl_plus(rng, 70))
    canon = np.zeros(70)
    canon[0] = 1.0                      # decomposable: A(v) vanishes
    forms[bad_point] = unpack4(canon)
    with pytest.raises(DegenerateFormError, match="A\\(v\\) vanishes"):
        metric_from_form(forms)


def test_negative_metric_point_raises_in_a_later_block(rng):
    forms = pulled_back(gl_plus(rng, 70))
    forms[45] = -forms[45]              # A(v) flips sign, so g(v,v)^2 < 0
    with pytest.raises(DegenerateFormError, match="not positive"):
        metric_from_form(forms)


def test_metric_working_set_is_bounded(rng):
    forms = np.ascontiguousarray(np.broadcast_to(pulled_back(gl_plus(rng, 1)), (1024,) + (8,) * 4))
    tracemalloc.start()
    try:
        metric_from_form(forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the curvature residuals


def torsion_fields(spec, rng):
    on_orbit = initial_data("random-smooth", {"eps": 0.3}, spec, seed=2).phi
    t_orbit = lattice.torsion(spec, on_orbit)
    noise = rng.standard_normal(spec.grid_shape + (spec.n_axes, 8, 8))
    return t_orbit, noise


def embedded(spec, t_field):
    return lattice._embed_m_axis(spec, t_field, t_field.ndim - 3)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_bianchi_matches_einsum(name, rng):
    spec = SPECS[name]
    for t_field in torsion_fields(spec, rng):
        ref = einsum_bianchi(spec, embedded(spec, t_field))
        assert abs(lattice.bianchi_residual(spec, t_field) - ref) <= 1e-13 * max(1.0, ref)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ricci_matches_einsum(name, rng):
    spec = SPECS[name]
    for t_field in torsion_fields(spec, rng):
        ref = einsum_ricci_field(spec, embedded(spec, t_field))
        field = lattice.ricci_residual(spec, t_field, return_field=True)
        assert field.shape == ref.shape
        assert_matches(field, ref)
        assert lattice.ricci_residual(spec, t_field) == float(np.abs(field).max())


@pytest.mark.parametrize("name, order", [("1-axis", 2), ("2-axis", 2), ("2-axis", 4),
                                         ("3-axis", 2)])
def test_ricci_is_the_contracted_bianchi_field(name, order, rng):
    """ricci_ij = 4 sum_a res_{ia;ja}: the record's ricci column is a trace
    of the field behind its bianchi column."""
    spec = replace(SPECS[name], stencil_order=order)
    act = list(spec.active_axes)
    for t_field in torsion_fields(spec, rng):
        gt = lattice.fd_gradient_generic(spec, t_field)
        quad = np.matmul(t_field[..., :, None, :, :], t_field[..., None, :, :, :])
        res = gt - np.swapaxes(gt, -4, -3) - 2.0 * quad + 2.0 * np.swapaxes(quad, -4, -3)
        assert float(np.abs(res).max()) == lattice.bianchi_residual(spec, t_field)
        ricci = lattice.ricci_residual(spec, t_field, return_field=True)
        assert_matches(4.0 * np.einsum("...iaja->...ij", res[..., act]), ricci[..., act, :])
