"""The canonical-storage kernels against their dense references.

`lattice.torsion`, `pi7`/`pi21`, `orbit.rotate_form` and the identity
kernels (`diamond`, `lambda_op`, `decompose4`, `triple_contract`,
`decompose3`, `hodge_star4`) contract the stored components through the slot
and pair matrices; the dense einsum kernels they replaced live on here as
oracles, with the dense inner product that the canonical dot product
replaced.  Every comparison uses the tolerance 1e-13 * max(1, max|reference|).
"""

import sys

import numpy as np
import pytest

from spin7 import algebra, flow, lattice
from spin7.algebra import (LAMBDA_EIGENVALUES, PAIRS, PHI0, TRIPLES, decompose3, decompose4,
                           diamond, endo_split, hodge_star4, lambda_op, pack4, pair_matrix,
                           pi7, pi21, slot_matrix, triple_contract, unpack3, unpack4)
from spin7.flow import flow_step, initial_data
from spin7.lattice import LatticeSpec
from spin7.orbit import rotate_form, so8_exp

from conftest import PHI0C

SPECS = {
    "1-axis": LatticeSpec(active_axes=(0,), points=16),
    "2-axis": LatticeSpec(active_axes=(1, 4), points=8),
    "3-axis": LatticeSpec(active_axes=(0, 2, 7), points=6),
}


def assert_matches(value, reference):
    tol = 1e-13 * max(1.0, float(np.abs(reference).max()))
    assert float(np.abs(value - reference).max()) <= tol


def dense_torsion(spec, phi_canon):
    grad_d = unpack4(lattice.fd_gradient_generic(spec, phi_canon))
    raw = np.einsum("...majkl,...bjkl->...mab", grad_d, unpack4(phi_canon))
    raw = 0.5 * (raw - np.swapaxes(raw, -1, -2)) / 96.0
    return lattice._embed_m_axis(spec, raw, raw.ndim - 3)


def dense_contraction(beta, phi_d):
    return np.einsum("...ab,...abij->...ij", beta, phi_d)


def dense_rotation(r, sigma):
    """Contract the last slot with r, cycle it to the front; four rounds."""
    shape = np.broadcast_shapes(sigma.shape, r.shape[:-2] + (8,) * 4)
    out = np.broadcast_to(sigma, shape).reshape((-1,) + (8,) * 4)
    rt = np.broadcast_to(np.swapaxes(r, -1, -2), shape[:-4] + (8, 8)).reshape(-1, 8, 8)
    for _ in range(4):
        prod = np.matmul(out.reshape(-1, 512, 8), rt)
        out = np.moveaxis(prod.reshape(out.shape), -1, 1)
    return out.reshape(shape)


def dense_inner(sigma, tau):
    """<sigma, tau> = (1/4!) full index contraction of dense 4-forms."""
    return np.sum(sigma * tau, axis=(-4, -3, -2, -1)) / 24.0


def dense_hodge_star4(sigma):
    canon = pack4(sigma)
    out = np.empty_like(canon)
    out[..., algebra._HODGE_COMP] = canon * algebra._HODGE_SIGN
    return unpack4(out)


def dense_lambda_op(sigma, phi):
    sp = np.einsum("...ijmn,...mnkl->...ijkl", sigma, phi)
    t = lambda order: np.einsum(f"...{order}->...ijkl", sp)
    return sp + t("iklj") + t("iljk") + t("jkil") + t("jlki") + t("klij")


def dense_decompose4(sigma, phi):
    """Spectral projectors of dense_lambda_op by Lagrange interpolation."""
    mus = [LAMBDA_EIGENVALUES[d] for d in (1, 7, 27, 35)]
    powers = [sigma]
    for _ in range(3):
        powers.append(dense_lambda_op(powers[-1], phi))
    parts = []
    for lam in mus:
        others = [mu for mu in mus if mu != lam]
        c2 = -sum(others)
        c1 = others[0] * others[1] + others[0] * others[2] + others[1] * others[2]
        c0 = -others[0] * others[1] * others[2]
        den = np.prod([lam - mu for mu in others])
        parts.append((powers[3] + c2 * powers[2] + c1 * powers[1] + c0 * powers[0]) / den)
    return tuple(parts)


def dense_diamond(endo, phi):
    return (np.einsum("...ip,...pjkl->...ijkl", endo, phi)
            + np.einsum("...jp,...ipkl->...ijkl", endo, phi)
            + np.einsum("...kp,...ijpl->...ijkl", endo, phi)
            + np.einsum("...lp,...ijkp->...ijkl", endo, phi))


def dense_triple_contract(sigma, phi):
    raw = np.einsum("...ajkl,...bjkl->...ab", sigma, phi)
    return 0.5 * (raw - np.swapaxes(raw, -1, -2))


def dense_decompose3(gamma, phi):
    x = np.einsum("...ijk,...ijkm->...m", gamma, phi) / 42.0
    gamma8 = np.einsum("...l,...ijkl->...ijk", x, phi)
    return x, gamma - gamma8


LEADS = [(), (5,), (3, 4)]


def kernel_inputs(lead, seed=7):
    """Random sigma, endo and 3-form on `lead`, with an orbit form and a
    noise form (the kernels are bilinear, so any form is a valid input)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (8, 8))
    on_orbit = rotate_form(so8_exp(a - np.swapaxes(a, -1, -2)), PHI0C)
    return (rng.standard_normal(lead + (70,)), rng.standard_normal(lead + (8, 8)),
            rng.standard_normal(lead + (56,)), (on_orbit, rng.standard_normal(lead + (70,))))


@pytest.mark.parametrize("lead", LEADS, ids=str)
def test_identity_kernels_match_dense_references(lead):
    sigma, endo, gamma, phis = kernel_inputs(lead)
    assert_matches(hodge_star4(sigma), pack4(dense_hodge_star4(unpack4(sigma))))
    # the inner product is the dot product of the canonical components
    assert_matches(np.sum(sigma * phis[1], axis=-1), dense_inner(unpack4(sigma), unpack4(phis[1])))
    for phi in phis:
        sig_d, phi_d = unpack4(sigma), unpack4(phi)
        assert_matches(diamond(endo, phi), pack4(dense_diamond(endo, phi_d)))
        assert_matches(lambda_op(sigma, phi), pack4(dense_lambda_op(sig_d, phi_d)))
        for part, ref in zip(decompose4(sigma, phi), dense_decompose4(sig_d, phi_d)):
            assert_matches(part, pack4(ref))
        assert_matches(triple_contract(sigma, phi), dense_triple_contract(sig_d, phi_d))
        x, rest = decompose3(gamma, phi)
        x_ref, rest_ref = dense_decompose3(unpack3(gamma), phi_d)
        assert_matches(x, x_ref)
        assert_matches(unpack3(rest), rest_ref)


def test_diamond_broadcasts_a_batch_of_endomorphisms_on_one_form(rng):
    endo = rng.standard_normal((6, 8, 8))
    assert_matches(diamond(endo, PHI0C), pack4(dense_diamond(endo, PHI0)))
    assert_matches(diamond(endo[0], np.stack([PHI0C, -PHI0C])),
                   pack4(dense_diamond(endo[0], np.stack([PHI0, -PHI0]))))


@pytest.mark.parametrize("lead", LEADS, ids=str)
def test_identity_kernels_build_no_dense_form(lead, monkeypatch):
    sigma, endo, gamma, (phi, _) = kernel_inputs(lead)
    calls = count_unpack4(monkeypatch)
    hodge_star4(sigma)
    diamond(endo, phi)
    lambda_op(sigma, phi)
    decompose4(sigma, phi)
    triple_contract(sigma, phi)
    decompose3(gamma, phi)
    pi7(endo, phi)
    pi21(endo, phi)
    endo_split(endo, phi)
    assert calls == []


def test_slot_and_pair_matrix_layout(rng):
    canon = rng.standard_normal(70)
    dense = unpack4(canon)
    s, p = slot_matrix(canon), pair_matrix(canon)
    for a in range(8):
        for t, (i, j, k) in enumerate(TRIPLES):
            assert s[a, t] == dense[a, i, j, k]
    for m, (a, b) in enumerate(PAIRS):
        for n, (c, d) in enumerate(PAIRS):
            assert p[m, n] == dense[a, b, c, d]
    np.testing.assert_array_equal(p, p.T)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_torsion_matches_dense_reference(name, rng):
    spec = SPECS[name]
    on_orbit = initial_data("random-smooth", {"eps": 0.3}, spec, seed=2).phi
    noise = rng.standard_normal(spec.grid_shape + (70,))
    for phi in (on_orbit, noise):
        t = lattice.torsion(spec, phi)
        assert t.shape == spec.grid_shape + (spec.n_axes, 8, 8)
        assert_matches(lattice._embed_m_axis(spec, t, t.ndim - 3), dense_torsion(spec, phi))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_torsion_of_constant_field_is_exactly_zero(name):
    spec = SPECS[name]
    phi = np.broadcast_to(PHI0C, spec.grid_shape + (70,)).copy()
    assert not np.any(lattice.torsion(spec, phi))


def test_projections_match_dense_reference(rng):
    beta = rng.standard_normal((6, 8, 8))                  # not skew
    noise = rng.standard_normal((6, 70))                   # off the orbit
    for phi in (noise, PHI0C):
        contr = dense_contraction(beta, unpack4(phi))
        assert_matches(pi7(beta, phi), 0.25 * beta - 0.125 * contr)
        assert_matches(pi21(beta, phi), 0.75 * beta + 0.125 * contr)


def test_projections_broadcast(rng):
    beta = rng.standard_normal((3, 5, 8, 8))
    phi = rng.standard_normal((5, 70))
    contr = dense_contraction(beta, unpack4(phi)[None])
    assert_matches(pi7(beta, phi[None]), 0.25 * beta - 0.125 * contr)
    assert_matches(pi7(beta[0, 0], phi), pi7(np.broadcast_to(beta[0, 0], (5, 8, 8)), phi))


def test_rotation_matches_dense_reference(rng):
    r = rng.standard_normal((4, 8, 8)) + 2.0 * np.eye(8)   # invertible, not orthogonal
    assert np.all(np.abs(np.linalg.det(r)) > 1e-3)
    sigma = rng.standard_normal((4, 70))
    assert_matches(rotate_form(r, sigma), pack4(dense_rotation(r, unpack4(sigma))))
    # one matrix on a batch of forms, and a batch of matrices on one form
    assert_matches(rotate_form(r[0], sigma), pack4(dense_rotation(r[0], unpack4(sigma))))
    assert_matches(rotate_form(r, sigma[0]), pack4(dense_rotation(r, unpack4(sigma[0]))))


def test_rotation_by_identity_is_exact(rng):
    sigma = rng.standard_normal((5, 70))
    assert rotate_form(np.eye(8), sigma).tobytes() == sigma.tobytes()
    assert rotate_form(np.eye(8), PHI0C).tobytes() == PHI0C.tobytes()


def test_rotation_of_the_reference_form_stays_isometric(rng):
    a = rng.standard_normal((8, 8))
    phi = unpack4(rotate_form(so8_exp(a - a.T), PHI0C))
    assert abs(np.sum(phi * phi) - 336.0) < 1e-10
    np.testing.assert_allclose(phi, dense_rotation(so8_exp(a - a.T), PHI0), atol=1e-12)


def count_unpack4(monkeypatch):
    """Wrap every spin7 module binding of unpack4, as the benchmark tracer
    wraps them; returns the list the wrappers append each call's shape to."""
    calls = []
    real = algebra.unpack4

    def counting(canon):
        calls.append(canon.shape)
        return real(canon)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "spin7" or mod_name.startswith("spin7.")):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_flow_step_builds_no_dense_form(name, monkeypatch):
    calls = count_unpack4(monkeypatch)
    spec = SPECS[name]
    st = initial_data("random-smooth", {"eps": 0.05}, spec, seed=1)
    calls.clear()
    flow_step(st, 0.1 * spec.spacing**2)
    assert calls == []
    flow.metric_drift(st)           # the record's one dense form is still counted
    assert len(calls) == 1
