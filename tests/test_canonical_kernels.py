"""The flow-step kernels on canonical storage against their dense references.

`lattice.torsion`, `pi7`/`pi21` and `orbit.rotate_form` contract the 70
stored components through the slot and pair matrices; the dense einsum
torsion, the dense 2-form contraction and the four-round GEMM rotation they
replaced live on here as oracles.  Every comparison uses the tolerance
1e-13 * max(1, max|reference|).
"""

import sys

import numpy as np
import pytest

from spin7 import algebra, flow, lattice
from spin7.algebra import (PAIRS, PHI0, TRIPLES, pack4, pair_matrix, pi7, pi21,
                           slot_matrix, unpack4)
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
        assert_matches(lattice.torsion(spec, phi), dense_torsion(spec, phi))


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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_flow_step_builds_no_dense_form(name, monkeypatch):
    calls = []
    real = algebra.unpack4

    def counting(canon):
        calls.append(canon.shape)
        return real(canon)

    # every module binding of unpack4, as the benchmark tracer wraps them
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "spin7" or mod_name.startswith("spin7.")):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counting)
    spec = SPECS[name]
    st = initial_data("random-smooth", {"eps": 0.05}, spec, seed=1)
    calls.clear()
    flow_step(st, 0.1 * spec.spacing**2)
    assert calls == []
    flow.metric_drift(st)           # the record's one dense form is still counted
    assert len(calls) == 1
