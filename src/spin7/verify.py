"""The exact-identity suite behind `spin7 verify`.

Each check returns (name, max_error, tolerance); the suite passes when
every error is below its tolerance.  Pointwise identities run on the
Cayley form, the square of 1, and on the squares of a bank of seeded unit
spinors, which are rotations of it; the derivative identities run on
one-axis lattice data at two resolutions and check the expected
convergence order instead of an absolute threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, lattice, orbit
from .algebra import (decompose3, decompose4, diamond, endo_split, hodge_star4,
                      lambda_op, metric_from_form, pi7, pi21, slot_matrix, triple_contract,
                      unpack4)
from .flow import initial_data
from .lattice import LatticeSpec
from .octonion import OCT_TABLE

__all__ = ["IdentityResult", "run_suite"]

IDENTITY_TOL = 1e-12
METRIC_TOL = 1e-10
SEED = 20240801
N_SPINORS = 100


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "max_error": self.max_error,
                "tolerance": self.tolerance, "passed": self.passed}


def _contraction_identities(phis: np.ndarray, out: list):
    g = np.eye(8)
    d3 = (np.einsum("ia,jb,kc->ijkabc", g, g, g) + np.einsum("ib,jc,ka->ijkabc", g, g, g)
          + np.einsum("ic,ja,kb->ijkabc", g, g, g) - np.einsum("ia,jc,kb->ijkabc", g, g, g)
          - np.einsum("ib,ja,kc->ijkabc", g, g, g) - np.einsum("ic,jb,ka->ijkabc", g, g, g))

    def rhs1(p):
        r = d3.copy()
        for pos, pat in (("ia", "jkbc"), ("ib", "jkca"), ("ic", "jkab"),
                         ("ja", "kibc"), ("jb", "kica"), ("jc", "kiab"),
                         ("ka", "ijbc"), ("kb", "ijca"), ("kc", "ijab")):
            r -= np.einsum(f"{pos},{pat}->ijkabc", g, p)
        return r

    err1 = err2 = err3 = err4 = 0.0
    for p in phis:
        i1 = np.einsum("ijkl,abcl->ijkabc", p, p)
        err1 = max(err1, float(np.abs(i1 - rhs1(p)).max()))
        i2 = np.einsum("ijkl,abkl->ijab", p, p)
        rhs2 = (6 * np.einsum("ia,jb->ijab", g, g) - 6 * np.einsum("ib,ja->ijab", g, g)
                - 4 * p)
        err2 = max(err2, float(np.abs(i2 - rhs2).max()))
        err3 = max(err3, float(np.abs(np.einsum("ijkl,ajkl->ia", p, p) - 42 * g).max()))
        err4 = max(err4, abs(float(np.sum(p * p)) - 336.0))
    out.append(IdentityResult("triple-index contraction (27-term identity)", err1, IDENTITY_TOL))
    out.append(IdentityResult("double contraction = 6gg - 6gg - 4*form", err2, IDENTITY_TOL))
    out.append(IdentityResult("triple contraction = 42 g", err3, IDENTITY_TOL))
    out.append(IdentityResult("full self-contraction = 336", err4, IDENTITY_TOL))


def _rank_of(images: np.ndarray, tol: float = 1e-8) -> int:
    mat = images.reshape(len(images), -1)
    return int(np.linalg.matrix_rank(mat, tol=tol))


def run_suite(octonion_table: np.ndarray | None = None) -> list[IdentityResult]:
    """Run every identity check; returns one result per named identity.  A
    corrupted `octonion_table` is the suite's negative control."""
    rng = np.random.default_rng(SEED)
    out: list[IdentityResult] = []

    table = OCT_TABLE if octonion_table is None else octonion_table
    square = algebra._square_table(table)
    phic = np.ascontiguousarray(square[:, 0, 0])    # the square of 1: PHI0C under `table`
    phi = unpack4(phic)    # dense, for the checks written in index notation

    # composition algebra
    a = rng.standard_normal((64, 8))
    b = rng.standard_normal((64, 8))
    ab = np.einsum("...i,...j,ijk->...k", a, b, table)
    comp = np.abs(np.linalg.norm(ab, axis=-1)
                  - np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)).max()
    out.append(IdentityResult("octonion composition law |ab| = |a||b|", float(comp),
                              IDENTITY_TOL))

    # contraction identities on the form and the squares of seeded unit spinors
    psis = rng.standard_normal((N_SPINORS, 8))
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    squares = np.einsum("...a,cab,...b->...c", psis, square, psis)
    phis = unpack4(np.concatenate([phic[None], squares], axis=0))
    _contraction_identities(phis, out)

    # self-duality under the standard orientation
    out.append(IdentityResult("self-duality star(form) = form",
                              float(np.abs(hodge_star4(phic) - phic).max()), IDENTITY_TOL))

    # 2-form projections
    beta = rng.standard_normal((8, 8))
    beta -= beta.T
    b7, b21 = pi7(beta, phic), pi21(beta, phic)
    errs = [np.abs(b7 + b21 - beta).max(),
            np.abs(pi7(b7, phic) - b7).max(),
            np.abs(np.einsum("ab,abij->ij", b7, phi) + 6 * b7).max(),
            np.abs(np.einsum("ab,abij->ij", b21, phi) - 2 * b21).max()]
    out.append(IdentityResult("2-form projection eigenrelations (-6 / +2)",
                              float(max(errs)), IDENTITY_TOL))

    # four-term identity for the 21-summand
    lhs = np.einsum("ab,bpqr->apqr", b21, phi)
    rhs = (np.einsum("pi,iqra->apqr", b21, phi) + np.einsum("qi,irpa->apqr", b21, phi)
           + np.einsum("ri,ipqa->apqr", b21, phi))
    out.append(IdentityResult("21-summand four-term identity",
                              float(np.abs(lhs - rhs).max()), IDENTITY_TOL))

    # lambda operator eigenstructure
    sig = rng.standard_normal(70)
    parts = decompose4(sig, phic)
    errs = [np.abs(sum(parts) - sig).max()]
    for part, mu in zip(parts, (-24.0, -12.0, 4.0, 0.0)):
        errs.append(np.abs(lambda_op(part, phic) - mu * part).max())
    for i in range(4):
        for j in range(i + 1, 4):
            errs.append(abs(parts[i] @ parts[j]))
    out.append(IdentityResult("4-form eigen-decomposition (-24,-12,4,0)",
                              float(max(errs)), 1e-11))

    # diamond calculus
    out.append(IdentityResult("metric acts with net degree 4",
                              float(np.abs(diamond(np.eye(8), phic) - 4 * phic).max()),
                              IDENTITY_TOL))
    out.append(IdentityResult("21-summand is the diamond kernel",
                              float(np.abs(diamond(b21, phic)).max()), IDENTITY_TOL))
    a_endo = rng.standard_normal((8, 8))
    abar = 0.25 * np.trace(a_endo) * np.eye(8) - a_endo.T
    out.append(IdentityResult("hodge of diamond via transposed endomorphism",
                              float(np.abs(hodge_star4(diamond(a_endo, phic))
                                           - diamond(abar, phic)).max()), IDENTITY_TOL))
    b_endo = rng.standard_normal((8, 8))
    tr_a, a0, a7, _ = endo_split(a_endo, phic)
    tr_b, b0, b77, _ = endo_split(b_endo, phic)
    inner_lhs = diamond(a_endo, phic) @ diamond(b_endo, phic)
    inner_rhs = 3.5 * tr_a * tr_b + 4 * np.trace(a0 @ b0) - 16 * np.trace(a7 @ b77)
    out.append(IdentityResult("diamond inner-product formula (7/2, 4, -16)",
                              float(abs(inner_lhs - inner_rhs)), 1e-10))
    out.append(IdentityResult("inner products 14 / 224",
                              float(max(abs(phic @ phic - 14.0),
                                        abs(diamond(np.eye(8), phic) @ diamond(np.eye(8), phic)
                                            - 224.0))),
                              IDENTITY_TOL))
    out.append(IdentityResult("triple contraction inverts diamond (96)",
                              float(np.abs(triple_contract(diamond(b7, phic), phic)
                                           - 96 * b7).max()), 1e-10))

    # representation dimensions
    # the 28 skew and 36 trace-free symmetric unit matrices, in pair order
    i, j = algebra._GATHER2
    skew_basis = np.zeros((28, 8, 8))
    skew_basis[np.arange(28), i, j], skew_basis[np.arange(28), j, i] = 1.0, -1.0
    i, j = np.triu_indices(8)
    sym_basis = np.zeros((36, 8, 8))
    sym_basis[np.arange(36), i, j] = sym_basis[np.arange(36), j, i] = 1.0
    sym_basis -= np.trace(sym_basis, axis1=1, axis2=2)[:, None, None] / 8.0 * np.eye(8)
    ranks = (
        _rank_of(diamond(np.eye(8)[None], phic)),
        _rank_of(diamond(sym_basis, phic)),
        _rank_of(diamond(pi7(skew_basis, phic), phic)),
        _rank_of(diamond(pi21(skew_basis, phic), phic)),
    )
    dim_err = float(np.abs(np.array(ranks) - np.array([1, 35, 7, 0])).max())
    out.append(IdentityResult("diamond image dimensions (1, 35, 7, 0)", dim_err, 0.5))
    lam_dims = [_rank_of(part) for part in decompose4(rng.standard_normal((70, 70)), phic)]
    dim_err2 = float(np.abs(np.array(lam_dims) - np.array([1, 7, 27, 35])).max())
    out.append(IdentityResult("4-form summand dimensions (1, 7, 27, 35)", dim_err2, 0.5))

    # 3-form split, canonical: x_l phi_tl = -(x S)_t for S the slot matrix, and
    # the annihilator g48_ijk phi_ijkl, summed over all ijk, is -6 S g48
    s_phi = slot_matrix(phic)
    x = rng.standard_normal(8)
    gamma = -(x @ s_phi) + rng.standard_normal(56)
    xr, g48 = decompose3(gamma, phic)
    errs = [np.abs(g48 - xr @ s_phi - gamma).max(),
            6.0 * np.abs(s_phi @ g48).max()]
    out.append(IdentityResult("3-form split (vector part + annihilator)",
                              float(max(errs)), 1e-10))

    # endomorphism split
    recon = (tr_a / 8.0) * np.eye(8) + a0 + a7 + endo_split(a_endo, phic)[3]
    out.append(IdentityResult("endomorphism split reconstruction",
                              float(np.abs(recon - a_endo).max()), IDENTITY_TOL))

    # induced metric
    try:
        g_err = float(np.abs(metric_from_form(phi) - np.eye(8)).max())
        c = 1.7
        g_scale = float(np.abs(metric_from_form(c**4 * phi) - c * c * np.eye(8)).max())
        g_rot = float(np.abs(metric_from_form(phis[1:9]) - np.eye(8)).max())
        out.append(IdentityResult("induced metric (identity, scaling, rotations)",
                                  max(g_err, g_scale, g_rot), METRIC_TOL))
    except algebra.DegenerateFormError:
        out.append(IdentityResult("induced metric (identity, scaling, rotations)",
                                  float("inf"), METRIC_TOL))

    # spinor parametrization and isotropy
    psi = rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    errs = [0.0]
    if octonion_table is None:
        bry = orbit.bryant_form(psi)
        errs = [np.abs(bry - orbit.spinor_square4(psi)).max(),
                np.abs(metric_from_form(unpack4(bry)) - np.eye(8)).max()]
    out.append(IdentityResult("spinor parametrization (square = Clifford product, isometric)",
                              float(max(errs)), METRIC_TOL))
    iso = orbit.rotate_form(orbit.so8_exp(pi21(beta, phic)), phic)
    out.append(IdentityResult("stabiliser isotropy (21-summand exponentials fix the form)",
                              float(np.abs(iso - phic).max()), 1e-10))

    # the metric is GL+(8)-covariant: A^* form induces A^T A; A stays well
    # conditioned, since the frame formula loses digits with cond(A)
    a_gl = np.eye(8) + 0.1 * rng.standard_normal((8, 8, 8))
    a_gl[np.linalg.det(a_gl) < 0, 0] *= -1.0
    a_glt = np.swapaxes(a_gl, -1, -2)
    try:
        pulled = metric_from_form(unpack4(orbit.rotate_form(a_glt, phic)))
        gl_err = float(np.abs(pulled - a_glt @ a_gl).max())
    except algebra.DegenerateFormError:
        gl_err = float("inf")
    out.append(IdentityResult("induced metric of A^* form = A^T A (GL+(8))", gl_err,
                              IDENTITY_TOL))

    # derivative identities on lattice data at two resolutions
    if octonion_table is None:
        errs_n = []
        for n in (16, 32):
            spec = LatticeSpec(active_axes=(0,), points=n, period=1.0, stencil_order=2)
            state = initial_data("rotation-field", {"eps": 0.05}, spec, seed=SEED)
            phid = state.phi_dense()
            grad = unpack4(lattice.fd_gradient_generic(spec, state.phi))  # (n, 1, 8^4)
            g5 = np.abs(np.einsum("xmijkl,xabkl->xmijab", grad, phid)
                        + np.einsum("xijkl,xmabkl->xmijab", phid, grad)
                        + 4.0 * grad).max()
            g6 = np.abs(np.einsum("xmijkl,xajkl->xmia", grad, phid)
                        + np.einsum("xijkl,xmajkl->xmia", phid, grad)).max()
            g7 = np.abs(np.einsum("xmijkl,xijkl->xm", grad, phid)).max()
            errs_n.append((float(g5), float(g6), float(g7)))
        orders = [np.log2(errs_n[0][i] / max(errs_n[1][i], 1e-300)) for i in range(3)]
        order_err = float(np.abs(np.array(orders) - 2.0).max())
        out.append(IdentityResult(
            "derivative contraction identities converge at stencil order", order_err, 0.4))

    return out
