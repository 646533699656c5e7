"""The rotation orbit of the Cayley form and its spinor parametrization.

`rotate_form`/`so8_exp` realize the frame-change action used by the flow
integrator.  `bryant_form` parametrizes the isometric forms by a point
(f, X) on the unit sphere, via the 4-form component of the spinor square
psi (x) psi with psi = f + X.  Every map returns canonical (...,70) 4-forms.

Conventions pinned here (see README.md for the full note):

* theta_form(X) stores Phi0(e_i X, e_j, e_k, e_l) on ascending index
  quadruples; the 4-form they fix by antisymmetry lies exactly in the
  7-summand of 4-forms for imaginary X, as an isometric deformation
  direction must.

* The quadratic term of the spinor square is NOT a multiple of
  X ^ (X . Phi0).  The identity that actually holds, to machine precision
  and validated against a literal Clifford-product evaluation, is

      [psi (x) psi]_4 = (f^2 - |X|^2) Phi0 + 2 f theta_form(X) - 2 K(X),
      K(X)_ijkl = M_ij M_kl - M_ik M_jl + M_il M_jk,
      M_ab = <e_a X, e_b>  (right-multiplication matrix of X),

  and no rescaling of the X ^ (X . Phi0) term can replace K(X):
  least-squares over (f^2-|X|^2) Phi0 + a f theta + b X^(X . Phi0) leaves an
  O(1) admissibility defect for every (a, b); the best fit is
  (a, b) = (2, 6/7).  tests/test_orbit.py evaluates that family
  (`bryant_wedge_form`) so the discrepancy stays measurable.
"""

from __future__ import annotations

import numpy as np

from .algebra import _GATHER2, _GATHER4, _P_CANON, PHI0, PHI0C, QUADS, pair_matrix
from .octonion import OCT_TABLE, right_mult_matrix

__all__ = [
    "theta_form",
    "bryant_form",
    "spinor_square4",
    "so8_exp",
    "rotate_form",
]

# theta components are linear in X: precompute the (70, 8) coefficient table
# TH[c, m] with theta_canon[c] = sum_m TH[c, m] X_m, from
# F(i,j,k,l) = Phi0((e_i X), e_j, e_k, e_l) on ascending quadruples,
# (e_i X)_p = OCT_TABLE[i, m, p] X_m.
_THETA_TABLE = np.einsum("imp,pjkl->ijklm", OCT_TABLE, PHI0)[_GATHER4]


def theta_form(x: np.ndarray) -> np.ndarray:
    """4-form with components Phi0(e_i x, e_j, e_k, e_l) on ascending quadruples."""
    return np.einsum("cm,...m->...c", _THETA_TABLE, np.asarray(x, dtype=float))


def spinor_square4(psi: np.ndarray) -> np.ndarray:
    """4-form part of psi (x) psi by literal Clifford products (slow oracle).

    Components on ascending quadruples are
    < conj(e_i) (e_j (conj(e_k) (e_l psi))), psi >.
    """
    psi = np.asarray(psi, dtype=float)
    canon = np.zeros(psi.shape[:-1] + (70,))
    conj = np.diag([1.0] + [-1.0] * 7)
    eye = np.eye(8)
    for c, (i, j, k, l) in enumerate(QUADS):
        v = np.einsum("jp,...j->...p", OCT_TABLE[l], psi)
        v = np.einsum("a,ajp,...j->...p", conj @ eye[k], OCT_TABLE, v)
        v = np.einsum("jp,...j->...p", OCT_TABLE[j], v)
        v = np.einsum("a,ajp,...j->...p", conj @ eye[i], OCT_TABLE, v)
        canon[..., c] = np.einsum("...p,...p->...", v, psi)
    return canon


def bryant_form(f, x: np.ndarray) -> np.ndarray:
    """Isometric 4-form parametrized by (f, x) with f^2 + |x|^2 = 1.

    The first octonion coordinate of x folds into the spinor's real part, so
    admissibility requires (f + x_0)^2 + |x_im|^2 = 1; for imaginary x this
    is the stated constraint.  Quadratic in (f, x): antipodes give the same
    form.  Raises ValueError on constraint violation.
    """
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    f_eff = f + x[..., 0]
    xim = x.copy()
    xim[..., 0] = 0.0
    n2 = np.einsum("...i,...i->...", xim, xim)
    err = np.abs(f_eff**2 + n2 - 1.0)
    if np.any(err > 1e-12):
        raise ValueError(
            f"(f, x) violates the unit-sphere constraint by {float(np.max(err)):.3e}")
    # K(X) on the ascending quadruples (i, j, k, l), from M at their six pairs
    i, j, k, l = _GATHER4
    m = right_mult_matrix(xim)
    k_form = (m[..., i, j] * m[..., k, l] - m[..., i, k] * m[..., j, l]
              + m[..., i, l] * m[..., j, k])
    return ((f_eff**2 - n2)[..., None] * PHI0C + 2.0 * f_eff[..., None] * theta_form(xim)
            - 2.0 * k_form)


def so8_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of an 8x8 generator, batched: a rotation for the
    skew generators every caller builds.

    Scaling-and-squaring with an order-14 Taylor core; absolute accuracy
    better than 1e-13 for ||a|| <= 1 (flow steps keep ||a|| far smaller).
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.sqrt(np.sum(a * a, axis=(-1, -2)).max()))
    n_sq = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    b = a / 2.0**n_sq
    eye = np.broadcast_to(np.eye(8), a.shape).copy()
    out = eye + b / 14.0
    for k in range(13, 0, -1):
        out = eye + (b @ out) / k
    for _ in range(n_sq):
        out = out @ out
    return out


# rows and columns of the 2x2 minors, in the pair order of the pair matrix
_PAIR_I, _PAIR_J = _GATHER2


def rotate_form(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Frame-change action of r on a canonical 4-form: each covariant slot
    contracts r.

    Group action compatible with `diamond`:
    d/dt rotate_form(so8_exp(t a), phi) at t=0 equals pack4(diamond(a, unpack4(phi))).
    On the pair matrix the action is P -> L P L^T, with L[(ij), (pq)] =
    r_ip r_jq - r_iq r_jp the 2x2 minors of r (its action on 2-forms): the
    pullback of phi by any 8x8 r, singular or not; callers pass rotations.
    """
    r = np.asarray(r, dtype=float)
    # np.take keeps the gathers C-contiguous, which the batched matmul needs to be fast
    ri, rj = np.take(r, _PAIR_I, axis=-2), np.take(r, _PAIR_J, axis=-2)
    minors = (np.take(ri, _PAIR_I, axis=-1) * np.take(rj, _PAIR_J, axis=-1)
              - np.take(ri, _PAIR_J, axis=-1) * np.take(rj, _PAIR_I, axis=-1))
    p_new = minors @ pair_matrix(phi) @ np.swapaxes(minors, -1, -2)
    return np.take(p_new.reshape(p_new.shape[:-2] + (784,)), _P_CANON, axis=-1)
