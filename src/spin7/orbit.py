"""The rotation orbit of the Cayley form and its spinor parametrization.

`rotate_form`/`so8_exp` realize the frame-change action used by the flow
integrator.  `bryant_form` parametrizes the isometric forms by a point
(f, X) on the unit sphere, via the 4-form component of the spinor square
psi (x) psi with psi = f + X.

Conventions pinned here (see README.md for the full note):

* theta_form(X) carries the values Phi0(e_i X, e_j, e_k, e_l) on ascending
  index quadruples, extended antisymmetrically.  With this reading it lies
  exactly in the 7-summand of 4-forms for imaginary X, as an isometric
  deformation direction must.

* The quadratic term of the spinor square is NOT a multiple of
  X ^ (X . Phi0).  The identity that actually holds, to machine precision
  and validated against a literal Clifford-product evaluation, is

      [psi (x) psi]_4 = (f^2 - |X|^2) Phi0 + 2 f theta_form(X) - 2 K(X),
      K(X)_ijkl = M_ij M_kl - M_ik M_jl + M_il M_jk,
      M_ab = <e_a X, e_b>  (right-multiplication matrix of X),

  and no rescaling of the X ^ (X . Phi0) term can replace K(X):
  least-squares over (f^2-|X|^2) Phi0 + a f theta + b X^(X . Phi0) leaves an
  O(1) admissibility defect for every (a, b); the best fit is
  (a, b) = (2, 6/7).  `bryant_wedge_form` evaluates that family so the
  discrepancy stays measurable.
"""

from __future__ import annotations

import numpy as np

from .algebra import PAIRS, PHI0, QUADS, pair_matrix, unpack4
from .octonion import OCT_TABLE, right_mult_matrix

__all__ = [
    "theta_form",
    "bryant_form",
    "bryant_wedge_form",
    "spinor_square4",
    "so8_exp",
    "rotate_form",
    "wedge_1_3",
]

# theta components are linear in X: precompute the (70, 8) coefficient table
# TH[c, m] with theta_canon[c] = sum_m TH[c, m] X_m, from
# F(i,j,k,l) = Phi0((e_i X), e_j, e_k, e_l) on ascending quadruples.
def _theta_table() -> np.ndarray:
    # (e_i X)_p = OCT_TABLE[i, m, p] X_m
    f_coef = np.einsum("imp,pjkl->ijklm", OCT_TABLE, PHI0)
    rows = np.array(QUADS)
    return f_coef[rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], :]


_THETA_TABLE = _theta_table()


def theta_form(x: np.ndarray) -> np.ndarray:
    """4-form with components Phi0(e_i x, e_j, e_k, e_l) on ascending quadruples."""
    canon = np.einsum("cm,...m->...c", _THETA_TABLE, np.asarray(x, dtype=float))
    return unpack4(canon)


def wedge_1_3(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Wedge of a vector (as 1-form) with a 3-form, determinant convention."""
    return (np.einsum("...i,...jkl->...ijkl", x, gamma)
            - np.einsum("...j,...ikl->...ijkl", x, gamma)
            + np.einsum("...k,...ijl->...ijkl", x, gamma)
            - np.einsum("...l,...ijk->...ijkl", x, gamma))


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
    return unpack4(canon)


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
    m = right_mult_matrix(xim)
    k = (np.einsum("...ij,...kl->...ijkl", m, m)
         - np.einsum("...ik,...jl->...ijkl", m, m)
         + np.einsum("...il,...jk->...ijkl", m, m))
    out = ((f_eff**2 - n2)[..., None, None, None, None] * PHI0
           + 2.0 * f_eff[..., None, None, None, None] * theta_form(xim)
           - 2.0 * k)
    return out


def bryant_wedge_form(f, x: np.ndarray, alpha: float = 2.0, beta: float = 8.0) -> np.ndarray:
    """(f^2-|x|^2) Phi0 + alpha f theta + beta x^(x . Phi0), for comparison.

    This family misses the admissible orbit for every (alpha, beta); kept so
    tests can quantify the defect against `bryant_form`.
    """
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    n2 = np.einsum("...i,...i->...", x, x)
    xphi = np.einsum("...m,mjkl->...jkl", x, PHI0)
    return ((f**2 - n2)[..., None, None, None, None] * PHI0
            + alpha * f[..., None, None, None, None] * theta_form(x)
            + beta * wedge_1_3(x, xphi))


def so8_exp(a: np.ndarray, check: bool = True) -> np.ndarray:
    """Matrix exponential of a skew 8x8 generator, batched.

    Scaling-and-squaring with an order-14 Taylor core; absolute accuracy
    better than 1e-13 for ||a|| <= 1 (flow steps keep ||a|| far smaller).
    """
    a = np.asarray(a, dtype=float)
    if check:
        skew_defect = np.abs(a + np.swapaxes(a, -1, -2)).max()
        if skew_defect > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError(f"generator is not skew (defect {skew_defect:.3e})")
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


# rows and columns of the 2x2 minors, and where each canonical component
# sits in the flattened pair matrix: phi[i, j, k, l] = P[(ij), (kl)]
_PAIR_I, _PAIR_J = np.array(PAIRS).T
_QUAD_ENTRY = np.array([28 * PAIRS.index(q[:2]) + PAIRS.index(q[2:]) for q in QUADS])


def rotate_form(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Frame-change action of r on a canonical 4-form: each covariant slot
    contracts r.

    Group action compatible with `diamond`:
    d/dt rotate_form(so8_exp(t a), phi) at t=0 equals pack4(diamond(a, unpack4(phi))).
    On the pair matrix the action is P -> L P L^T, with L[(ij), (pq)] =
    r_ip r_jq - r_iq r_jp the 2x2 minors of r (its action on 2-forms); this
    holds for every invertible r.  Raises ValueError for singular r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(np.linalg.det(r)) < 1e-12):
        raise ValueError("rotate_form requires an invertible matrix")
    # np.take keeps the gathers C-contiguous, which the batched matmul needs to be fast
    ri, rj = np.take(r, _PAIR_I, axis=-2), np.take(r, _PAIR_J, axis=-2)
    minors = (np.take(ri, _PAIR_I, axis=-1) * np.take(rj, _PAIR_J, axis=-1)
              - np.take(ri, _PAIR_J, axis=-1) * np.take(rj, _PAIR_I, axis=-1))
    p_new = minors @ pair_matrix(phi) @ np.swapaxes(minors, -1, -2)
    return np.take(p_new.reshape(p_new.shape[:-2] + (784,)), _QUAD_ENTRY, axis=-1)
