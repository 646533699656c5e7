"""The rotation orbit of the Cayley form and its spinor parametrization.

`rotate_form`/`so8_exp` realize the frame-change action used by the flow
integrator.  `bryant_form` parametrizes the isometric forms by a unit spinor
psi in the octonions: the 4-form part of psi (x) psi, read off the Clifford
product that `spinor_square4` evaluates literally.  Every map returns
canonical (...,70) 4-forms.

The square is quadratic in psi, so one table holds it: `_SQUARE[c]` is the
symmetric 8x8 matrix with psi^T _SQUARE[c] psi the c-th canonical component.
Antipodal spinors give the same form, and psi = 1 gives Phi0.  The 7-summand
of Phi0 is right multiplication R_u by an imaginary u, and for a unit u

    exp(theta R_u / sqrt 8) . Phi0 = bryant_form(cos(theta / sqrt 2) + sin(theta / sqrt 2) u),

which is how `flow.initial_data` builds its forms.  tests/test_orbit.py keeps
the closed form of the square in psi = f + X (README.md), and the printed
wedge variant that misses the orbit, measurable against `bryant_form`.
"""

from __future__ import annotations

import numpy as np

from .algebra import _GATHER2, _GATHER4, _P_CANON, QUADS, pair_matrix
from .octonion import OCT_TABLE

__all__ = [
    "bryant_form",
    "spinor_square4",
    "so8_exp",
    "rotate_form",
]


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


def _square_table() -> np.ndarray:
    """The quadratic forms of `spinor_square4`: left multiplication by e_l is
    the row-vector product psi @ OCT_TABLE[l], so the component on (i, j, k, l)
    is psi^T (conj_i conj_k T[l] T[k] T[j] T[i]) psi.  Every factor is a signed
    permutation matrix, so the table is exact."""
    i, j, k, l = _GATHER4
    conj = np.where(np.arange(8) == 0, 1.0, -1.0)
    m = (conj[i] * conj[k])[:, None, None] * (
        OCT_TABLE[l] @ OCT_TABLE[k] @ OCT_TABLE[j] @ OCT_TABLE[i])
    square = 0.5 * (m + np.swapaxes(m, -1, -2)) + 0.0     # + 0.0 clears the zeros' signs
    square.setflags(write=False)
    return square


_SQUARE = _square_table()


def bryant_form(psi: np.ndarray) -> np.ndarray:
    """The isometric 4-form psi (x) psi of a unit spinor psi, shape (..., 8).

    Quadratic in psi: antipodes give the same form.  Raises ValueError unless
    every |psi|^2 lies within 1e-12 of 1.
    """
    psi = np.asarray(psi, dtype=float)
    err = np.abs(np.einsum("...a,...a->...", psi, psi) - 1.0)
    if not np.all(err <= 1e-12):
        raise ValueError(f"psi violates the unit-sphere constraint by {float(np.max(err)):.3e}")
    return np.einsum("...a,cab,...b->...c", psi, _SQUARE, psi)


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
    d/dt rotate_form(so8_exp(t a), phi) at t=0 equals diamond(a, phi).
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
