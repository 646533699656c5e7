"""Pointwise linear algebra of 4-form geometry on R^8.

All tensors are plain float64 ndarrays; every function broadcasts over
arbitrary leading batch axes, so a lattice of values is just one more axis.
Vectors are (..., 8), and 2-forms and endomorphisms dense (..., 8, 8):

    2-form   beta[..., i, j]          skew
    endo     A[..., i, j]             row = covariant slot, column = contraction

3- and 4-forms are canonical (deduplicated): the 56 and 70 components on
ascending index triples and quadruples, whose dot product is the inner
product.  Every kernel here takes canonical forms; only `metric_from_form`
reads a dense (...,8,8,8,8) 4-form, which `unpack4` builds.  The kernels
contract the stored components through two gathered matrices:

    slot matrix   S[..., a, t] = phi[a, t]           8 x 56, t an ascending triple
    pair matrix   P[..., p, q] = phi[a, b, c, d]     28 x 28, p = (a<b), q = (c<d)

P is symmetric, and it is the matrix of phi acting on 2-forms.  `diamond`
and `lambda_op` read the products A S and P P at the splits of each
quadruple (`_split_tables`).

The reference Cayley form is built from octonion multiplication,
Phi0(x,y,z,w) = <x, y (conj(z) w)>, antisymmetrized: `PHI0C` canonical,
`PHI0` dense.  Its normalization is pinned by the contraction identities
(full self-contraction 336, triple contraction 42 g), checked to 1e-12.
"""

from __future__ import annotations

import itertools

import numpy as np

from .octonion import OCT_TABLE, oct_conj

__all__ = [
    "DegenerateFormError",
    "QUADS",
    "TRIPLES",
    "pack4",
    "unpack4",
    "unpack3",
    "PAIRS",
    "slot_matrix",
    "pair_matrix",
    "hodge_star4",
    "pi7",
    "pi21",
    "lambda_op",
    "decompose4",
    "diamond",
    "triple_contract",
    "decompose3",
    "metric_from_form",
    "endo_split",
    "LAMBDA_EIGENVALUES",
]


class DegenerateFormError(ValueError):
    """Raised when a 4-form fails the nondegeneracy needed for a metric."""


# ---------------------------------------------------------------------------
# canonical index tables

QUADS = tuple(itertools.combinations(range(8), 4))     # 70 ascending quadruples
TRIPLES = tuple(itertools.combinations(range(8), 3))   # 56 ascending triples
PAIRS = tuple(itertools.combinations(range(8), 2))     # 28 ascending pairs


def _perm_sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _index_maps(tuples, n=8):
    """Dense<->canonical scatter tables for antisymmetric tensors on R^n whose
    rank is the length of the ascending `tuples`: the slot and sign of each
    dense entry (0 and 0.0 where an index repeats), and the gather of the
    canonical components."""
    k = len(tuples[0])
    gather = tuple(np.array(tuples).T.copy())
    slot = np.zeros((n,) * k, dtype=np.int64)
    sign = np.zeros((n,) * k)
    for perm in itertools.permutations(range(k)):
        idx = tuple(gather[p] for p in perm)
        slot[idx] = np.arange(len(tuples))
        sign[idx] = _perm_sign(perm)
    return slot, sign, gather


def _hodge_tables(tuples, rest):
    """Complement of each ascending tuple among the ascending `rest` (its
    index there) and the sign of the permutation tuple + complement."""
    n = len(tuples[0]) + len(rest[0])
    lookup = {r: i for i, r in enumerate(rest)}
    comps = [tuple(x for x in range(n) if x not in t) for t in tuples]
    comp = np.array([lookup[c] for c in comps])
    sign = np.array([float(_perm_sign(t + c)) for t, c in zip(tuples, comps)])
    return comp, sign


_SLOT4, _SIGN4, _GATHER4 = _index_maps(QUADS)
_SLOT3, _SIGN3, _GATHER3 = _index_maps(TRIPLES)
_SLOT2, _SIGN2, _GATHER2 = _index_maps(PAIRS)
# where each canonical component sits in the flattened dense 4-form
_FLAT4 = np.ravel_multi_index(_GATHER4, (8,) * 4)

# gathers of the slot and pair matrices from canonical storage
_S_SLOT = _SLOT4[:, _GATHER3[0], _GATHER3[1], _GATHER3[2]]
_S_SIGN = _SIGN4[:, _GATHER3[0], _GATHER3[1], _GATHER3[2]]
_P_SLOT = _SLOT4[_GATHER2[0][:, None], _GATHER2[1][:, None], _GATHER2[0], _GATHER2[1]]
_P_SIGN = _SIGN4[_GATHER2[0][:, None], _GATHER2[1][:, None], _GATHER2[0], _GATHER2[1]]
# where each canonical component sits in the flattened pair matrix
_P_CANON = _SLOT2[_GATHER4[0], _GATHER4[1]] * 28 + _SLOT2[_GATHER4[2], _GATHER4[3]]
# hodge pairing on canonical quadruples: complement and sign, both unchanged by swapping
_HODGE_COMP, _HODGE_SIGN = _hodge_tables(QUADS, QUADS)


def _split_tables(head_slot: np.ndarray, tail_slot: np.ndarray):
    """Every split of each ascending quadruple into a head of head_slot.ndim
    positions and the ascending rest: the flat index head * tails + rest into
    a (heads, tails) matrix, (splits, 70), and the sign of the permutation
    head + rest, (splits, 1)."""
    take, sign = [], []
    for head in itertools.combinations(range(4), head_slot.ndim):
        rest = tuple(p for p in range(4) if p not in head)
        take.append(head_slot[tuple(_GATHER4[p] for p in head)] * (tail_slot.max() + 1)
                    + tail_slot[tuple(_GATHER4[p] for p in rest)])
        sign.append([float(_perm_sign(head + rest))])
    return np.array(take), np.array(sign)


# diamond reads A S at (i, jkl), (j, ikl), (k, ijl), (l, ijk) with signs +-+-
_DIAMOND_TAKE, _DIAMOND_SIGN = _split_tables(np.arange(8), _SLOT3)
# lambda_op reads P P at (ij, kl), (ik, jl), (il, jk), (jk, il), (jl, ik), (kl, ij)
_LAMBDA_TAKE, _LAMBDA_SIGN = _split_tables(_SLOT2, _SLOT2)


def _signed_take(values: np.ndarray, slot: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """values[..., slot] * sign: the one way canonical storage is read.  np.take
    keeps the gather C-contiguous, unlike values[..., slot], and the sign
    multiplies it in place."""
    out = np.take(values, slot, axis=-1)
    out *= sign
    return out


def _split_sum(matrix: np.ndarray, take: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The canonical 4-form sum over splits of matrix[..., head, tail] * sign
    (`_split_tables`)."""
    flat = matrix.reshape(matrix.shape[:-2] + (-1,))
    return _signed_take(flat, take, sign).sum(axis=-2)


def pack4(sigma: np.ndarray) -> np.ndarray:
    """Dense (...,8,8,8,8) -> canonical (...,70)."""
    flat = np.reshape(sigma, np.shape(sigma)[:-4] + (4096,))
    return np.take(flat, _FLAT4, axis=-1)


def unpack4(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> dense (...,8,8,8,8)."""
    return _signed_take(canon, _SLOT4, _SIGN4)


def slot_matrix(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> slot matrix (...,8,56), S[a, t] = phi[a, t]."""
    return _signed_take(canon, _S_SLOT, _S_SIGN)


def pair_matrix(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> pair matrix (...,28,28), P[(ab), (cd)] = phi[a, b, c, d]."""
    return _signed_take(canon, _P_SLOT, _P_SIGN)


def unpack3(canon: np.ndarray) -> np.ndarray:
    return _signed_take(canon, _SLOT3, _SIGN3)


# ---------------------------------------------------------------------------
# the Cayley form

def _build_cayley(table: np.ndarray = OCT_TABLE) -> np.ndarray:
    """The canonical 4-form of the octonion product `table` (read-only); the
    identity suite passes a corrupted table as its negative control."""
    # f[i, j, k, l] = <e_i, e_j (conj(e_k) e_l)>, then its antisymmetric part
    conj = oct_conj(np.ones(8))
    f = np.einsum("klm,jmi->ijkl", table, table) * conj[:, None]
    canon = np.zeros(70)
    for perm in itertools.permutations(range(4)):
        canon += _perm_sign(perm) * f[tuple(_GATHER4[p] for p in perm)]
    canon /= 24.0
    canon.setflags(write=False)
    return canon


#: The reference Cayley 4-form, in canonical storage and dense (both read-only).
PHI0C = _build_cayley()
PHI0 = unpack4(PHI0C)
PHI0.setflags(write=False)

#: Eigenvalues of lambda_op on the four irreducible 4-form summands,
#: keyed by summand dimension.
LAMBDA_EIGENVALUES = {1: -24.0, 7: -12.0, 27: 4.0, 35: 0.0}


# ---------------------------------------------------------------------------
# linear operations

def hodge_star4(sigma: np.ndarray) -> np.ndarray:
    """Hodge star on 4-forms, Euclidean metric, orientation e1^...^e8."""
    return _signed_take(sigma, _HODGE_COMP, _HODGE_SIGN)


def _form_on_2forms(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_ab beta_ab phi_abij for canonical phi: the pair matrix applied to
    (beta_ab - beta_ba)_{a<b}, skew-filled; beta need not be skew."""
    i, j = _GATHER2
    v = beta[..., i, j] - beta[..., j, i]
    w = np.matmul(v[..., None, :], pair_matrix(phi))[..., 0, :]
    return _signed_take(w, _SLOT2, _SIGN2)


def pi7(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 7-dimensional summand of phi."""
    return 0.25 * beta - 0.125 * _form_on_2forms(beta, phi)


def pi21(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 21-dimensional (stabiliser) summand of phi."""
    return 0.75 * beta + 0.125 * _form_on_2forms(beta, phi)


def lambda_op(sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Equivariant operator on 4-forms with eigenvalues -24, -12, 4, 0: the
    signed sum of sigma_ijmn phi_mnkl = 2 (P(sigma) P(phi))_(ij),(kl) over
    the six pair splits of each quadruple (`_LAMBDA_TAKE`)."""
    return 2.0 * _split_sum(pair_matrix(sigma) @ pair_matrix(phi), _LAMBDA_TAKE, _LAMBDA_SIGN)


def decompose4(sigma: np.ndarray, phi: np.ndarray):
    """Split a 4-form into its (1, 7, 27, 35)-summand parts; parts sum to sigma.

    Each part is the spectral projector of lambda_op onto its eigenvalue lam,
    the product of (lambda_op - mu) / (lam - mu) over the other three mu.
    """
    mus = [LAMBDA_EIGENVALUES[d] for d in (1, 7, 27, 35)]
    parts = []
    for lam in mus:
        part = sigma
        for mu in (mu for mu in mus if mu != lam):
            part = (lambda_op(part, phi) - mu * part) / (lam - mu)
        parts.append(part)
    return tuple(parts)


def diamond(endo: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Infinitesimal frame-change action of an endomorphism on a 4-form,
    A_ip phi_pjkl + A_jp phi_ipkl + A_kp phi_ijpl + A_lp phi_ijkp: the four
    (index, triple) splits of A S(phi) (`_DIAMOND_TAKE`)."""
    return _split_sum(np.matmul(endo, slot_matrix(phi)), _DIAMOND_TAKE, _DIAMOND_SIGN)


def _contract3(sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """raw - raw^T, raw = S(sigma) S(phi)^T: `triple_contract` / 3, and
    `lattice.torsion` * 32."""
    raw = np.matmul(slot_matrix(sigma), np.swapaxes(slot_matrix(phi), -1, -2))
    return raw - np.swapaxes(raw, -1, -2)


def triple_contract(sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Three-index contraction inverting `diamond` on the 7-summand: the skew
    part of sigma_ajkl phi_bjkl, summed over all j, k, l.

    For beta in the 7-summand, triple_contract(diamond(beta, phi), phi)
    equals 96 beta; the 21-summand is unrecoverable (kernel of diamond),
    so invert by post-composing with pi7 and dividing by 96.
    """
    return 3.0 * _contract3(sigma, phi)


def decompose3(gamma: np.ndarray, phi: np.ndarray):
    """Split a canonical (...,56) 3-form into a vector part and the
    48-summand remainder: (x, gamma48) with gamma = x_l phi_ijkl + gamma48,
    gamma48 annihilated by phi.  x = -S(phi) gamma / 7, and x_l phi_ijkl is
    -x S(phi)."""
    s_phi = slot_matrix(phi)
    x = np.matmul(s_phi, gamma[..., None])[..., 0] / -7.0
    return x, gamma + np.matmul(x[..., None, :], s_phi)[..., 0, :]


def endo_split(endo: np.ndarray, phi: np.ndarray):
    """Split an endomorphism into trace, traceless-symmetric, 7 and 21 parts;
    phi is canonical."""
    trace = np.einsum("...ii->...", endo)
    sym = 0.5 * (endo + np.swapaxes(endo, -1, -2))
    sym0 = sym - (trace[..., None, None] / 8.0) * np.eye(8)
    skew = 0.5 * (endo - np.swapaxes(endo, -1, -2))
    return trace, sym0, pi7(skew, phi), pi21(skew, phi)


# ---------------------------------------------------------------------------
# the induced metric

# The frame formula works in the one frame of columns {e_c : c != 0}, and
# reads phi[k, r] for every k and every ascending triple r of the columns:
# 8 x 35 dense entries, gathered per point block by their flat offsets.
_METRIC_BLOCK = 16    # points per block, bounding the working set of metric_from_form
_METRIC_CONST = 7.0**3 / 6.0 ** (7.0 / 3.0)


def _frame_tables():
    """Index and sign tables of the frame formula on the 7 columns e_1..e_7.

    gamma = i_w phi restricted to the columns is stored as its 35
    ascending-triple components.  Gamma[a, p] = gamma[a, p] is row a of
    gamma as a 2-form (7 x 21), and M[p, q] = (*_7 gamma)[p, q] =
    sign(p, q, r) gamma_r, r the triple left by the disjoint pairs p, q, is
    the pair matrix of *_7 gamma (21 x 21); entries with a repeated index
    read slot 0 with sign 0.  A(w) = sum_r sign(r, r') gamma_r phi_r' over
    the complementary quadruples r'.  `read` holds the flat offsets of
    phi[k, r], k = 0..7, so row k of a read is gamma(e_k); `a_pos` holds the
    positions in it of phi_r'.
    """
    triples, quads = (tuple(itertools.combinations(range(7), k)) for k in (3, 4))
    slot3, sign3, gather3 = _index_maps(triples, n=7)
    slot4, sign4, _ = _index_maps(quads, n=7)
    p0, p1 = _index_maps(tuple(itertools.combinations(range(7), 2)), n=7)[2]
    g_slot, g_sign = slot3[:, p0, p1], sign3[:, p0, p1]
    pq = (p0[:, None], p1[:, None], p0, p1)      # the 4-tuple (p, q) of two pairs
    star_comp, star_sign = _hodge_tables(quads, triples)
    m_sign = sign4[pq] * star_sign[slot4[pq]]
    m_slot = np.where(m_sign != 0.0, star_comp[slot4[pq]], 0)
    a_comp, a_sign = _hodge_tables(triples, quads)
    gather4 = tuple(np.array(quads)[a_comp].T)    # r' per triple r
    cols = np.arange(1, 8)
    read = np.ravel_multi_index((np.arange(8)[:, None],) + tuple(cols[g] for g in gather3),
                                (8,) * 4).ravel()
    a_pos = cols[gather4[0]] * 35 + slot3[gather4[1:]]
    return g_slot, g_sign, m_slot, m_sign, a_sign, read, a_pos


_GAMMA_SLOT, _GAMMA_SIGN, _STAR_SLOT, _STAR_SIGN, _A_SIGN, _FRAME_READ, _A_POS = _frame_tables()


def _frame_b(gam: np.ndarray) -> np.ndarray:
    """B = Gamma M Gamma^T (..., 7, 7) of gamma = i_w phi on the columns, (..., 35)."""
    rows = _signed_take(gam, _GAMMA_SLOT, _GAMMA_SIGN)    # Gamma
    star = _signed_take(gam, _STAR_SLOT, _STAR_SIGN)      # M
    return rows @ star @ np.swapaxes(rows, -1, -2)


# B(gamma(e_0)) = kappa I_7 at Phi0, so B / kappa is the G2 metric there
_G2_CONST = float(_frame_b(PHI0.reshape(-1)[_FRAME_READ[:35]])[0, 0])


def metric_from_form(phi: np.ndarray) -> np.ndarray:
    """Metric induced by an admissible 4-form, via frame evaluation.

    Works in the one frame {w, e_1..e_7}, where on a frame
    g(w,w)^2 = -(7^3 / 6^(7/3)) det(B)^(1/3) / A(w)^3 with B = Gamma M Gamma^T
    (see `_frame_tables`); the formula is frame-covariant, so no
    orthonormalization is needed.  It evaluates g(w,w) at the 15 vectors
    e_0 and e_0 +- e_k, and polarizes g_0k = (g(e_0+e_k) - g(e_0-e_k)) / 4;
    A(e_0 +- e_k) = A(e_0), since A of a column vector is an 8-form on the
    7 columns.  gamma(e_0) on the columns is sqrt(g_00) times the G2 form of
    h(u, v) = g(u, v) - g_0u g_0v / g_00, so its B gives the 7 x 7 block:
    h = B / (kappa (det B / kappa^7)^(1/9) g_00^(1/3)), kappa = -6 the value
    at Phi0, and g_kl = h_kl + g_0k g_0l / g_00.  The points are walked in
    blocks of 16, and the 15 vectors of a block are batched.

    Raises DegenerateFormError when the input fails nondegeneracy.
    """
    lead = phi.shape[:-4]
    flat = phi.reshape(-1, 8**4)
    g = np.empty((flat.shape[0], 8, 8))
    for start in range(0, flat.shape[0], _METRIC_BLOCK):
        # fancy indexing reads a strided input in place; np.take would copy it whole
        read = np.ascontiguousarray(flat[start:start + _METRIC_BLOCK, _FRAME_READ])
        gam = read.reshape(-1, 8, 35)                # gamma(e_k), k = 0..7
        a_form = _signed_take(read, _A_POS, _A_SIGN)
        aval = np.einsum("pr,pr->p", gam[:, 0], a_form)
        if np.any(np.abs(aval) < 1e-14):
            raise DegenerateFormError("degenerate 4-form: frame 7-form A(v) vanishes")
        b = _frame_b(np.concatenate([gam[:, :1], gam[:, :1] + gam[:, 1:],
                                     gam[:, :1] - gam[:, 1:]], axis=1))
        det_b = np.linalg.det(b)
        g_sq = -_METRIC_CONST * np.cbrt(det_b) / aval[:, None] ** 3
        if np.any(g_sq <= 0.0):
            raise DegenerateFormError("degenerate 4-form: induced g(v,v)^2 not positive")
        g_ww = np.sqrt(g_sq)
        g00 = g_ww[:, 0, None, None]
        g0k = 0.25 * (g_ww[:, 1:8] - g_ww[:, 8:])
        # the real ninth root: det B changes sign with the orientation, and so must h's scale
        scale = _G2_CONST * np.cbrt(np.cbrt(det_b[:, 0] / _G2_CONST**7))
        g_blk = g[start:start + _METRIC_BLOCK]
        g_blk[:, :1, :1] = g00
        g_blk[:, 0, 1:] = g_blk[:, 1:, 0] = g0k
        g_blk[:, 1:, 1:] = (b[:, 0] / (scale[:, None, None] * np.cbrt(g00))
                            + g0k[:, :, None] * g0k[:, None, :] / g00)
    return g.reshape(lead + (8, 8))
