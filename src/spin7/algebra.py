"""Pointwise linear algebra of 4-form geometry on R^8.

All tensors are plain float64 ndarrays; every function broadcasts over
arbitrary leading batch axes, so a lattice of values is just one more axis.
Dense index conventions:

    2-form   beta[..., i, j]          skew
    3-form   gamma[..., i, j, k]      totally antisymmetric
    4-form   sigma[..., i, j, k, l]   totally antisymmetric
    endo     A[..., i, j]             row = covariant slot, column = contraction

Canonical (deduplicated) storage keeps ascending-index components only:
56 entries for 3-forms, 70 for 4-forms; `pack4`/`unpack4` convert.  The
flow-step kernels (`pi7`, `pi21`, `endo_split`, `orbit.rotate_form` and
`lattice.torsion`) take canonical 4-forms and contract them through two
gathered matrices, with zeros where an index repeats:

    slot matrix   S[..., a, t] = phi[a, t]           8 x 56, t an ascending triple
    pair matrix   P[..., p, q] = phi[a, b, c, d]     28 x 28, p = (a<b), q = (c<d)

P is symmetric, and it is the matrix of phi acting on 2-forms.

The reference Cayley form is built from octonion multiplication,
Phi0(x,y,z,w) = <x, y (conj(z) w)>, antisymmetrized.  Its normalization is
pinned by the contraction identities (full self-contraction 336, triple
contraction 42 g) which the test suite checks to 1e-12.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .octonion import OCT_TABLE, oct_conj

__all__ = [
    "DegenerateFormError",
    "QUADS",
    "TRIPLES",
    "cayley_form",
    "pack4",
    "unpack4",
    "pack3",
    "unpack3",
    "PAIRS",
    "slot_matrix",
    "pair_matrix",
    "hodge_star4",
    "form_inner",
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
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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
# hodge pairing on canonical quadruples: complement index and sign
_HODGE_COMP, _HODGE_SIGN = _hodge_tables(QUADS, QUADS)


def pack4(sigma: np.ndarray) -> np.ndarray:
    """Dense (...,8,8,8,8) -> canonical (...,70)."""
    flat = np.reshape(sigma, np.shape(sigma)[:-4] + (4096,))
    return np.take(flat, _FLAT4, axis=-1)


def unpack4(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> dense (...,8,8,8,8)."""
    dense = np.take(canon, _SLOT4, axis=-1)    # C-contiguous, unlike canon[..., _SLOT4]
    dense *= _SIGN4
    return dense


def slot_matrix(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> slot matrix (...,8,56), S[a, t] = phi[a, t]."""
    s = np.take(canon, _S_SLOT, axis=-1)    # C-contiguous, unlike canon[..., _S_SLOT]
    s *= _S_SIGN
    return s


def pair_matrix(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> pair matrix (...,28,28), P[(ab), (cd)] = phi[a, b, c, d]."""
    p = np.take(canon, _P_SLOT, axis=-1)
    p *= _P_SIGN
    return p


def pack3(gamma: np.ndarray) -> np.ndarray:
    return gamma[..., _GATHER3[0], _GATHER3[1], _GATHER3[2]]


def unpack3(canon: np.ndarray) -> np.ndarray:
    dense = np.take(canon, _SLOT3, axis=-1)
    dense *= _SIGN3
    return dense


# ---------------------------------------------------------------------------
# the Cayley form

def _build_cayley(table: np.ndarray = OCT_TABLE) -> np.ndarray:
    """The 4-form of the octonion product `table` (dense, read-only); the
    identity suite passes a corrupted table as its negative control."""
    # f[i, j, k, l] = <e_i, e_j (conj(e_k) e_l)>, then its antisymmetric part
    conj = oct_conj(np.ones(8))
    f = np.einsum("klm,jmi->ijkl", table, table) * conj[:, None]
    canon = np.zeros(70)
    for perm in itertools.permutations(range(4)):
        canon += _perm_sign(perm) * f[tuple(_GATHER4[p] for p in perm)]
    canon /= 24.0
    dense = unpack4(canon)
    dense.setflags(write=False)
    return dense


#: The reference Cayley 4-form (dense, read-only).
PHI0 = _build_cayley()

#: Eigenvalues of lambda_op on the four irreducible 4-form summands,
#: keyed by summand dimension.
LAMBDA_EIGENVALUES = {1: -24.0, 7: -12.0, 27: 4.0, 35: 0.0}


def cayley_form() -> np.ndarray:
    """The reference Cayley form (read-only array; copy before mutating)."""
    return PHI0


# ---------------------------------------------------------------------------
# linear operations

def hodge_star4(sigma: np.ndarray) -> np.ndarray:
    """Hodge star on 4-forms, Euclidean metric, orientation e1^...^e8."""
    canon = pack4(sigma)
    out = np.empty_like(canon)
    out[..., _HODGE_COMP] = canon * _HODGE_SIGN
    return unpack4(out)


def form_inner(sigma: np.ndarray, tau: np.ndarray, degree: int) -> np.ndarray:
    """<sigma, tau> = (1/k!) full index contraction, degree k in {2, 3, 4}."""
    if degree not in (2, 3, 4):
        raise ValueError(f"degree must be 2, 3 or 4, got {degree}")
    if sigma.shape[-degree:] != (8,) * degree or tau.shape[-degree:] != (8,) * degree:
        raise ValueError("degree does not match trailing tensor shape")
    axes = tuple(range(-degree, 0))
    return np.sum(sigma * tau, axis=axes) / math.factorial(degree)


def _form_on_2forms(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_ab beta_ab phi_abij for canonical phi: the pair matrix applied to
    (beta_ab - beta_ba)_{a<b}, skew-filled; beta need not be skew."""
    i, j = _GATHER2
    v = beta[..., i, j] - beta[..., j, i]
    w = np.matmul(v[..., None, :], pair_matrix(phi))[..., 0, :]
    out = np.take(w, _SLOT2, axis=-1)
    out *= _SIGN2
    return out


def pi7(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 7-dimensional summand of canonical phi."""
    return 0.25 * beta - 0.125 * _form_on_2forms(beta, phi)


def pi21(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 21-dimensional (stabiliser) summand of
    canonical phi."""
    return 0.75 * beta + 0.125 * _form_on_2forms(beta, phi)


def lambda_op(sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Equivariant operator on 4-forms with eigenvalues -24, -12, 4, 0."""
    sp = np.einsum("...ijmn,...mnkl->...ijkl", sigma, phi)
    t = lambda order: np.einsum(f"...{order}->...ijkl", sp)
    return sp + t("iklj") + t("iljk") + t("jkil") + t("jlki") + t("klij")


def decompose4(sigma: np.ndarray, phi: np.ndarray):
    """Split a 4-form into its (1, 7, 27, 35)-summand parts; parts sum to sigma.

    Uses the spectral projectors of lambda_op, built from three applications
    of the operator (Lagrange interpolation over the four eigenvalues).
    """
    mus = [LAMBDA_EIGENVALUES[d] for d in (1, 7, 27, 35)]
    powers = [sigma]
    for _ in range(3):
        powers.append(lambda_op(powers[-1], phi))
    parts = []
    for lam in mus:
        others = [mu for mu in mus if mu != lam]
        # expand prod (x - mu) = x^3 + c2 x^2 + c1 x + c0
        c2 = -sum(others)
        c1 = others[0] * others[1] + others[0] * others[2] + others[1] * others[2]
        c0 = -others[0] * others[1] * others[2]
        den = np.prod([lam - mu for mu in others])
        parts.append((powers[3] + c2 * powers[2] + c1 * powers[1] + c0 * powers[0]) / den)
    return tuple(parts)


def diamond(endo: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Infinitesimal frame-change action of an endomorphism on a 4-form."""
    return (np.einsum("...ip,...pjkl->...ijkl", endo, phi)
            + np.einsum("...jp,...ipkl->...ijkl", endo, phi)
            + np.einsum("...kp,...ijpl->...ijkl", endo, phi)
            + np.einsum("...lp,...ijkp->...ijkl", endo, phi))


def triple_contract(sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Three-index contraction inverting `diamond` on the 7-summand.

    For beta in the 7-summand, triple_contract(diamond(beta, phi), phi)
    equals 96 beta; the 21-summand is unrecoverable (kernel of diamond),
    so invert by post-composing with pi7 and dividing by 96.
    """
    raw = np.einsum("...ajkl,...bjkl->...ab", sigma, phi)
    return 0.5 * (raw - np.swapaxes(raw, -1, -2))


def decompose3(gamma: np.ndarray, phi: np.ndarray):
    """Split a 3-form into a vector part and the 48-summand remainder.

    Returns (x, gamma48) with gamma reconstructed as x contracted into phi
    plus gamma48, and gamma48 annihilated by contraction with phi.
    """
    x = np.einsum("...ijk,...ijkm->...m", gamma, phi) / 42.0
    gamma8 = np.einsum("...l,...ijkl->...ijk", x, phi)
    return x, gamma - gamma8


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

# The frame formula reads phi[k, a, b, c] over the ascending triples only:
# 8 x 56 dense entries, gathered per point block by their flat offsets.
_FRAME_READ = np.ravel_multi_index((np.arange(8)[:, None],) + _GATHER3, (8,) * 4).ravel()
_METRIC_BLOCK = 32    # points per block, bounding the working set of metric_from_form
_METRIC_CONST = 7.0**3 / 6.0 ** (7.0 / 3.0)


def _frame_tables():
    """Index and sign tables of the frame formula on the 7 completion columns.

    gamma = i_w phi restricted to the columns is stored as its 35
    ascending-triple components.  Gamma[a, p] = gamma[a, p] is row a of
    gamma as a 2-form (7 x 21), and M[p, q] = (*_7 gamma)[p, q] =
    sign(p, q, r) gamma_r, r the triple left by the disjoint pairs p, q, is
    the pair matrix of *_7 gamma (21 x 21); entries with a repeated index
    read slot 0 with sign 0.  A(w) = sum_r sign(r, r') gamma_r phi_r' over
    the complementary quadruples r'.  Per frame i, `frames[i]` holds the
    positions in _FRAME_READ of gamma(e_k) for k = i..7 and of phi_r'.
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
    frames = []
    for i in range(8):
        cols = np.delete(np.arange(8), i)
        t_read = _SLOT3[tuple(cols[g] for g in gather3)]
        w_pos = np.arange(i, 8)[:, None] * 56 + t_read
        a_pos = cols[gather4[0]] * 56 + _SLOT3[tuple(cols[g] for g in gather4[1:])]
        frames.append((w_pos, a_pos))
    return g_slot, g_sign, m_slot, m_sign, a_sign, tuple(frames)


_GAMMA_SLOT, _GAMMA_SIGN, _STAR_SLOT, _STAR_SIGN, _A_SIGN, _FRAMES = _frame_tables()


def _g_ww(gam: np.ndarray, a_form: np.ndarray) -> np.ndarray:
    """g(w, w) for a batch of vectors w of one frame {w, e_c : c in cols}.

    gam is i_w phi on the columns, (..., 35); a_form is the signed
    complementary-quadruple vector of phi, (..., 35), so A(w) = gam . a_form.
    """
    aval = np.matmul(gam[..., None, :], a_form[..., :, None])[..., 0, 0]
    if np.any(np.abs(aval) < 1e-14):
        raise DegenerateFormError("degenerate 4-form: frame 7-form A(v) vanishes")
    rows = np.take(gam, _GAMMA_SLOT, axis=-1)     # Gamma
    rows *= _GAMMA_SIGN
    star = np.take(gam, _STAR_SLOT, axis=-1)      # M
    star *= _STAR_SIGN
    det_b = np.linalg.det(rows @ star @ np.swapaxes(rows, -1, -2))
    g_sq = -_METRIC_CONST * np.cbrt(det_b) / aval**3
    if np.any(g_sq <= 0.0):
        raise DegenerateFormError("degenerate 4-form: induced g(v,v)^2 not positive")
    return np.sqrt(g_sq)


def metric_from_form(phi: np.ndarray) -> np.ndarray:
    """Metric induced by an admissible 4-form, via frame evaluation.

    Evaluates g(w,w) on the 8 coordinate vectors e_i and the 28 sums
    e_i + e_j (i < j), each with the static completion frame {e_c : c != i}
    (the determinant formula is frame-covariant so no orthonormalization is
    needed), and polarizes g(u,v) = (g(u+v,u+v) - g(u,u) - g(v,v)) / 2.
    On a frame, g(w,w)^2 = -(7^3 / 6^(7/3)) det(B)^(1/3) / A(w)^3 with
    B = Gamma M Gamma^T (see `_frame_tables`).  The points are walked in
    blocks of 32, and the vectors of one frame are batched.

    Raises DegenerateFormError when the input fails nondegeneracy.
    """
    lead = phi.shape[:-4]
    flat = phi.reshape(-1, 8**4)
    g = np.empty((flat.shape[0], 8, 8))
    for start in range(0, flat.shape[0], _METRIC_BLOCK):
        # fancy indexing reads a strided input in place; np.take would copy it whole
        read = np.ascontiguousarray(flat[start:start + _METRIC_BLOCK, _FRAME_READ])
        g_blk = g[start:start + _METRIC_BLOCK]
        for i, (w_pos, a_pos) in enumerate(_FRAMES):
            gam = np.take(read, w_pos, axis=-1)      # gamma(e_k), k = i..7
            gam[:, 1:] += gam[:, :1]                 # gamma(e_i + e_k)
            a_form = np.take(read, a_pos, axis=-1)
            a_form *= _A_SIGN
            g_blk[:, i, i:] = _g_ww(gam, a_form[:, None, :])
    lo, hi = np.triu_indices(8, 1)
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    g[:, lo, hi] = g[:, hi, lo] = 0.5 * (g[:, lo, hi] - diag[:, lo] - diag[:, hi])
    return g.reshape(lead + (8, 8))
