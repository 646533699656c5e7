"""Pointwise linear algebra of 4-form geometry on R^8.

All tensors are plain float64 ndarrays; every function broadcasts over
arbitrary leading batch axes, so a lattice of values is just one more axis.
Dense index conventions:

    2-form   beta[..., i, j]          skew
    3-form   gamma[..., i, j, k]      totally antisymmetric
    4-form   sigma[..., i, j, k, l]   totally antisymmetric
    endo     A[..., i, j]             row = covariant slot, column = contraction

Canonical (deduplicated) storage keeps ascending-index components only:
56 entries for 3-forms, 70 for 4-forms; `pack4`/`unpack4` convert.

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


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _index_maps(tuples, k):
    """Dense<->canonical scatter tables for rank-k antisymmetric tensors."""
    slot = np.zeros((8,) * k, dtype=np.int64)
    sign = np.zeros((8,) * k, dtype=np.float64)
    for c, tup in enumerate(tuples):
        for perm in itertools.permutations(range(k)):
            idx = tuple(tup[p] for p in perm)
            slot[idx] = c
            sign[idx] = _perm_sign(perm)
    gather = tuple(np.array([t[i] for t in tuples]) for i in range(k))
    return slot, sign, gather


_SLOT4, _SIGN4, _GATHER4 = _index_maps(QUADS, 4)
_SLOT3, _SIGN3, _GATHER3 = _index_maps(TRIPLES, 3)


def pack4(sigma: np.ndarray) -> np.ndarray:
    """Dense (...,8,8,8,8) -> canonical (...,70)."""
    return sigma[..., _GATHER4[0], _GATHER4[1], _GATHER4[2], _GATHER4[3]]


def unpack4(canon: np.ndarray) -> np.ndarray:
    """Canonical (...,70) -> dense (...,8,8,8,8)."""
    dense = canon[..., _SLOT4]    # fancy indexing copies, so scaling in place is safe
    dense *= _SIGN4
    return dense


def pack3(gamma: np.ndarray) -> np.ndarray:
    return gamma[..., _GATHER3[0], _GATHER3[1], _GATHER3[2]]


def unpack3(canon: np.ndarray) -> np.ndarray:
    return canon[..., _SLOT3] * _SIGN3


# hodge pairing on canonical quadruples: complement index and sign
def _hodge_tables():
    lookup = {q: i for i, q in enumerate(QUADS)}
    comp = np.zeros(70, dtype=np.int64)
    sign = np.zeros(70)
    for i, q in enumerate(QUADS):
        rest = tuple(x for x in range(8) if x not in q)
        comp[i] = lookup[rest]
        sign[i] = _perm_sign(q + rest)
    return comp, sign


_HODGE_COMP, _HODGE_SIGN = _hodge_tables()


# ---------------------------------------------------------------------------
# the Cayley form

def _build_cayley(table: np.ndarray = OCT_TABLE) -> np.ndarray:
    """The 4-form of the octonion product `table` (dense, read-only); the
    identity suite passes a corrupted table as its negative control."""
    eye = np.eye(8)

    def mul(a, b):
        return np.einsum("...i,...j,ijk->...k", a, b, table)

    def f(i, j, k, l):
        return float(eye[i] @ mul(eye[j], mul(oct_conj(eye[k]), eye[l])))

    canon = np.zeros(70)
    for c, quad in enumerate(QUADS):
        val = 0.0
        for perm in itertools.permutations(range(4)):
            val += _perm_sign(perm) * f(*(quad[p] for p in perm))
        canon[c] = val / 24.0
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


def pi7(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 7-dimensional summand."""
    contr = np.einsum("...ab,...abij->...ij", beta, phi)
    return 0.25 * beta - 0.125 * contr


def pi21(beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projection of a 2-form onto the 21-dimensional (stabiliser) summand."""
    contr = np.einsum("...ab,...abij->...ij", beta, phi)
    return 0.75 * beta + 0.125 * contr


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
    """Split an endomorphism into trace, traceless-symmetric, 7 and 21 parts."""
    trace = np.einsum("...ii->...", endo)
    sym = 0.5 * (endo + np.swapaxes(endo, -1, -2))
    sym0 = sym - (trace[..., None, None] / 8.0) * np.eye(8)
    skew = 0.5 * (endo - np.swapaxes(endo, -1, -2))
    return trace, sym0, pi7(skew, phi), pi21(skew, phi)


# ---------------------------------------------------------------------------
# the induced metric

def _shuffles(total, sizes):
    """(sizes)-shuffles of range(total) with signs, as index arrays."""
    rows = []
    signs = []
    def rec(remaining, blocks):
        if not blocks:
            rows.append([i for blk in blocks_acc for i in blk])
            perm = rows[-1]
            signs.append(_perm_sign(perm))
            return
        for blk in itertools.combinations(remaining, blocks[0]):
            blocks_acc.append(blk)
            rec(tuple(x for x in remaining if x not in blk), blocks[1:])
            blocks_acc.pop()
    blocks_acc: list = []
    rec(tuple(range(total)), list(sizes))
    return np.array(rows, dtype=np.int64), np.array(signs, dtype=np.float64)


_B_SPLITS, _B_SIGNS = _shuffles(7, (2, 2, 3))    # 210 rows: pair, pair, triple
_A_SPLITS, _A_SIGNS = _shuffles(7, (3, 4))       # 35 rows: triple, quadruple


def _g_ww(p3f: np.ndarray, phif: np.ndarray) -> np.ndarray:
    """g(w, w) for a frame {w, e_c : c in cols}, batched over the form.

    p3f is phi(w, ., ., .) and phif is phi, both restricted to the
    completion columns.
    """
    s = _B_SPLITS
    g1 = p3f[..., :, s[:, 0], s[:, 1]]                 # (...,7,210)
    g2 = p3f[..., :, s[:, 2], s[:, 3]]                 # (...,7,210)
    g3 = _B_SIGNS * p3f[..., s[:, 4], s[:, 5], s[:, 6]]  # (...,210)
    b = np.einsum("...it,...jt,...t->...ij", g1, g2, g3)
    a = _A_SPLITS
    aval = np.einsum("...t,...t->...",
                     _A_SIGNS * p3f[..., a[:, 0], a[:, 1], a[:, 2]],
                     phif[..., a[:, 3], a[:, 4], a[:, 5], a[:, 6]])
    if np.any(np.abs(aval) < 1e-14):
        raise DegenerateFormError("degenerate 4-form: frame 7-form A(v) vanishes")
    det_b = np.linalg.det(b)
    g_sq = -(7.0**3 / 6.0 ** (7.0 / 3.0)) * np.cbrt(det_b) / aval**3
    if np.any(g_sq <= 0.0):
        raise DegenerateFormError("degenerate 4-form: induced g(v,v)^2 not positive")
    return np.sqrt(g_sq)


def metric_from_form(phi: np.ndarray) -> np.ndarray:
    """Metric induced by an admissible 4-form, via frame evaluation.

    Evaluates g(w,w) on the 8 coordinate vectors e_i and the 28 sums
    e_i + e_j (i < j), each with the static completion frame {e_c : c != i}
    (the determinant formula is frame-covariant so no orthonormalization is
    needed), and polarizes g(u,v) = (g(u+v,u+v) - g(u,u) - g(v,v)) / 2.

    Raises DegenerateFormError when the input fails nondegeneracy.
    """
    g = np.zeros(phi.shape[:-4] + (8, 8))
    sums = {}
    for i in range(8):
        cols = np.array([c for c in range(8) if c != i])
        # phi with its last three slots restricted to the frame, gathered once
        p3 = phi[..., cols[:, None, None], cols[None, :, None], cols[None, None, :]]
        phif = p3[..., cols, :, :, :]
        g[..., i, i] = _g_ww(p3[..., i, :, :, :], phif)
        for j in range(i + 1, 8):
            sums[i, j] = _g_ww(p3[..., i, :, :, :] + p3[..., j, :, :, :], phif)
    for (i, j), val in sums.items():
        g[..., i, j] = g[..., j, i] = 0.5 * (val - g[..., i, i] - g[..., j, j])
    return g
