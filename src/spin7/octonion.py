"""Octonion arithmetic over the basis (1, e1, ..., e7).

The multiplication table is generated by Cayley-Dickson doubling of the
quaternions: an octonion is a pair of quaternions (a, b) with

    (a, b) (c, d) = (a c - d* b,  d a + b c*)

where * is quaternion conjugation and e4 = (0, 1).  The resulting table is
the one printed by `multiplication_table_rows` (and in README.md); it makes
(1,2,3), (1,4,5), (2,4,6), (3,4,7), (1,7,6), (2,5,7), (3,6,5) the oriented
lines e_i e_j = e_k.  Everything downstream validates this table through the
composition law and the 4-form identity suite, not against any external
listing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OCT_TABLE",
    "oct_mul",
    "oct_conj",
    "multiplication_table_rows",
]


def _quat_table() -> np.ndarray:
    t = np.zeros((4, 4, 4))
    t[0, 0, 0] = t[0, 1, 1] = t[0, 2, 2] = t[0, 3, 3] = 1.0
    t[1, 0, 1] = t[2, 0, 2] = t[3, 0, 3] = 1.0
    t[1, 1, 0] = t[2, 2, 0] = t[3, 3, 0] = -1.0
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[i, j, k] = 1.0
        t[j, i, k] = -1.0
    return t


def _build_oct_table() -> np.ndarray:
    qt = _quat_table()

    def qmul(a, b):
        return np.einsum("i,j,ijk->k", a, b, qt)

    def qconj(a):
        out = a.copy()
        out[1:] *= -1.0
        return out

    table = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for i in range(8):
        for j in range(8):
            a1, a2 = eye[i][:4], eye[i][4:]
            b1, b2 = eye[j][:4], eye[j][4:]
            table[i, j, :4] = qmul(a1, b1) - qmul(qconj(b2), a2)
            table[i, j, 4:] = qmul(b2, a1) + qmul(a2, qconj(b1))
    table.setflags(write=False)
    return table


#: OCT_TABLE[i, j] is the coefficient vector of e_i * e_j.
OCT_TABLE = _build_oct_table()


def oct_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Octonion product; inputs broadcast over leading axes."""
    return np.einsum("...i,...j,ijk->...k", a, b, OCT_TABLE)


def oct_conj(a: np.ndarray) -> np.ndarray:
    """Octonion conjugate (negate the seven imaginary components)."""
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def multiplication_table_rows() -> list[str]:
    """Human-readable rows of the imaginary-unit products, for docs."""
    names = ["1", "e1", "e2", "e3", "e4", "e5", "e6", "e7"]
    rows = []
    for i in range(1, 8):
        cells = []
        for j in range(1, 8):
            v = OCT_TABLE[i, j]
            k = int(np.argmax(np.abs(v)))
            sign = "-" if v[k] < 0 else ""
            cells.append(f"{sign}{names[k]}")
        rows.append(f"e{i}: " + " ".join(f"{c:>4}" for c in cells))
    return rows
