from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spin7.octonion import OCT_TABLE, oct_conj, oct_mul

E = np.eye(8)

octonions = arrays(np.float64, (8,), elements=st.floats(-10, 10, allow_nan=False))


def test_unit_laws():
    b = np.arange(8.0)
    assert np.array_equal(oct_mul(E[0], b), b)
    assert np.array_equal(oct_mul(b, E[0]), b)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert np.array_equal(oct_mul(E[i], E[i]), -E[0])


def test_imaginary_units_anticommute():
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert np.array_equal(oct_mul(E[i], E[j]), -oct_mul(E[j], E[i]))


@given(octonions, octonions)
@settings(max_examples=100)
def test_composition_law(a, b):
    lhs = np.linalg.norm(oct_mul(a, b))
    rhs = np.linalg.norm(a) * np.linalg.norm(b)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(octonions, octonions)
@settings(max_examples=50)
def test_conjugation_antihomomorphism(a, b):
    lhs = oct_conj(oct_mul(a, b))
    rhs = oct_mul(oct_conj(b), oct_conj(a))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_bilinearity(rng):
    a, b, c = rng.standard_normal((3, 8))
    np.testing.assert_allclose(oct_mul(a + b, c), oct_mul(a, c) + oct_mul(b, c),
                               atol=1e-13)


def test_table_structure():
    # every product of basis units is +-1 times a basis unit
    nz = np.abs(OCT_TABLE) > 0
    assert nz.sum(axis=-1).max() == 1
    assert set(np.unique(OCT_TABLE)) == {-1.0, 0.0, 1.0}


def _quat_table():
    t = np.zeros((4, 4, 4))
    t[0, 0, 0] = t[0, 1, 1] = t[0, 2, 2] = t[0, 3, 3] = 1.0
    t[1, 0, 1] = t[2, 0, 2] = t[3, 0, 3] = 1.0
    t[1, 1, 0] = t[2, 2, 0] = t[3, 3, 0] = -1.0
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[i, j, k] = 1.0
        t[j, i, k] = -1.0
    return t


def _cayley_dickson_table():
    """Doubling of the quaternions, e4 = (0, 1):
    (a, b) (c, d) = (a c - d* b,  d a + b c*)."""
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
    return table


def _misoriented(table, lines):
    """`table` with each oriented line (i, j, k) of `lines` reversed: every
    product of two distinct units of the line changes sign."""
    out = table.copy()
    for line in lines:
        for a in line:
            for b in line:
                if a != b:
                    out[a, b] = -out[a, b]
    return out


def test_table_is_the_cayley_dickson_doubling():
    assert OCT_TABLE.tobytes() == _cayley_dickson_table().tobytes()
    assert not OCT_TABLE.flags.writeable


@pytest.mark.parametrize("lines, composes", [
    ([(1, 2, 3)], False),
    ([(3, 6, 5)], False),
    ([(1, 2, 3), (1, 4, 5), (1, 7, 6)], True),
], ids=["line-123", "line-365", "lines-through-e1"])
def test_a_misoriented_line_fails_the_oracle(rng, lines, composes):
    """One reversed line breaks the composition law; reversing the three
    lines through e1 is the same algebra with e1 -> -e1, which composes, so
    only the byte pin above tells that table from OCT_TABLE."""
    table = _misoriented(OCT_TABLE, lines)
    a, b = rng.standard_normal((2, 64, 8))
    ab = np.einsum("...i,...j,ijk->...k", a, b, table)
    gap = np.linalg.norm(ab, axis=-1) - np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    assert (np.abs(gap).max() < 1e-12) == composes
    assert table.tobytes() != _cayley_dickson_table().tobytes()


def _readme_table():
    """The imaginary-unit products printed under "Octonion table" in
    README.md, as an (8, 8, 8) table with the unit row and column filled."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("* **Octonion table.**", 1)[1].split("```", 2)[1]
    rows = [line.split() for line in block.strip().splitlines()]
    table = np.zeros((8, 8, 8))
    for i in range(8):
        table[0, i, i] = table[i, 0, i] = 1.0
    for i, row in enumerate(rows, start=1):
        assert row[0] == f"e{i}:"
        for j, cell in enumerate(row[1:], start=1):
            sign = -1.0 if cell.startswith("-") else 1.0
            name = cell.lstrip("-")
            table[i, j, 0 if name == "1" else int(name[1:])] = sign
    assert len(rows) == 7 and all(len(row) == 8 for row in rows)
    return table


def test_readme_prints_the_table():
    np.testing.assert_array_equal(_readme_table(), OCT_TABLE)


def test_batched_multiplication(rng):
    a = rng.standard_normal((5, 8))
    b = rng.standard_normal((5, 8))
    out = oct_mul(a, b)
    for i in range(5):
        np.testing.assert_allclose(out[i], oct_mul(a[i], b[i]), atol=1e-14)
