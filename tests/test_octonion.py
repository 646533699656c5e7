import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spin7.octonion import OCT_TABLE, multiplication_table_rows, oct_conj, oct_mul

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
    rows = multiplication_table_rows()
    assert len(rows) == 7 and rows[0].startswith("e1:")


def test_batched_multiplication(rng):
    a = rng.standard_normal((5, 8))
    b = rng.standard_normal((5, 8))
    out = oct_mul(a, b)
    for i in range(5):
        np.testing.assert_allclose(out[i], oct_mul(a[i], b[i]), atol=1e-14)
