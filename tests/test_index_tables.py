"""The canonical index tables against the loop-by-loop builders they replaced.

`algebra._index_maps` and `algebra._hodge_tables` derive every index and
sign table.  The oracles below build each table entry by entry, from tuple
lookups and permutation signs, and every table must match its oracle in
dtype, shape and bytes (so also in the sign of its zeros).
"""

import itertools

import numpy as np
import pytest

from spin7 import algebra, orbit
from spin7.algebra import PAIRS, QUADS, TRIPLES, unpack4
from spin7.flow import initial_data
from spin7.lattice import LatticeSpec
from spin7.octonion import OCT_TABLE, oct_conj

from conftest import pack4, unpack3


QUADS_T = np.array(QUADS).T


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _index_maps_oracle(tuples, k):
    slot = np.zeros((8,) * k, dtype=np.int64)
    sign = np.zeros((8,) * k, dtype=np.float64)
    for c, tup in enumerate(tuples):
        for perm in itertools.permutations(range(k)):
            idx = tuple(tup[p] for p in perm)
            slot[idx] = c
            sign[idx] = _perm_sign(perm)
    gather = tuple(np.array([t[i] for t in tuples]) for i in range(k))
    return slot, sign, gather


def _hodge_oracle():
    lookup = {q: i for i, q in enumerate(QUADS)}
    comp = np.zeros(70, dtype=np.int64)
    sign = np.zeros(70)
    for i, q in enumerate(QUADS):
        rest = tuple(x for x in range(8) if x not in q)
        comp[i] = lookup[rest]
        sign[i] = _perm_sign(q + rest)
    return comp, sign


def _frame_oracle():
    triples = tuple(itertools.combinations(range(7), 3))
    pairs = tuple(itertools.combinations(range(7), 2))
    t_pos = {t: n for n, t in enumerate(triples)}
    g_slot, g_sign = np.zeros((7, 21), dtype=np.int64), np.zeros((7, 21))
    for a in range(7):
        for p, pair in enumerate(pairs):
            if a not in pair:
                g_slot[a, p] = t_pos[tuple(sorted((a,) + pair))]
                g_sign[a, p] = _perm_sign((a,) + pair)
    m_slot, m_sign = np.zeros((21, 21), dtype=np.int64), np.zeros((21, 21))
    for p, pp in enumerate(pairs):
        for q, qq in enumerate(pairs):
            if not set(pp) & set(qq):
                r = tuple(x for x in range(7) if x not in pp + qq)
                m_slot[p, q] = t_pos[r]
                m_sign[p, q] = _perm_sign(pp + qq + r)
    quads = [tuple(x for x in range(7) if x not in r) for r in triples]
    a_sign = np.array([float(_perm_sign(r + q)) for r, q in zip(triples, quads)])
    cols = range(1, 8)
    read = [(k,) + tuple(cols[x] for x in r) for k in range(8) for r in triples]
    read_pos = {entry: n for n, entry in enumerate(read)}
    frame_read = np.array([((k * 8 + a) * 8 + b) * 8 + c for k, a, b, c in read])
    a_pos = np.array([read_pos[tuple(cols[x] for x in q)] for q in quads])
    return g_slot, g_sign, m_slot, m_sign, a_sign, frame_read, a_pos


def _cayley_oracle(table):
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
    slot, sign, _ = _index_maps_oracle(QUADS, 4)
    return canon[..., slot] * sign


def assert_same(table, oracle):
    table, oracle = np.asarray(table), np.asarray(oracle)
    assert table.dtype == oracle.dtype
    assert table.shape == oracle.shape
    assert np.array_equal(table, oracle)
    assert np.ascontiguousarray(table).tobytes() == np.ascontiguousarray(oracle).tobytes()


@pytest.mark.parametrize("k, tuples", [(4, QUADS), (3, TRIPLES), (2, PAIRS)])
def test_index_maps_match_the_oracle(k, tuples):
    tables = algebra._index_maps(tuples)
    slot, sign, gather = _index_maps_oracle(tuples, k)
    assert_same(tables[0], slot)
    assert_same(tables[1], sign)
    assert len(tables[2]) == k
    for got, want in zip(tables[2], gather):
        assert_same(got, want)


def test_module_index_maps_are_the_8d_maps():
    for got, want in zip((algebra._SLOT4, algebra._SIGN4), _index_maps_oracle(QUADS, 4)):
        assert_same(got, want)
    # the 3-form sign table has no reader in the library; the builder's is
    # pinned by test_index_maps_match_the_oracle
    assert_same(algebra._SLOT3, _index_maps_oracle(TRIPLES, 3)[0])
    for got, want in zip((algebra._SLOT2, algebra._SIGN2), _index_maps_oracle(PAIRS, 2)):
        assert_same(got, want)


def test_hodge_tables_match_the_oracle():
    comp, sign = _hodge_oracle()
    assert_same(algebra._HODGE_COMP, comp)
    assert_same(algebra._HODGE_SIGN, sign)


def test_frame_tables_match_the_oracle():
    g_slot, g_sign, m_slot, m_sign, a_sign, frame_read, a_pos = _frame_oracle()
    assert_same(algebra._GAMMA_SLOT, g_slot)
    assert_same(algebra._GAMMA_SIGN, g_sign)
    assert_same(algebra._STAR_SLOT, m_slot)
    assert_same(algebra._STAR_SIGN, m_sign)
    assert_same(algebra._A_SIGN, a_sign)
    assert_same(algebra._FRAME_READ, frame_read)
    assert_same(algebra._A_POS, a_pos)


def test_pair_matrix_scatter_matches_the_oracle():
    pair_i, pair_j = np.array(PAIRS).T
    assert_same(orbit._PAIR_I, pair_i)
    assert_same(orbit._PAIR_J, pair_j)
    entry = np.array([28 * PAIRS.index(q[:2]) + PAIRS.index(q[2:]) for q in QUADS])
    assert_same(algebra._P_CANON, entry)


def test_square_table_matches_the_oracle():
    # polarize the Clifford-product square on the 64 basis pairs (a, b):
    # Sq(e_a + e_b) - Sq(e_a - e_b) = 4 e_a^T _SQUARE e_b, exactly in integers
    eye = np.eye(8)
    plus = orbit.spinor_square4(eye[:, None, :] + eye[None, :, :])
    minus = orbit.spinor_square4(eye[:, None, :] - eye[None, :, :])
    assert_same(algebra._SQUARE, np.moveaxis((plus - minus) / 4.0, -1, 0))
    assert not algebra._SQUARE.flags.writeable


def test_reference_form_is_the_built_form():
    assert_same(algebra.PHI0, _cayley_oracle(OCT_TABLE))


def test_reference_form_is_the_square_of_one():
    assert_same(algebra.PHI0C, algebra._SQUARE[:, 0, 0])
    assert algebra.PHI0C.flags.c_contiguous and not algebra.PHI0C.flags.writeable


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_unpack_gathers_are_contiguous_and_exact(lead):
    rng = np.random.default_rng(11)
    canon4 = rng.standard_normal(lead + (70,))
    canon3 = rng.standard_normal(lead + (56,))
    dense4, dense3 = unpack4(canon4), unpack3(canon3)
    assert dense4.flags.c_contiguous and dense3.flags.c_contiguous
    assert_same(dense4, canon4[..., algebra._SLOT4] * algebra._SIGN4)
    slot3, sign3, _ = _index_maps_oracle(TRIPLES, 3)
    assert_same(dense3, canon3[..., slot3] * sign3)
    packed = pack4(dense4)
    assert packed.flags.c_contiguous
    assert_same(packed, dense4[..., QUADS_T[0], QUADS_T[1], QUADS_T[2], QUADS_T[3]])
    assert_same(packed, canon4)


def test_bryant_wave_form_is_contiguous():
    # its phi comes straight out of the einsum of `orbit.bryant_form`
    state = initial_data("bryant-wave", {}, LatticeSpec(active_axes=(0,), points=16))
    assert state.phi.flags.c_contiguous
