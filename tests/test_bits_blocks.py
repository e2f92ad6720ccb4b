"""Bitvectors across the rank directory's 2**16-bit block edges.

``BitVector`` keeps one int64 count of the 1s before each 65,536-bit
block and one uint16 count per word relative to its block. These tests
pin every kernel against a numpy reference where that split matters: at
each block edge and one bit either side, at ``n``, and at the first and
last one and zero of each block. Scalar and bulk kernels must agree with
the reference on built, read-only segment-attached and unpickled vectors,
and so must a wavelet matrix and an Elias–Fano sequence whose vectors
span several blocks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bits import BitVector, EliasFano, WaveletMatrix
from repro.parallel import Segment, SegmentWriter

BLOCK = 1 << 16
SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 200_003]
DENSITIES = [0.0, 1.0, 0.5, 0.002]


def _variants(owning):
    writer = SegmentWriter("blocks-test")
    writer.add("s", owning)
    attached = Segment.parse(writer.to_bytes()).attach("s")
    return {
        "built": owning,
        "attached": attached,
        "unpickled": pickle.loads(pickle.dumps(owning)),
    }


def _bits(n, p):
    rng = np.random.default_rng(n + int(p * 1000))
    return (rng.random(n) < p).astype(np.uint8)


def _edge_positions(n):
    edges = np.arange(0, n + 1, BLOCK)
    near = np.concatenate([edges - 1, edges, edges + 1, [n - 1, n]])
    return np.unique(near[(near >= 0) & (near <= n)])


def _block_ends(positions, n):
    """1-based ranks of the first and last of ``positions`` in each block."""
    ks = set()
    for start in range(0, n, BLOCK):
        lo, hi = np.searchsorted(positions, [start, start + BLOCK])
        if hi > lo:
            ks.update((int(lo) + 1, int(hi)))
    return np.array(sorted(ks), dtype=np.int64)


@pytest.mark.parametrize("p", DENSITIES)
@pytest.mark.parametrize("n", SIZES)
def test_block_edges_match_numpy(n, p):
    bits = _bits(n, p)
    cumulative = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    positions = _edge_positions(n)
    selects = {
        1: (ones, _block_ends(ones, n)),
        0: (zeros, _block_ends(zeros, n)),
    }
    owning = BitVector(bits)
    words = (n + 63) // 64
    assert owning.overhead_in_bits() == 16 * (words + 1) + 64 * -(-(words + 1) // 1024)
    for label, bv in _variants(owning).items():
        expected = cumulative[positions].tolist()
        assert [bv.rank1(int(i)) for i in positions] == expected, label
        assert bv.rank1_many(positions).tolist() == expected, label
        expected0 = (positions - cumulative[positions]).tolist()
        assert [bv.rank0(int(i)) for i in positions] == expected0, label
        assert bv.rank0_many(positions).tolist() == expected0, label
        for bit, (where, ks) in selects.items():
            ks = np.concatenate([ks, [where.size + 1]])
            expected = where[ks[:-1] - 1].tolist() + [-1]
            assert [bv.select(bit, int(k)) for k in ks] == expected, (label, bit)
            assert bv.select_many(bit, ks).tolist() == expected, (label, bit)


def test_full_block_keeps_its_largest_word_count():
    bv = BitVector(np.ones(3 * BLOCK, dtype=np.uint8))
    # The last word of a full block has 1,023 full words before it.
    assert int(bv._counts.max()) == 65_472
    assert bv.rank1(BLOCK - 1) == BLOCK - 1
    assert bv.select1(BLOCK) == BLOCK - 1
    assert bv.select1(2 * BLOCK + 1) == 2 * BLOCK


def test_wavelet_matrix_spanning_blocks():
    data = np.random.default_rng(5).integers(0, 5, size=2 * BLOCK + 777)
    owning = WaveletMatrix(data, sigma=5)
    assert all(len(level) > BLOCK for level in owning._levels)
    positions = _edge_positions(data.size)
    for label, wm in _variants(owning).items():
        for c in range(5):
            cumulative = np.concatenate([[0], np.cumsum(data == c)])
            expected = cumulative[positions].tolist()
            assert [wm.rank(c, int(i)) for i in positions] == expected, (label, c)
            assert wm.rank_many(c, positions).tolist() == expected, (label, c)
            where = np.flatnonzero(data == c)
            ks = _block_ends(where, data.size)
            assert [wm.select(c, int(k)) for k in ks] == where[ks - 1].tolist()
            assert wm.select_many(c, ks).tolist() == where[ks - 1].tolist()
        assert [wm[int(i)] for i in positions[:-1]] == data[positions[:-1]].tolist()


def test_eliasfano_spanning_blocks():
    rng = np.random.default_rng(9)
    values = np.sort(rng.integers(0, 1_000_000, size=50_000))
    owning = EliasFano(values, universe=1_000_000)
    assert len(owning._high) > BLOCK
    idx = np.unique(np.concatenate([np.arange(0, values.size, 997), [values.size - 1]]))
    xs = np.unique(np.concatenate([values[idx], values[idx] + 1, [0, 1_000_000]]))
    less = np.searchsorted(values, xs, side="left").tolist()
    less_eq = np.searchsorted(values, xs, side="right").tolist()
    for label, ef in _variants(owning).items():
        assert [ef[int(i)] for i in idx] == values[idx].tolist(), label
        assert ef.get_many(idx).tolist() == values[idx].tolist(), label
        assert [ef.num_less(int(x)) for x in xs] == less, label
        assert ef.num_less_many(xs).tolist() == less, label
        assert ef.num_less_or_equal_many(xs).tolist() == less_eq, label
