"""Differential property tests for the bulk rank/select kernels.

The contract pinned here: for every succinct bit structure, the
vectorized bulk entry points (``rank_many`` / ``rank_pairs`` /
``ranks_matrix`` / ``select_many`` / ``get_many`` / ``num_less_many``)
return exactly what a scalar loop over the corresponding one-at-a-time
query returns — on randomized inputs spanning densities, word-boundary
sizes and degenerate shapes, and equally over *read-only* buffer-backed
views attached through :mod:`repro.bits.storage` (the shared-memory
serving deployment: bulk kernels must never need a writable payload).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits import (
    BitVector,
    EliasFano,
    HuffmanWaveletTree,
    IntVector,
    RRRBitVector,
    SparseBitVector,
    WaveletMatrix,
)
from repro.parallel import Segment, SegmentWriter

# Randomized trials: (size, density, seed) — word boundaries (64, 128),
# RRR block/superblock boundaries (15, 480), the plain bitvector's
# 2**16-bit directory blocks, empty and all-same inputs.
BIT_CASES = [
    (0, 0.5, 1),
    (1, 1.0, 2),
    (63, 0.5, 3),
    (64, 0.1, 4),
    (65, 0.9, 5),
    (128, 0.0, 6),
    (479, 0.3, 7),
    (480, 0.5, 8),
    (1000, 0.05, 9),
    (4097, 0.7, 10),
    (65_537, 0.5, 11),
    (200_003, 0.01, 12),
]


def _attach_readonly(obj, key="s"):
    """Round-trip through a parsed segment: a zero-copy read-only view."""
    writer = SegmentWriter("bulk-test")
    writer.add(key, obj)
    return Segment.parse(writer.to_bytes()).attach(key)


def _bits(n, p, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < p).astype(np.uint8)


def _variants(owning):
    return [owning, _attach_readonly(owning)]


@pytest.mark.parametrize("n,p,seed", BIT_CASES)
@pytest.mark.parametrize("compressed", [False, True])
def test_bitvector_bulk_matches_scalar(n, p, seed, compressed):
    bits = _bits(n, p, seed)
    owning = RRRBitVector(bits) if compressed else BitVector(bits)
    rng = np.random.default_rng(seed + 1000)
    positions = rng.integers(0, n + 1, size=97) if n else np.zeros(1, np.int64)
    ones = owning.rank1(n)
    zeros = n - ones
    for bv in _variants(owning):
        for bit, count in ((1, ones), (0, zeros)):
            expected = [bv.rank(bit, int(i)) for i in positions]
            assert bv.rank_many(bit, positions).tolist() == expected
            # ranks out of the valid range include the invalid sentinel -1.
            ks = rng.integers(-1, count + 2, size=61)
            expected = [bv.select(bit, int(k)) for k in ks]
            assert bv.select_many(bit, ks).tolist() == expected
        assert bv.rank1_many(positions).tolist() == [
            bv.rank1(int(i)) for i in positions
        ]
        assert bv.rank0_many(positions).tolist() == [
            bv.rank0(int(i)) for i in positions
        ]


@pytest.mark.parametrize("m,u,seed", [(0, 1, 0), (1, 5, 1), (40, 41, 2),
                                      (200, 10_000, 3), (500, 501, 4)])
def test_eliasfano_bulk_matches_scalar(m, u, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.integers(0, u, size=m)) if m else np.zeros(0, np.int64)
    owning = EliasFano(values, universe=u)
    xs = rng.integers(0, u + 2, size=83)
    for ef in _variants(owning):
        if m:
            idx = rng.integers(0, m, size=71)
            assert ef.get_many(idx).tolist() == [ef[int(i)] for i in idx]
        assert ef.num_less_many(xs).tolist() == [
            ef.num_less(int(x)) for x in xs
        ]
        assert ef.num_less_or_equal_many(xs).tolist() == [
            ef.num_less_or_equal(int(x)) for x in xs
        ]


@pytest.mark.parametrize("n,m,seed", [(1, 0, 0), (100, 7, 1), (2048, 300, 2)])
def test_sparse_bitvector_bulk_matches_scalar(n, m, seed):
    rng = np.random.default_rng(seed)
    positions = np.unique(rng.integers(0, n, size=m)) if m else np.zeros(0, np.int64)
    owning = SparseBitVector(positions, length=n)
    queries = rng.integers(0, n + 1, size=79)
    ones = owning.rank1(n)
    for sbv in _variants(owning):
        scalar = {1: (sbv.rank1, sbv.select1), 0: (sbv.rank0, sbv.select0)}
        for bit, count in ((1, ones), (0, n - ones)):
            rank_one, select_one = scalar[bit]
            assert sbv.rank_many(bit, queries).tolist() == [
                rank_one(int(i)) for i in queries
            ]
            ks = rng.integers(-1, count + 2, size=53)
            assert sbv.select_many(bit, ks).tolist() == [
                select_one(int(k)) for k in ks
            ]


@pytest.mark.parametrize("sigma,n,seed", [(2, 64, 0), (11, 600, 1), (40, 2000, 2)])
@pytest.mark.parametrize("kind", ["wm", "wm-rrr", "hwt"])
def test_wavelet_bulk_matches_scalar(sigma, n, seed, kind):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, sigma, size=n)
    if kind == "hwt":
        owning = HuffmanWaveletTree(data, sigma)
    else:
        owning = WaveletMatrix(data, sigma=sigma, compressed=(kind == "wm-rrr"))
    positions = rng.integers(0, n + 1, size=67)
    los = rng.integers(0, n + 1, size=59)
    his = np.minimum(n, los + rng.integers(0, 40, size=59))
    # Out-of-alphabet symbols must behave like the scalar path (0 ranks).
    symbols = list(range(min(sigma, 5))) + [sigma - 1, sigma + 3]
    for wt in _variants(owning):
        for c in symbols:
            assert wt.rank_many(c, positions).tolist() == [
                wt.rank(c, int(i)) for i in positions
            ]
            lo_r, hi_r = wt.rank_pairs(c, los, his)
            assert lo_r.tolist() == [wt.rank(c, int(i)) for i in los]
            assert hi_r.tolist() == [wt.rank(c, int(i)) for i in his]
            matrix = np.stack([los, his], axis=1)
            assert wt.ranks_matrix(c, matrix).tolist() == [
                [wt.rank(c, int(lo)), wt.rank(c, int(hi))]
                for lo, hi in zip(los, his)
            ]
            if c < sigma:
                count = wt.rank(c, n)
                ks = rng.integers(-1, count + 2, size=43)
                assert wt.select_many(c, ks).tolist() == [
                    wt.select(c, int(k)) for k in ks
                ]


def test_intvector_bulk_over_readonly_buffer():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 1 << 19, size=513)
    owning = IntVector.from_array(values)
    attached = _attach_readonly(owning)
    idx = rng.integers(0, 513, size=101)
    assert attached.get_many(idx).tolist() == [int(values[i]) for i in idx]


def test_bulk_kernels_never_write_the_payload():
    """The attached views really are read-only — the kernels must gather,
    never mutate in place."""
    bits = _bits(1000, 0.4, 42)
    attached = _attach_readonly(BitVector(bits))
    assert not attached._words.flags.writeable
    positions = np.arange(0, 1001, 13)
    expected = [attached.rank1(int(i)) for i in positions]
    assert attached.rank1_many(positions).tolist() == expected
    assert not attached._words.flags.writeable
