"""The wavelet matrix's bucket table and the boxing-free scalar kernels.

Pinned here:

* the bucket table and ``WaveletMatrix.count`` agree with an
  ``np.bincount`` reference for every code in ``[0, 2**nbits)`` — absent
  symbols, codes at or above ``sigma``, plain and RRR levels, the empty
  matrix — on built, read-only attached and unpickled matrices;
* the scalar ``BitVector`` and ``IntVector`` kernels, which read their
  arrays through memoryviews, equal the bulk kernels on read-only
  attached storage;
* the views die with the structure, so a retired generation's shared
  memory still closes;
* ``Alphabet.code`` agrees with ``encode_pattern``;
* a CPST step costs one bitvector rank per level of ``S′`` and one
  select on ``ends`` for each end of its node range; an APX step's block
  boundaries are one select on ``ends`` each.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro import ApproxIndex, CompactPrunedSuffixTree
from repro.bits import BitVector, IntVector, WaveletMatrix
from repro.datasets import generate
from repro.parallel import Segment, SegmentWriter
from repro.parallel.pool import SegmentPool, attach_shared_segment
from repro.textutil import Alphabet


def _attach_readonly(obj, key="s"):
    writer = SegmentWriter("bucket-test")
    writer.add(key, obj)
    return Segment.parse(writer.to_bytes()).attach(key)


def _variants(owning):
    return {
        "built": owning,
        "attached": _attach_readonly(owning),
        "unpickled": pickle.loads(pickle.dumps(owning)),
    }


def _bit_reversed(code: int, nbits: int) -> int:
    return int(format(code, f"0{nbits}b")[::-1], 2)


# (n, sigma, symbols drawn from) — absent symbols, a sigma that is not a
# power of two (codes >= sigma exist), a single symbol, and empty data.
WAVELET_CASES = [
    (0, 5, 5),
    (1, 1, 1),
    (64, 2, 2),
    (500, 7, 4),
    (700, 37, 37),
    (1000, 53, 20),
]


@pytest.mark.parametrize("n,sigma,draw", WAVELET_CASES)
@pytest.mark.parametrize("compressed", [False, True])
def test_bucket_table_matches_bincount(n, sigma, draw, compressed):
    rng = np.random.default_rng(n + sigma)
    data = rng.integers(0, draw, size=n)
    owning = WaveletMatrix(data, sigma=sigma, compressed=compressed)
    nbits = owning._nbits
    codes = 1 << nbits
    counts = np.bincount(data, minlength=codes)
    # Reference bucket starts: symbols whose bit-reversed code is smaller.
    rev = [_bit_reversed(c, nbits) for c in range(codes)]
    starts = [
        int(sum(counts[d] for d in range(codes) if rev[d] < rev[c]))
        for c in range(codes)
    ]
    for label, wm in _variants(owning).items():
        table = wm._buckets
        assert len(table) == codes + 1, label
        assert table[0] == 0 and table[-1] == n, label
        assert all(a <= b for a, b in zip(table, table[1:])), label
        for c in range(codes):
            slot = wm._slot[c]
            assert slot == rev[c], (label, c)
            assert table[slot] == starts[c], (label, c)
            assert wm.count(c) == counts[c], (label, c)
            assert wm.rank(c, n) == counts[c], (label, c)
            assert wm.select(c, int(counts[c]) + 1) == -1, (label, c)
        for c in (-1, codes, codes + 5):
            assert wm.count(c) == 0 and wm.rank(c, n) == 0, (label, c)
            assert wm.select(c, 1) == -1, (label, c)


@pytest.mark.parametrize("compressed", [False, True])
def test_wavelet_overhead_counts_the_bucket_table(compressed):
    data = np.random.default_rng(3).integers(0, 53, size=6000)
    wm = WaveletMatrix(data, sigma=54, compressed=compressed)
    levels = sum(bv.overhead_in_bits() for bv in wm._levels)
    assert wm.overhead_in_bits() == levels + (2 ** 6 + 1) * 13
    assert wm.size_in_bits() == sum(bv.size_in_bits() for bv in wm._levels)


def test_pickle_state_keeps_the_slotted_shape():
    wm = WaveletMatrix(np.arange(100) % 9, sigma=9)
    for obj, derived in (
        (wm, {"_buckets", "_slot", "_walk"}),
        (wm._levels[0], {"_wv", "_rv"}),
        (IntVector.from_array(np.arange(10)), {"_wv"}),
    ):
        empty, slots = obj.__getstate__()
        assert empty is None
        assert set(slots) == set(type(obj)._STORED)
        assert not derived & set(slots)


BIT_CASES = [(0, 0.5), (1, 1.0), (63, 0.5), (64, 0.1), (65, 0.9),
             (128, 0.0), (1000, 0.05), (4097, 0.7), (65_537, 0.5)]


@pytest.mark.parametrize("n,p", BIT_CASES)
def test_scalar_bitvector_kernels_equal_bulk_on_readonly_storage(n, p):
    bits = (np.random.default_rng(n).random(n) < p).astype(np.uint8)
    bv = _attach_readonly(BitVector(bits))
    assert not bv._words.flags.writeable and bv._wv.readonly
    positions = np.arange(n + 1)
    assert [bv.rank1(i) for i in range(n + 1)] == bv.rank1_many(positions).tolist()
    assert [bv.rank0(i) for i in range(n + 1)] == bv.rank0_many(positions).tolist()
    ks = np.arange(-1, n + 3)
    assert [bv.select1(int(k)) for k in ks] == bv.select1_many(ks).tolist()
    assert [bv.select0(int(k)) for k in ks] == bv.select0_many(ks).tolist()
    assert [bv[i] for i in range(n)] == bv.to_array().tolist()


@pytest.mark.parametrize("width", [1, 5, 13, 31, 64])
def test_scalar_intvector_getitem_equals_bulk_on_readonly_storage(width):
    rng = np.random.default_rng(width)
    values = rng.integers(0, 2 ** min(width, 62), size=333)
    iv = _attach_readonly(IntVector.from_array(values, width))
    assert not iv._words.flags.writeable and iv._wv.readonly
    assert [iv[i] for i in range(len(iv))] == iv.get_many(np.arange(len(iv))).tolist()
    assert iv.to_array().tolist() == values.tolist()


@pytest.mark.parametrize("build", [lambda t: CompactPrunedSuffixTree(t, 8),
                                   lambda t: ApproxIndex(t, 8)])
def test_attached_views_let_shared_memory_close(build):
    text = generate("english", 3000)
    writer = SegmentWriter("views")
    writer.add("index", build(text))
    pool = SegmentPool("repro-views-test")
    try:
        published = pool.publish("index", writer.to_bytes())
        shm, segment = attach_shared_segment(published.shm_name)
        index = segment.attach("index")
        assert [index.count(p) for p in ("the", "and", "e")] == [
            build(text).count(p) for p in ("the", "and", "e")
        ]
        del index, segment
        gc.collect()
        shm.close()  # BufferError here would pin the retired block
    finally:
        pool.close()


def test_alphabet_code_matches_encode_pattern():
    alphabet = Alphabet("the quick brown fox")
    for ch in "the quick brown fox":
        assert alphabet.code(ch) == int(alphabet.encode_pattern(ch)[0])
    for unmapped in ("z", "$", "", "th", "fox"):
        assert alphabet.code(unmapped) is None


@pytest.fixture
def kernel_calls(monkeypatch):
    """Scalar bitvector ranks and selects made since the last reset."""
    calls = {"rank": 0, "select": 0}

    def counting(name, kind):
        original = getattr(BitVector, name)

        def wrapper(self, *args):
            calls[kind] += 1
            return original(self, *args)

        monkeypatch.setattr(BitVector, name, wrapper)

    for name, kind in (("rank1", "rank"), ("rank0", "rank"),
                       ("select1", "select"), ("select0", "select")):
        counting(name, kind)
    return calls


def test_cpst_step_costs_one_op_per_level_per_end(kernel_calls):
    text = generate("english", 5000)
    index = CompactPrunedSuffixTree(text, 8)
    assert len(index._s._levels) == 6
    state = index.start("e")
    assert state is not None
    kernel_calls.update(rank=0, select=0)
    assert index.step(state, "h") is not None
    assert kernel_calls == {"rank": 12, "select": 2}


def test_apx_step_selects_each_block_boundary_once(kernel_calls):
    # Successor and predecessor each rank c up to a block boundary (one
    # select1 on ends, one rank per level of B′) and place one
    # discriminant (one select per level of B′, one select0 on ends).
    text = generate("dblp", 5000)
    index = ApproxIndex(text, 4)
    assert len(index._b._levels) == 7
    state = index.start("e")
    assert state is not None
    kernel_calls.update(rank=0, select=0)
    assert index.step(state, "h") is not None
    assert kernel_calls == {"rank": 14, "select": 18}
