"""Tests for the wavelet matrix and Huffman wavelet tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import HuffmanWaveletTree, WaveletMatrix, canonical_code, code_lengths
from repro.errors import InvalidParameterError

symbol_lists = st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=250)


def naive_rank(seq, c, i):
    return sum(1 for x in seq[:i] if x == c)


def naive_select(seq, c, k):
    seen = 0
    for pos, x in enumerate(seq):
        if x == c:
            seen += 1
            if seen == k:
                return pos
    return -1


@pytest.fixture(params=["matrix", "huffman"])
def make_structure(request):
    def build(data, sigma=None):
        if request.param == "matrix":
            return WaveletMatrix(np.asarray(data), sigma)
        return HuffmanWaveletTree(np.asarray(data), sigma)

    return build


class TestWaveletCommon:
    def test_access_roundtrip(self, make_structure, rng):
        data = rng.integers(0, 17, size=300)
        wt = make_structure(data)
        np.testing.assert_array_equal(wt.to_array(), data)

    def test_rank_matches_naive(self, make_structure, rng):
        data = rng.integers(0, 9, size=200).tolist()
        wt = make_structure(data)
        for c in range(10):
            for i in range(0, 201, 13):
                assert wt.rank(c, i) == naive_rank(data, c, i), (c, i)

    def test_select_matches_naive(self, make_structure, rng):
        data = rng.integers(0, 6, size=150).tolist()
        wt = make_structure(data)
        for c in range(7):
            total = naive_rank(data, c, len(data))
            for k in range(1, total + 1):
                assert wt.select(c, k) == naive_select(data, c, k)
            assert wt.select(c, total + 1) == -1

    def test_select_rank_inverse(self, make_structure, rng):
        data = rng.integers(0, 4, size=99).tolist()
        wt = make_structure(data)
        for c in set(data):
            for k in range(1, naive_rank(data, c, len(data)) + 1):
                pos = wt.select(c, k)
                assert wt.rank(c, pos) == k - 1
                assert wt.access(pos) == c

    def test_absent_symbol(self, make_structure):
        wt = make_structure([0, 1, 0, 1], sigma=8)
        assert wt.rank(5, 4) == 0
        assert wt.select(5, 1) == -1

    def test_single_symbol(self, make_structure):
        wt = make_structure([3] * 10, sigma=4)
        assert wt.rank(3, 10) == 10
        assert wt.select(3, 10) == 9
        assert wt.access(0) == 3

    def test_rank_out_of_range(self, make_structure):
        wt = make_structure([0, 1])
        with pytest.raises(IndexError):
            wt.rank(0, 3)

    def test_access_out_of_range(self, make_structure):
        wt = make_structure([0, 1])
        with pytest.raises(IndexError):
            wt.access(2)

    def test_space_accounting_positive(self, make_structure):
        wt = make_structure(list(range(8)) * 10)
        assert wt.size_in_bits() > 0
        assert wt.overhead_in_bits() >= 0


class TestWaveletMatrixSpecific:
    def test_empty(self):
        wm = WaveletMatrix(np.array([], dtype=np.int64), sigma=4)
        assert len(wm) == 0
        assert wm.rank(0, 0) == 0

    def test_sigma_validation(self):
        with pytest.raises(InvalidParameterError):
            WaveletMatrix(np.array([4]), sigma=4)

    def test_negative_symbol(self):
        with pytest.raises(InvalidParameterError):
            WaveletMatrix(np.array([-1]))


class TestHuffmanSpecific:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            HuffmanWaveletTree(np.array([], dtype=np.int64))

    def test_space_near_entropy(self, rng):
        # Heavily skewed distribution: Huffman payload far below log(sigma)*n.
        data = np.concatenate([np.zeros(900, dtype=np.int64), rng.integers(1, 16, 100)])
        rng.shuffle(data)
        hwt = HuffmanWaveletTree(data, sigma=16)
        wm = WaveletMatrix(data, sigma=16)
        assert hwt.size_in_bits() < 0.6 * wm.size_in_bits()


class TestHuffmanCodes:
    def test_lengths_satisfy_kraft(self):
        freqs = [10, 1, 1, 5, 0, 3]
        lengths = code_lengths(freqs)
        assert 4 not in lengths  # zero-frequency symbol has no code
        assert sum(2 ** -l for l in lengths.values()) == pytest.approx(1.0)

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths([0, 7, 0]) == {1: 1}

    def test_no_symbols_rejected(self):
        with pytest.raises(InvalidParameterError):
            code_lengths([0, 0])

    def test_canonical_codes_prefix_free(self):
        freqs = [50, 20, 20, 5, 3, 1, 1]
        code = canonical_code(freqs)
        items = list(code.codes.items())
        for i, (sym_a, code_a) in enumerate(items):
            len_a = code.lengths[sym_a]
            for sym_b, code_b in items[i + 1 :]:
                len_b = code.lengths[sym_b]
                shorter, longer, ls, ll = (
                    (code_a, code_b, len_a, len_b)
                    if len_a <= len_b
                    else (code_b, code_a, len_b, len_a)
                )
                assert (longer >> (ll - ls)) != shorter, (sym_a, sym_b)

    def test_more_frequent_not_longer(self):
        freqs = [100, 1, 1, 1]
        lengths = code_lengths(freqs)
        assert lengths[0] <= min(lengths[1], lengths[2], lengths[3])

    def test_encoded_length(self):
        freqs = [3, 1]
        code = canonical_code(freqs)
        assert code.encoded_length(freqs) == 3 * code.lengths[0] + 1 * code.lengths[1]


@settings(max_examples=50, deadline=None)
@given(symbol_lists)
def test_property_wavelet_matrix_rank_access(data):
    wm = WaveletMatrix(np.asarray(data))
    assert wm.to_array().tolist() == data
    for c in set(data):
        assert wm.rank(c, len(data)) == data.count(c)


@settings(max_examples=50, deadline=None)
@given(symbol_lists)
def test_property_huffman_tree_rank_access(data):
    hwt = HuffmanWaveletTree(np.asarray(data))
    assert hwt.to_array().tolist() == data
    for c in set(data):
        assert hwt.rank(c, len(data)) == data.count(c)
        assert hwt.select(c, data.count(c)) == max(
            i for i, x in enumerate(data) if x == c
        )


def _attach_readonly(matrix):
    """Round-trip through a parsed segment: a zero-copy read-only view."""
    from repro.parallel import Segment, SegmentWriter

    writer = SegmentWriter("wavelet-test")
    writer.add("wm", matrix)
    return Segment.parse(writer.to_bytes()).attach("wm")


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize(
    "sigma,n,seed", [(2, 1, 1), (5, 300, 2), (21, 1000, 3), (64, 700, 4)]
)
def test_fused_pair_forms_match_naive(sigma, n, seed, compressed):
    """``rank_pair`` (one shared descent) and the scalar
    ``select``/``rank`` agree with a naive scan, on built and on
    read-only attached storage, including k = 0, k past the count and
    symbols outside the alphabet."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, sigma, size=n)
    seq = data.tolist()
    owning = WaveletMatrix(data, sigma=sigma, compressed=compressed)
    attached = _attach_readonly(owning)
    assert not any(
        arr.flags.writeable for _, arr in attached.export_storage().walk_arrays()
    )
    # Past the alphabet: sigma itself, a code beyond every level's bits, -1.
    symbols = list(range(sigma)) + [sigma, 1 << (sigma - 1).bit_length() + 1, -1]
    for wm in (owning, attached):
        for c in symbols:
            total = seq.count(c)
            ks = [0, 1, total, total + 1] + rng.integers(1, total + 2, size=6).tolist()
            for j, k in zip(ks, reversed(ks)):
                want = (naive_select(seq, c, j) if j >= 1 else -1,
                        naive_select(seq, c, k) if k >= 1 else -1)
                assert (wm.select(c, j), wm.select(c, k)) == want, (c, j, k)
            positions = rng.integers(0, n + 1, size=8).tolist() + [0, n]
            for i, j in zip(positions, reversed(positions)):
                want = (naive_rank(seq, c, i), naive_rank(seq, c, j))
                assert wm.rank_pair(c, i, j) == want, (c, i, j)
                assert (wm.rank(c, i), wm.rank(c, j)) == want, (c, i, j)


def test_fused_pair_forms_on_empty_matrix():
    wm = WaveletMatrix(np.array([], dtype=np.int64), sigma=4)
    for c in (0, 3, 4, -1):
        assert wm.select(c, 1) == -1
        assert wm.rank_pair(c, 0, 0) == (0, 0)
    with pytest.raises(IndexError):
        wm.rank_pair(0, 0, 1)


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize(
    "n,sigma,seed", [(0, 1, 0), (1, 1, 0), (50, 1, 1), (1, 9, 2), (777, 2, 3), (2000, 45, 4)]
)
@pytest.mark.parametrize("kind", ["matrix", "huffman"])
def test_to_array_matches_per_position_access(kind, n, sigma, seed, compressed):
    """The vectorised decode equals one scalar ``access`` per position:
    empty sequences, a one-symbol alphabet, and random ones."""
    data = np.random.default_rng(seed).integers(0, sigma, size=n)
    if kind == "huffman":
        if n == 0:
            return  # a Huffman tree over nothing is refused at build
        structure = HuffmanWaveletTree(data, sigma, compressed=compressed)
    else:
        structure = WaveletMatrix(data, sigma, compressed=compressed)
    decoded = structure.to_array()
    assert decoded.dtype == np.int64 and decoded.shape == (n,)
    assert decoded.tolist() == [structure.access(i) for i in range(n)]
    assert decoded.tolist() == data.tolist()
