"""Plain bitvectors with O(1) rank and O(log n) select.

The bits are stored packed into 64-bit words. Rank reads a two-level
directory: one int64 count of the 1s before each block of 2**16 bits
(1,024 words), and one uint16 count per word of the 1s between its
block's start and the word (at most 65,472, so it fits). ``rank1(i)`` is
the block count plus the word count plus one masked popcount. The
directory costs 16 bits per word plus 64 per block: a quarter of the
payload, where one int64 per word cost as much as the payload itself.

``select1`` bisects the block counts and then the word counts inside the
block (both C-level ``bisect_left`` over memoryviews); ``select0`` binary
searches the zeros before each block and then before each of the block's
words. Both finish inside the word, giving ``O(log n)`` worst case —
entirely adequate for this library, where selects are performed O(|P|)
times per query.

Space accounting distinguishes the payload (``n`` bits) from the rank
directory overhead so experiment reports can show both.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .storage import DerivedState, StorageBundle, expected_array, register_structure

_U64 = np.uint64

# _LOW_BITS[o] masks the o low bits of a word (the in-word part of a rank).
_LOW_BITS = (_U64(1) << np.arange(64, dtype=_U64)) - _U64(1)

# In-byte select table: _SELECT8[v, t] is the position (0-based) of the
# t-th (1-based) set bit of byte value ``v``. Unset entries stay 0 and are
# never consulted (callers guarantee the byte holds enough set bits).
_SELECT8 = np.zeros((256, 9), dtype=np.int64)
for _v in range(256):
    _t = 0
    for _b in range(8):
        if (_v >> _b) & 1:
            _t += 1
            _SELECT8[_v, _t] = _b
del _v, _t, _b
_SELECT8_FLAT = _SELECT8.ravel().astype(_U64)

_LANES = _U64(0x0101010101010101)  # 1 in each of a word's eight byte lanes
_HIGHS = _U64(0x8080808080808080)  # the high bit of each byte lane

# Directory blocks: 1 << _BLOCK_SHIFT words (2**16 bits) per int64 count.
# The scalar kernels spell these out (10, 1024, 16) to skip a global read.
_BLOCK_SHIFT = 10
_BLOCK_WORDS = 1 << _BLOCK_SHIFT


def _split_directory(cumulative: np.ndarray):
    """``(blocks, counts)`` from a cumulative per-word count.

    ``cumulative[i]`` is the number of 1s before word ``i`` (one entry per
    word plus one); ``blocks[b] = cumulative[b << 10]`` and ``counts[i] =
    cumulative[i] - blocks[i >> 10]``. Both come out as fresh arrays, so
    nothing keeps ``cumulative`` alive.
    """
    blocks = cumulative[::_BLOCK_WORDS].astype(np.int64)
    counts = cumulative - np.repeat(blocks, _BLOCK_WORDS)[: cumulative.size]
    return blocks, counts.astype(np.uint16)


def _select_in_words_many(words: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """In-word positions of the k-th (1-based) set bits, one per word.

    Every word must contain at least ``ks[i]`` set bits. Broadword over
    the word's little-endian byte lanes: the byte view's popcounts times
    ``0x0101..01`` put in each lane the set bits up to and including that
    byte; the lanes still below ``k`` are the bytes before the target one,
    and the in-byte table finishes inside it. Every step is one
    elementwise pass over the batch (no per-row reductions).
    """
    w = np.ascontiguousarray(words, dtype="<u8")
    k = ks.astype(_U64)
    upto = np.bitwise_count(w.view(np.uint8)).view("<u8") * _LANES
    # A lane keeps its high bit through (k - 1 | 0x80) - upto iff upto < k.
    below = (((k - _U64(1)) * _LANES | _HIGHS) - upto) & _HIGHS
    skip = np.bitwise_count(below) << np.uint8(3)  # the target byte's bit offset
    before = ((upto << _U64(8)) >> skip) & _U64(0xFF)
    byte = (w >> skip) & _U64(0xFF)
    return (skip + _SELECT8_FLAT[byte * _U64(9) + k - before]).astype(np.int64)


def _where_valid(k: np.ndarray, valid: np.ndarray, kernel) -> np.ndarray:
    """``kernel`` over the valid ranks of ``k``, ``-1`` elsewhere; when
    every rank is valid the batch goes through without a scatter."""
    if valid.all():
        return kernel(k.ravel()).reshape(k.shape)
    out = np.full(k.shape, -1, dtype=np.int64)
    if valid.any():
        out[valid] = kernel(k[valid])
    return out


class BitVector(DerivedState):
    """An immutable bitvector supporting rank and select for both bits.

    Queries follow the paper's conventions:

    * ``rank_b(i)`` counts occurrences of bit ``b`` in the prefix of length
      ``i`` (positions ``0 .. i-1``); ``0 <= i <= n``.
    * ``select_b(k)`` returns the position of the k-th (1-based) occurrence
      of bit ``b``, or ``-1`` when there are fewer than ``k``.
    """

    _STORED = ("_words", "_n", "_ones", "_blocks", "_counts")
    __slots__ = _STORED + ("_wv", "_bv", "_cv")

    def __init__(self, bits: np.ndarray | Sequence[int] | Iterable[int]):
        arr = np.asarray(
            bits if isinstance(bits, np.ndarray) else np.fromiter(bits, dtype=np.uint8),
            dtype=np.uint8,
        )
        if arr.ndim != 1:
            raise InvalidParameterError("BitVector requires a 1-d bit array")
        if arr.size and int(arr.max()) > 1:
            raise InvalidParameterError("BitVector entries must be 0 or 1")
        self._n = int(arr.size)
        packed = np.packbits(arr, bitorder="little")
        pad = (-packed.size) % 8
        if pad:
            packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
        words = packed.view(_U64)
        self._words = words
        cumulative = np.zeros(words.size + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(words), out=cumulative[1:])
        self._blocks, self._counts = _split_directory(cumulative)
        self._ones = int(cumulative[-1])
        self._derive()

    def _derive(self) -> None:
        """Zero-copy memoryviews the scalar kernels read: indexing one
        yields a Python ``int`` without boxing a numpy scalar, and a view
        of a read-only segment is itself read-only."""
        self._wv = memoryview(self._words)
        self._bv = memoryview(self._blocks)
        self._cv = memoryview(self._counts)

    def __setstate__(self, state) -> None:
        slots = dict(state[1])
        legacy = slots.pop("_rank_dir", None)
        if legacy is not None:
            # Pickled with the one-int64-per-word directory: split it.
            slots["_blocks"], slots["_counts"] = _split_directory(legacy)
        super().__setstate__((None, slots))

    @classmethod
    def from_positions(cls, positions: Iterable[int], length: int) -> "BitVector":
        """Build a bitvector of ``length`` bits with 1s at ``positions``."""
        bits = np.zeros(length, dtype=np.uint8)
        pos = np.fromiter(positions, dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= length:
                raise InvalidParameterError("position out of range")
            bits[pos] = 1
        return cls(bits)

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def num_ones(self) -> int:
        """Total number of set bits."""
        return self._ones

    @property
    def num_zeros(self) -> int:
        """Total number of clear bits."""
        return self._n - self._ones

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range (n={self._n})")
        return (self._wv[i >> 6] >> (i & 63)) & 1

    def to_array(self) -> np.ndarray:
        """Unpack into a uint8 array of 0/1 values."""
        return np.unpackbits(self._words.view(np.uint8), bitorder="little")[: self._n]

    # -- rank ----------------------------------------------------------------

    def rank1(self, i: int) -> int:
        """Number of 1s in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        off = i & 63
        if off:
            w = i >> 6
            return (
                self._bv[i >> 16] + self._cv[w]
                + (self._wv[w] & ((1 << off) - 1)).bit_count()
            )
        return self._bv[i >> 16] + self._cv[i >> 6]

    def rank0(self, i: int) -> int:
        """Number of 0s in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """Dispatching rank: ``rank(b, i)`` counts bit ``b`` in ``[0, i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    # -- bulk kernels --------------------------------------------------------

    def rank1_many(self, positions) -> np.ndarray:
        """Vectorised :meth:`rank1` over an int array of positions.

        Two directory gathers (block and word counts) plus one masked
        in-word popcount for the whole batch; never allocates anything
        proportional to ``n`` and never writes to the word arrays, so it
        is safe on ``writeable=False`` shared-memory views.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(idx.shape, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) > self._n:
            raise IndexError(f"rank position out of range (n={self._n})")
        widx = idx >> 6
        out = self._blocks[widx >> _BLOCK_SHIFT] + self._counts[widx]
        if self._words.size:
            # i == n on a word boundary gathers past the end; "clip" reads
            # the last word instead, which its all-zero mask discards.
            words = self._words.take(widx, mode="clip")
            out += np.bitwise_count(words & _LOW_BITS[idx & 63])
        return out

    def rank0_many(self, positions) -> np.ndarray:
        """Vectorised :meth:`rank0`."""
        idx = np.asarray(positions, dtype=np.int64)
        return idx - self.rank1_many(idx)

    def rank_many(self, bit: int, positions) -> np.ndarray:
        """Dispatching bulk rank for bit ``b``."""
        return self.rank1_many(positions) if bit else self.rank0_many(positions)

    def select1_many(self, ks) -> np.ndarray:
        """Vectorised :meth:`select1`; out-of-range ranks yield ``-1``."""
        k = np.asarray(ks, dtype=np.int64)
        return _where_valid(k, (k >= 1) & (k <= self._ones), self._select1_valid)

    def _select1_valid(self, k: np.ndarray) -> np.ndarray:
        # The block holding the k-th one (last block count below k), then
        # the last word of that block whose count is below k, found by a
        # branchless search of fixed rounds inside each lane's block (a
        # probe never leaves it; past the last word "clip" reads the last
        # count, which already reaches k).
        blocks, counts = self._blocks, self._counts
        block = np.searchsorted(blocks, k, side="left") - 1
        k = k - blocks[block]
        widx = block << _BLOCK_SHIFT
        rounds = min(_BLOCK_SHIFT, (counts.size - 1).bit_length())
        for shift in range(rounds - 1, -1, -1):
            probe = widx + (1 << shift)
            widx = np.where(counts.take(probe, mode="clip") < k, probe, widx)
        pos = _select_in_words_many(self._words[widx], k - counts[widx])
        return (widx << 6) + pos

    def select0_many(self, ks) -> np.ndarray:
        """Vectorised :meth:`select0`; out-of-range ranks yield ``-1``."""
        k = np.asarray(ks, dtype=np.int64)
        return _where_valid(k, (k >= 1) & (k <= self._n - self._ones), self._select0_valid)

    def _select0_valid(self, k: np.ndarray) -> np.ndarray:
        # Branchless batched binary searches with fixed rounds, so every
        # lane advances together and no round compresses the batch: first
        # for the last block with fewer than k zeros before it
        # (2**16 * b - blocks[b] < k), then, with k shifted by that block's
        # count, for the last of its words with fewer than k zeros before
        # it (64*i - counts[i] < k). A probe never leaves its block; one
        # past the last block or word reads the last entry ("clip"), whose
        # zero count already reaches k.
        blocks, counts = self._blocks, self._counts
        block = np.zeros(k.shape, dtype=np.int64)
        for shift in range((blocks.size - 1).bit_length() - 1, -1, -1):
            probe = block + (1 << shift)
            below = (probe << 16) - blocks.take(probe, mode="clip") < k
            block = np.where(below, probe, block)
        k = k + blocks[block]
        lo = block << _BLOCK_SHIFT
        rounds = min(_BLOCK_SHIFT, (counts.size - 1).bit_length())
        for shift in range(rounds - 1, -1, -1):
            probe = lo + (1 << shift)
            lo = np.where((probe << 6) - counts.take(probe, mode="clip") < k, probe, lo)
        remaining = k - ((lo << 6) - counts[lo])
        return (lo << 6) + _select_in_words_many(~self._words[lo], remaining)

    def select_many(self, bit: int, ks) -> np.ndarray:
        """Dispatching bulk select for bit ``b``."""
        return self.select1_many(ks) if bit else self.select0_many(ks)

    # -- select --------------------------------------------------------------

    def select1(self, k: int) -> int:
        """Position of the k-th (1-based) set bit, or -1 if ``k > num_ones``."""
        if k < 1 or k > self._ones:
            return -1
        # The word holding the k-th one: first word count >= k, less one,
        # inside the block found the same way over the block counts.
        blocks, counts = self._bv, self._cv
        start = bisect_left(blocks, k) - 1
        k -= blocks[start]
        start <<= 10
        end = start + 1024
        if end > len(counts):  # the last block may hold fewer words
            end = len(counts)
        widx = bisect_left(counts, k, start, end) - 1
        return (widx << 6) + _select_in_word(self._wv[widx], k - counts[widx])

    def select0(self, k: int) -> int:
        """Position of the k-th (1-based) clear bit, or -1 if ``k > num_zeros``."""
        if k < 1 or k > self._n - self._ones:
            return -1
        # The k-th zero sits at k - 1 + (ones before it), which bounds its
        # word between (k - 1) / 64 and (k - 1 + ones) / 64.
        blocks, counts = self._bv, self._cv
        lo, hi = (k - 1) >> 6, min(len(counts) - 1, (k - 1 + self._ones) >> 6)
        # Its block: the last with fewer than k zeros before it, which
        # are 2**16 * b - blocks[b]; then the bounds shrink to its words.
        block = lo >> 10
        top = hi >> 10
        if block < top:
            while block < top:
                mid = (block + top + 1) >> 1
                if (mid << 16) - blocks[mid] < k:
                    block = mid
                else:
                    top = mid - 1
            lo, hi = max(lo, block << 10), min(hi, (block << 10) + 1023)
        # Its word: zeros before word i are 64*i - blocks[block] - counts[i],
        # so with k shifted by blocks[block] only counts[i] is read.
        k += blocks[block]
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if (mid << 6) - counts[mid] < k:
                lo = mid
            else:
                hi = mid - 1
        word = ~self._wv[lo] & 0xFFFFFFFFFFFFFFFF
        return (lo << 6) + _select_in_word(word, k - ((lo << 6) - counts[lo]))

    def select(self, bit: int, k: int) -> int:
        """Dispatching select for bit ``b``."""
        return self.select1(k) if bit else self.select0(k)

    # -- space accounting ------------------------------------------------------

    def size_in_bits(self) -> int:
        """Payload size: ``n`` bits."""
        return self._n

    def overhead_in_bits(self) -> int:
        """Rank-directory overhead: exactly what is stored beside the words.

        One 16-bit count per word plus one (``n / 4`` bits) and one 64-bit
        count per 2**16-bit block. The word counts keep this at a quarter
        of the payload rather than the paper's o(n); experiments report
        payload and overhead separately.
        """
        return 64 * int(self._blocks.size) + 16 * int(self._counts.size)

    def __repr__(self) -> str:
        return f"BitVector(n={self._n}, ones={self._ones})"

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars plus the packed words *and* both directory levels.

        The directory travels with the words so attaching never recomputes
        popcounts (and never allocates anything proportional to ``n``).
        """
        return StorageBundle(
            kind="BitVector",
            meta={"n": self._n, "ones": self._ones},
            arrays={
                "words": self._words,
                "blocks": self._blocks,
                "counts": self._counts,
            },
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "BitVector":
        """Rebuild from a bundle; the arrays are adopted as-is (no copies).

        A bundle written before the two-level directory (segment format 1)
        carries one int64 ``rank_dir`` entry per word instead; it is split
        once here, the only load that allocates O(words).
        """
        bv = cls.__new__(cls)
        words = bv._words = expected_array(bundle, "words", "uint64")
        bv._n = int(bundle.meta["n"])
        ones = bv._ones = int(bundle.meta["ones"])
        if "rank_dir" in bundle.arrays:
            bv._blocks, bv._counts = _split_directory(
                expected_array(bundle, "rank_dir", "int64")
            )
        else:
            bv._blocks = expected_array(bundle, "blocks", "int64")
            bv._counts = expected_array(bundle, "counts", "uint16")
        blocks, counts = bv._blocks, bv._counts
        if (
            counts.size != words.size + 1
            or blocks.size != ((counts.size - 1) >> _BLOCK_SHIFT) + 1
            or int(blocks[-1]) + int(counts[-1]) != ones
        ):
            raise InvalidParameterError("corrupt BitVector bundle header")
        bv._derive()
        return bv


register_structure("BitVector", BitVector.attach_storage)


#: ``_SELECT8`` as nested lists, for the scalar in-word select.
_SELECT8_ROWS = _SELECT8.tolist()


def _select_in_word(word: int, k: int) -> int:
    """Position (0-based) of the k-th (1-based) set bit inside ``word``.

    ``word`` must contain at least ``k`` set bits. Halves the window three
    times by popcount (unrolled: this runs once per scalar select), then
    finishes inside one byte with the table.
    """
    pos = 0
    ones = (word & 0xFFFFFFFF).bit_count()
    if ones < k:
        k -= ones
        pos = 32
    ones = ((word >> pos) & 0xFFFF).bit_count()
    if ones < k:
        k -= ones
        pos += 16
    ones = ((word >> pos) & 0xFF).bit_count()
    if ones < k:
        k -= ones
        pos += 8
    return pos + _SELECT8_ROWS[(word >> pos) & 0xFF][k]
