"""Plain bitvectors with O(1) rank and O(log n) select.

The bits are stored packed into 64-bit words; a word-granular cumulative
popcount directory provides constant-time :meth:`BitVector.rank1`. Select is
answered by binary search on the directory followed by an in-word scan,
giving ``O(log n)`` worst case — entirely adequate for this library, where
selects are performed O(|P|) times per query.

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

    _STORED = ("_words", "_n", "_ones", "_rank_dir")
    __slots__ = _STORED + ("_wv", "_rv")

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
        # _rank_dir[i] = number of 1s strictly before word i.
        self._rank_dir = np.concatenate(
            [[0], np.cumsum(np.bitwise_count(words), dtype=np.int64)]
        )
        self._ones = int(self._rank_dir[-1])
        self._derive()

    def _derive(self) -> None:
        """Zero-copy memoryviews the scalar kernels read: indexing one
        yields a Python ``int`` without boxing a numpy scalar, and a view
        of a read-only segment is itself read-only."""
        self._wv = memoryview(self._words)
        self._rv = memoryview(self._rank_dir)

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
            return self._rv[i >> 6] + (self._wv[i >> 6] & ((1 << off) - 1)).bit_count()
        return self._rv[i >> 6]

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

        One directory gather plus one masked in-word popcount for the whole
        batch; never allocates anything proportional to ``n`` and never
        writes to the word arrays, so it is safe on ``writeable=False``
        shared-memory views.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(idx.shape, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) > self._n:
            raise IndexError(f"rank position out of range (n={self._n})")
        widx = idx >> 6
        out = self._rank_dir[widx]
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
        widx = np.searchsorted(self._rank_dir, k, side="left") - 1
        pos = _select_in_words_many(self._words[widx], k - self._rank_dir[widx])
        return (widx << 6) + pos

    def select0_many(self, ks) -> np.ndarray:
        """Vectorised :meth:`select0`; out-of-range ranks yield ``-1``."""
        k = np.asarray(ks, dtype=np.int64)
        return _where_valid(k, (k >= 1) & (k <= self._n - self._ones), self._select0_valid)

    def _select0_valid(self, k: np.ndarray) -> np.ndarray:
        # Branchless batched binary search for the last word with fewer
        # than k zeros before it (64*i - rank_dir[i] < k): a fixed
        # ceil(log2(words + 1)) rounds, so every lane advances together and
        # no round compresses the batch. A probe past the last word reads
        # the last entry ("clip"), whose zero count already reaches k.
        rank_dir = self._rank_dir
        lo = np.zeros(k.shape, dtype=np.int64)
        for shift in range((rank_dir.size - 1).bit_length() - 1, -1, -1):
            probe = lo + (1 << shift)
            below = (probe << 6) - rank_dir.take(probe, mode="clip") < k
            lo = np.where(below, probe, lo)
        remaining = k - ((lo << 6) - rank_dir[lo])
        return (lo << 6) + _select_in_words_many(~self._words[lo], remaining)

    def select_many(self, bit: int, ks) -> np.ndarray:
        """Dispatching bulk select for bit ``b``."""
        return self.select1_many(ks) if bit else self.select0_many(ks)

    # -- select --------------------------------------------------------------

    def select1(self, k: int) -> int:
        """Position of the k-th (1-based) set bit, or -1 if ``k > num_ones``."""
        if k < 1 or k > self._ones:
            return -1
        # The word holding the k-th one: first directory entry >= k, less one.
        widx = bisect_left(self._rv, k) - 1
        return (widx << 6) + _select_in_word(self._wv[widx], k - self._rv[widx])

    def select0(self, k: int) -> int:
        """Position of the k-th (1-based) clear bit, or -1 if ``k > num_zeros``."""
        if k < 1 or k > self._n - self._ones:
            return -1
        # zeros before word i = 64*i - rank_dir[i]; binary search on it.
        # The k-th zero sits at k - 1 + (ones before it), which bounds its
        # word between (k - 1) / 64 and (k - 1 + ones) / 64.
        rank_dir = self._rv
        lo, hi = (k - 1) >> 6, min(len(rank_dir) - 1, (k - 1 + self._ones) >> 6)
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if (mid << 6) - rank_dir[mid] < k:
                lo = mid
            else:
                hi = mid - 1
        word = ~self._wv[lo] & 0xFFFFFFFFFFFFFFFF
        return (lo << 6) + _select_in_word(word, k - ((lo << 6) - rank_dir[lo]))

    def select(self, bit: int, k: int) -> int:
        """Dispatching select for bit ``b``."""
        return self.select1(k) if bit else self.select0(k)

    # -- space accounting ------------------------------------------------------

    def size_in_bits(self) -> int:
        """Payload size: ``n`` bits."""
        return self._n

    def overhead_in_bits(self) -> int:
        """Rank-directory overhead (one 64-bit counter per word here).

        A production-grade C implementation would use two-level counters for
        o(n) overhead; we report our actual directory so space totals remain
        honest, and experiments report payload and overhead separately.
        """
        return int(self._rank_dir.size) * 64

    def __repr__(self) -> str:
        return f"BitVector(n={self._n}, ones={self._ones})"

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars plus the packed words *and* the rank directory.

        The directory travels with the words so attaching never recomputes
        popcounts (and never allocates anything proportional to ``n``).
        """
        return StorageBundle(
            kind="BitVector",
            meta={"n": self._n, "ones": self._ones},
            arrays={"words": self._words, "rank_dir": self._rank_dir},
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "BitVector":
        """Rebuild from a bundle; the arrays are adopted as-is (no copies)."""
        bv = cls.__new__(cls)
        bv._words = expected_array(bundle, "words", "uint64")
        bv._rank_dir = expected_array(bundle, "rank_dir", "int64")
        bv._n = int(bundle.meta["n"])
        bv._ones = int(bundle.meta["ones"])
        if bv._rank_dir.size != bv._words.size + 1 or int(bv._rank_dir[-1]) != bv._ones:
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
