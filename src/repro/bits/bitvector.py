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

from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .storage import StorageBundle, expected_array, register_structure

_WORD = 64
_U64 = np.uint64

# 16-bit popcount lookup table used for vectorised directory construction.
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint16)

# In-byte select table: _SELECT8[v, t] is the position (0-based) of the
# (t+1)-th set bit of byte value ``v``. Unset entries stay 0 and are never
# consulted (callers guarantee the byte holds enough set bits).
_SELECT8 = np.zeros((256, 8), dtype=np.int64)
for _v in range(256):
    _t = 0
    for _b in range(8):
        if (_v >> _b) & 1:
            _SELECT8[_v, _t] = _b
            _t += 1
del _v, _t, _b


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts of a uint64 array, vectorised via a 16-bit LUT."""
    as16 = words.view(np.uint16)
    return _POP16[as16].reshape(-1, 4).sum(axis=1, dtype=np.int64)


def _popcount_u64(words: np.ndarray) -> np.ndarray:
    """Elementwise popcount of an arbitrary uint64 array (no view tricks,
    so it works on non-contiguous gather results)."""
    w = words.astype(_U64, copy=False)
    mask = _U64(0xFFFF)
    counts = (
        _POP16[(w & mask).astype(np.int64)]
        + _POP16[((w >> _U64(16)) & mask).astype(np.int64)]
        + _POP16[((w >> _U64(32)) & mask).astype(np.int64)]
        + _POP16[(w >> _U64(48)).astype(np.int64)]
    )
    return counts.astype(np.int64)


def _select_in_words_many(words: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """In-word positions of the k-th (1-based) set bits, one per word.

    Every word must contain at least ``ks[i]`` set bits. Vectorised over a
    byte decomposition: cumulative byte popcounts locate the byte, a
    256x8 table finishes inside it.
    """
    w = words.astype(_U64, copy=False)
    shifts = np.arange(8, dtype=_U64) * _U64(8)
    bytes_ = ((w[:, None] >> shifts[None, :]) & _U64(0xFF)).astype(np.int64)
    cum = np.cumsum(_POP16[bytes_].astype(np.int64), axis=1)
    byte_idx = (cum < ks[:, None]).sum(axis=1)
    prev = np.where(
        byte_idx > 0,
        np.take_along_axis(cum, np.maximum(byte_idx - 1, 0)[:, None], axis=1)[:, 0],
        0,
    )
    byte_val = np.take_along_axis(bytes_, byte_idx[:, None], axis=1)[:, 0]
    return byte_idx * 8 + _SELECT8[byte_val, ks - prev - 1]


class BitVector:
    """An immutable bitvector supporting rank and select for both bits.

    Queries follow the paper's conventions:

    * ``rank_b(i)`` counts occurrences of bit ``b`` in the prefix of length
      ``i`` (positions ``0 .. i-1``); ``0 <= i <= n``.
    * ``select_b(k)`` returns the position of the k-th (1-based) occurrence
      of bit ``b``, or ``-1`` when there are fewer than ``k``.
    """

    __slots__ = ("_words", "_n", "_ones", "_rank_dir")

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
        counts = _popcount_words(words) if words.size else np.zeros(0, dtype=np.int64)
        # _rank_dir[i] = number of 1s strictly before word i.
        self._rank_dir = np.concatenate([[0], np.cumsum(counts)])
        self._ones = int(self._rank_dir[-1])

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
        return (self._words.item(i >> 6) >> (i & 63)) & 1

    def to_array(self) -> np.ndarray:
        """Unpack into a uint8 array of 0/1 values."""
        return np.unpackbits(self._words.view(np.uint8), bitorder="little")[: self._n]

    # -- rank ----------------------------------------------------------------

    def rank1(self, i: int) -> int:
        """Number of 1s in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        widx = i >> 6
        off = i & 63
        r = self._rank_dir.item(widx)
        if off:
            r += (self._words.item(widx) & ((1 << off) - 1)).bit_count()
        return r

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
        off = idx & 63
        out = self._rank_dir[widx].astype(np.int64, copy=True)
        partial = off > 0  # widx < words.size exactly where a partial word exists
        if partial.any():
            words = self._words[widx[partial]]
            mask = (_U64(1) << off[partial].astype(_U64)) - _U64(1)
            out[partial] += _popcount_u64(words & mask)
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
        out = np.full(k.shape, -1, dtype=np.int64)
        valid = (k >= 1) & (k <= self._ones)
        if not valid.any():
            return out
        kv = k[valid]
        widx = np.searchsorted(self._rank_dir, kv, side="left") - 1
        remaining = kv - self._rank_dir[widx]
        pos = _select_in_words_many(self._words[widx], remaining)
        out[valid] = (widx << 6) + pos
        return out

    def select0_many(self, ks) -> np.ndarray:
        """Vectorised :meth:`select0`; out-of-range ranks yield ``-1``.

        Batched binary search over the rank directory (zeros before word
        ``i`` = ``64*i - rank_dir[i]``), mirroring the scalar code path.
        """
        k = np.asarray(ks, dtype=np.int64)
        out = np.full(k.shape, -1, dtype=np.int64)
        valid = (k >= 1) & (k <= self._n - self._ones)
        if not valid.any():
            return out
        kv = k[valid]
        lo = np.zeros(kv.shape, dtype=np.int64)
        hi = np.full(kv.shape, len(self._rank_dir) - 1, dtype=np.int64)
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo[active] + hi[active] + 1) >> 1
            below = ((mid << 6) - self._rank_dir[mid]) < kv[active]
            nlo = lo[active]
            nhi = hi[active]
            nlo[below] = mid[below]
            nhi[~below] = mid[~below] - 1
            lo[active] = nlo
            hi[active] = nhi
        widx = lo
        remaining = kv - ((widx << 6) - self._rank_dir[widx])
        pos = _select_in_words_many(~self._words[widx], remaining)
        out[valid] = (widx << 6) + pos
        return out

    def select_many(self, bit: int, ks) -> np.ndarray:
        """Dispatching bulk select for bit ``b``."""
        return self.select1_many(ks) if bit else self.select0_many(ks)

    # -- select --------------------------------------------------------------

    def select1(self, k: int) -> int:
        """Position of the k-th (1-based) set bit, or -1 if ``k > num_ones``."""
        if k < 1 or k > self._ones:
            return -1
        # Find the word holding the k-th one: first index with rank_dir >= k.
        widx = int(self._rank_dir.searchsorted(k)) - 1
        remaining = k - self._rank_dir.item(widx)
        return (widx << 6) + _select_in_word(self._words.item(widx), remaining)

    def select0(self, k: int) -> int:
        """Position of the k-th (1-based) clear bit, or -1 if ``k > num_zeros``."""
        if k < 1 or k > self._n - self._ones:
            return -1
        # zeros before word i = 64*i - rank_dir[i]; binary search on it.
        rank_dir = self._rank_dir
        lo, hi = 0, len(rank_dir) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            zeros_before = (mid << 6) - rank_dir.item(mid)
            if zeros_before < k:
                lo = mid
            else:
                hi = mid - 1
        widx = lo
        remaining = k - ((widx << 6) - rank_dir.item(widx))
        word = ~self._words.item(widx) & ((1 << _WORD) - 1)
        return (widx << 6) + _select_in_word(word, remaining)

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
        return bv


register_structure("BitVector", BitVector.attach_storage)


#: ``_SELECT8`` as nested lists, for the scalar in-word select.
_SELECT8_ROWS = _SELECT8.tolist()


def _select_in_word(word: int, k: int) -> int:
    """Position (0-based) of the k-th (1-based) set bit inside ``word``.

    ``word`` must contain at least ``k`` set bits. Halves the window three
    times by popcount, then finishes inside one byte with the table.
    """
    pos = 0
    for width, mask in ((32, 0xFFFFFFFF), (16, 0xFFFF), (8, 0xFF)):
        ones = ((word >> pos) & mask).bit_count()
        if ones < k:
            k -= ones
            pos += width
    return pos + _SELECT8_ROWS[(word >> pos) & 0xFF][k - 1]
