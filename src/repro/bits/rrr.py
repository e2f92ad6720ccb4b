"""RRR-style H0-compressed bitvectors (Raman, Raman & Rao, 2002).

This is the structure class behind the paper's Theorem 2 space rows
(``nH0 + o(n)``-bit rank/select): the bit string is split into blocks of
``b = 15`` bits; each block is stored as its *class* (popcount, 4 bits)
plus an *offset* — the block's index within the enumeration of all
``binomial(15, k)`` blocks of its class — which costs
``ceil(log2 binomial(15, k))`` bits. Dense and sparse regions therefore
compress towards the empirical entropy.

Directories: per superblock (32 blocks) the cumulative rank and the bit
position of the superblock's first offset, so ``rank`` decodes at most 31
class nibbles plus one offset, and ``select`` binary-searches the rank
directory. Not O(1) like the theoretical version — but genuinely
entropy-compressed, which is what the space experiments need.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .intvector import IntVector, bits_needed
from .storage import StorageBundle, attach_structure, expected_array, register_structure

BLOCK = 15
SUPERBLOCK = 32  # blocks per superblock

# Enumerative coding tables for 15-bit blocks.
_OFFSET_WIDTH = [max(0, (comb(BLOCK, k) - 1).bit_length()) for k in range(BLOCK + 1)]
_OFFSET_WIDTH_ARR = np.asarray(_OFFSET_WIDTH, dtype=np.int64)
# _NCK[n][k] = binomial(n, k) for n <= 15.
_NCK = [[comb(n, k) for k in range(BLOCK + 1)] for n in range(BLOCK + 1)]

# Lazily-built inverse table for bulk rank: _DECODE15[(k << 13) | offset]
# is the 15-bit block with popcount ``k`` and enumerative offset
# ``offset`` (max offset binomial(15,7)=6435 < 2**13). 512 KiB of int32,
# built once per process on the first bulk call.
_DECODE15: np.ndarray | None = None


def _decode_table() -> np.ndarray:
    global _DECODE15
    if _DECODE15 is None:
        table = np.zeros(1 << 17, dtype=np.int32)
        for value in range(1 << BLOCK):
            k, offset = _encode_block(value)
            table[(k << 13) | offset] = value
        _DECODE15 = table
    return _DECODE15


def _encode_block(bits: int) -> tuple[int, int]:
    """(class, offset) of a 15-bit block via enumerative coding.

    The offset counts, among all 15-bit words with the same popcount, how
    many are lexicographically smaller when read LSB-first: scanning
    positions 0..14, a set bit at position ``i`` with ``r`` ones remaining
    adds ``binomial(14 - i, r)`` (the words with a clear bit there).
    """
    k = bits.bit_count()
    offset = 0
    remaining = k
    for i in range(BLOCK):
        if remaining == 0:
            break
        if (bits >> i) & 1:
            offset += _NCK[BLOCK - 1 - i][remaining]
            remaining -= 1
    return k, offset


def _decode_block(k: int, offset: int) -> int:
    """Inverse of :func:`_encode_block`."""
    bits = 0
    remaining = k
    for i in range(BLOCK):
        if remaining == 0:
            break
        skip = _NCK[BLOCK - 1 - i][remaining]
        if offset >= skip:
            bits |= 1 << i
            offset -= skip
            remaining -= 1
    return bits


class RRRBitVector:
    """Immutable H0-compressed bitvector with rank/select.

    Interface matches :class:`~repro.bits.bitvector.BitVector`.
    """

    __slots__ = (
        "_n", "_ones", "_classes", "_offsets", "_offset_words",
        "_sb_rank", "_sb_offset_pos",
    )

    def __init__(self, bits: np.ndarray | Sequence[int] | Iterable[int]):
        arr = np.asarray(
            bits if isinstance(bits, np.ndarray) else np.fromiter(bits, dtype=np.uint8),
            dtype=np.uint8,
        )
        if arr.ndim != 1:
            raise InvalidParameterError("RRRBitVector requires a 1-d bit array")
        if arr.size and int(arr.max()) > 1:
            raise InvalidParameterError("RRRBitVector entries must be 0 or 1")
        self._n = int(arr.size)
        num_blocks = (self._n + BLOCK - 1) // BLOCK
        # Pack each block into an int (LSB-first), vectorised via padding.
        padded = np.zeros(num_blocks * BLOCK, dtype=np.int64)
        padded[: self._n] = arr
        weights = (1 << np.arange(BLOCK, dtype=np.int64))
        block_values = padded.reshape(num_blocks, BLOCK) @ weights
        classes = np.zeros(num_blocks, dtype=np.int64)
        offset_stream: list[tuple[int, int]] = []
        for b in range(num_blocks):
            k, offset = _encode_block(int(block_values[b]))
            classes[b] = k
            offset_stream.append((offset, _OFFSET_WIDTH[k]))
        self._classes = IntVector.from_array(classes, width=4)
        # Pack the variable-width offsets into one contiguous bitstream.
        total_bits = sum(width for _, width in offset_stream)
        words = np.zeros(total_bits // 64 + 2, dtype=np.uint64)
        position = 0
        sb_offset_pos = []
        sb_rank = []
        running_rank = 0
        for b, (offset, width) in enumerate(offset_stream):
            if b % SUPERBLOCK == 0:
                sb_offset_pos.append(position)
                sb_rank.append(running_rank)
            if width:
                widx, off = position >> 6, position & 63
                words[widx] |= np.uint64((offset << off) & 0xFFFFFFFFFFFFFFFF)
                if off + width > 64:
                    words[widx + 1] |= np.uint64(offset >> (64 - off))
                position += width
            running_rank += int(classes[b])
        self._ones = running_rank
        self._offset_words = words
        self._offsets = position  # total offset bits (for space accounting)
        self._sb_rank = np.asarray(sb_rank + [running_rank], dtype=np.int64)
        self._sb_offset_pos = np.asarray(sb_offset_pos + [position], dtype=np.int64)

    # -- internals ----------------------------------------------------------

    def _read_offset(self, position: int, width: int) -> int:
        if width == 0:
            return 0
        widx, off = position >> 6, position & 63
        value = int(self._offset_words[widx]) >> off
        if off + width > 64:
            value |= int(self._offset_words[widx + 1]) << (64 - off)
        return value & ((1 << width) - 1)

    def _block_bits(self, block: int) -> int:
        """Decode one block back to its 15 raw bits."""
        sb, first = divmod(block, SUPERBLOCK)
        position = int(self._sb_offset_pos[sb])
        base = sb * SUPERBLOCK
        for b in range(base, base + first):
            position += _OFFSET_WIDTH[self._classes[b]]
        k = self._classes[block]
        return _decode_block(k, self._read_offset(position, _OFFSET_WIDTH[k]))

    # -- interface ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def num_ones(self) -> int:
        return self._ones

    @property
    def num_zeros(self) -> int:
        return self._n - self._ones

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range (n={self._n})")
        return (self._block_bits(i // BLOCK) >> (i % BLOCK)) & 1

    def rank1(self, i: int) -> int:
        """Number of 1s in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        if i == 0:
            return 0
        block, within = divmod(i, BLOCK)
        sb, first = divmod(block, SUPERBLOCK)
        rank = int(self._sb_rank[sb])
        position = int(self._sb_offset_pos[sb])
        base = sb * SUPERBLOCK
        for b in range(base, base + first):
            k = self._classes[b]
            rank += k
            position += _OFFSET_WIDTH[k]
        if within:
            k = self._classes[block]
            bits = _decode_block(k, self._read_offset(position, _OFFSET_WIDTH[k]))
            rank += (bits & ((1 << within) - 1)).bit_count()
        return rank

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        return self.rank1(i) if bit else self.rank0(i)

    # -- bulk kernels --------------------------------------------------------

    def _read_offset_many(self, positions: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_read_offset` (straddle-aware, width <= 13)."""
        widx = positions >> 6
        off = (positions & 63).astype(np.uint64)
        lo = self._offset_words[widx] >> off
        shift = (np.uint64(64) - off) & np.uint64(63)
        hi = self._offset_words[widx + 1] << shift
        hi[off == 0] = 0
        mask = ((np.int64(1) << widths) - 1).astype(np.uint64)
        return ((lo | hi) & mask).astype(np.int64)

    def rank1_many(self, positions) -> np.ndarray:
        """Vectorised :meth:`rank1` over an int array of positions.

        The per-superblock nibble scan becomes a masked (q, 31) gather via
        the class :class:`IntVector`; the touched blocks decode through the
        shared inverse table. Read-only against all backing arrays.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(idx.shape, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) > self._n:
            raise IndexError(f"rank position out of range (n={self._n})")
        out = np.zeros(idx.shape, dtype=np.int64)
        nonzero = idx > 0
        if not nonzero.any():
            return out
        ii = idx[nonzero]
        block, within = np.divmod(ii, BLOCK)
        sb, first = np.divmod(block, SUPERBLOCK)
        rank = self._sb_rank[sb].astype(np.int64, copy=True)
        position = self._sb_offset_pos[sb].astype(np.int64, copy=True)
        if int(first.max()) > 0:
            # Classes of the blocks preceding `block` inside its superblock.
            cols = np.arange(SUPERBLOCK - 1, dtype=np.int64)
            bidx = (sb * SUPERBLOCK)[:, None] + cols[None, :]
            live = cols[None, :] < first[:, None]
            ks = self._classes.get_many(np.where(live, bidx, 0).ravel())
            ks = np.where(live, ks.reshape(bidx.shape), 0)  # class 0 has width 0
            rank += ks.sum(axis=1)
            position += _OFFSET_WIDTH_ARR[ks].sum(axis=1)
        partial = within > 0
        if partial.any():
            k = self._classes.get_many(block[partial])
            offs = self._read_offset_many(position[partial], _OFFSET_WIDTH_ARR[k])
            bits = _decode_table()[(k << 13) | offs].astype(np.int64)
            rank[partial] += np.bitwise_count(bits & ((1 << within[partial]) - 1))
        out[nonzero] = rank
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
        return self._select_many(ks, ones=True)

    def select0_many(self, ks) -> np.ndarray:
        """Vectorised :meth:`select0`; out-of-range ranks yield ``-1``."""
        return self._select_many(ks, ones=False)

    def select_many(self, bit: int, ks) -> np.ndarray:
        """Dispatching bulk select for bit ``b``."""
        return self.select1_many(ks) if bit else self.select0_many(ks)

    def _select_many(self, ks, ones: bool) -> np.ndarray:
        k = np.asarray(ks, dtype=np.int64)
        out = np.full(k.shape, -1, dtype=np.int64)
        total = self._ones if ones else self.num_zeros
        valid = (k >= 1) & (k <= total)
        if not valid.any():
            return out
        kv = k[valid]
        lo = np.zeros(kv.shape, dtype=np.int64)
        hi = np.full(kv.shape, self._n - 1, dtype=np.int64)
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo[active] + hi[active]) >> 1
            r = self.rank1_many(mid + 1)
            if not ones:
                r = (mid + 1) - r
            below = r < kv[active]
            nlo = lo[active]
            nhi = hi[active]
            nlo[below] = mid[below] + 1
            nhi[~below] = mid[~below]
            lo[active] = nlo
            hi[active] = nhi
        out[valid] = lo
        return out

    def select1(self, k: int) -> int:
        if k < 1 or k > self._ones:
            return -1
        return self._select(k, ones=True)

    def select0(self, k: int) -> int:
        if k < 1 or k > self.num_zeros:
            return -1
        return self._select(k, ones=False)

    def select(self, bit: int, k: int) -> int:
        return self.select1(k) if bit else self.select0(k)

    def _select(self, k: int, ones: bool) -> int:
        # Binary search positions by rank (log n rank calls of log cost).
        lo, hi = 0, self._n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            r = self.rank1(mid + 1) if ones else self.rank0(mid + 1)
            if r < k:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def to_array(self) -> np.ndarray:
        """Decode all bits (test helper)."""
        out = np.zeros(self._n, dtype=np.uint8)
        for block in range((self._n + BLOCK - 1) // BLOCK):
            bits = self._block_bits(block)
            start = block * BLOCK
            for i in range(min(BLOCK, self._n - start)):
                out[start + i] = (bits >> i) & 1
        return out

    # -- space ---------------------------------------------------------------

    def size_in_bits(self) -> int:
        """Payload: 4-bit classes plus the variable-width offset stream."""
        return self._classes.size_in_bits() + self._offsets

    def overhead_in_bits(self) -> int:
        """Superblock rank and offset-position directories."""
        return (self._sb_rank.size + self._sb_offset_pos.size) * 64

    def __repr__(self) -> str:
        return f"RRRBitVector(n={self._n}, ones={self._ones})"

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars, the offset bitstream, both superblock directories, and
        the class nibbles as a child :class:`IntVector` bundle."""
        return StorageBundle(
            kind="RRRBitVector",
            meta={"n": self._n, "ones": self._ones, "offsets": self._offsets},
            arrays={
                "offset_words": self._offset_words,
                "sb_rank": self._sb_rank,
                "sb_offset_pos": self._sb_offset_pos,
            },
            children={"classes": self._classes.export_storage()},
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "RRRBitVector":
        """Rebuild from a bundle; all arrays are adopted as-is."""
        rrr = cls.__new__(cls)
        rrr._n = int(bundle.meta["n"])
        rrr._ones = int(bundle.meta["ones"])
        rrr._offsets = int(bundle.meta["offsets"])
        rrr._offset_words = expected_array(bundle, "offset_words", "uint64")
        rrr._sb_rank = expected_array(bundle, "sb_rank", "int64")
        rrr._sb_offset_pos = expected_array(bundle, "sb_offset_pos", "int64")
        rrr._classes = attach_structure(bundle.children["classes"])
        if not isinstance(rrr._classes, IntVector):
            raise InvalidParameterError("RRR classes child must be an IntVector")
        return rrr


register_structure("RRRBitVector", RRRBitVector.attach_storage)
