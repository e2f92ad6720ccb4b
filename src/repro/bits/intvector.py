"""Fixed-width bit-packed integer arrays.

An :class:`IntVector` stores ``n`` unsigned integers of a fixed bit width
``w`` contiguously in an array of 64-bit words, so that the payload costs
exactly ``n * w`` bits (plus a constant-size header). This is the basic
building block for honest space accounting throughout the library: succinct
structures store *actual* packed words and report their size from them.

Bit layout: element ``i`` occupies bit positions ``[i*w, (i+1)*w)`` counted
from the least-significant bit of word 0 (little-endian bit order), possibly
straddling two words.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .storage import DerivedState, StorageBundle, expected_array, register_structure

_WORD = 64
_U64 = np.uint64


def bits_needed(max_value: int) -> int:
    """Return the number of bits needed to store values in ``[0, max_value]``.

    ``bits_needed(0) == 1`` by convention (a width-0 vector cannot be
    indexed into words, and a 1-bit field is the minimum addressable unit).

    >>> bits_needed(0), bits_needed(1), bits_needed(255), bits_needed(256)
    (1, 1, 8, 9)
    """
    if max_value < 0:
        raise InvalidParameterError(f"max_value must be >= 0, got {max_value}")
    return max(1, int(max_value).bit_length())


class IntVector(Sequence[int], DerivedState):
    """An immutable sequence of ``n`` fixed-width unsigned integers.

    Build one with :meth:`from_iterable` (python loop, any iterable) or
    :meth:`from_array` (vectorised, numpy input). Random access is O(1).
    """

    _STORED = ("_words", "_n", "_width", "_mask")
    __slots__ = _STORED + ("_wv",)

    def __init__(self, words: np.ndarray, n: int, width: int):
        if width < 1 or width > 64:
            raise InvalidParameterError(f"width must be in [1, 64], got {width}")
        if n < 0:
            raise InvalidParameterError(f"n must be >= 0, got {n}")
        self._words = np.ascontiguousarray(words, dtype=_U64)
        self._n = n
        self._width = width
        self._mask = (1 << width) - 1
        self._derive()

    def _derive(self) -> None:
        """Zero-copy memoryview the scalar ``__getitem__`` reads."""
        self._wv = memoryview(self._words)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_array(cls, values: np.ndarray | Sequence[int], width: int | None = None) -> "IntVector":
        """Pack a numpy array (or any sequence) of unsigned ints.

        When ``width`` is omitted it is inferred from the maximum value.
        """
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidParameterError("IntVector requires a 1-d array")
        n = int(arr.size)
        if n and int(arr.min()) < 0:
            raise InvalidParameterError("IntVector stores unsigned values only")
        if width is None:
            width = bits_needed(int(arr.max()) if n else 0)
        if n and int(arr.max()) > (1 << width) - 1:
            raise InvalidParameterError(
                f"value {int(arr.max())} does not fit in {width} bits"
            )
        nwords = (n * width + _WORD - 1) // _WORD + 1  # +1 pad word for straddle reads
        words = np.zeros(nwords, dtype=_U64)
        if n:
            vals = arr.astype(_U64)
            positions = np.arange(n, dtype=np.int64) * width
            widx = positions >> 6
            off = (positions & 63).astype(_U64)
            np.bitwise_or.at(words, widx, vals << off)
            # Straddling parts: bits that overflow into the next word.
            straddle = (off.astype(np.int64) + width) > _WORD
            if straddle.any():
                sv = vals[straddle]
                so = off[straddle]
                np.bitwise_or.at(
                    words, widx[straddle] + 1, sv >> (_U64(_WORD) - so)
                )
        return cls(words, n, width)

    @classmethod
    def from_iterable(cls, values: Iterable[int], width: int | None = None) -> "IntVector":
        """Pack an arbitrary iterable of unsigned ints (materialises a list)."""
        return cls.from_array(np.fromiter(values, dtype=np.int64), width)

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def width(self) -> int:
        """Bit width of each element."""
        return self._width

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for IntVector of length {self._n}")
        pos = i * self._width
        widx = pos >> 6
        off = pos & 63
        value = self._wv[widx] >> off
        if off + self._width > _WORD:
            value |= self._wv[widx + 1] << (_WORD - off)
        return value & self._mask

    def get_run(self, i: int, count: int) -> int:
        """Elements ``i .. i + count - 1`` read as one integer, element
        ``i`` in the lowest ``width`` bits; ``count * width`` may exceed
        one word."""
        if count < 1 or i < 0 or i + count > self._n:
            raise IndexError(f"run [{i}, {i + count}) out of range for length {self._n}")
        start = i * self._width
        nbits = count * self._width
        w = start >> 6
        value = self._wv[w] >> (start & 63)
        have = _WORD - (start & 63)
        while have < nbits:
            w += 1
            value |= self._wv[w] << have
            have += _WORD
        return value & ((1 << nbits) - 1)

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised random access; returns int64 values for ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise IndexError("get_many index out of range")
        pos = idx * self._width
        widx = pos >> 6
        off = (pos & 63).astype(_U64)
        lo = self._words[widx] >> off
        # High parts from the following word for straddling elements.
        shift = (_U64(_WORD) - off) & _U64(63)  # off==0 -> shift 0, hi masked out below
        hi = self._words[widx + 1] << shift
        hi[off == 0] = 0
        return ((lo | hi) & _U64(self._mask)).astype(np.int64)

    def to_array(self) -> np.ndarray:
        """Unpack all elements into an int64 numpy array."""
        if not self._n:
            return np.zeros(0, dtype=np.int64)
        return self.get_many(np.arange(self._n, dtype=np.int64))

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntVector):
            return NotImplemented
        return (
            self._n == other._n
            and self._width == other._width
            and bool(np.array_equal(self.to_array(), other.to_array()))
        )

    def __repr__(self) -> str:
        return f"IntVector(n={self._n}, width={self._width})"

    # -- space accounting --------------------------------------------------

    def size_in_bits(self) -> int:
        """Logical payload size: ``n * width`` bits."""
        return self._n * self._width

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> "StorageBundle":
        """Describe this vector as scalars + its packed word array."""
        return StorageBundle(
            kind="IntVector",
            meta={"n": self._n, "width": self._width},
            arrays={"words": self._words},
        )

    @classmethod
    def attach_storage(cls, bundle: "StorageBundle") -> "IntVector":
        """Rebuild from a bundle without copying the word array.

        Bypasses ``__init__`` (whose ``ascontiguousarray`` would copy a
        buffer-backed view) and sets the slots directly.
        """
        iv = cls.__new__(cls)
        iv._words = expected_array(bundle, "words", "uint64")
        iv._n = int(bundle.meta["n"])
        iv._width = int(bundle.meta["width"])
        if iv._width < 1 or iv._width > 64 or iv._n < 0:
            raise InvalidParameterError("corrupt IntVector bundle header")
        iv._mask = (1 << iv._width) - 1
        iv._derive()
        return iv


register_structure("IntVector", IntVector.attach_storage)
