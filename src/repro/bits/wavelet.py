"""Rank/select over arbitrary alphabets (paper Theorem 2 stand-ins).

Two structures are provided:

* :class:`WaveletMatrix` — a balanced, levelwise wavelet tree (Claude–Navarro
  "wavelet matrix" layout): ``ceil(log2 sigma)`` bitvectors of ``n`` bits,
  rank/select/access in ``O(log sigma)`` bitvector operations. Used wherever
  the paper asks for rank/select on a plain string (e.g. the block string
  ``B`` of the APX index and the link string ``S`` of the CPST).
* :class:`HuffmanWaveletTree` — a pointer-shaped wavelet tree whose depth per
  symbol equals the symbol's Huffman code length, so total payload is
  ``sum_c n_c * len(code_c) <= n*(H0+1)`` bits. Used by the FM-index baseline
  to emulate the entropy-compressed indexes of the paper's Theorem 6.

Both expose the query conventions used throughout the library:
``rank(c, i)`` counts symbol ``c`` in positions ``[0, i)``; ``select(c, k)``
returns the position of the k-th (1-based) occurrence or ``-1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError
from .bitvector import BitVector, _where_valid
from .huffman import canonical_code
from .rrr import RRRBitVector
from .storage import DerivedState, StorageBundle, attach_structure, register_structure


def _bitvector_factory(compressed: bool):
    """Plain or RRR-compressed per-level/per-node bitvectors."""
    return RRRBitVector if compressed else BitVector


class WaveletMatrix(DerivedState):
    """Balanced wavelet matrix over an integer alphabet ``[0, sigma)``.

    With ``compressed=True`` the per-level bitvectors are RRR-compressed
    (``~H0`` bits per level instead of 1), trading query constant factors
    for space — the Theorem 2 entropy-compressed rows.

    Every code ``c`` in ``[0, 2**nbits)`` owns a *bucket* on the bottom
    level: the range its occurrences fill there, ordered by bit-reversed
    code. The bucket table (``2**nbits + 1`` offsets) is derived once per
    build, attach or unpickle, so ``rank`` walks only the query position
    down the bit-planes, ``select`` only ascends from the bucket, and
    ``count`` is two table reads.
    """

    _STORED = ("_n", "_sigma", "_nbits", "_levels", "_zeros")
    __slots__ = _STORED + ("_buckets", "_slot", "_walk")

    def __init__(
        self, data: np.ndarray, sigma: int | None = None, compressed: bool = False
    ):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidParameterError("WaveletMatrix requires a 1-d symbol array")
        if arr.size and int(arr.min()) < 0:
            raise InvalidParameterError("symbols must be non-negative")
        if sigma is None:
            sigma = int(arr.max()) + 1 if arr.size else 1
        if arr.size and int(arr.max()) >= sigma:
            raise InvalidParameterError(
                f"symbol {int(arr.max())} outside alphabet [0, {sigma})"
            )
        self._n = int(arr.size)
        self._sigma = sigma
        self._nbits = max(1, (sigma - 1).bit_length()) if sigma > 1 else 1
        self._levels = []
        self._zeros: List[int] = []
        factory = _bitvector_factory(compressed)
        cur = arr
        for lvl in range(self._nbits):
            shift = self._nbits - 1 - lvl
            bits = ((cur >> shift) & 1).astype(np.uint8)
            bv = factory(bits)
            self._levels.append(bv)
            self._zeros.append(bv.num_zeros)
            # Stable partition: zero-bit symbols first, preserving order.
            cur = np.concatenate([cur[bits == 0], cur[bits == 1]])
        self._derive()

    def _derive(self) -> None:
        """The per-level walk plan ``(bitvector, zeros, code bit mask)`` and
        the bucket table, from one vectorised descent of every code's
        bucket start."""
        nbits = self._nbits
        self._walk = tuple(
            (bv, z, 1 << (nbits - 1 - lvl))
            for lvl, (bv, z) in enumerate(zip(self._levels, self._zeros))
        )
        codes = np.arange(1 << nbits, dtype=np.int64)
        starts = np.zeros(codes.size, dtype=np.int64)
        for bv, z, mask in self._walk:
            ones = bv.rank1_many(starts)
            starts = np.where(codes & mask, z + ones, starts - ones)
        # Buckets sit on the bottom level in bit-reversed code order.
        slot = np.zeros(codes.size, dtype=np.int64)
        for lvl in range(nbits):
            slot |= ((codes >> lvl) & 1) << (nbits - 1 - lvl)
        table = np.empty(codes.size + 1, dtype=np.int64)
        table[slot] = starts
        table[-1] = self._n
        self._buckets: List[int] = table.tolist()
        self._slot: List[int] = slot.tolist()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size the matrix was built for."""
        return self._sigma

    def count(self, c: int) -> int:
        """Occurrences of ``c`` in the whole sequence (two table reads)."""
        if not 0 <= c < len(self._slot):
            return 0
        s = self._slot[c]
        return self._buckets[s + 1] - self._buckets[s]

    def access(self, i: int) -> int:
        """Symbol at position ``i`` of the original sequence."""
        if not 0 <= i < self._n:
            raise IndexError(f"position {i} out of range (n={self._n})")
        value = 0
        p = i
        for lvl, bv in enumerate(self._levels):
            bit = bv[p]
            value = (value << 1) | bit
            p = self._zeros[lvl] + bv.rank1(p) if bit else bv.rank0(p)
        return value

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol ``c`` in positions ``[0, i)``: one rank
        per level walks ``i`` into ``c``'s bucket."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        if not 0 <= c < len(self._slot):
            return 0
        for bv, z, mask in self._walk:
            if c & mask:
                i = z + bv.rank1(i)
            else:
                i -= bv.rank1(i)
        return i - self._buckets[self._slot[c]]

    def rank_pair(self, c: int, i: int, j: int) -> Tuple[int, int]:
        """``(rank(c, i), rank(c, j))``: both positions ride one loop over
        the bit-planes and share the bucket lookup."""
        if not (0 <= i <= self._n and 0 <= j <= self._n):
            raise IndexError(f"rank position out of range (n={self._n})")
        if not 0 <= c < len(self._slot):
            return 0, 0
        for bv, z, mask in self._walk:
            if c & mask:
                i = z + bv.rank1(i)
                j = z + bv.rank1(j)
            else:
                i -= bv.rank1(i)
                j -= bv.rank1(j)
        s = self._buckets[self._slot[c]]
        return i - s, j - s

    # -- bulk kernels --------------------------------------------------------

    def rank_many(self, c: int, positions) -> np.ndarray:
        """Vectorised :meth:`rank`: one walk down the bit-planes advances
        the whole position array; the bucket start is a table read."""
        p = np.asarray(positions, dtype=np.int64)
        if p.size == 0:
            return np.zeros(p.shape, dtype=np.int64)
        if int(p.min()) < 0 or int(p.max()) > self._n:
            raise IndexError(f"rank position out of range (n={self._n})")
        if not 0 <= c < len(self._slot):
            return np.zeros(p.shape, dtype=np.int64)
        for bv, z, mask in self._walk:
            if c & mask:
                p = z + bv.rank1_many(p)
            else:
                p = p - bv.rank1_many(p)
        return p - self._buckets[self._slot[c]]

    def rank_pairs(self, c: int, los, his) -> tuple:
        """Bulk rank at both endpoints of (lo, hi) interval arrays; each
        bit-plane is walked exactly once for the stacked endpoints."""
        lo = np.asarray(los, dtype=np.int64)
        hi = np.asarray(his, dtype=np.int64)
        ranks = self.rank_many(c, np.concatenate([lo, hi]))
        return ranks[: lo.size], ranks[lo.size :]

    def ranks_matrix(self, c: int, matrix) -> np.ndarray:
        """Bulk rank over an arbitrary-shape position matrix (one plane
        walk for every entry); returns the same shape."""
        m = np.asarray(matrix, dtype=np.int64)
        return self.rank_many(c, m.ravel()).reshape(m.shape)

    def _ascend(self, c: int, pos: int) -> int:
        """Map a bottom-level position of ``c``'s bucket back to the
        original sequence by one select per level."""
        for bv, z, mask in reversed(self._walk):
            if c & mask:
                pos = bv.select1(pos - z + 1)
            else:
                pos = bv.select0(pos + 1)
        return pos

    def select_many(self, c: int, ks) -> np.ndarray:
        """Vectorised :meth:`select`; invalid ranks yield ``-1``."""
        k = np.asarray(ks, dtype=np.int64)
        if not 0 <= c < len(self._slot) or k.size == 0:
            return np.full(k.shape, -1, dtype=np.int64)
        s = self._slot[c]
        start = self._buckets[s]
        valid = (k >= 1) & (k <= self._buckets[s + 1] - start)
        return _where_valid(k, valid, lambda kv: self._ascend_many(c, start + kv - 1))

    def _ascend_many(self, c: int, pos: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_ascend`."""
        for bv, z, mask in reversed(self._walk):
            if c & mask:
                pos = bv.select1_many(pos - z + 1)
            else:
                pos = bv.select0_many(pos + 1)
        return pos

    def select(self, c: int, k: int) -> int:
        """Position of the k-th (1-based) ``c``, or ``-1`` if absent."""
        if k < 1 or not 0 <= c < len(self._slot):
            return -1
        s = self._slot[c]
        pos = self._buckets[s] + k - 1
        return self._ascend(c, pos) if pos < self._buckets[s + 1] else -1

    def to_array(self) -> np.ndarray:
        """Decode the full sequence: one numpy pass per level walks every
        position down the bit-planes at once."""
        value = np.zeros(self._n, dtype=np.int64)
        if not self._n:
            return value
        every = np.arange(self._n + 1, dtype=np.int64)
        p = every[:-1]
        for bv, z, _ in self._walk:
            ones = bv.rank1_many(every)  # rank1 at each position of the level
            before = ones[p]
            bit = ones[p + 1] - before
            value = (value << 1) | bit
            p = np.where(bit == 1, z + before, p - before)
        return value

    # -- space accounting ------------------------------------------------------

    def size_in_bits(self) -> int:
        """Payload: ``n`` bits per level."""
        return sum(bv.size_in_bits() for bv in self._levels)

    def overhead_in_bits(self) -> int:
        """Rank-directory overhead across levels, plus the bucket table at
        ``ceil(log2(n + 1))`` bits per offset."""
        table = len(self._buckets) * self._n.bit_length()
        return table + sum(bv.overhead_in_bits() for bv in self._levels)

    def __repr__(self) -> str:
        return f"WaveletMatrix(n={self._n}, sigma={self._sigma}, levels={self._nbits})"

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars plus one child bundle per level bitvector.

        Each level records its own kind (plain or RRR), so mixed layouts
        round-trip without a separate ``compressed`` flag. The bucket
        table is derived state and is rebuilt on attach.
        """
        return StorageBundle(
            kind="WaveletMatrix",
            meta={
                "n": self._n,
                "sigma": self._sigma,
                "nbits": self._nbits,
                "zeros": [int(z) for z in self._zeros],
            },
            children={
                f"level{i}": bv.export_storage() for i, bv in enumerate(self._levels)
            },
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "WaveletMatrix":
        """Rebuild from a bundle; per-level bitvectors attach zero-copy."""
        wm = cls.__new__(cls)
        wm._n = int(bundle.meta["n"])
        wm._sigma = int(bundle.meta["sigma"])
        wm._nbits = int(bundle.meta["nbits"])
        wm._zeros = [int(z) for z in bundle.meta["zeros"]]
        wm._levels = [
            attach_structure(bundle.children[f"level{i}"]) for i in range(wm._nbits)
        ]
        if len(wm._zeros) != wm._nbits:
            raise InvalidParameterError("corrupt WaveletMatrix bundle header")
        wm._derive()
        return wm


register_structure("WaveletMatrix", WaveletMatrix.attach_storage)


class _HWTNode:
    """Internal node of a Huffman wavelet tree."""

    __slots__ = ("bv", "left", "right", "symbol")

    def __init__(self) -> None:
        self.bv: Optional[BitVector] = None
        self.left: Optional["_HWTNode"] = None
        self.right: Optional["_HWTNode"] = None
        self.symbol: Optional[int] = None  # set on leaves


class HuffmanWaveletTree:
    """Huffman-shaped wavelet tree: payload ~ ``n*H0`` bits.

    Symbols absent from the input have no code; their rank is 0 everywhere
    and their select is always ``-1``.
    """

    __slots__ = ("_n", "_sigma", "_root", "_code", "_freqs", "_factory")

    def __init__(
        self, data: np.ndarray, sigma: int | None = None, compressed: bool = False
    ):
        self._factory = _bitvector_factory(compressed)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidParameterError("HuffmanWaveletTree requires a 1-d array")
        if arr.size == 0:
            raise InvalidParameterError("cannot build a wavelet tree over empty data")
        if int(arr.min()) < 0:
            raise InvalidParameterError("symbols must be non-negative")
        if sigma is None:
            sigma = int(arr.max()) + 1
        if int(arr.max()) >= sigma:
            raise InvalidParameterError(
                f"symbol {int(arr.max())} outside alphabet [0, {sigma})"
            )
        self._n = int(arr.size)
        self._sigma = sigma
        self._freqs = np.bincount(arr, minlength=sigma)
        self._code = canonical_code(self._freqs)
        # Dense lookup arrays for vectorised bit extraction during the build.
        code_arr = np.zeros(sigma, dtype=np.int64)
        len_arr = np.zeros(sigma, dtype=np.int64)
        for sym, code in self._code.codes.items():
            code_arr[sym] = code
            len_arr[sym] = self._code.lengths[sym]
        self._root = self._build(arr, 0, code_arr, len_arr)

    def _build(
        self, seq: np.ndarray, depth: int, code_arr: np.ndarray, len_arr: np.ndarray
    ) -> _HWTNode:
        node = _HWTNode()
        if seq.size == 0:
            # Only reachable for the degenerate single-symbol code, whose
            # 1-bit tree has an unused sibling; queries never descend here.
            node.symbol = -1
            return node
        lengths = len_arr[seq]
        if int(lengths.min()) == depth:
            # All codes sharing this prefix are this exact code: pure leaf.
            node.symbol = int(seq[0])
            return node
        bits = ((code_arr[seq] >> (lengths - depth - 1)) & 1).astype(np.uint8)
        node.bv = self._factory(bits)
        left_seq = seq[bits == 0]
        right_seq = seq[bits == 1]
        node.left = self._build(left_seq, depth + 1, code_arr, len_arr)
        node.right = self._build(right_seq, depth + 1, code_arr, len_arr)
        return node

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size the tree was built for."""
        return self._sigma

    @property
    def frequencies(self) -> np.ndarray:
        """Per-symbol occurrence counts of the indexed sequence."""
        return self._freqs

    def access(self, i: int) -> int:
        """Symbol at position ``i``."""
        if not 0 <= i < self._n:
            raise IndexError(f"position {i} out of range (n={self._n})")
        node = self._root
        p = i
        while node.symbol is None:
            assert node.bv is not None
            bit = node.bv[p]
            if bit:
                p = node.bv.rank1(p)
                node = node.right
            else:
                p = node.bv.rank0(p)
                node = node.left
            assert node is not None
        return node.symbol

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    def rank(self, c: int, i: int) -> int:
        """Occurrences of ``c`` in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range (n={self._n})")
        if c not in self._code.codes:
            return 0
        code = self._code.codes[c]
        length = self._code.lengths[c]
        node = self._root
        p = i
        for d in range(length):
            if node.symbol is not None:
                break
            assert node.bv is not None
            bit = (code >> (length - d - 1)) & 1
            if bit:
                p = node.bv.rank1(p)
                node = node.right
            else:
                p = node.bv.rank0(p)
                node = node.left
            assert node is not None
        return p

    # -- bulk kernels --------------------------------------------------------

    def rank_many(self, c: int, positions) -> np.ndarray:
        """Vectorised :meth:`rank`: one walk down ``c``'s code path advances
        the whole position array."""
        p = np.asarray(positions, dtype=np.int64)
        if p.size == 0:
            return np.zeros(p.shape, dtype=np.int64)
        if int(p.min()) < 0 or int(p.max()) > self._n:
            raise IndexError(f"rank position out of range (n={self._n})")
        if c not in self._code.codes:
            return np.zeros(p.shape, dtype=np.int64)
        code = self._code.codes[c]
        length = self._code.lengths[c]
        node = self._root
        for d in range(length):
            if node.symbol is not None:
                break
            assert node.bv is not None
            bit = (code >> (length - d - 1)) & 1
            if bit:
                p = node.bv.rank1_many(p)
                node = node.right
            else:
                p = node.bv.rank0_many(p)
                node = node.left
            assert node is not None
        return p

    def rank_pairs(self, c: int, los, his) -> tuple:
        """Bulk rank at both endpoints of (lo, hi) interval arrays via one
        code-path walk over the stacked endpoints."""
        lo = np.asarray(los, dtype=np.int64)
        hi = np.asarray(his, dtype=np.int64)
        ranks = self.rank_many(c, np.concatenate([lo, hi]))
        return ranks[: lo.size], ranks[lo.size :]

    def ranks_matrix(self, c: int, matrix) -> np.ndarray:
        """Bulk rank over an arbitrary-shape position matrix."""
        m = np.asarray(matrix, dtype=np.int64)
        return self.rank_many(c, m.ravel()).reshape(m.shape)

    def select_many(self, c: int, ks) -> np.ndarray:
        """Vectorised :meth:`select`; invalid ranks yield ``-1``."""
        k = np.asarray(ks, dtype=np.int64)
        out = np.full(k.shape, -1, dtype=np.int64)
        if c not in self._code.codes or k.size == 0:
            return out
        valid = (k >= 1) & (k <= int(self._freqs[c]))
        if not valid.any():
            return out
        code = self._code.codes[c]
        length = self._code.lengths[c]
        path: List[tuple[_HWTNode, int]] = []
        node = self._root
        for d in range(length):
            if node.symbol is not None:
                break
            bit = (code >> (length - d - 1)) & 1
            path.append((node, bit))
            node = node.right if bit else node.left
            assert node is not None
        idx = k[valid] - 1
        for parent, bit in reversed(path):
            assert parent.bv is not None
            idx = (
                parent.bv.select1_many(idx + 1)
                if bit
                else parent.bv.select0_many(idx + 1)
            )
        out[valid] = idx
        return out

    def select(self, c: int, k: int) -> int:
        """Position of the k-th (1-based) ``c``, or ``-1``."""
        if k < 1 or c not in self._code.codes:
            return -1
        if k > int(self._freqs[c]):
            return -1
        code = self._code.codes[c]
        length = self._code.lengths[c]
        # Record the root-to-leaf path, then invert it with selects.
        path: List[tuple[_HWTNode, int]] = []
        node = self._root
        for d in range(length):
            if node.symbol is not None:
                break
            bit = (code >> (length - d - 1)) & 1
            path.append((node, bit))
            node = node.right if bit else node.left
            assert node is not None
        idx = k - 1
        for parent, bit in reversed(path):
            assert parent.bv is not None
            idx = parent.bv.select1(idx + 1) if bit else parent.bv.select0(idx + 1)
        return idx

    def to_array(self) -> np.ndarray:
        """Decode the full sequence: one numpy pass per node scatters its
        children's decoded subsequences back by the node's bits."""

        def decode(node: _HWTNode, size: int) -> np.ndarray:
            if node.symbol is not None:
                return np.full(size, node.symbol, dtype=np.int64)
            assert node.bv is not None and node.left and node.right
            right = np.diff(node.bv.rank1_many(np.arange(size + 1))) == 1
            ones = int(right.sum())
            out = np.empty(size, dtype=np.int64)
            out[~right] = decode(node.left, size - ones)
            out[right] = decode(node.right, ones)
            return out

        return decode(self._root, self._n)

    # -- space accounting ------------------------------------------------------

    def size_in_bits(self) -> int:
        """Payload: total bits across node bitvectors (= sum of code lengths)."""
        return self._walk_bits(self._root, payload=True)

    def overhead_in_bits(self) -> int:
        """Rank-directory overhead across node bitvectors."""
        return self._walk_bits(self._root, payload=False)

    def _walk_bits(self, node: _HWTNode, payload: bool) -> int:
        if node.symbol is not None or node.bv is None:
            return 0
        own = node.bv.size_in_bits() if payload else node.bv.overhead_in_bits()
        assert node.left is not None and node.right is not None
        return own + self._walk_bits(node.left, payload) + self._walk_bits(node.right, payload)

    def __repr__(self) -> str:
        return f"HuffmanWaveletTree(n={self._n}, sigma={self._sigma})"

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars, per-symbol frequencies, and the tree in preorder.

        ``meta["nodes"]`` lists one entry per node (preorder); internal
        nodes carry ``symbol: None`` and a child bundle ``node<j>`` holding
        their bitvector. The canonical code is *not* serialised — it is a
        pure function of the frequencies and is recomputed on attach.
        """
        nodes: List[Optional[int]] = []
        children: Dict[str, StorageBundle] = {}

        def walk(node: _HWTNode) -> None:
            j = len(nodes)
            nodes.append(node.symbol)
            if node.symbol is None:
                assert node.bv is not None and node.left and node.right
                children[f"node{j}"] = node.bv.export_storage()
                walk(node.left)
                walk(node.right)

        walk(self._root)
        return StorageBundle(
            kind="HuffmanWaveletTree",
            meta={
                "n": self._n,
                "sigma": self._sigma,
                "compressed": self._factory is RRRBitVector,
                "nodes": nodes,
            },
            arrays={"freqs": np.ascontiguousarray(self._freqs, dtype=np.int64)},
            children=children,
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "HuffmanWaveletTree":
        """Rebuild from a bundle; node bitvectors attach zero-copy."""
        hwt = cls.__new__(cls)
        hwt._n = int(bundle.meta["n"])
        hwt._sigma = int(bundle.meta["sigma"])
        hwt._factory = _bitvector_factory(bool(bundle.meta["compressed"]))
        hwt._freqs = bundle.arrays["freqs"]
        hwt._code = canonical_code(hwt._freqs)
        nodes = bundle.meta["nodes"]
        cursor = [0]

        def build() -> _HWTNode:
            j = cursor[0]
            cursor[0] += 1
            node = _HWTNode()
            symbol = nodes[j]
            if symbol is not None:
                node.symbol = int(symbol)
                return node
            node.bv = attach_structure(bundle.children[f"node{j}"])
            node.left = build()
            node.right = build()
            return node

        hwt._root = build()
        if cursor[0] != len(nodes):
            raise InvalidParameterError("corrupt HuffmanWaveletTree node list")
        return hwt


register_structure("HuffmanWaveletTree", HuffmanWaveletTree.attach_storage)
