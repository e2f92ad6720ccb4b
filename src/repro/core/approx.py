"""The APX_l index: uniform-error counting in O(n log(sigma*l)/l) bits.

Reproduction of paper Section 4 (`APPROX-l` in the experiments). The BWT of
the text is *sparsified*: for each symbol ``c`` only the set ``D_c`` of
**discriminant positions** is retained —

* occurrences of ``c`` whose 0-based occurrence rank is ``0 (mod h)`` where
  ``h = l/2`` (this includes the first occurrence), and
* the last occurrence of ``c``.

Queries run a backward search that replaces exact rank computations with
predecessor/successor queries on ``D_c`` plus the correction of the paper's
Lemma 1, maintaining (0-based, inclusive intervals)::

    first_i - (h-1) <= first~_i <= first_i
    last_i          <= last~_i  <= last_i + (h-1)

so the reported count lies in ``[Count(P), Count(P) + l - 2]``.

The ``D_c`` sets are not stored as plain arrays: following the paper's
Lemma 2 they are encoded as the *block string* ``B`` (for each of the
``ceil(N/h)`` blocks of the BWT, the symbols having a discriminant in that
block, ``#``-terminated) plus the offset array ``V`` (``d mod h`` for each
discriminant, in B-order), with rank/select on ``B`` driving both the
predecessor/successor queries and — via the paper's Fact 1 — the LF-steps::

    LF(d) = C[c] + min((p-1)*h, n_c - 1)      (p = rank of d within D_c)

``B`` is stored as the ``#``-free string ``B′`` (one symbol per
discriminant, so ``V`` is indexed by position in ``B′``) plus a bitvector
``ends`` marking where each ``#`` stood (:mod:`repro.core.delimited`), so
a block boundary is one bitvector select instead of one per level.

Departures from the paper's text are deliberate and documented in DESIGN.md:
0-based discriminant ranks (making Fact 1 exact), multiset blocks (the last
occurrence may share a block with the preceding sample), block index
``d // h``, and clamping of the approximate interval to ``[C[c], C[c+1])``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..bits import (
    IntVector,
    StorageBundle,
    attach_structure,
    bits_needed,
    register_structure,
)
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..core.delimited import attach_delimited, split_delimited
from ..engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    pack_interval_states,
    unpack_interval_states,
)
from ..errors import InvalidParameterError
from ..sa import counts_array
from ..space import SpaceReport
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext

_EMPTY = (0, -1)  # canonical empty inclusive interval


class ApproxIndex(OccurrenceEstimator, BackwardSearchAutomaton):
    """Uniform additive-error index (paper Theorem 5 / Section 4.3).

    ``count(P)`` returns a value in ``[Count(P), Count(P) + l - 1]`` using
    ``O(|P|)`` rank/select operations, without storing the text or the BWT.
    """

    error_model = ErrorModel.UNIFORM

    def __init__(self, text: "BuildContext | Text | str", l: int):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext`, of which it consumes only the
        memoised BWT: building beside other indexes of the same text
        never repeats the suffix sort."""
        from ..build import BuildContext

        ctx = BuildContext.of(text)
        self._init_from_bwt(
            np.asarray(ctx.bwt, dtype=np.int64), ctx.text.alphabet, l
        )

    @classmethod
    def from_bwt(cls, bwt: np.ndarray, alphabet: Alphabet, l: int) -> "ApproxIndex":
        """Build from a precomputed BWT of the sentinel-terminated text.

        Lets callers sweeping thresholds (or holding an externally computed
        transform) skip the suffix sorting; ``bwt`` must be the transform of
        ``T$`` under this library's conventions (sentinel symbol 0).
        """
        instance = cls.__new__(cls)
        instance._init_from_bwt(np.asarray(bwt, dtype=np.int64), alphabet, l)
        return instance

    def _init_from_bwt(self, bwt: np.ndarray, alphabet: Alphabet, l: int) -> None:
        if l < 2 or l % 2:
            raise InvalidParameterError(
                f"APX threshold l must be an even integer >= 2, got {l}"
            )
        self._l = l
        self._h = l // 2
        self._alphabet = alphabet
        self._sigma = alphabet.sigma
        self._text_length = int(bwt.size) - 1
        self._c = counts_array(bwt, self._sigma)
        self._n_rows = int(bwt.size)
        self._build_discriminant_encoding(bwt)

    def _discriminant_sets(self, bwt: np.ndarray) -> dict[int, list[int]]:
        """``D_c`` per symbol: sampled occurrence positions plus the last."""
        h = self._h
        sets: dict[int, list[int]] = {}
        for c in range(1, self._sigma):
            positions = np.flatnonzero(bwt == c)
            n_c = int(positions.size)
            if n_c == 0:
                continue
            ranks = list(range(0, n_c, h))
            if (n_c - 1) % h:
                ranks.append(n_c - 1)
            sets[c] = [int(positions[r]) for r in ranks]
        return sets

    def _build_discriminant_encoding(self, bwt: np.ndarray) -> None:
        """Construct the block string B (as B′ and ends) and the offset
        array V."""
        h = self._h
        hash_sym = self._sigma  # '#' terminator, one past the alphabet
        entries = [
            (position, c)
            for c, positions in self._discriminant_sets(bwt).items()
            for position in positions
        ]
        entries.sort()
        num_blocks = (self._n_rows + h - 1) // h
        b_symbols: list[int] = []
        v_offsets: list[int] = []
        cursor = 0
        for block in range(num_blocks):
            end = (block + 1) * h
            while cursor < len(entries) and entries[cursor][0] < end:
                position, symbol = entries[cursor]
                b_symbols.append(symbol)
                v_offsets.append(position % h)
                cursor += 1
            b_symbols.append(hash_sym)
        self._num_discriminants = len(entries)
        self._b, self._ends = split_delimited(b_symbols, hash_sym)
        self._v = IntVector.from_array(
            np.asarray(v_offsets, dtype=np.int64),
            width=bits_needed(max(0, h - 1)),
        )

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def threshold(self) -> int:
        return self._l

    @property
    def sigma(self) -> int:
        """Alphabet size including the sentinel."""
        return self._sigma

    @property
    def num_discriminants(self) -> int:
        """Total number of sampled BWT positions (at most ``2N/h + sigma``)."""
        return self._num_discriminants

    def count(self, pattern: str) -> int:
        """Estimated occurrences, in ``[Count(P), Count(P) + l - 1]``."""
        first, last = self.count_range(pattern)
        return max(0, last - first + 1)

    def count_range(self, pattern: str) -> Tuple[int, int]:
        """Approximate inclusive row range; ``(0, -1)`` when empty.

        All rows in the range are prefixed by the pattern except possibly
        the first and last ``l/2 - 1`` ones (paper, discussion of Lemma 1).
        """
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return _EMPTY
        state = self._start_state(int(encoded[-1]))
        for i in range(len(encoded) - 2, -1, -1):
            if state is None:
                return _EMPTY
            state = self._step_state(state, int(encoded[i]))
        return state if state is not None else _EMPTY

    # Backward-search automaton over reversed patterns (inclusive rows);
    # the engine interface consumed by repro.engine.TrieBatchPlanner.

    def _start_state(self, c: int) -> Optional[Tuple[int, int]]:
        first = self._c.item(c)
        last = self._c.item(c + 1) - 1
        return (first, last) if first <= last else None

    def _step_state(self, state: Tuple[int, int], c: int) -> Optional[Tuple[int, int]]:
        first, last = state
        h = self._h
        lo, hi = self._c.item(c), self._c.item(c + 1) - 1
        if hi < lo:
            return None  # symbol absent from the text
        succ = self._successor(c, first)
        if succ is None:
            return None
        p_first, d_first = succ
        rl = min(d_first - first, h - 1)
        first = self._lf_discriminant(c, p_first) - rl
        pred = self._predecessor(c, last)
        if pred is None:
            return None
        p_last, d_last = pred
        rr = min(last - d_last, h - 1)
        last = self._lf_discriminant(c, p_last) + rr
        # Exact values lie in [C[c], C[c+1]); clamping only helps.
        first = max(first, lo)
        last = min(last, hi)
        return (first, last) if first <= last else None

    def start(self, ch: str) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._start_state(c)

    def step(
        self, state: Tuple[int, int], ch: str
    ) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._step_state(state, c)

    def count_state(self, state: Optional[Tuple[int, int]]) -> int:
        return 0 if state is None else state[1] - state[0] + 1

    def step_many(self, states, ch):
        """Bulk step: successor/predecessor refinement loops run as masked
        array sweeps over B's bulk rank/select kernels. Each sweep settles
        in <= 2 extra iterations (at most two discriminants of one symbol
        share a block), so the whole batch costs O(1) vectorized passes."""
        c = self._alphabet.code(ch)
        if c is None:
            return [None] * len(states)
        arr = pack_interval_states(states)
        k = arr.shape[0]
        h = self._h
        lo, hi = int(self._c[c]), int(self._c[c + 1]) - 1
        dead = (np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64),
                np.zeros(k, dtype=bool))
        if hi < lo:
            return unpack_interval_states(*dead)  # symbol absent
        total = self._discriminant_count(c)
        if total == 0:
            return unpack_interval_states(*dead)
        p1, d1, ok1 = self._successor_many(c, arr[:, 0], total)
        p2, d2, ok2 = self._predecessor_many(c, arr[:, 1])
        ok = ok1 & ok2
        firsts = np.zeros(k, dtype=np.int64)
        lasts = np.zeros(k, dtype=np.int64)
        if ok.any():
            lf1 = self._lf_discriminant_many(c, p1[ok])
            lf2 = self._lf_discriminant_many(c, p2[ok])
            rl = np.minimum(d1[ok] - arr[ok, 0], h - 1)
            rr = np.minimum(arr[ok, 1] - d2[ok], h - 1)
            firsts[ok] = np.maximum(lf1 - rl, lo)
            lasts[ok] = np.minimum(lf2 + rr, hi)
        return unpack_interval_states(firsts, lasts, ok & (firsts <= lasts))

    def capabilities(self) -> AutomatonCapabilities:
        # One step = predecessor + successor over D_c: nominally 8
        # rank/select operations on B (see Lemma 2 machinery below).
        return AutomatonCapabilities(threshold=self._l, rank_ops_per_step=8)

    # -- D_c machinery (paper Lemma 2 / Fact 1) ------------------------------

    def _block_start(self, k: int) -> int:
        """Position in B′ where block ``k``'s discriminants begin:
        ``select_#(B, k) - (k - 1)``, i.e. ``ends.select1(k) - k + 1``
        (``select1(0)`` is -1, so block 0 starts at 0)."""
        return self._ends.select1(k) - k + 1

    def _discriminant_position(self, c: int, p: int) -> int:
        """BWT position of the p-th (1-based) discriminant of symbol ``c``."""
        j = self._b.select(c, p)  # also its offset's index in V
        block = self._ends.select0(j + 1) - j  # the '#'s before it in B
        return block * self._h + self._v[j]

    def _discriminant_count(self, c: int) -> int:
        """``|D_c|``."""
        return self._b.count(c)

    def _successor(self, c: int, x: int) -> Optional[Tuple[int, int]]:
        """Smallest discriminant of ``c`` at position >= x, with its rank."""
        total = self._b.count(c)
        if total == 0:
            return None
        block = x // self._h
        p = self._b.rank(c, self._block_start(block)) + 1
        # At most two discriminants of one symbol share a block (a sample
        # plus the appended last occurrence), so this loop is O(1).
        while p <= total:
            d = self._discriminant_position(c, p)
            if d >= x:
                return p, d
            p += 1
        return None

    def _predecessor(self, c: int, x: int) -> Optional[Tuple[int, int]]:
        """Largest discriminant of ``c`` at position <= x, with its rank."""
        block = x // self._h
        p = self._b.rank(c, self._block_start(block + 1))
        while p >= 1:
            d = self._discriminant_position(c, p)
            if d <= x:
                return p, d
            p -= 1
        return None

    def _lf_discriminant(self, c: int, p: int) -> int:
        """Fact 1: LF of the p-th discriminant of ``c`` (0-based rows)."""
        first = self._c.item(c)
        return first + min((p - 1) * self._h, self._c.item(c + 1) - first - 1)

    # -- bulk D_c machinery ---------------------------------------------------

    def _lf_discriminant_many(self, c: int, ps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_lf_discriminant`."""
        n_c = int(self._c[c + 1] - self._c[c])
        return int(self._c[c]) + np.minimum((ps - 1) * self._h, n_c - 1)

    def _block_start_many(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_block_start` (``k == 0`` maps to 0)."""
        return self._ends.select1_many(ks) - ks + 1

    def _discriminant_position_many(self, c: int, ps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_discriminant_position` (all ``ps`` valid)."""
        j = self._b.select_many(c, ps)
        block = self._ends.select0_many(j + 1) - j
        return block * self._h + self._v.get_many(j)

    def _successor_many(self, c: int, xs: np.ndarray, total: int):
        """Vectorised :meth:`_successor`: ``(p, d, found)`` arrays."""
        p = self._b.rank_many(c, self._block_start_many(xs // self._h)) + 1
        d = np.full(xs.shape, -1, dtype=np.int64)
        ok = p <= total
        if ok.any():
            d[ok] = self._discriminant_position_many(c, p[ok])
        pending = ok & (d < xs)
        while pending.any():
            p[pending] += 1
            ok &= p <= total
            retry = pending & ok
            if retry.any():
                d[retry] = self._discriminant_position_many(c, p[retry])
            pending = retry & (d < xs)
        return p, d, ok & (d >= xs)

    def _predecessor_many(self, c: int, xs: np.ndarray):
        """Vectorised :meth:`_predecessor`: ``(p, d, found)`` arrays."""
        p = self._b.rank_many(c, self._block_start_many(xs // self._h + 1))
        d = np.full(xs.shape, -1, dtype=np.int64)
        ok = p >= 1
        if ok.any():
            d[ok] = self._discriminant_position_many(c, p[ok])
        pending = ok & (d > xs)
        while pending.any():
            p[pending] -= 1
            ok &= p >= 1
            retry = pending & ok
            if retry.any():
                d[retry] = self._discriminant_position_many(c, p[retry])
            pending = retry & (d > xs)
        return p, d, ok & (d <= xs) & (d >= 0)

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        c_bits = (self._sigma + 1) * bits_needed(self._n_rows)
        return SpaceReport(
            name=f"APX-{self._l}",
            components={
                "B_block_string": self._b.size_in_bits() + self._ends.size_in_bits(),
                "V_offsets": self._v.size_in_bits(),
                "C_array": c_bits,
            },
            overhead={
                "B_directories": (
                    self._b.overhead_in_bits() + self._ends.overhead_in_bits()
                )
            },
        )

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars plus the B′/ends/V discriminant encoding as child bundles."""
        return StorageBundle(
            kind="ApproxIndex",
            meta=self._storage_meta(),
            arrays={"c": np.ascontiguousarray(self._c, dtype=np.int64)},
            children={
                "b": self._b.export_storage(),
                "ends": self._ends.export_storage(),
                "v": self._v.export_storage(),
            },
        )

    def _storage_meta(self) -> dict:
        """Scalar header shared by the B/V and Elias–Fano encodings."""
        return {
            "l": self._l,
            "sigma": self._sigma,
            "text_length": self._text_length,
            "n_rows": self._n_rows,
            "num_discriminants": self._num_discriminants,
            "characters": self._alphabet.characters,
        }

    def _attach_scalars(self, bundle: StorageBundle) -> None:
        meta = bundle.meta
        self._l = int(meta["l"])
        self._h = self._l // 2
        self._alphabet = Alphabet(meta["characters"])
        self._sigma = int(meta["sigma"])
        self._text_length = int(meta["text_length"])
        self._n_rows = int(meta["n_rows"])
        self._num_discriminants = int(meta["num_discriminants"])
        self._c = bundle.arrays["c"]

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "ApproxIndex":
        """Rebuild from a bundle without copying any packed array (a
        bundle written with ``#`` inline in ``B`` is split once)."""
        inst = cls.__new__(cls)
        inst._attach_scalars(bundle)
        blocks = (inst._n_rows + inst._h - 1) // inst._h
        inst._b, inst._ends = attach_delimited(bundle, "b", inst._sigma, blocks)
        inst._v = attach_structure(bundle.children["v"])
        return inst

    def __setstate__(self, state: dict) -> None:
        # Pickled with '#' inline in B (``.ridx`` files, live-corpus
        # recovery files): split it once.
        hash_sym = state.pop("_hash_sym", None)
        self.__dict__.update(state)
        if hash_sym is not None:
            self._b, self._ends = split_delimited(self._b.to_array(), hash_sym)

    def __repr__(self) -> str:
        return (
            f"ApproxIndex(n={self._text_length}, sigma={self._sigma}, "
            f"l={self._l}, discriminants={self._num_discriminants})"
        )


register_structure("ApproxIndex", ApproxIndex.attach_storage)
