"""FM-index: exact counting via backward search (paper Sections 4.1–4.2).

This is the paper's `FM-index` baseline — the compressed full-text index
that "achieves the best compression ratio" and establishes the minimum
space known solutions need for *error-free* counting. The BWT of the text
is stored in a Huffman-shaped wavelet tree (~``n*H0`` payload bits), and
``Count(P)`` runs the backward search of Figure 2: ``2|P|`` rank queries.

Intervals are handled 0-based and half-open internally; ``count_range``
returns ``(first, last)`` with ``last - first`` occurrences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..bits import (
    BitVector,
    HuffmanWaveletTree,
    IntVector,
    StorageBundle,
    WaveletMatrix,
    attach_structure,
    bits_needed,
    register_structure,
)
from ..core.interface import ErrorModel, OccurrenceEstimator
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


class FMIndex(OccurrenceEstimator, BackwardSearchAutomaton):
    """Exact substring counting over a compressed text representation."""

    error_model = ErrorModel.EXACT

    def __init__(
        self,
        text: "BuildContext | Text | str",
        wavelet: str = "huffman",  # huffman | matrix | huffman-rrr | matrix-rrr
        sa_sample_rate: int | None = None,
    ):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext`: consumes the memoised BWT
        (and, when ``sa_sample_rate`` is given, the memoised suffix array
        for locate/extract samples)."""
        from ..build import BuildContext

        ctx = BuildContext.of(text)
        self._init_from_bwt(ctx.bwt, ctx.text.alphabet, wavelet)
        if sa_sample_rate is not None:
            self._attach_samples(ctx.sa, sa_sample_rate)

    @classmethod
    def from_bwt(
        cls,
        bwt: np.ndarray,
        alphabet: Alphabet,
        wavelet: str = "huffman",  # huffman | matrix | huffman-rrr | matrix-rrr
    ) -> "FMIndex":
        """Build from a precomputed BWT of the sentinel-terminated text."""
        instance = cls.__new__(cls)
        instance._init_from_bwt(np.asarray(bwt, dtype=np.int64), alphabet, wavelet)
        return instance

    def _init_from_bwt(
        self, bwt: np.ndarray, alphabet: Alphabet, wavelet: str
    ) -> None:
        self._text_length = int(bwt.size) - 1
        self._alphabet = alphabet
        self._sigma = alphabet.sigma
        # locate/extract support is attached on demand (see _attach_samples).
        self._sample_rate: int | None = None
        self._marked = None
        self._sa_samples = None
        self._isa_samples = None
        self._c = counts_array(bwt, self._sigma)
        base, _, variant = wavelet.partition("-")
        compressed = variant == "rrr"
        if variant and not compressed:
            raise InvalidParameterError(f"unknown wavelet kind {wavelet!r}")
        if base == "huffman":
            self._occ: HuffmanWaveletTree | WaveletMatrix = HuffmanWaveletTree(
                bwt, self._sigma, compressed=compressed
            )
        elif base == "matrix":
            self._occ = WaveletMatrix(bwt, self._sigma, compressed=compressed)
        else:
            raise InvalidParameterError(f"unknown wavelet kind {wavelet!r}")

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def sigma(self) -> int:
        """Alphabet size including the sentinel."""
        return self._sigma

    def count(self, pattern: str) -> int:
        """Exact number of occurrences of ``pattern`` in the text."""
        first, last = self.count_range(pattern)
        return last - first

    def count_range(self, pattern: str) -> Tuple[int, int]:
        """Backward search: 0-based half-open row range prefixed by pattern.

        Returns ``(0, 0)`` when the pattern does not occur.
        """
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0, 0
        return self._search(encoded)

    def _search(self, symbols: np.ndarray) -> Tuple[int, int]:
        state = self._start_state(int(symbols[-1]))
        for i in range(len(symbols) - 2, -1, -1):
            if state is None:
                return 0, 0
            state = self._step_state(state, int(symbols[i]))
        return state if state is not None else (0, 0)

    # Backward-search automaton over reversed patterns (half-open rows);
    # the engine interface consumed by repro.engine.TrieBatchPlanner.

    def _start_state(self, c: int) -> Tuple[int, int] | None:
        first, last = self._c.item(c), self._c.item(c + 1)
        return (first, last) if first < last else None

    def _step_state(self, state: Tuple[int, int], c: int) -> Tuple[int, int] | None:
        first, last = state
        base = self._c.item(c)
        first = base + self._occ.rank(c, first)
        last = base + self._occ.rank(c, last)
        return (first, last) if first < last else None

    def start(self, ch: str) -> Tuple[int, int] | None:
        c = self._alphabet.code(ch)
        return None if c is None else self._start_state(c)

    def step(
        self, state: Tuple[int, int], ch: str
    ) -> Tuple[int, int] | None:
        c = self._alphabet.code(ch)
        return None if c is None else self._step_state(state, c)

    def count_state(self, state: Tuple[int, int] | None) -> int:
        return 0 if state is None else state[1] - state[0]

    def step_many(self, states, ch):
        """One bulk LF-mapping pass: both interval endpoints of the whole
        batch ride a single wavelet-tree walk (``rank_pairs``)."""
        c = self._alphabet.code(ch)
        if c is None:
            return [None] * len(states)
        arr = pack_interval_states(states)
        base = int(self._c[c])
        firsts, lasts = self._occ.rank_pairs(c, arr[:, 0], arr[:, 1])
        firsts = base + firsts
        lasts = base + lasts
        return unpack_interval_states(firsts, lasts, firsts < lasts)

    def capabilities(self) -> AutomatonCapabilities:
        # One backward-search step = two rank queries on the BWT wavelet
        # tree (Figure 2).
        return AutomatonCapabilities(exact=True, rank_ops_per_step=2)

    # -- locate / extract (SA sampling) ---------------------------------------

    def _attach_samples(self, sa: np.ndarray, rate: int) -> None:
        """Mark every row whose suffix position is a multiple of ``rate``
        and store the sampled SA and ISA values, enabling locate/extract."""
        from ..bits import BitVector, IntVector

        if rate < 1:
            raise InvalidParameterError(f"sa_sample_rate must be >= 1, got {rate}")
        self._sample_rate = rate
        n_rows = int(sa.size)
        marked_positions = np.flatnonzero(sa % rate == 0)
        self._marked = BitVector.from_positions(marked_positions, n_rows)
        width = bits_needed(n_rows)
        self._sa_samples = IntVector.from_array(sa[marked_positions], width)
        isa = np.empty(n_rows, dtype=np.int64)
        isa[sa] = np.arange(n_rows, dtype=np.int64)
        self._isa_samples = IntVector.from_array(isa[::rate], width)

    def _require_samples(self) -> None:
        if self._sample_rate is None:
            raise InvalidParameterError(
                "locate/extract need SA samples: pass sa_sample_rate to FMIndex"
            )

    def _lf_step(self, row: int) -> Tuple[int, int]:
        """One backward step: ``(symbol at L[row], LF(row))``."""
        c = self._occ.access(row)
        return c, int(self._c[c]) + self._occ.rank(c, row)

    def locate(self, pattern: str) -> list[int]:
        """All 0-based starting positions of ``pattern``, sorted.

        O(occ * sample_rate) LF-steps after the backward search.
        """
        self._require_samples()
        first, last = self.count_range(pattern)
        positions = []
        for row in range(first, last):
            steps = 0
            current = row
            while not self._marked[current]:
                _, current = self._lf_step(current)
                steps += 1
            sample_index = self._marked.rank1(current)
            positions.append(self._sa_samples[sample_index] + steps)
        return sorted(positions)

    def extract(self, start: int, length: int) -> str:
        """Decompress ``T[start : start + length]`` from the index alone."""
        self._require_samples()
        if start < 0 or length < 0 or start + length > self._text_length:
            raise InvalidParameterError(
                f"extract range [{start}, {start + length}) outside text "
                f"of length {self._text_length}"
            )
        if length == 0:
            return ""
        rate = self._sample_rate
        assert rate is not None and self._isa_samples is not None
        # Anchor at the first sampled position at or after the range end
        # (position n, the sentinel suffix, is always row 0).
        end = start + length
        anchor = ((end + rate - 1) // rate) * rate
        if anchor > self._text_length:
            # No sample beyond the end: anchor on the sentinel suffix,
            # whose row is always 0 (it is the lexicographic minimum).
            anchor = self._text_length
            row = 0
        else:
            row = self._isa_samples[anchor // rate]
        symbols = []
        for _ in range(anchor - start):
            c, row = self._lf_step(row)
            symbols.append(c)  # this is T[position - 1] walking leftwards
        symbols.reverse()
        return self._alphabet.decode(np.asarray(symbols[:length], dtype=np.int64))

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        n_rows = self._text_length + 1
        c_bits = (self._sigma + 1) * bits_needed(n_rows)
        components = {
            "bwt_wavelet": self._occ.size_in_bits(),
            "C_array": c_bits,
        }
        overhead = {"wavelet_directories": self._occ.overhead_in_bits()}
        if self._sample_rate is not None:
            assert self._sa_samples is not None and self._isa_samples is not None
            assert self._marked is not None
            components["sa_samples"] = self._sa_samples.size_in_bits()
            components["isa_samples"] = self._isa_samples.size_in_bits()
            components["sample_marks"] = self._marked.size_in_bits()
            overhead["sample_mark_directories"] = self._marked.overhead_in_bits()
        return SpaceReport(name="FMIndex", components=components, overhead=overhead)

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars, the C array, the occ wavelet, and (when attached) the
        SA/ISA sample structures as child bundles."""
        children = {"occ": self._occ.export_storage()}
        if self._marked is not None:
            children["marked"] = self._marked.export_storage()
            children["sa_samples"] = self._sa_samples.export_storage()
            children["isa_samples"] = self._isa_samples.export_storage()
        return StorageBundle(
            kind="FMIndex",
            meta={
                "text_length": self._text_length,
                "sigma": self._sigma,
                "characters": self._alphabet.characters,
                "sample_rate": self._sample_rate,
            },
            arrays={"c": np.ascontiguousarray(self._c, dtype=np.int64)},
            children=children,
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "FMIndex":
        """Rebuild from a bundle without copying any packed array."""
        inst = cls.__new__(cls)
        meta = bundle.meta
        inst._text_length = int(meta["text_length"])
        inst._alphabet = Alphabet(meta["characters"])
        inst._sigma = int(meta["sigma"])
        rate = meta.get("sample_rate")
        inst._sample_rate = None if rate is None else int(rate)
        inst._c = bundle.arrays["c"]
        inst._occ = attach_structure(bundle.children["occ"])
        if "marked" in bundle.children:
            inst._marked = attach_structure(bundle.children["marked"])
            inst._sa_samples = attach_structure(bundle.children["sa_samples"])
            inst._isa_samples = attach_structure(bundle.children["isa_samples"])
        else:
            inst._marked = None
            inst._sa_samples = None
            inst._isa_samples = None
        return inst

    def __repr__(self) -> str:
        return f"FMIndex(n={self._text_length}, sigma={self._sigma})"


register_structure("FMIndex", FMIndex.attach_storage)
