"""Run-length FM-index (Mäkinen & Navarro, 2005).

An exact-counting baseline that exploits *runs* in the BWT: repetitive
texts (the `sources`/`dblp` regime) produce long runs of equal symbols, so
storing one wavelet-tree entry per **run** plus succinct run-boundary
bookkeeping costs ``O(R log sigma + R log(n/R))`` bits for ``R`` runs —
far below the plain FM-index when ``R << n``. This is the natural "better
baseline" for the compressed-index line of the paper's Figure 8, included
as an optional extra (the paper benchmarks the plain FM-index).

Rank decomposition, with ``r`` the run containing position ``i``::

    rank_c(L, i) = (total length of c-runs before run r)
                 + (i - start(r)  if the head of run r is c else 0)

* run heads ``L'`` live in a Huffman wavelet tree (rank over runs);
* run starts live in an Elias–Fano sequence (position -> run, run -> start);
* per symbol, the cumulative lengths of its runs live in one Elias–Fano
  prefix-sum sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..bits import EliasFano, HuffmanWaveletTree, bits_needed
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    pack_interval_states,
    unpack_interval_states,
)
from ..sa import counts_array
from ..space import SpaceReport
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class RLFMIndex(OccurrenceEstimator, BackwardSearchAutomaton):
    """Exact counting over the run-length encoded BWT."""

    error_model = ErrorModel.EXACT

    def __init__(self, text: "BuildContext | Text | str"):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext` (consumes only its memoised
        BWT)."""
        from ..build import BuildContext

        ctx = BuildContext.of(text)
        self._init_from_bwt(np.asarray(ctx.bwt, dtype=np.int64), ctx.text.alphabet)

    @classmethod
    def from_bwt(cls, bwt: np.ndarray, alphabet: Alphabet) -> "RLFMIndex":
        """Build from a precomputed BWT of the sentinel-terminated text."""
        instance = cls.__new__(cls)
        instance._init_from_bwt(np.asarray(bwt, dtype=np.int64), alphabet)
        return instance

    def _init_from_bwt(self, bwt: np.ndarray, alphabet: Alphabet) -> None:
        self._alphabet = alphabet
        self._sigma = alphabet.sigma
        self._text_length = int(bwt.size) - 1
        n_rows = int(bwt.size)
        self._c = counts_array(bwt, self._sigma)
        # Run decomposition of the BWT.
        boundaries = np.flatnonzero(np.diff(bwt) != 0) + 1
        starts = np.concatenate([[0], boundaries])
        heads = bwt[starts]
        lengths = np.diff(np.concatenate([starts, [n_rows]]))
        self._num_runs = int(starts.size)
        self._run_starts = EliasFano(starts, universe=n_rows)
        self._heads = HuffmanWaveletTree(heads, self._sigma)
        # Per-symbol cumulative run lengths (prefix sums, Elias–Fano).
        self._cumulative: Dict[int, EliasFano] = {}
        for c in range(self._sigma):
            c_lengths = lengths[heads == c]
            if c_lengths.size:
                sums = np.cumsum(c_lengths)
                self._cumulative[c] = EliasFano(sums, universe=int(sums[-1]) + 1)

    # -- rank over the virtual L ----------------------------------------------

    def _rank(self, c: int, i: int) -> int:
        """Occurrences of ``c`` in BWT positions ``[0, i)``."""
        if i <= 0:
            return 0
        # Run containing position i-1: number of starts <= i-1, minus 1.
        run = self._run_starts.num_less_or_equal(i - 1) - 1
        c_runs_before = self._heads.rank(c, run)
        total = (
            int(self._cumulative[c][c_runs_before - 1])
            if c_runs_before and c in self._cumulative
            else 0
        )
        if self._heads.access(run) == c:
            total += i - int(self._run_starts[run])
        return total

    def _rank_many(self, c: int, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_rank`: one Elias–Fano predecessor sweep for
        the run lookup, one wavelet walk over the stacked (run, run+1)
        boundaries (the head of run ``r`` is ``c`` iff the pair differs),
        and bulk prefix-sum gathers."""
        pos = np.asarray(positions, dtype=np.int64)
        out = np.zeros(pos.shape, dtype=np.int64)
        nonzero = pos > 0
        if not nonzero.any():
            return out
        p = pos[nonzero]
        run = self._run_starts.num_less_or_equal_many(p - 1) - 1
        before, after = self._heads.rank_pairs(c, run, run + 1)
        total = np.zeros(p.shape, dtype=np.int64)
        cum = self._cumulative.get(c)
        if cum is not None:
            has_runs = before > 0
            if has_runs.any():
                total[has_runs] = cum.get_many(before[has_runs] - 1)
        head_is_c = (after - before) == 1
        if head_is_c.any():
            total[head_is_c] += p[head_is_c] - self._run_starts.get_many(
                run[head_is_c]
            )
        out[nonzero] = total
        return out

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

    @property
    def num_runs(self) -> int:
        """``R``: number of maximal equal-symbol runs in the BWT."""
        return self._num_runs

    def count(self, pattern: str) -> int:
        """Exact number of occurrences of ``pattern``."""
        first, last = self.count_range(pattern)
        return last - first

    def count_range(self, pattern: str) -> Tuple[int, int]:
        """Backward search over the run-length structures (half-open)."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0, 0
        state = self._start_state(int(encoded[-1]))
        for i in range(len(encoded) - 2, -1, -1):
            if state is None:
                return 0, 0
            state = self._step_state(state, int(encoded[i]))
        return state if state is not None else (0, 0)

    # Backward-search automaton over reversed patterns (half-open rows);
    # the engine interface consumed by repro.engine.TrieBatchPlanner.

    def _start_state(self, c: int) -> Optional[Tuple[int, int]]:
        first, last = self._c.item(c), self._c.item(c + 1)
        return (first, last) if first < last else None

    def _step_state(self, state: Tuple[int, int], c: int) -> Optional[Tuple[int, int]]:
        first, last = state
        base = self._c.item(c)
        first = base + self._rank(c, first)
        last = base + self._rank(c, last)
        return (first, last) if first < last else None

    def start(self, ch: str) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._start_state(c)

    def step(
        self, state: Tuple[int, int], ch: str
    ) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._step_state(state, c)

    def count_state(self, state: Optional[Tuple[int, int]]) -> int:
        return 0 if state is None else state[1] - state[0]

    def step_many(self, states, ch):
        """Bulk LF-mapping over the run-length structures: both endpoints
        of every interval share one `_rank_many` pass."""
        c = self._alphabet.code(ch)
        if c is None:
            return [None] * len(states)
        arr = pack_interval_states(states)
        k = arr.shape[0]
        base = int(self._c[c])
        ranks = self._rank_many(c, np.concatenate([arr[:, 0], arr[:, 1]]))
        firsts = base + ranks[:k]
        lasts = base + ranks[k:]
        return unpack_interval_states(firsts, lasts, firsts < lasts)

    def capabilities(self) -> AutomatonCapabilities:
        # One step = two rank evaluations over the virtual L (each a run
        # lookup + wavelet rank + prefix-sum access).
        return AutomatonCapabilities(exact=True, rank_ops_per_step=2)

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        c_bits = (self._sigma + 1) * bits_needed(self._text_length + 1)
        cumulative_bits = sum(ef.size_in_bits() for ef in self._cumulative.values())
        return SpaceReport(
            name="RLFMIndex",
            components={
                "run_heads_wavelet": self._heads.size_in_bits(),
                "run_starts": self._run_starts.size_in_bits(),
                "run_length_prefix_sums": cumulative_bits,
                "C_array": c_bits,
            },
            overhead={
                "directories": self._heads.overhead_in_bits()
                + self._run_starts.overhead_in_bits()
                + sum(ef.overhead_in_bits() for ef in self._cumulative.values())
            },
        )

    def __repr__(self) -> str:
        return (
            f"RLFMIndex(n={self._text_length}, sigma={self._sigma}, "
            f"runs={self._num_runs})"
        )
