"""Classical pruned suffix tree ``PST-l`` (Krishnan–Vitter–Iyer style, [15]).

The baseline the paper's experiments compare against: the pruned suffix
tree stored *with explicit edge labels*. Queries walk the tree from the
root matching pattern characters against labels; when ``Count(P) >= l``
the walk reaches the locus node and returns its exact subtree count, and
when ``Count(P) < l`` the walk provably fails (a kept node prefixed by P
would certify ``Count(P) >= l``), so the below-threshold case is detected.

Space is reported through the classical layout model (see DESIGN.md):
per node a first-child/next-sibling pointer pair (``log m`` bits each), a
subtree count and a label length (``log n`` each), plus the label symbols
at ``ceil(log sigma)`` bits per symbol — the paper's
``O(m log n + g log sigma)``, whose label term dominates and motivates the
compact variant.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..bits import bits_needed
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    pack_interval_states,
    unpack_interval_states,
)
from ..space import SpaceReport
from ..suffixtree.pruned import PrunedSuffixTreeStructure
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class PrunedSuffixTree(OccurrenceEstimator, BackwardSearchAutomaton):
    """Explicit-label pruned suffix tree with lower-sided error."""

    error_model = ErrorModel.LOWER_SIDED

    def __init__(self, text: "BuildContext | Text | str", l: int):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext` (consumes its memoised
        pruned-tree structure for ``l``)."""
        from ..build import BuildContext

        self._init_from_structure(BuildContext.of(text).structure(l))

    @classmethod
    def from_structure(cls, structure: PrunedSuffixTreeStructure) -> "PrunedSuffixTree":
        """Build from an existing pruned-tree structure."""
        instance = cls.__new__(cls)
        instance._init_from_structure(structure)
        return instance

    def _init_from_structure(self, structure: PrunedSuffixTreeStructure) -> None:
        text = structure.text
        self._l = structure.threshold
        self._alphabet = text.alphabet
        self._sigma = text.sigma
        self._text_length = len(text)
        self._m = structure.num_nodes
        self._counts: List[int] = [node.count for node in structure.nodes]
        self._labels: List[str] = [structure.edge_label(node) for node in structure.nodes]
        self._children: List[Dict[str, int]] = [
            {
                structure.edge_label(structure.nodes[child])[0]: child
                for child in node.children
            }
            for node in structure.nodes
        ]
        self._total_label_length = structure.total_label_length()
        # Inverse-suffix-link view for the backward-search automaton: the
        # same (u, z) preorder-range search as the CPST (Figure 6), driven
        # by plain sorted id lists instead of rank/select on S.
        self._symbol_counts = structure.symbol_counts  # length sigma+1
        self._isl_ids: List[List[int]] = [[] for _ in range(self._sigma)]
        for node in structure.nodes:
            for c in node.isl_symbols:
                self._isl_ids[c].append(node.preorder_id)
        # Numpy mirrors of the per-symbol id lists for bulk searchsorted.
        self._isl_arrays = [
            np.asarray(ids, dtype=np.int64) for ids in self._isl_ids
        ]
        self._g_prefix = np.cumsum(structure.correction_factors())

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
    def num_nodes(self) -> int:
        """``m``: kept nodes including the root."""
        return self._m

    @property
    def total_label_length(self) -> int:
        """``sum |edge(i)|`` — the Figure 7 label statistic."""
        return self._total_label_length

    def count(self, pattern: str) -> int:
        """``Count>=_l``: exact when the pattern occurs >= l times, else 0."""
        result = self.count_or_none(pattern)
        return 0 if result is None else result

    def count_or_none(self, pattern: str) -> Optional[int]:
        """Exact count when ``Count(P) >= l``; ``None`` below threshold."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return None
        node = 0
        matched = 0
        while matched < len(pattern):
            child = self._children[node].get(pattern[matched])
            if child is None:
                return None
            label = self._labels[child]
            remaining = pattern[matched : matched + len(label)]
            if not label.startswith(remaining):
                return None
            matched += len(remaining)
            node = child
        return self._counts[node]

    def is_reliable(self, pattern: str) -> bool:
        return self.count_or_none(pattern) is not None

    # Backward-search automaton over reversed patterns (preorder id
    # ranges, exactly the CPST's Figure 6 search); the engine interface
    # consumed by repro.engine.TrieBatchPlanner. Whereas count_or_none
    # walks edge labels top-down, this walks inverse suffix links
    # right-to-left — both certify the same Count>=_l semantics.

    def _links_before(self, c: int, k: int) -> int:
        """Number of inverse suffix links for ``c`` in nodes ``[0, k)``."""
        return bisect.bisect_left(self._isl_ids[c], k)

    def _start_state(self, c: int) -> Optional[Tuple[int, int]]:
        u = self._symbol_counts.item(c) + 1
        z = self._symbol_counts.item(c + 1)
        return (u, z) if u <= z else None

    def _step_state(self, state: Tuple[int, int], c: int) -> Optional[Tuple[int, int]]:
        u, z = state
        c_u = self._links_before(c, u)
        c_z = self._links_before(c, z + 1)
        if c_u == c_z:
            return None  # ISL undefined: Count(P[i..]) < l
        base = self._symbol_counts.item(c)
        return base + c_u + 1, base + c_z

    def _cnt(self, u: int, z: int) -> int:
        """Total correction factors over node ids [u, z] (paper Lemma 3)."""
        high = int(self._g_prefix[z])
        low = int(self._g_prefix[u - 1]) if u > 0 else 0
        return high - low

    def start(self, ch: str) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._start_state(c)

    def step(
        self, state: Tuple[int, int], ch: str
    ) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._step_state(state, c)

    def count_state(self, state: Optional[Tuple[int, int]]) -> int:
        return 0 if state is None else self._cnt(state[0], state[1])

    def step_many(self, states, ch):
        """Bulk ISL step: both preorder-range boundaries of every interval
        resolve through one ``np.searchsorted`` over the symbol's id list."""
        c = self._alphabet.code(ch)
        if c is None:
            return [None] * len(states)
        arr = pack_interval_states(states)
        ids = self._isl_arrays[c]
        c_u = np.searchsorted(ids, arr[:, 0], side="left")
        c_z = np.searchsorted(ids, arr[:, 1] + 1, side="left")
        base = int(self._symbol_counts[c])
        return unpack_interval_states(base + c_u + 1, base + c_z, c_u != c_z)

    def capabilities(self) -> AutomatonCapabilities:
        # Pointer/bisect navigation: no succinct rank structures touched
        # (bulk stepping is a single searchsorted over the id lists).
        return AutomatonCapabilities(lower_sided=True, threshold=self._l)

    # -- frequent-substring mining -------------------------------------------

    def iter_frequent(self, min_length: int = 1):
        """Yield ``(substring, count)`` for every *right-maximal* substring
        occurring at least ``l`` times (= path label of a kept node).

        Every frequent substring is a prefix of one of these (strings
        ending mid-edge share the count of the node below), so this is the
        canonical enumeration for frequent-substring mining. Preorder.
        """
        stack: List[tuple[int, str]] = [(0, "")]
        while stack:
            node, label = stack.pop()
            if len(label) >= min_length and node != 0:
                yield label, self._counts[node]
            # Reverse-sorted push keeps preorder (lexicographic) emission.
            for child in sorted(self._children[node].values(), reverse=True):
                stack.append((child, label + self._labels[child]))

    def most_frequent(self, k: int, min_length: int = 1) -> List[tuple[str, int]]:
        """The ``k`` most frequent right-maximal substrings of length >=
        ``min_length`` (ties broken lexicographically)."""
        ranked = sorted(
            self.iter_frequent(min_length), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Classical layout model (see module docstring and DESIGN.md)."""
        node_ptr_bits = bits_needed(max(1, self._m - 1))
        value_bits = bits_needed(self._text_length + 1)
        symbol_bits = bits_needed(max(1, self._sigma - 1))
        per_node = 2 * node_ptr_bits + 2 * value_bits  # pointers + count + label length
        return SpaceReport(
            name=f"PST-{self._l}",
            components={
                "nodes": self._m * per_node,
                "edge_labels": self._total_label_length * symbol_bits,
            },
        )

    def __repr__(self) -> str:
        return (
            f"PrunedSuffixTree(n={self._text_length}, sigma={self._sigma}, "
            f"l={self._l}, m={self._m}, labels={self._total_label_length})"
        )
