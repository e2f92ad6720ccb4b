"""Pruned Patricia trie with blind search (paper Section 7.1).

The "known techniques" alternative the paper's related-work section
analyses: keep one suffix out of every ``h = l/2`` in lexicographic order,
build a Patricia trie over the sampled set (branching symbols and skip
values only — no edge labels), and answer a query with *blind search*:
descend matching only the single branching symbol stored per edge, then
report ``(sampled leaves under the landing node) * h``.

Guarantee (weaker than both paper contributions, as the paper stresses):
when ``Count(P) >= h`` the suffix-array interval of ``P`` contains at least
one sampled suffix, blind search lands on the node of the sampled subset
prefixed by ``P``, and the report is within ``l`` of the truth. When
``Count(P) < h`` the answer may be arbitrarily wrong — without the original
text the structure cannot even detect the failure, which is exactly the
paper's criticism. Space is ``Theta((n/l) log n)`` bits: above the
``O((n/l) log(sigma*l))`` optimum of Theorem 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from ..bits import bits_needed
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError
from ..sa.rmq import RangeMinimum
from ..space import SpaceReport
from ..suffixtree.intervals import lcp_intervals
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class PrunedPatriciaTrie(OccurrenceEstimator):
    """Blind-search baseline over every (l/2)-th suffix in lex order."""

    error_model = ErrorModel.UNIFORM  # only valid when Count(P) >= l/2

    def __init__(self, text: "BuildContext | Text | str", l: int):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext` (consumes its memoised suffix
        and LCP arrays)."""
        from ..build import BuildContext

        if l < 2 or l % 2:
            raise InvalidParameterError(
                f"Patricia threshold l must be an even integer >= 2, got {l}"
            )
        ctx = BuildContext.of(text)
        text = ctx.text
        self._l = l
        self._h = l // 2
        self._alphabet = text.alphabet
        self._sigma = text.sigma
        self._text_length = len(text)
        data = text.data
        sa, lcp = ctx.sa, ctx.lcp
        rmq = RangeMinimum(lcp)
        ranks = np.arange(0, sa.size, self._h, dtype=np.int64)
        num_samples = int(ranks.size)
        sampled_lcp = np.zeros(num_samples, dtype=np.int64)
        for i in range(1, num_samples):
            # lcp of sampled suffixes i-1, i = min of full LCP between them.
            sampled_lcp[i] = rmq.query(int(ranks[i - 1]) + 1, int(ranks[i]) + 1)
        self._build(data, sa, ranks, sampled_lcp)

    def _build(
        self,
        data: np.ndarray,
        sa: np.ndarray,
        ranks: np.ndarray,
        sampled_lcp: np.ndarray,
    ) -> None:
        intervals = sorted(lcp_intervals(sampled_lcp), key=lambda x: (x[1], -x[2]))
        num_internal = len(intervals)
        num_samples = int(ranks.size)
        n_rows = int(sa.size)
        # Node arrays: internal nodes first (preorder), then one leaf per
        # sampled suffix. depth of a leaf = full length of its suffix.
        self._depths: List[int] = [d for d, _, __ in intervals]
        self._leaf_counts: List[int] = [rb - lb + 1 for _, lb, rb in intervals]
        self._children: List[Dict[int, int]] = [{} for _ in range(num_internal)]
        self._num_internal = num_internal
        self._num_samples = num_samples
        bounds = [(lb, rb) for _, lb, rb in intervals]

        def suffix_symbol(sample: int, offset: int) -> int:
            start = int(sa[ranks[sample]]) + offset
            return int(data[start]) if start < n_rows else 0

        # Internal parent/child links via a preorder stack.
        stack: List[int] = []
        for node_id, (depth, lb, rb) in enumerate(intervals):
            while stack and not (
                bounds[stack[-1]][0] <= lb and rb <= bounds[stack[-1]][1]
            ):
                stack.pop()
            if stack:
                parent = stack[-1]
                symbol = suffix_symbol(lb, self._depths[parent])
                self._children[parent][symbol] = node_id
            stack.append(node_id)

        # Attach leaves to their deepest containing internal node.
        for sample in range(num_samples):
            node = 0
            while True:
                deeper = None
                # Scan candidate children intervals containing this sample
                # (skipping already-attached leaves, which are singletons
                # belonging to other samples).
                for child_id in self._children[node].values():
                    if child_id >= num_internal:
                        continue
                    clb, crb = bounds[child_id]
                    if clb <= sample <= crb:
                        deeper = child_id
                        break
                if deeper is None:
                    break
                node = deeper
            symbol = suffix_symbol(sample, self._depths[node])
            leaf_id = num_internal + sample
            suffix_length = n_rows - int(sa[ranks[sample]])
            self._depths.append(suffix_length)
            self._leaf_counts.append(1)
            self._children.append({})
            self._children[node][symbol] = leaf_id

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
        """Total trie nodes: internal nodes plus sampled-suffix leaves."""
        return len(self._depths)

    def count(self, pattern: str) -> int:
        """Blind-search estimate: sampled leaves under the landing node,
        scaled by the sampling rate ``l/2``."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0
        node = 0
        while True:
            depth = self._depths[node]
            if len(encoded) <= depth:
                return self._leaf_counts[node] * self._h
            child = self._children[node].get(int(encoded[depth]))
            if child is None:
                return 0
            node = child

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Layout model: per node a skip/depth and a leaf count (``log n``
        each); per edge a pointer (``log #nodes``) and a branching symbol."""
        total_nodes = self.num_nodes
        value_bits = bits_needed(self._text_length + 1)
        ptr_bits = bits_needed(max(1, total_nodes - 1))
        symbol_bits = bits_needed(max(1, self._sigma - 1))
        num_edges = total_nodes - 1
        return SpaceReport(
            name=f"PatriciaTrie-{self._l}",
            components={
                "nodes": total_nodes * 2 * value_bits,
                "edges": num_edges * (ptr_bits + symbol_bits),
            },
        )

    def __repr__(self) -> str:
        return (
            f"PrunedPatriciaTrie(n={self._text_length}, l={self._l}, "
            f"samples={self._num_samples}, nodes={self.num_nodes})"
        )
