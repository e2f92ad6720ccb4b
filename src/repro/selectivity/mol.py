"""The MOL estimator: maximal overlap on the pattern lattice.

Paper Section 7.2: MOL "performs a more thorough search of substrings of
the pattern" by working on the lattice ``L_P`` whose nodes are all the
substrings of ``P``; the *l-parent* of ``a·alpha·b`` is ``alpha·b`` and the
*r-parent* is ``a·alpha``. Nodes found in the underlying data structure get
their exact probability ``Pr(alpha) = Count(alpha)/N``; every other node is
filled in bottom-up with the maximal-overlap rule

    Pr(a·alpha·b) = Pr(a·alpha) * Pr(alpha·b) / Pr(alpha)

(the maximal overlap of the two parents is exactly ``alpha``). The top of
the lattice yields ``Pr(P)``.

Complexity: the lattice of ``P[1,p]`` has ``O(p^2)`` nodes, each filled in
O(1) from the counts of one batched oracle pass — well within budget for
the short LIKE predicates selectivity estimation targets.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import SelectivityEstimator

_Span = Tuple[int, int]  # substring P[i:j] as (i, j)


class MOLEstimator(SelectivityEstimator):
    """Lattice-based maximal-overlap estimator (the paper's best performer)."""

    def _estimate_probability(self, pattern: str) -> float:
        p = len(pattern)
        counts = self._lattice_counts(pattern)
        normalizer = self.normalizer
        probability: Dict[_Span, float] = {}
        # Bottom-up by substring length; length-0 spans act as Pr = 1
        # (the overlap of two adjacent characters is empty).
        for length in range(1, p + 1):
            for i in range(0, p - length + 1):
                j = i + length
                count = counts[pattern[i:j]]
                if count is not None:
                    probability[(i, j)] = count / normalizer
                elif length == 1:
                    probability[(i, j)] = self._default_probability()
                else:
                    probability[(i, j)] = self._infer(
                        probability[(i, j - 1)],
                        probability[(i + 1, j)],
                        probability[(i + 1, j - 1)] if length > 2 else 1.0,
                    )
        return probability[(0, p)]

    def _infer(self, r_parent: float, l_parent: float, overlap: float) -> float:
        """Probability of a node the index cannot certify, from its
        r-parent ``a·alpha``, l-parent ``alpha·b`` and their overlap
        ``alpha`` (the maximal-overlap rule)."""
        if overlap <= 0.0:
            return 0.0
        return r_parent * l_parent / overlap

    def _lattice_counts(self, pattern: str) -> Dict[str, Optional[int]]:
        """Certified count (or ``None``) of every lattice node, shortest
        first, from one oracle pass: the fragments overlap heavily, and
        the engine's trie planner answers them in shared-suffix order
        rather than estimation order."""
        p = len(pattern)
        return self._oracle.prime(
            pattern[i : i + length]
            for length in range(1, p + 1)
            for i in range(0, p - length + 1)
        )

    def lattice_probabilities(self, pattern: str) -> Dict[str, float]:
        """Probabilities of the certified lattice nodes (diagnostics/examples)."""
        normalizer = self.normalizer
        return {
            fragment: count / normalizer
            for fragment, count in self._lattice_counts(pattern).items()
            if count is not None
        }
