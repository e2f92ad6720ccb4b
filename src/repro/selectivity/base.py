"""Shared infrastructure for substring selectivity estimators.

The estimators (KVI, MO, MOL) assume an underlying *lower-sided* occurrence
index that (a) answers exactly for patterns occurring at least ``l`` times
and (b) detects the below-threshold case — both provided by
:class:`~repro.core.cpst.CompactPrunedSuffixTree` and the classical
:class:`~repro.baselines.pst.PrunedSuffixTree` via ``count_or_none``.
An exact index (FM-index) also works: every count is "known". An index
that can certify neither way (``APX_l``'s uniform-error counts) is
refused.

Counts are normalised to probabilities by ``N = n`` (substring positions);
below-threshold fragments fall back to an expected count of ``(l-1)/2``
(uniform prior over the admissible range ``[0, l-1]``), a documented
modelling choice the paper leaves to the estimation layer.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..engine import EngineStats, IndexCounter
from ..errors import InvalidParameterError, PatternError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.deadline import Deadline


class CountOracle:
    """Certified counts of one index, through the engine's
    :class:`~repro.engine.IndexCounter`.

    ``known(s)`` returns the exact count of ``s`` or ``None`` when the
    index cannot certify it; ``longest_known(pattern, start)`` exploits the
    monotonicity of counts under extension (``Count(xs) <= Count(x)``, so
    "known" is prefix-closed) with a binary search over lengths. The
    counter walks the trie planner where the index has an automaton, so
    the O(p^2) lattice fragments of an estimate share their suffix work
    and the planner memoises the answers. An index the counter cannot
    certify through (neither lower-sided nor exact) is refused.
    """

    def __init__(self, index):
        self._counter = IndexCounter(index)
        if not self._counter.certifies:
            raise InvalidParameterError(
                "selectivity estimation requires an index that certifies "
                f"counts (lower-sided or exact); {type(index).__name__} "
                "does not"
            )
        self._index = index

    @property
    def threshold(self) -> int:
        return self._index.threshold

    @property
    def text_length(self) -> int:
        return self._index.text_length

    @property
    def stats(self) -> EngineStats:
        """Engine work counters for the probes issued through this oracle."""
        return self._counter.stats

    def known(
        self, fragment: str, deadline: "Deadline | None" = None
    ) -> Optional[int]:
        """Exact count of ``fragment`` when certified, else ``None``."""
        return self._counter.count_or_none(fragment, deadline)

    def prime(
        self, fragments: Iterable[str], deadline: "Deadline | None" = None
    ) -> Dict[str, Optional[int]]:
        """Answer a batch of fragments in one planner pass.

        The route-lattice estimators (KVI/MO/MOL) know most of their probe
        set up front; priming it lets the trie planner order the fragments
        for maximal suffix sharing instead of answering them in estimation
        order. Returns ``{fragment: known(fragment)}`` for every non-empty
        string fragment, so callers read the answers instead of asking
        again.
        """
        fragments = [f for f in fragments if isinstance(f, str) and f]
        if not fragments:
            return {}
        return dict(
            zip(fragments, self._counter.count_or_none_many(fragments, deadline))
        )

    def longest_known(self, pattern: str, start: int) -> int:
        """Length of the longest known fragment ``pattern[start:start+len]``
        (0 when even the single character is below threshold)."""
        lo, hi = 0, len(pattern) - start
        # "known" is prefix-closed: binary search the frontier.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.known(pattern[start : start + mid]) is not None:
                lo = mid
            else:
                hi = mid - 1
        return lo


class SelectivityEstimator(abc.ABC):
    """Base class: estimate occurrence counts for arbitrary patterns."""

    def __init__(self, index, default_count: float | None = None):
        self._oracle = CountOracle(index)
        if default_count is None:
            default_count = max(0.5, (self._oracle.threshold - 1) / 2)
        if default_count <= 0:
            raise InvalidParameterError("default_count must be positive")
        self._default_count = float(default_count)

    @property
    def normalizer(self) -> float:
        """``N``: number of substring positions used for probabilities."""
        return float(max(1, self._oracle.text_length))

    @property
    def oracle(self) -> CountOracle:
        """The memoising count oracle (shared by sub-estimates)."""
        return self._oracle

    def _probability_of_known(self, fragment: str) -> Optional[float]:
        count = self._oracle.known(fragment)
        if count is None:
            return None
        return count / self.normalizer

    def _default_probability(self) -> float:
        return self._default_count / self.normalizer

    def estimate(self, pattern: str) -> float:
        """Estimated number of occurrences of ``pattern`` (>= 0)."""
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        known = self._oracle.known(pattern)
        if known is not None:
            return float(known)
        probability = self._estimate_probability(pattern)
        return max(0.0, min(self.normalizer, probability * self.normalizer))

    def selectivity(self, pattern: str) -> float:
        """Estimated fraction of substring positions matching ``pattern``."""
        return self.estimate(pattern) / self.normalizer

    @abc.abstractmethod
    def _estimate_probability(self, pattern: str) -> float:
        """Model-specific probability for a pattern that is *not* known."""
