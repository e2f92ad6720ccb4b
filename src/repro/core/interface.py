"""Common interface of all substring-occurrence estimators.

The paper distinguishes three error models, which :class:`ErrorModel`
captures; every index in this library (the two contributions and the three
baselines) implements :class:`OccurrenceEstimator` so that experiments and
the selectivity estimators can treat them interchangeably.

Count semantics per model, for threshold ``l`` and true count ``c``:

* ``EXACT``        — result is ``c``.
* ``UNIFORM``      — result is in ``[c, c + l - 1]``.
* ``LOWER_SIDED``  — result is ``c`` whenever ``c >= l``; otherwise the
  result is some value in ``[0, l - 1]`` (conventionally paired with
  :meth:`OccurrenceEstimator.is_reliable` to detect the below-threshold
  case when the index can).
* ``UPPER_BOUND``  — result is in ``[c, n]``: never an undercount, but with
  no additive bound. The weakest guarantee any estimator can make while
  staying sound for pruning decisions; the serving layer
  (:mod:`repro.service`) uses it for its last-resort text-statistics tier.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from ..errors import PatternError
from ..space import SpaceReport
from ..textutil import Alphabet


class ErrorModel(enum.Enum):
    """Which guarantee a count result carries (paper Section 1)."""

    EXACT = "exact"
    UNIFORM = "uniform"
    LOWER_SIDED = "lower_sided"
    UPPER_BOUND = "upper_bound"


class OccurrenceEstimator(abc.ABC):
    """A queryable index built over one text."""

    #: Error model of this index class.
    error_model: ErrorModel = ErrorModel.EXACT

    #: Whether ``count`` and ``count_or_none`` take a trailing
    #: ``deadline`` argument and honour it themselves (the sharded and
    #: live executors, whose work a single up-front check cannot bound).
    accepts_deadline: bool = False

    @property
    @abc.abstractmethod
    def alphabet(self) -> Alphabet:
        """Alphabet of the indexed text."""

    @property
    @abc.abstractmethod
    def text_length(self) -> int:
        """Length of the indexed text (sentinel excluded)."""

    @property
    def threshold(self) -> int:
        """The error threshold ``l`` (1 for exact indexes)."""
        return 1

    @abc.abstractmethod
    def count(self, pattern: str) -> int:
        """Estimated number of occurrences of ``pattern``, per the model."""

    def count_many(self, patterns: "list[str] | tuple[str, ...]") -> list[int]:
        """Batch counting: one result per pattern, in order.

        Counted by the engine's :class:`~repro.engine.IndexCounter`: the
        trie planner when the index exposes a backward-search automaton,
        so patterns with shared suffixes share work, and per-pattern
        :meth:`count` otherwise. Subclasses that intercept queries (e.g.
        the chaos wrapper) may override this to keep per-call semantics.
        """
        from ..engine import IndexCounter  # local: the engine imports this module

        return IndexCounter(self).count_many(patterns)

    @abc.abstractmethod
    def space_report(self) -> SpaceReport:
        """Bit-level size breakdown of the index."""

    def size_in_bits(self) -> int:
        """Total payload bits (shorthand for the space report total)."""
        return self.space_report().payload_bits

    def count_interval(self, pattern: str) -> "tuple[int, int]":
        """Sound ``[lo, hi]`` interval on the true count, derived from the
        error model: exact pins both ends, uniform subtracts the additive
        budget, lower-sided certifies above the threshold and brackets
        ``[0, l - 1]`` below it, upper-bound gives ``[0, count]``.
        Estimators with tighter per-query information (e.g. the sharded
        merge) override this."""
        value = int(self.count(pattern))
        t = self.threshold
        if self.error_model is ErrorModel.EXACT:
            return (value, value)
        if self.error_model is ErrorModel.UNIFORM:
            return (max(0, value - (t - 1)), value)
        if self.error_model is ErrorModel.LOWER_SIDED:
            return (value, value) if value >= t else (0, t - 1)
        return (0, value)

    def is_reliable(self, pattern: str) -> bool:
        """Whether :meth:`count` is exact for this pattern.

        Exact indexes always return True. Lower-sided indexes return True
        iff the pattern meets the threshold; uniform-error indexes can only
        guarantee reliability when even the overestimate stays below ``l``
        relative bounds, so they return False unless ``l == 1``. Upper-bound
        estimators are only exact when the bound itself is zero.
        """
        if self.error_model is ErrorModel.EXACT:
            return True
        if self.error_model is ErrorModel.LOWER_SIDED:
            return self.count(pattern) >= self.threshold
        if self.error_model is ErrorModel.UPPER_BOUND:
            return self.count(pattern) == 0
        return self.threshold == 1

    def _encode_pattern(self, pattern: str) -> np.ndarray | None:
        """Validate and encode a query pattern; ``None`` means 0 occurrences."""
        if not isinstance(pattern, str):
            raise PatternError(f"pattern must be str, got {type(pattern).__name__}")
        if not pattern:
            raise PatternError("pattern must be non-empty")
        return self.alphabet.encode_pattern(pattern)
