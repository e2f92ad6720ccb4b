"""Batched counting with shared backward-search work.

.. deprecated::
    This module is the *compatibility facade* over the engine layer — the
    protocol, planner and statistics now live in :mod:`repro.engine` (see
    ``docs/API.md``, section "repro.engine"). :class:`SuffixSharingCounter`
    remains supported, but new code should use
    :class:`repro.engine.TrieBatchPlanner` (via
    :func:`repro.engine.planner_for`) directly. The underscore automaton
    protocol (``_automaton_start/_automaton_step/_automaton_count``) this
    module used to consume is deprecated in favour of the typed
    :class:`repro.engine.BackwardSearchAutomaton` ABC and will be removed.

Every backward-search-style index in this library is a deterministic
automaton over the *reversed* pattern: the search state after consuming
``P[i:]`` depends only on that suffix. Batches of patterns therefore share
work through common suffixes — e.g. the Figure 9 workload (many patterns
sampled from one text) repeats suffixes constantly, and the MOL lattice
probes all ``O(p^2)`` substrings of one pattern, whose suffix sets overlap
heavily. :class:`SuffixSharingCounter` delegates that sharing to a
:class:`~repro.engine.planner.TrieBatchPlanner`; indexes without an
automaton view fall back to counting whole patterns, unmemoised.

Counting methods accept an optional cooperative
:class:`~repro.service.deadline.Deadline`, checked once per automaton
extension inside the engine, so a query over a pathological pattern aborts
with :class:`~repro.errors.DeadlineExceededError` mid-search instead of
running to completion — the hook the serving layer (:mod:`repro.service`)
uses to keep tail latency bounded.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

from .core.interface import OccurrenceEstimator
from .engine import EngineStats, TrieBatchPlanner, automaton_of
from .errors import InvalidParameterError, PatternError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service uses batch)
    from .service.deadline import Deadline


class SuffixSharingCounter:
    """Memoising batch counter over one index.

    Cache-growth contract
    ---------------------
    Two caches with different lifetimes back the counter:

    * the **state cache** (pattern suffix → automaton state) is bounded by
      ``max_states`` via LRU eviction (``None`` = unbounded). Eviction
      affects only how much work future patterns can reuse — it **never
      changes an answer** and never drops memoised results;
    * the **result memo** (pattern → final count) grows with the number of
      distinct patterns seen and is *unbounded by design*: results are the
      answers callers asked for. Long-lived callers counting unbounded
      pattern streams must call :meth:`clear` at workload boundaries (the
      serving tiers do this per feasibility probe).

    Both caches belong to the planner; an index without an automaton
    view is counted whole-pattern with nothing cached, so a mutating
    index (a live corpus, a daemon) is never served a stale count.

    :meth:`clear` drops both caches.
    """

    def __init__(
        self,
        index: OccurrenceEstimator,
        max_states: int | None = None,
        *,
        vectorize: Optional[bool] = None,
    ):
        if max_states is not None and max_states < 1:
            raise InvalidParameterError("max_states must be positive")
        self._index = index
        automaton = automaton_of(index)
        self._planner: Optional[TrieBatchPlanner] = (
            None
            if automaton is None
            else TrieBatchPlanner(
                automaton, max_states=max_states, vectorize=vectorize
            )
        )
        self._fallback_stats = EngineStats()
        # The planner path serialises on the planner's own lock; this lock
        # gives the whole-pattern fallback path the same guarantee.
        self._fallback_lock = threading.RLock()

    @property
    def index(self) -> OccurrenceEstimator:
        """The wrapped index."""
        return self._index

    @property
    def planner(self) -> Optional[TrieBatchPlanner]:
        """The engine planner driving this counter (``None`` on the
        fallback path for indexes without an automaton view)."""
        return self._planner

    @property
    def stats(self) -> EngineStats:
        """Engine work counters accumulated by this counter."""
        if self._planner is not None:
            return self._planner.stats
        return self._fallback_stats

    @property
    def _states(self) -> Dict[str, Optional[Hashable]]:
        """The state cache (read-mostly; exposed for tests/diagnostics)."""
        if self._planner is not None:
            return self._planner._states
        return {}

    @property
    def _results(self) -> Dict[str, Optional[int]]:
        """The result memo (read-mostly; exposed for tests/diagnostics)."""
        if self._planner is not None:
            return self._planner._results
        return {}

    def clear(self) -> None:
        """Drop all memoised state (both caches; see class docstring)."""
        if self._planner is not None:
            self._planner.clear()

    def count(self, pattern: str, deadline: "Deadline | None" = None) -> int:
        """Same result as ``index.count(pattern)``, with suffix sharing."""
        if self._planner is not None:
            return self._planner.count(pattern, deadline)
        return self._fallback_count(pattern, deadline)

    def count_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[int]:
        """Batch counting: one result per pattern, in order."""
        if self._planner is not None:
            return self._planner.count_many(patterns, deadline)
        return [self._fallback_count(p, deadline) for p in patterns]

    def count_or_none(
        self, pattern: str, deadline: "Deadline | None" = None
    ) -> Optional[int]:
        """Lower-sided view with sharing: ``None`` exactly when the wrapped
        index's ``count_or_none`` would return ``None``.

        Requires a lower-sided index (a dead/``None`` automaton state is
        precisely the below-threshold outcome for the CPST family). An
        index whose automaton is *not* lower-sided (e.g. the sharded
        product automaton) but which implements ``count_or_none`` itself
        is served through that direct interface instead.
        """
        if self._planner is not None and self._planner.capabilities.lower_sided:
            return self._planner.count_or_none(pattern, deadline)
        if not hasattr(self._index, "count_or_none"):
            raise PatternError(
                f"{type(self._index).__name__} has no lower-sided interface"
            )
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        with self._fallback_lock:
            if deadline is not None:
                self._fallback_stats.deadline_checks += 1
                deadline.check()
            self._fallback_stats.patterns += 1
            if self._index.accepts_deadline:
                return self._index.count_or_none(pattern, deadline)  # type: ignore[attr-defined]
            return self._index.count_or_none(pattern)  # type: ignore[attr-defined]

    def count_or_none_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[Optional[int]]:
        """Batch variant of :meth:`count_or_none`: one certified count (or
        ``None``) per pattern, in order, sharing suffix work across the
        batch on the planner path."""
        if self._planner is not None and self._planner.capabilities.lower_sided:
            return self._planner.count_or_none_many(patterns, deadline)
        return [self.count_or_none(pattern, deadline) for pattern in patterns]

    def _fallback_count(self, pattern: str, deadline: "Deadline | None") -> int:
        """Whole-pattern counting for indexes without an automaton.

        Nothing is memoised: such an index may be a live corpus or a
        daemon whose answers change under mutation.
        """
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        with self._fallback_lock:
            self._fallback_stats.patterns += 1
            if deadline is not None:
                self._fallback_stats.deadline_checks += 1
                deadline.check()
            if self._index.accepts_deadline:
                return self._index.count(pattern, deadline)  # type: ignore[call-arg]
            return self._index.count(pattern)
