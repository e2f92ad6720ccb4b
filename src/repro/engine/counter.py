"""One counter for any index: the planner where there is an automaton,
the index's own counting where there is not.

Every served, sharded and estimated count goes through
:class:`IndexCounter`: the serving tiers, the shard slots, the daemon's
workers, the selectivity oracle, ``OccurrenceEstimator.count_many`` and
``repro count``. It is the one place that chooses between a
:class:`~repro.engine.planner.TrieBatchPlanner` walk and a direct call of
the index.

Counting methods accept an optional cooperative
:class:`~repro.service.deadline.Deadline`: the planner checks it once per
wave, so a query over a pathological pattern aborts with
:class:`~repro.errors.DeadlineExceededError` mid-search instead of
running to completion; the whole-pattern side checks it once per call
and also passes it on to an index whose ``accepts_deadline`` is set.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..core.interface import ErrorModel
from ..errors import PatternError
from .planner import TrieBatchPlanner, planner_for
from .stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only (service imports engine)
    from ..service.deadline import Deadline

# How count_or_none certifies; picked once, at construction.
_PLANNER = "planner"  # a lower-sided automaton: the planner's count_or_none
_INDEX = "index"  # the index's own count_or_none
_COUNT = "count"  # an exact automaton or an EXACT index: the count itself


class IndexCounter:
    """Counts over one index, through the trie planner when it has an
    automaton and whole-pattern otherwise.

    ``count`` / ``count_many`` walk the planner when the index has a
    backward-search automaton and call ``index.count`` otherwise.
    ``count_or_none`` / ``count_or_none_many`` (a certified count or
    ``None``) follow one rule, first match wins:

    1. a lower-sided automaton: the planner's ``count_or_none``;
    2. the index's own ``count_or_none`` (the shard fan-outs, the q-gram
       and combined indexes, the live corpus);
    3. an exact automaton: the planner's ``count``;
    4. an ``EXACT`` index: its ``count``;
    5. anything else cannot certify, and is refused with
       :class:`~repro.errors.PatternError`.

    Step 2 comes before step 3 so that a sharded estimator certifies
    through its fan-out, which sees quarantine when it is called, while
    the planner read the product automaton's capabilities once, at
    construction.

    The planner side memoises states (bounded by ``max_states``, LRU) and
    results (unbounded; :meth:`clear` drops both). The whole-pattern side
    caches nothing, since such an index may be a live corpus or a daemon
    whose answers change under mutation, and serialises its calls on one
    lock, as the planner does.

    An index whose automaton view belongs to its current shard set (a
    sharded estimator) exposes a ``shard_version`` that quarantine,
    readmission and shard replacement move. When it has moved since the
    planner was built, the next call rebuilds the planner and the rule
    over the live shard set, dropping the old automata and memo; the
    engine counters carry on.
    """

    def __init__(self, index, max_states: Optional[int] = 4096):
        self._index = index
        self._max_states = max_states
        # One set of counters, behind one lock, for both sides: a sharded
        # estimator has a planner yet certifies through its fan-out (step 2
        # of the rule).
        self._stats = EngineStats()
        self._lock = threading.RLock()
        self._bind()

    def _bind(self) -> None:
        """Build the planner and pick the certification rule over the
        index's automaton view as it is now."""
        index = self._index
        # Read before the automaton is built, so a move in between leaves
        # the stored version behind and the next call rebinds again; stored
        # last, so a caller that sees it also sees the planner built for it.
        version = getattr(index, "shard_version", None)
        self._planner = planner_for(
            index, max_states=self._max_states, stats=self._stats,
            lock=self._lock,
        )
        caps = None if self._planner is None else self._planner.capabilities
        if caps is not None and caps.lower_sided:
            self._certify: Optional[str] = _PLANNER
        elif hasattr(index, "count_or_none"):
            self._certify = _INDEX
        elif (caps is not None and caps.exact) or getattr(
            index, "error_model", None
        ) is ErrorModel.EXACT:
            self._certify = _COUNT
        else:
            self._certify = None
        self._version = version

    def _follow(self) -> None:
        """Rebind once the index's shard set has moved since :meth:`_bind`
        (each counting method checks inline first: an unversioned index
        pays one attribute test per call)."""
        with self._lock:
            if self._index.shard_version != self._version:
                self._bind()

    @property
    def planner(self) -> Optional[TrieBatchPlanner]:
        """The planner driving this counter (``None`` for an index
        without an automaton view)."""
        return self._planner

    @property
    def certifies(self) -> bool:
        """Whether :meth:`count_or_none` answers (steps 1-4 of the rule)
        rather than refusing."""
        return self._certify is not None

    @property
    def stats(self) -> EngineStats:
        """Engine work counters, one set that the planner and the
        whole-pattern side both write (the planner's own ``stats``)."""
        return self._stats

    def clear(self) -> None:
        """Drop the planner's state cache and result memo."""
        if self._planner is not None:
            self._planner.clear()

    def count(self, pattern: str, deadline: "Deadline | None" = None) -> int:
        """Same result as ``index.count(pattern)``."""
        if self._version is not None and self._index.shard_version != self._version:
            self._follow()
        if self._planner is not None:
            return self._planner.count(pattern, deadline)
        return self._ask("count", pattern, deadline)

    def count_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[int]:
        """Batch counting: one result per pattern, in order."""
        if self._version is not None and self._index.shard_version != self._version:
            self._follow()
        if self._planner is not None:
            return self._planner.count_many(patterns, deadline)
        return [self._ask("count", pattern, deadline) for pattern in patterns]

    def count_or_none(
        self, pattern: str, deadline: "Deadline | None" = None
    ) -> Optional[int]:
        """The certified count of ``pattern``, or ``None`` when the index
        cannot certify it (see the class docstring for the rule)."""
        if self._version is not None and self._index.shard_version != self._version:
            self._follow()
        if self._certify == _PLANNER:
            return self._planner.count_or_none(pattern, deadline)  # type: ignore[union-attr]
        if self._certify == _INDEX:
            return self._ask("count_or_none", pattern, deadline)
        if self._certify == _COUNT:
            return self.count(pattern, deadline)
        raise self._cannot_certify()

    def count_or_none_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[Optional[int]]:
        """Batch variant of :meth:`count_or_none`: one certified count (or
        ``None``) per pattern, in order."""
        if self._version is not None and self._index.shard_version != self._version:
            self._follow()
        if self._certify == _PLANNER:
            return self._planner.count_or_none_many(patterns, deadline)  # type: ignore[union-attr]
        if self._certify == _INDEX:
            return [
                self._ask("count_or_none", pattern, deadline)
                for pattern in patterns
            ]
        if self._certify == _COUNT:
            return self.count_many(patterns, deadline)  # type: ignore[return-value]
        raise self._cannot_certify()

    def _cannot_certify(self) -> PatternError:
        return PatternError(f"{type(self._index).__name__} cannot certify counts")

    def _ask(self, method: str, pattern: str, deadline: "Deadline | None"):
        """One unmemoised whole-pattern call of ``index.<method>``."""
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        with self._lock:
            self._stats.patterns += 1
            if deadline is not None:
                self._stats.deadline_checks += 1
                deadline.check()
            call = getattr(self._index, method)
            if self._index.accepts_deadline:
                return call(pattern, deadline)
            return call(pattern)
