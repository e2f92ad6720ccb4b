"""Per-query and per-workload counters for the backward-search engine.

:class:`EngineStats` is the one currency every engine layer speaks:
the planner increments it while walking the shared-suffix trie, tiers
snapshot it around each query so :class:`~repro.service.outcome.QueryOutcome`
can carry the *work* a query cost (not just its wall-clock time), and the
experiment/benchmark harness serialises it into artefacts so shared-work
gains are tracked across revisions.

Counters are plain integers; instances support ``+``/``-`` (delta
snapshots), ``merge`` (in-place accumulation) and ``as_dict`` (JSON
artefacts). ``rank_calls`` is *nominal*: steps multiplied by the
automaton's declared
:attr:`~repro.engine.automaton.AutomatonCapabilities.rank_ops_per_step`,
i.e. the succinct-structure operations the executed steps imply, not a
probe inserted into each rank call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter


@dataclass
class EngineStats:
    """Work counters for backward-search execution.

    Attributes
    ----------
    patterns:
        Queries answered (cache hits included).
    automaton_starts:
        Fresh single-symbol states created (trie roots entered).
    automaton_steps:
        Backward-search extensions actually executed. This is the
        engine's core work unit; suffix sharing shows up as *fewer*
        steps for the same workload.
    rank_calls:
        Nominal rank/select operations implied by the executed starts
        and steps (see module docstring).
    state_cache_hits / state_cache_misses:
        Lookups of memoised per-suffix states.
    state_cache_evictions:
        States dropped by the planner's LRU budget.
    result_cache_hits:
        Whole-pattern answers served from the result memo.
    deadline_checks:
        Cooperative deadline checks performed inside the step loop.
    deadline_aborts:
        Searches abandoned because the deadline expired mid-walk.
    bulk_calls:
        ``step_many`` waves fired by the planner (one per (symbol, depth)
        frontier group at least ``WAVE_WIDTH_MIN`` states wide).
    bulk_states:
        Live states advanced across all ``step_many`` waves;
        ``bulk_states / bulk_calls`` is the mean wave width, the lever
        the engine's batch throughput comes from.
    """

    patterns: int = 0
    automaton_starts: int = 0
    automaton_steps: int = 0
    rank_calls: int = 0
    state_cache_hits: int = 0
    state_cache_misses: int = 0
    state_cache_evictions: int = 0
    result_cache_hits: int = 0
    deadline_checks: int = 0
    deadline_aborts: int = 0
    bulk_calls: int = 0
    bulk_states: int = 0

    # The arithmetic walks the field names once fixed at import
    # (_COUNTERS); the serving ladder's per-attempt snapshot is the
    # tuple read ``counter_values`` below.

    def copy(self) -> "EngineStats":
        """An independent snapshot of the current counters."""
        return EngineStats(*[getattr(self, name) for name in _COUNTERS])

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Add ``other``'s counters into this instance (returns self)."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __add__(self, other: "EngineStats") -> "EngineStats":
        return self.copy().merge(other)

    def __sub__(self, other: "EngineStats") -> "EngineStats":
        """Delta snapshot: counters accumulated since ``other`` was taken."""
        return EngineStats(
            *[getattr(self, name) - getattr(other, name) for name in _COUNTERS]
        )

    def as_dict(self) -> dict:
        """Plain-dict view (stable key order) for JSON artefacts."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def summary(self) -> str:
        """One-line operator-facing description."""
        bulk = (
            f", {self.bulk_states} states in {self.bulk_calls} waves"
            if self.bulk_calls
            else ""
        )
        return (
            f"{self.patterns} patterns: {self.automaton_steps} steps "
            f"(+{self.automaton_starts} starts), {self.rank_calls} rank ops, "
            f"cache {self.state_cache_hits}h/{self.state_cache_misses}m/"
            f"{self.state_cache_evictions}e, "
            f"{self.deadline_checks} deadline checks{bulk}"
        )


_COUNTERS = tuple(f.name for f in fields(EngineStats))

#: ``counter_values(stats)``: the counters of one :class:`EngineStats` as a
#: tuple in field order, read in one C call. The serving ladder takes one
#: before and one after every tier attempt and builds an
#: :class:`EngineStats` delta only when the two differ.
counter_values = attrgetter(*_COUNTERS)
