"""The backward-search engine: the library's central execution layer.

Every index that counts by scanning the pattern right-to-left implements
one shared abstraction — :class:`BackwardSearchAutomaton` — and one
shared executor — :class:`TrieBatchPlanner` — drives it, so suffix
sharing, LRU state budgeting, cooperative deadlines and work accounting
(:class:`EngineStats`) live in exactly one code path.

Every consumer (the serving tiers, the shard slots, the daemon workers,
the selectivity estimators, batch callers) counts through
:class:`IndexCounter`, the one place that chooses between the planner
and a direct call of an index without an automaton view. Resolve an
index to its automaton with :func:`automaton_of` (``None`` for indexes
without one), or get a ready planner with :func:`planner_for`.

The abstraction composes: :class:`repro.shard.ShardedAutomaton` is a
*product* of per-shard automata — one engine state advances ``k`` shard
states in lockstep — so trie-planned batching works unchanged over a
partitioned corpus.
"""

from .automaton import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    automaton_of,
    pack_interval_states,
    unpack_interval_states,
)
from .planner import TrieBatchPlanner, planner_for
from .stats import EngineStats
from .counter import IndexCounter

__all__ = [
    "AutomatonCapabilities",
    "BackwardSearchAutomaton",
    "EngineStats",
    "IndexCounter",
    "TrieBatchPlanner",
    "automaton_of",
    "pack_interval_states",
    "planner_for",
    "unpack_interval_states",
]
