"""Trie-planned batch execution of backward-search automata.

Because an automaton state depends only on the pattern *suffix* consumed
so far, a workload of patterns is really a **trie of reversed patterns**:
two patterns sharing a suffix share a trie path, and each trie edge costs
exactly one automaton step. :class:`TrieBatchPlanner` walks that virtual
trie breadth-first without building it: the frontier grows one depth at
a time, the batch's distinct unknown suffixes of that depth are grouped
by the symbol they consume, and each group fires one ``step_many`` wave,
so every shared edge is stepped exactly once per batch.

The dead state (``None``) is absorbing: a pattern leaves the frontier at
its first dead suffix, so it costs its *death depth* — the length of its
shortest dead suffix — not its length: a 20,000-symbol probe that falls
below a CPST's threshold after ten symbols takes ten steps and caches ten
suffix keys of at most ten symbols.

Two caches back the walk, with deliberately different lifetimes:

* a **state cache** (suffix → automaton state) bounded by an LRU budget
  (``max_states``): cross-batch reuse without unbounded growth;
* a **result memo** (pattern → final value), *unbounded by design*:
  results are the answers callers asked for, and evicting states must
  never change answers, so the two are managed independently. Call
  :meth:`clear` per workload to reset both.

The planner owns the engine's single deadline code path: one cooperative
:meth:`~repro.service.deadline.Deadline.check` per wave, so the serving
layer, the selectivity estimators and ad-hoc batch callers all inherit
the same tail-latency bound. Every unit of work is counted in an
:class:`~repro.engine.stats.EngineStats` instance (:attr:`stats`).

Thread-safety contract
----------------------
Every public method of :class:`TrieBatchPlanner` serialises on one
internal re-entrant lock: concurrent callers over a *shared* planner are
correct but run one at a time (the frontier, the LRU order and the stats
counters are all mutated during a walk, and interleaving them would
corrupt the trie traversal). Parallelism in the serving layer therefore
comes from *distinct* planners — one per tier — with per-tier bulkheads
bounding how many callers contend for each lock. The wrapped automaton is
only ever driven under the lock, so automata need no locking of their
own.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set

from ..errors import DeadlineExceededError, InvalidParameterError, PatternError
from .automaton import BackwardSearchAutomaton, automaton_of
from .stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only (service imports engine)
    from ..service.deadline import Deadline

#: Below this wave width the fixed per-call overhead of a ``step_many``
#: kernel (array packing, masked gathers) outweighs the per-state saving,
#: so narrower waves are stepped one state at a time. The crossover sits
#: in the mid-teens for every index family (see
#: benchmarks/test_engine_bench.py); answers are identical either way.
#: Read on every wave, so a test can patch it to 1 to push every wave
#: through ``step_many``.
WAVE_WIDTH_MIN = 16


class TrieBatchPlanner:
    """Shared-work executor for one :class:`BackwardSearchAutomaton`.

    ``max_states`` bounds the state cache (LRU); ``None`` means unbounded.
    ``stats`` lets callers share one counter across planners; by default
    each planner owns a fresh :class:`EngineStats`. ``lock`` is the lock
    its calls run under (by default its own), so a caller that writes the
    shared counter too can guard it with the same one.
    """

    def __init__(
        self,
        automaton: BackwardSearchAutomaton,
        *,
        max_states: Optional[int] = 4096,
        stats: Optional[EngineStats] = None,
        lock: Optional[threading.RLock] = None,
    ):
        if not isinstance(automaton, BackwardSearchAutomaton):
            raise InvalidParameterError(
                f"TrieBatchPlanner needs a BackwardSearchAutomaton, "
                f"got {type(automaton).__name__}"
            )
        if max_states is not None and max_states < 1:
            raise InvalidParameterError("max_states must be positive")
        self._automaton = automaton
        self._caps = automaton.capabilities()
        self._max_states = max_states
        self._lock = lock if lock is not None else threading.RLock()
        #: suffix string -> automaton state (None = dead), LRU order.
        self._states: "OrderedDict[str, Optional[Hashable]]" = OrderedDict()
        #: pattern -> finalised value (None = dead state); never evicted.
        self._results: Dict[str, Optional[int]] = {}
        self.stats = stats if stats is not None else EngineStats()
        #: wave width -> number of step_many waves of that width.
        self.bulk_widths: Counter = Counter()

    @property
    def automaton(self) -> BackwardSearchAutomaton:
        """The automaton this planner drives."""
        return self._automaton

    @property
    def capabilities(self):
        """The automaton's :class:`AutomatonCapabilities` descriptor."""
        return self._caps

    def clear(self) -> None:
        """Drop both caches (states *and* memoised results)."""
        with self._lock:
            self._states.clear()
            self._results.clear()

    # -- public counting surface --------------------------------------------

    def count(self, pattern: str, deadline: "Deadline | None" = None) -> int:
        """Same value as the index's ``count(pattern)``, with sharing."""
        with self._lock:
            value = self._values_many([pattern], deadline)[0]
        return 0 if value is None else value

    def count_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[int]:
        """Batch counting: one result per pattern, in order."""
        with self._lock:
            values = self._values_many(patterns, deadline)
        return [0 if value is None else value for value in values]

    def count_or_none(
        self, pattern: str, deadline: "Deadline | None" = None
    ) -> Optional[int]:
        """Certified count or ``None``; lower-sided automata only."""
        with self._lock:
            return self._require_lower_sided()._values_many([pattern], deadline)[0]

    def count_or_none_many(
        self, patterns: Sequence[str], deadline: "Deadline | None" = None
    ) -> List[Optional[int]]:
        """Batch variant of :meth:`count_or_none`."""
        with self._lock:
            return self._require_lower_sided()._values_many(patterns, deadline)

    def _require_lower_sided(self) -> "TrieBatchPlanner":
        if not self._caps.lower_sided:
            raise PatternError(
                f"{type(self._automaton).__name__} has no lower-sided interface"
            )
        return self

    # -- the trie walk -------------------------------------------------------

    def _values_many(
        self, patterns: Sequence[str], deadline: "Deadline | None"
    ) -> List[Optional[int]]:
        """Walk the virtual trie of the unanswered patterns; read every
        answer from the result memo.

        Every walking pattern looks up its suffix of the new depth, the
        batch's distinct unknown suffixes are grouped by the symbol they
        consume, and each group fires one wave. LRU accounting: a pattern
        probes the cache only until its first miss, and never for a
        suffix an earlier pattern of the batch already resolved; one
        insert per stepped suffix.
        """
        for pattern in patterns:
            if not isinstance(pattern, str) or not pattern:
                raise PatternError("pattern must be a non-empty string")
        distinct = set(patterns)
        # Reverse-lexicographic order keeps shared suffixes adjacent.
        walking = sorted(
            (pattern for pattern in distinct if pattern not in self._results),
            key=lambda p: p[::-1],
        )
        self.stats.patterns += len(distinct)
        self.stats.result_cache_hits += len(distinct) - len(walking)
        pending: Dict[str, Optional[Hashable]] = {}  # batch-local suffix states
        probing = set(walking)  # patterns that have not missed the cache yet
        depth = 0
        while walking:
            depth += 1
            suffixes = [pattern[-depth:] for pattern in walking]
            waves: Dict[str, List[str]] = {}
            stepping: Set[str] = set()
            for pattern, suffix in zip(walking, suffixes):
                if suffix in pending or suffix in stepping:
                    continue  # resolved through an earlier pattern
                if pattern in probing:
                    cached = self._lookup_state(suffix)
                    if cached is not _MISS:
                        pending[suffix] = cached
                        continue
                    probing.discard(pattern)
                stepping.add(suffix)
                waves.setdefault(suffix[0], []).append(suffix)
            for ch in sorted(waves):
                self._run_wave(ch, waves[ch], depth, pending, deadline)
            still: List[str] = []
            for pattern, suffix in zip(walking, suffixes):
                state = pending[suffix]
                if state is not None and depth < len(pattern):
                    still.append(pattern)
                else:
                    self._results[pattern] = (
                        None if state is None else self._automaton.count_state(state)
                    )
            walking = still
        return [self._results[pattern] for pattern in patterns]

    def _run_wave(
        self,
        ch: str,
        members: List[str],
        depth: int,
        pending: Dict[str, Optional[Hashable]],
        deadline: "Deadline | None",
    ) -> None:
        """Step every member suffix (all of one depth, all starting with
        ``ch``) from its live parent ``suffix[1:]``."""
        if deadline is not None:
            self._check_deadline(deadline)
        if depth == 1:
            # The depth-1 frontier for symbol `ch` is the single suffix `ch`.
            stepped = [self._automaton.start(ch)]
            self.stats.automaton_starts += 1
            self.stats.rank_calls += self._caps.rank_ops_per_step
        else:
            parents = [pending[suffix[1:]] for suffix in members]
            width = len(parents)
            if width < WAVE_WIDTH_MIN:
                # Too narrow to amortise the bulk kernel's fixed cost:
                # step one state at a time (plain step stats).
                stepped = [self._automaton.step(parent, ch) for parent in parents]
            else:
                stepped = self._automaton.step_many(parents, ch)
                self.stats.bulk_calls += 1
                self.stats.bulk_states += width
                self.bulk_widths[width] += 1
            self.stats.automaton_steps += width
            self.stats.rank_calls += self._caps.rank_ops_per_step * width
        for suffix, state in zip(members, stepped):
            pending[suffix] = state
            self._remember_state(suffix, state)

    def _check_deadline(self, deadline: "Deadline") -> None:
        self.stats.deadline_checks += 1
        try:
            deadline.check()
        except DeadlineExceededError:
            self.stats.deadline_aborts += 1
            raise

    def _lookup_state(self, suffix: str):
        states = self._states
        if suffix in states:
            states.move_to_end(suffix)
            self.stats.state_cache_hits += 1
            return states[suffix]
        self.stats.state_cache_misses += 1
        return _MISS

    def _remember_state(self, suffix: str, state: Optional[Hashable]) -> None:
        states = self._states
        if suffix in states:
            states.move_to_end(suffix)
        states[suffix] = state
        if self._max_states is not None:
            while len(states) > self._max_states:
                states.popitem(last=False)
                self.stats.state_cache_evictions += 1


#: Cache-miss sentinel (``None`` is a valid — dead — cached state).
_MISS = object()


def planner_for(index, **kwargs) -> Optional[TrieBatchPlanner]:
    """A planner for ``index``'s automaton, or ``None`` if it has none."""
    automaton = automaton_of(index)
    if automaton is None:
        return None
    return TrieBatchPlanner(automaton, **kwargs)
