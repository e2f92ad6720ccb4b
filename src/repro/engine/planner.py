"""Trie-planned batch execution of backward-search automata.

Because an automaton state depends only on the pattern *suffix* consumed
so far, a workload of patterns is really a **trie of reversed patterns**:
two patterns sharing a suffix share a trie path, and each trie edge costs
exactly one automaton step. :class:`TrieBatchPlanner` materialises that
observation without building a trie: it sorts the distinct patterns by
reversed string — which makes shared suffixes adjacent — and walks the
virtual trie once with an explicit path stack, so every shared edge is
stepped exactly once per batch.

The dead state (``None``) is absorbing, and both walks treat it so: a
walk stops stepping, caching and slicing suffixes at its first dead
suffix, and the vectorized walk grows its frontier one depth at a time
from live suffixes only. A pattern therefore costs its *death depth* —
the length of its shortest dead suffix — not its length: a 20,000-symbol
probe that falls below a CPST's threshold after ten symbols takes ten
steps and caches ten suffix keys of at most ten symbols.

Two caches back the walk, with deliberately different lifetimes:

* a **state cache** (suffix → automaton state) bounded by an LRU budget
  (``max_states``): cross-batch reuse without unbounded growth;
* a **result memo** (pattern → final value), *unbounded by design*:
  results are the answers callers asked for, and evicting states must
  never change answers, so the two are managed independently. Call
  :meth:`clear` per workload to reset both.

The planner owns the engine's single deadline code path: one cooperative
:meth:`~repro.service.deadline.Deadline.check` per extension, so the
serving layer, the selectivity estimators and ad-hoc batch callers all
inherit the same tail-latency bound. Every unit of work is counted in an
:class:`~repro.engine.stats.EngineStats` instance (:attr:`stats`).

Thread-safety contract
----------------------
Every public method of :class:`TrieBatchPlanner` serialises on one
internal re-entrant lock: concurrent callers over a *shared* planner are
correct but run one at a time (the path stack, the LRU order and the
stats counters are all mutated during a walk, and interleaving them would
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
from .automaton import BackwardSearchAutomaton
from .stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only (service imports engine)
    from ..service.deadline import Deadline

#: Process-wide default for the ``vectorize`` planner knob. Flipped by the
#: CLI's ``--no-vectorize`` so every planner built downstream (tiers,
#: ladders, shard slots) inherits the scalar path without re-plumbing.
_DEFAULT_VECTORIZE = True


def set_default_vectorize(enabled: bool) -> None:
    """Set the process-wide default for planner vectorization."""
    global _DEFAULT_VECTORIZE
    _DEFAULT_VECTORIZE = bool(enabled)


def default_vectorize() -> bool:
    """Current process-wide default for planner vectorization."""
    return _DEFAULT_VECTORIZE


#: Below this wave width the fixed per-call overhead of a ``step_many``
#: kernel (array packing, masked gathers) outweighs the per-state saving,
#: so narrow waves are stepped scalarly even on the vectorized path. The
#: crossover sits in the mid-teens for every index family (see
#: benchmarks/test_engine_bench.py); answers are identical either way.
DEFAULT_WAVE_WIDTH_MIN = 16


class TrieBatchPlanner:
    """Shared-work executor for one :class:`BackwardSearchAutomaton`.

    ``max_states`` bounds the state cache (LRU); ``None`` means unbounded.
    ``stats`` lets callers share one counter across planners; by default
    each planner owns a fresh :class:`EngineStats`. ``wave_width_min``
    tunes the vectorized path's scalar fallback for narrow waves
    (``1`` forces every wave through ``step_many``).
    """

    def __init__(
        self,
        automaton: BackwardSearchAutomaton,
        *,
        max_states: Optional[int] = 4096,
        stats: Optional[EngineStats] = None,
        vectorize: Optional[bool] = None,
        wave_width_min: int = DEFAULT_WAVE_WIDTH_MIN,
    ):
        if not isinstance(automaton, BackwardSearchAutomaton):
            raise InvalidParameterError(
                f"TrieBatchPlanner needs a BackwardSearchAutomaton, "
                f"got {type(automaton).__name__}"
            )
        if max_states is not None and max_states < 1:
            raise InvalidParameterError("max_states must be positive")
        if wave_width_min < 1:
            raise InvalidParameterError("wave_width_min must be positive")
        self._automaton = automaton
        self._caps = automaton.capabilities()
        self._max_states = max_states
        self._vectorize = _DEFAULT_VECTORIZE if vectorize is None else bool(vectorize)
        self._wave_width_min = wave_width_min
        self._lock = threading.RLock()
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

    @property
    def vectorized(self) -> bool:
        """True when batches run through ``step_many`` waves (requires the
        knob *and* the automaton's ``vectorized`` capability)."""
        return self._vectorize and self._caps.vectorized

    def clear(self) -> None:
        """Drop both caches (states *and* memoised results)."""
        with self._lock:
            self._states.clear()
            self._results.clear()

    def clear_states(self) -> None:
        """Drop only the state cache; memoised results survive."""
        with self._lock:
            self._states.clear()

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
        for pattern in patterns:
            if not isinstance(pattern, str) or not pattern:
                raise PatternError("pattern must be a non-empty string")
        if self.vectorized:
            self._execute_waves(patterns, deadline)
        else:
            self._execute_scalar(patterns, deadline)
        return [self._results[pattern] for pattern in patterns]

    def _unanswered(self, patterns: Sequence[str]) -> List[str]:
        """The distinct patterns without a memoised result, in
        reverse-lexicographic order: shared suffixes sit on adjacent
        patterns, so the virtual trie is walked in one pass."""
        distinct = set(patterns)
        todo = [pattern for pattern in distinct if pattern not in self._results]
        self.stats.patterns += len(distinct)
        self.stats.result_cache_hits += len(distinct) - len(todo)
        todo.sort(key=lambda p: p[::-1])
        return todo

    def _execute_scalar(
        self, patterns: Sequence[str], deadline: "Deadline | None"
    ) -> None:
        # States along the current path; only the last one can be dead.
        stack: List[Optional[Hashable]] = []
        stack_rev = ""  # reversed prefix the stack currently spells
        for pattern in self._unanswered(patterns):
            rev = pattern[::-1]
            n = len(rev)
            depth = _common_prefix_length(rev, stack_rev)
            del stack[depth:]
            # Prefer deeper states remembered from earlier batches. A dead
            # state, shared or remembered, ends the walk: dead is absorbing.
            while depth < n and (depth == 0 or stack[-1] is not None):
                cached = self._lookup_state(pattern[n - depth - 1 :])
                if cached is _MISS:
                    break
                stack.append(cached)
                depth += 1
            while depth < n and (depth == 0 or stack[-1] is not None):
                if deadline is not None:
                    self._check_deadline(deadline)
                if depth == 0:
                    state = self._automaton.start(rev[0])
                    self.stats.automaton_starts += 1
                else:
                    state = self._automaton.step(stack[-1], rev[depth])
                    self.stats.automaton_steps += 1
                self.stats.rank_calls += self._caps.rank_ops_per_step
                stack.append(state)
                self._remember_state(pattern[n - depth - 1 :], state)
                depth += 1
            stack_rev = rev[:depth]
            state = stack[-1]
            self._results[pattern] = (
                None if state is None else self._automaton.count_state(state)
            )

    def _execute_waves(
        self, patterns: Sequence[str], deadline: "Deadline | None"
    ) -> None:
        """Breadth-first variant of the trie walk for vectorized automata.

        The frontier grows one depth per iteration from the suffixes that
        are still live: every walking pattern looks up its suffix of the
        new depth, the batch's distinct unknown suffixes are grouped by the
        symbol they consume, and each group fires one ``step_many`` wave.
        A pattern leaves the frontier at its first dead suffix (or its full
        length), so it costs its death depth, never its length. Answers,
        LRU accounting (a pattern probes the cache only until its first
        miss, and never for a suffix an earlier pattern of the batch
        already resolved; one insert per stepped suffix) and the per-wave
        deadline check all mirror the scalar walk.
        """
        pending: Dict[str, Optional[Hashable]] = {}  # batch-local suffix states
        walking = self._unanswered(patterns)
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
            if width < self._wave_width_min:
                # Too narrow to amortise the bulk kernel's fixed cost:
                # step scalarly (identical answers, plain step stats).
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


def _common_prefix_length(a: str, b: str) -> int:
    limit = min(len(a), len(b))
    k = 0
    while k < limit and a[k] == b[k]:
        k += 1
    return k


def planner_for(index, **kwargs) -> Optional[TrieBatchPlanner]:
    """A planner for ``index``'s automaton, or ``None`` if it has none."""
    from .automaton import automaton_of

    automaton = automaton_of(index)
    if automaton is None:
        return None
    return TrieBatchPlanner(automaton, **kwargs)
