"""The sharded estimator: ``k`` per-shard indexes behind one interface.

:class:`ShardedEstimator` implements
:class:`~repro.core.interface.OccurrenceEstimator` over the fan-out core
(:mod:`repro.shard.fanout`), answering each round with a plain
in-process loop over the per-shard indexes — under the interpreter lock
a thread pool would run the shard searches one after another anyway, at
the cost of a dispatch per fan-out — and folding the per-shard answers
through the error algebra of :mod:`repro.shard.merge`. Every shard
search gets the caller's own :class:`~repro.service.deadline.Deadline`.
Two execution strategies produce identical scalars:

* the **fan-out path** (:meth:`ShardedEstimator.merged_count`) — the
  loop, with a per-shard :class:`~repro.engine.IndexCounter`;
* the **engine path** — :class:`ShardedAutomaton`, the product of the
  per-shard backward-search automata, exposed through the
  ``__engine_automaton__`` hook so
  :class:`~repro.engine.planner.TrieBatchPlanner` batching (and the
  serving tiers built on it) work over shards transparently.

Shard-granular fault isolation: :meth:`~ShardedEstimator.quarantine_shard`
pulls one shard out of service — its contribution degrades to the trivial
occurrence ceiling and the estimator's declared model drops to
``UPPER_BOUND`` (sound, never wrong) while the other ``k - 1`` shards keep
answering; :meth:`~ShardedEstimator.rebuild_shard` /
:meth:`~ShardedEstimator.readmit_shard` restore it. The corruption
watchdog drives those hooks through :meth:`~ShardedEstimator.convict_shards`
(per-shard differential localisation) and
:meth:`~ShardedEstimator.verify_shard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.interface import ErrorModel, OccurrenceEstimator
from ..engine import BackwardSearchAutomaton, IndexCounter, automaton_of
from ..engine.automaton import AutomatonCapabilities
from ..errors import InvalidParameterError
from ..service.deadline import Deadline
from ..space import SpaceReport
from ..textutil import Text
from .fanout import ShardFanOut, Slot, check_patterns
from .merge import MergedCount, ShardAnswer, merge_answers, merged_threshold


@dataclass(frozen=True)
class ShardProbe:
    """One shard × one probe pattern: did the shard's own contract hold?"""

    shard: str
    pattern: str
    expected: int
    observed: Optional[int]
    ok: bool
    reason: str = ""


class _ShardSlot(Slot):
    """One shard's live serving state (estimator, counter, quarantine flag)."""

    __slots__ = ("estimator", "text", "builder", "counter")

    def __init__(
        self,
        name: str,
        estimator: OccurrenceEstimator,
        text: Optional[Text],
        builder: Optional[Callable[[], OccurrenceEstimator]],
        max_states: Optional[int],
    ):
        super().__init__(name)
        self.estimator = estimator
        self.text = text
        self.builder = builder
        self.counter = IndexCounter(estimator, max_states=max_states)

    @property
    def model(self) -> ErrorModel:
        return self.estimator.error_model

    @property
    def threshold(self) -> int:
        return self.estimator.threshold

    @property
    def text_length(self) -> int:
        return self.estimator.text_length

    @property
    def characters(self):
        return self.estimator.alphabet.characters

    def ceiling(self, pattern_length: int) -> int:
        return max(0, self.estimator.text_length - pattern_length + 1)


class ShardedEstimator(ShardFanOut):
    """``k`` per-shard indexes merged behind one estimator interface.

    ``estimators`` maps shard name to the per-shard index (insertion order
    is shard order). ``texts`` (shard name -> :class:`Text`) enables
    per-shard differential localisation (:meth:`convict_shards`);
    ``builders`` (shard name -> zero-argument factory) enables
    :meth:`rebuild_shard`. Construct via
    :func:`repro.shard.build.build_sharded` to get all three wired up
    from a :class:`~repro.shard.plan.ShardPlan`.

    Not picklable (locks): persist the per-shard indexes individually
    and reassemble.
    """

    def __init__(
        self,
        estimators: "Mapping[str, OccurrenceEstimator] | Sequence[Tuple[str, OccurrenceEstimator]]",
        *,
        texts: Optional[Mapping[str, Text]] = None,
        builders: Optional[
            Mapping[str, Callable[[], OccurrenceEstimator]]
        ] = None,
        max_states: Optional[int] = 4096,
    ):
        items = (
            list(estimators.items())
            if isinstance(estimators, Mapping)
            else list(estimators)
        )
        texts = dict(texts or {})
        builders = dict(builders or {})
        slots = [
            _ShardSlot(
                name, estimator, texts.get(name), builders.get(name), max_states
            )
            for name, estimator in items
        ]
        super().__init__(slots, slots)
        self._max_states = max_states

    def estimator_for(self, name: str) -> OccurrenceEstimator:
        """The live per-shard index (for tests and operators)."""
        return self._slot(name).estimator

    # -- counting -------------------------------------------------------------

    def _round(self, slots, op, pattern, deadline, context):
        """The in-process round (single patterns only): each shard's
        search in turn, under the caller's own deadline."""
        replies = []
        for slot in slots:
            if slot.model is ErrorModel.LOWER_SIDED:
                value = slot.counter.count_or_none(pattern, deadline)
            else:
                value = slot.counter.count(pattern, deadline)
            replies.append((value, ""))
        return replies

    def merged_count(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> MergedCount:
        """Fan the pattern out to every shard and merge with error algebra.

        Quarantined shards are not queried — they contribute their
        trivial ceiling and appear in ``degraded_shards``. A live shard
        that raises (transient fault, deadline) propagates the exception:
        the answer is only allowed to degrade along paths whose weakened
        model is *declared* (quarantine), never silently.
        """
        check_patterns([pattern])
        return self._gather([pattern], deadline, False)[0]

    def space_report(self) -> SpaceReport:
        """Per-shard reports rolled up via :meth:`SpaceReport.merge`,
        re-keyed by shard name so the corpus rollup stays per-shard
        readable."""
        parts = []
        for slot in self._slots:
            report = slot.estimator.space_report()
            parts.append(
                SpaceReport(slot.name, dict(report.components), dict(report.overhead))
            )
        return SpaceReport.merge(parts, name="ShardedEstimator")

    # -- engine adapter -------------------------------------------------------

    def __engine_automaton__(self) -> Optional["ShardedAutomaton"]:
        """Product automaton over the per-shard automata (or ``None`` when
        any live shard lacks an automaton view, making callers fall back
        to per-pattern :meth:`count`)."""
        slots = list(self._slots)
        automata: List[Optional[BackwardSearchAutomaton]] = []
        for slot in slots:
            if slot.quarantined:
                automata.append(None)
                continue
            automaton = automaton_of(slot.estimator)
            if automaton is None:
                return None
            automata.append(automaton)
        return ShardedAutomaton(slots, automata)

    # -- shard lifecycle ------------------------------------------------------

    def replace_shard(self, name: str, estimator: OccurrenceEstimator) -> None:
        """Swap in a rebuilt per-shard index with a fresh memo cache."""
        with self._lock:
            slot = self._slot(name)
            slot.estimator = estimator
            slot.counter = IndexCounter(estimator, max_states=self._max_states)
            self._alphabet = None
            self._version += 1

    def rebuild_shard(self, name: str) -> float:
        """Rebuild one shard via its registered builder; returns the wall
        seconds the factory took. The shard stays quarantined — callers
        verify and :meth:`readmit_shard` explicitly."""
        import time

        slot = self._slot(name)
        if slot.builder is None:
            raise InvalidParameterError(f"shard {name!r} has no builder")
        started = time.perf_counter()
        rebuilt = slot.builder()
        elapsed = time.perf_counter() - started
        self.replace_shard(name, rebuilt)
        return elapsed

    # -- watchdog hooks -------------------------------------------------------

    def can_localize(self) -> bool:
        """Whether per-shard differential localisation is possible (every
        shard retained its source text for ground-truth counting)."""
        return all(slot.text is not None for slot in self._slots)

    def _check_slot(
        self, slot: _ShardSlot, pattern: str, truth: int
    ) -> ShardProbe:
        """One shard's own error contract checked against its own text."""
        from ..service.outcome import contract_holds

        model = slot.estimator.error_model
        threshold = slot.estimator.threshold
        try:
            if model is ErrorModel.LOWER_SIDED:
                value = slot.counter.count_or_none(pattern)
                if value is None:
                    ok = truth < threshold
                    return ShardProbe(
                        slot.name, pattern, truth, None, ok,
                        "" if ok else "declined a count it must certify",
                    )
                ok = int(value) == truth
                return ShardProbe(
                    slot.name, pattern, truth, int(value), ok,
                    "" if ok else f"certified {value}, truth {truth}",
                )
            value = slot.counter.count(pattern)
        except Exception as exc:  # noqa: BLE001 - probe boundary
            return ShardProbe(
                slot.name, pattern, truth, None, False,
                f"probe raised {type(exc).__name__}: {exc}",
            )
        ok = contract_holds(
            model, int(value), threshold, pattern, truth,
            slot.estimator.text_length,
        )
        return ShardProbe(
            slot.name, pattern, truth, int(value), ok,
            "" if ok else f"{model.value} contract violated: "
                          f"observed {value}, truth {truth}",
        )

    def convict_shards(self, pattern: str) -> List[str]:
        """Names of live shards whose own contract fails on ``pattern``.

        Requires :meth:`can_localize`. This is how a tier-level contract
        violation is narrowed to the shard(s) that caused it: each shard
        is cross-examined against the ground truth of *its own* text.
        """
        if not self.can_localize():
            raise InvalidParameterError(
                "convict_shards needs per-shard texts (can_localize() is False)"
            )
        convicted = []
        for slot in self._slots:
            if slot.quarantined:
                continue
            truth = slot.text.count_naive(pattern)  # type: ignore[union-attr]
            if not self._check_slot(slot, pattern, truth).ok:
                convicted.append(slot.name)
        return convicted

    def verify_shard(
        self, name: str, patterns: Sequence[str]
    ) -> List[ShardProbe]:
        """Probe one shard against its own text over ``patterns``."""
        slot = self._slot(name)
        if slot.text is None:
            raise InvalidParameterError(
                f"shard {name!r} kept no text; cannot verify"
            )
        return [
            self._check_slot(slot, pattern, slot.text.count_naive(pattern))
            for pattern in patterns
        ]


#: Poison component: a shard that cannot be stepped (quarantined at step
#: time or at automaton construction). Distinct from the dead state
#: ``None`` — a poisoned shard contributes its full ceiling at count time.
class _Unavailable:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<shard unavailable>"


_UNAVAILABLE = _Unavailable()


class ShardedAutomaton(BackwardSearchAutomaton):
    """Product of the per-shard backward-search automata.

    A state is ``(depth, components)`` where ``components[i]`` is shard
    ``i``'s own state, ``None`` (shard-dead) or the unavailable poison.
    ``depth`` (the number of characters consumed, i.e. ``|P|``) is a
    function of the pattern suffix, so states remain suffix-determined —
    the invariant the trie planner relies on; it is needed because a
    poisoned or lower-sided-dead component contributes a *length-dependent*
    bound at count time.

    The global dead state ``None`` is only produced when every component
    is dead **and** every dead component's model makes dead mean
    exactly-zero (lower-sided shards excepted: their dead state means
    "below threshold", which still contributes ``min(l_i - 1, ceiling)``).

    Quarantine flags are read live at each step, so a shard quarantined
    mid-lifetime degrades (soundly) rather than serving stale answers. The
    automata and the dead-state rules are fixed at construction, so every
    quarantine, readmission and replacement moves the estimator's
    ``shard_version``, and an :class:`~repro.engine.IndexCounter` builds
    a fresh product (and drops its memoised results) when it has moved.
    """

    def __init__(
        self,
        slots: Sequence[_ShardSlot],
        automata: Sequence[Optional[BackwardSearchAutomaton]],
    ):
        self._slots = list(slots)
        self._automata = list(automata)
        #: Per shard: does a dead component certify a zero count?
        self._dead_is_zero = [
            slot.estimator.error_model is not ErrorModel.LOWER_SIDED
            for slot in self._slots
        ]

    def start(self, ch: str) -> Optional[Hashable]:
        components: List[object] = []
        for slot, automaton in zip(self._slots, self._automata):
            if automaton is None or slot.quarantined:
                components.append(_UNAVAILABLE)
            else:
                components.append(automaton.start(ch))
        return self._pack(1, components)

    def step(self, state: Hashable, ch: str) -> Optional[Hashable]:
        depth, components = state
        advanced: List[object] = []
        for slot, automaton, component in zip(
            self._slots, self._automata, components
        ):
            if (
                component is _UNAVAILABLE
                or automaton is None
                or slot.quarantined
            ):
                advanced.append(_UNAVAILABLE)
            elif component is None:
                advanced.append(None)
            else:
                advanced.append(automaton.step(component, ch))
        return self._pack(depth + 1, advanced)

    def step_many(self, states, ch):
        """Bulk product step: decompose the batch into per-shard state
        columns, advance each column's live states through the inner
        automaton's ``step_many``, and reassemble."""
        k = len(states)
        depths = [state[0] for state in states]
        columns: List[List[object]] = []
        for si, (slot, automaton) in enumerate(zip(self._slots, self._automata)):
            col = [state[1][si] for state in states]
            if automaton is None or slot.quarantined:
                columns.append([_UNAVAILABLE] * k)
                continue
            out_col: List[object] = [
                _UNAVAILABLE if component is _UNAVAILABLE else None
                for component in col
            ]
            live = [
                j
                for j, component in enumerate(col)
                if component is not None and component is not _UNAVAILABLE
            ]
            if live:
                stepped = automaton.step_many([col[j] for j in live], ch)
                for j, component in zip(live, stepped):
                    out_col[j] = component
            columns.append(out_col)
        return [
            self._pack(depths[j] + 1, [column[j] for column in columns])
            for j in range(k)
        ]

    def _pack(self, depth: int, components: List[object]):
        collapsible = all(
            component is None and dead_zero
            for component, dead_zero in zip(components, self._dead_is_zero)
        )
        if collapsible:
            return None
        return (depth, tuple(components))

    def count_state(self, state: Optional[Hashable]) -> int:
        if state is None:
            return 0
        depth, components = state
        answers = []
        for slot, automaton, component in zip(
            self._slots, self._automata, components
        ):
            ceiling = slot.ceiling(depth)
            if component is _UNAVAILABLE or slot.quarantined:
                answers.append(
                    ShardAnswer(
                        slot.name, None, slot.estimator.threshold,
                        None, ceiling, degraded=True,
                    )
                )
                continue
            model = slot.estimator.error_model
            threshold = slot.estimator.threshold
            if component is None:
                # Shard-dead: exactly zero for exact/uniform/upper-bound
                # automatons, "below threshold" for lower-sided ones —
                # precisely the uncertified lower-sided contribution.
                value: Optional[int] = (
                    0 if model is not ErrorModel.LOWER_SIDED else None
                )
            else:
                value = automaton.count_state(component)  # type: ignore[union-attr]
            answers.append(
                ShardAnswer(slot.name, model, threshold, value, ceiling)
            )
        return merge_answers(answers).count

    def capabilities(self) -> AutomatonCapabilities:
        exact = all(
            automaton is not None
            and automaton.capabilities().exact
            and not slot.quarantined
            for slot, automaton in zip(self._slots, self._automata)
        )
        rank_ops = sum(
            automaton.capabilities().rank_ops_per_step
            for automaton in self._automata
            if automaton is not None
        )
        return AutomatonCapabilities(
            exact=exact,
            lower_sided=False,
            threshold=merged_threshold(
                [slot.estimator.threshold for slot in self._slots]
            ),
            rank_ops_per_step=rank_ops,
        )
