"""Structured query results for the serving layer.

Every answer from :class:`~repro.service.resilient.ResilientEstimator` is a
:class:`QueryOutcome` rather than a bare integer: it names the tier that
served it, states the error model that answer *actually* honors (which may
be weaker than the primary tier's model if the ladder degraded), and
records latency and the failures met along the way — everything an
operator needs to audit a degraded response after the fact.

:class:`ShedOutcome` is the admission-control sibling: a query the
:class:`~repro.service.server.QueryServer` refused to run through the
ladder (rate-limited, queue full, draining) still receives a *sound*
answer from the always-available statistics tier, plus the reason it was
shed — load shedding degrades accuracy, never availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.interface import ErrorModel
from ..engine import EngineStats


def contract_holds(
    error_model: ErrorModel,
    count: int,
    threshold: int,
    pattern: str,
    truth: int,
    text_length: Optional[int] = None,
) -> bool:
    """Whether ``count`` satisfies ``error_model`` against the true count.

    The same per-model rules :func:`repro.validation.validate_index`
    enforces; shared by :class:`QueryOutcome`, :class:`ShedOutcome` and
    the corruption watchdog's differential probes. ``text_length``
    tightens the UPPER_BOUND ceiling to ``n - |P| + 1``; without it the
    model only requires no undercount.
    """
    if error_model is ErrorModel.EXACT:
        return count == truth
    if error_model is ErrorModel.UNIFORM:
        return truth <= count <= truth + threshold - 1
    if error_model is ErrorModel.UPPER_BOUND:
        if count < truth:
            return False
        if text_length is None:
            return True
        return count <= max(0, text_length - len(pattern) + 1)
    # LOWER_SIDED: exact above threshold; anything in [0, l) below it.
    if truth >= threshold:
        return count == truth
    return 0 <= count < threshold


@dataclass(frozen=True)
class QueryOutcome:
    """One served query: the answer plus its provenance and guarantee."""

    pattern: str
    count: int
    #: Name of the tier that produced the answer.
    tier: str
    #: Position of the serving tier in the ladder (0 = primary).
    tier_index: int
    #: Error model the answer honors (the serving tier's model).
    error_model: ErrorModel
    #: Error threshold ``l`` of the serving tier (1 for exact tiers).
    threshold: int
    #: Whether the serving tier certifies this particular answer as exact.
    reliable: bool
    #: Wall-clock seconds from accepting the query to producing the answer.
    elapsed: float
    #: Total tier attempts made, including retries and the successful one.
    attempts: int
    #: ``(tier_name, reason)`` for every failed or skipped attempt.
    failures: Tuple[Tuple[str, str], ...] = field(default=())
    #: Engine work this query cost across *all* attempted tiers (automaton
    #: steps, rank operations, cache traffic, deadline checks) — the
    #: per-query delta of each tier's counters, not lifetime totals.
    #: ``None`` when served by a pre-engine caller that did not measure.
    #: Outcomes no engine ran for (hot-rung hits) share one read-only
    #: all-zero instance, :data:`repro.service.resilient.IDLE_ENGINE`.
    #: Under concurrent callers sharing a tier the delta is best-effort
    #: (it may include a neighbour's interleaved work).
    engine: Optional[EngineStats] = None
    #: Whether this answer came from a hedged (speculative) tier attempt.
    hedged: bool = False
    #: For sharded tiers: names of the serving tier's shards that were
    #: quarantined when this answer was produced (empty otherwise). A
    #: non-empty value means the answer's model degraded to the tier's
    #: declared fallback (UPPER_BOUND for the sharded merge) while the
    #: remaining shards kept serving.
    shards_degraded: Tuple[str, ...] = field(default=())
    #: Sound ``[lo, hi]`` interval on the true count, reported when the
    #: serving tier could compute one for a degraded answer (the widened
    #: bound the sharded merge still guarantees); ``None`` otherwise.
    count_interval: Optional[Tuple[int, int]] = None
    #: For live-corpus tiers: documents (appends and pending tombstones)
    #: sitting in the mutable delta shard, not yet compacted into the
    #: immutable shard set, when this answer was produced. Non-zero means
    #: the answer merged the exact delta tier under the error algebra;
    #: 0 for static tiers.
    delta_pending: int = 0

    @property
    def shed(self) -> bool:
        """Query outcomes always ran the ladder (cf. :class:`ShedOutcome`)."""
        return False

    @property
    def degraded(self) -> bool:
        """True when the primary tier did not serve this answer cleanly."""
        return (
            self.tier_index > 0
            or bool(self.failures)
            or bool(self.shards_degraded)
        )

    def contract_holds(self, truth: int, text_length: Optional[int] = None) -> bool:
        """Whether ``count`` satisfies the declared error model against the
        true occurrence count — the same per-model rules
        :func:`repro.validation.validate_index` enforces.

        ``text_length`` tightens the UPPER_BOUND ceiling to
        ``n - |P| + 1``; without it the model only requires no undercount.
        """
        return contract_holds(
            self.error_model, self.count, self.threshold,
            self.pattern, truth, text_length,
        )

    def summary(self) -> str:
        """One-line operator-facing description."""
        tag = "degraded" if self.degraded else "primary"
        if self.hedged:
            tag += ", hedged"
        if self.shards_degraded:
            tag += f", shards down: {'+'.join(self.shards_degraded)}"
            if self.count_interval is not None:
                lo, hi = self.count_interval
                tag += f", true count in [{lo}, {hi}]"
        if self.delta_pending:
            tag += f", {self.delta_pending} delta doc(s) pending"
        work = ""
        if self.engine is not None:
            work = (
                f", {self.engine.automaton_steps} steps"
                f"/{self.engine.rank_calls} rank ops"
            )
        return (
            f"{self.pattern!r}: {self.count} via {self.tier} "
            f"[{self.error_model.value}, l={self.threshold}, {tag}] "
            f"in {self.elapsed * 1000:.2f}ms, {self.attempts} attempt(s){work}"
        )


@dataclass(frozen=True)
class ShedOutcome:
    """A query answered by load shedding instead of the ladder.

    The count is still *sound*: it comes from the always-available
    statistics tier (:data:`~repro.core.interface.ErrorModel.UPPER_BOUND`),
    so a shed reply never lies — it is merely the least accurate answer
    the service can give without queueing past the deadline. When the
    ladder carries a hot-pattern tier and the pattern is hot, the shed
    answer is *upgraded*: an exact cached count, or the tighter of the
    sketch and statistics upper bounds — never wider than the plain
    stats answer, at identical availability.
    """

    pattern: str
    count: int
    #: Name of the always-available tier that produced the fallback answer.
    tier: str
    #: Error model the shed answer honors (UPPER_BOUND for the stats tier).
    error_model: ErrorModel
    #: Error threshold of the shedding tier (1 for the stats tier).
    threshold: int
    #: Why admission refused the query (e.g. ``"rate limited"``).
    reason: str
    #: Wall-clock seconds from arrival to the shed answer.
    elapsed: float
    #: True when a hot-pattern tier tightened (or exactly answered) the
    #: shed reply instead of the bare statistics bound.
    upgraded: bool = False

    @property
    def shed(self) -> bool:
        """Always True — the ladder never ran for this reply."""
        return True

    @property
    def degraded(self) -> bool:
        """A shed answer is degraded by definition."""
        return True

    @property
    def reliable(self) -> bool:
        """An upper bound is only exact when it is zero."""
        return self.error_model is ErrorModel.UPPER_BOUND and self.count == 0

    def contract_holds(self, truth: int, text_length: Optional[int] = None) -> bool:
        """Same per-model check as :meth:`QueryOutcome.contract_holds`."""
        return contract_holds(
            self.error_model, self.count, self.threshold,
            self.pattern, truth, text_length,
        )

    def summary(self) -> str:
        """One-line operator-facing description."""
        return (
            f"{self.pattern!r}: {self.count} via {self.tier} "
            f"[{self.error_model.value}, SHED: {self.reason}] "
            f"in {self.elapsed * 1000:.2f}ms"
        )
