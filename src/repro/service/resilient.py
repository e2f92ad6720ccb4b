"""The resilient query service: a degradation ladder over estimator tiers.

:class:`ResilientEstimator` answers every query it possibly can, degrading
accuracy before availability. Tiers are tried in order; each is protected
by a circuit breaker (a persistently failing tier is skipped without
paying its latency), failed calls are retried with jittered exponential
backoff while the per-query deadline allows, and once the deadline is
spent the ladder jumps straight to its always-available tier (pure
arithmetic, cannot stall). Every answer is a
:class:`~repro.service.outcome.QueryOutcome` naming the serving tier and
the error model the answer actually honors.

The paper's own hierarchy maps directly onto the ladder:
``CompactPrunedSuffixTree`` (exact above threshold) →
:class:`~repro.core.approx.ApproxIndex` (uniform error ``l``) →
``QGramIndex`` (exact up to length ``q``) →
:class:`~repro.service.tiers.TextStatsEstimator` (sound upper bound,
always available). :func:`build_default_ladder` assembles exactly that.
"""

from __future__ import annotations

import time
from operator import sub
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from ..core.interface import ErrorModel, OccurrenceEstimator
from ..engine import EngineStats
from ..engine.stats import counter_values
from ..errors import (
    AllTiersFailedError,
    DeadlineExceededError,
    InvalidParameterError,
    PatternError,
)
from ..textutil import Text
from .breaker import CircuitBreaker
from .deadline import Clock, Deadline
from .outcome import QueryOutcome
from .retry import RetryPolicy
from .tiers import Tier, TierDeclined

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext

#: How one tier attempt ended (see :meth:`ResilientEstimator.attempt`).
ANSWERED = "answered"
DECLINED = "declined"
DEADLINE = "deadline"
CANCELLED = "cancelled"
FAILED = "failed"
SATURATED = "saturated"

#: The engine delta of an outcome no engine ran for (a hot-rung hit, or
#: a tier whose counters did not move). Every such outcome shares this
#: one all-zero instance, so a hit allocates none; it is read-only, and
#: nothing mutates ``QueryOutcome.engine``.
IDLE_ENGINE = EngineStats()


def failure_reason(kind: str, value: object) -> str:
    """The ``failures`` entry for an attempt that did not answer."""
    if kind is FAILED:
        return f"{type(value).__name__}: {value}"
    return value


class TierGuard:
    """Protocol for the ladder's bulkhead hook (duck-typed, not enforced).

    ``acquire(tier)`` returns True to admit a call into ``tier`` (the
    caller *must* then ``release(tier)`` when the attempt finishes) or
    False to refuse, making the ladder degrade past the tier immediately.
    Implementations must be thread-safe; see
    :class:`repro.service.server.Bulkhead`.
    """

    def acquire(self, tier: "Tier") -> bool:  # pragma: no cover - protocol
        raise NotImplementedError

    def release(self, tier: "Tier") -> None:  # pragma: no cover - protocol
        raise NotImplementedError


class ResilientEstimator:
    """Serve substring-count queries through an ordered fallback ladder.

    ``tiers`` may mix bare estimators (wrapped into default
    :class:`~repro.service.tiers.Tier` instances) and pre-configured
    tiers. ``deadline_seconds`` is the default per-query soft budget
    (``None`` = unbounded); ``clock`` and ``sleep`` are injectable so
    tests and simulations run on manual time.
    """

    def __init__(
        self,
        tiers: Sequence[Union[Tier, OccurrenceEstimator]],
        *,
        deadline_seconds: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not tiers:
            raise InvalidParameterError("a ladder needs at least one tier")
        self._tiers: List[Tier] = [
            tier if isinstance(tier, Tier) else Tier(tier) for tier in tiers
        ]
        names = [tier.name for tier in self._tiers]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"tier names must be unique, got {names}")
        self._deadline_seconds = deadline_seconds
        self._retry = retry if retry is not None else RetryPolicy()
        self._clock = clock
        self._sleep = sleep
        make_breaker = breaker_factory or (lambda: CircuitBreaker(clock=clock))
        for tier in self._tiers:
            if tier.breaker is None:
                tier.breaker = make_breaker()
        #: The tiers that hear every served outcome (see :meth:`_notify`).
        self._feedback: List[Tier] = [
            tier for tier in self._tiers if tier.wants_feedback
        ]

    @property
    def tiers(self) -> List[Tier]:
        """The ladder, primary first."""
        return list(self._tiers)

    def query(
        self,
        pattern: str,
        *,
        deadline: Union[Deadline, float, None] = None,
        tier_guard: Optional["TierGuard"] = None,
    ) -> QueryOutcome:
        """Answer one pattern through the ladder.

        Malformed patterns raise :class:`~repro.errors.PatternError`
        immediately (bad input is the caller's bug, not an availability
        event). If no tier can serve,
        :class:`~repro.errors.AllTiersFailedError` reports why each one
        failed.

        ``tier_guard`` is the serving front's bulkhead hook: an object
        with ``acquire(tier) -> bool`` / ``release(tier)``. A guard that
        refuses admission makes the ladder skip that tier (reason
        ``"skipped: bulkhead saturated"``) instead of blocking — the
        always-available tier is never guarded, so shedding work can
        always land somewhere.

        The method itself is safe for concurrent callers: all per-query
        state is local, breakers and counters take their own locks, and
        the retry RNG is lock-protected. Per-query ``engine`` deltas are
        best-effort under concurrency (see :class:`QueryOutcome`); a
        query no engine ran for (a hot-rung hit) carries an all-zero
        :class:`~repro.engine.EngineStats`.
        """
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        if isinstance(deadline, Deadline):
            budget = deadline
        else:
            seconds = deadline if deadline is not None else self._deadline_seconds
            budget = Deadline(seconds, self._clock)
        started = self._clock()
        failures: List[tuple] = []
        attempts = 0
        out_of_time = False
        # Engine work this query costs, summed over the attempts whose
        # tier counters moved (None until one does).
        engine_total: Optional[EngineStats] = None

        for index, tier in enumerate(self._tiers):
            skip = self.skip_reason(tier, budget, out_of_time)
            if skip is not None:
                failures.append((tier.name, skip))
                continue
            attempt = 0
            while True:
                kind, value, work = self.attempt(tier, pattern, budget, tier_guard)
                if kind is SATURATED:
                    failures.append((tier.name, value))
                    break
                attempt += 1
                attempts += 1
                if work is not None:
                    engine_total = (
                        work if engine_total is None
                        else engine_total.merge(work)
                    )
                if kind is ANSWERED:
                    return self.outcome(
                        pattern, index, value,
                        elapsed=self._clock() - started,
                        attempts=attempts,
                        failures=failures,
                        engine=(
                            IDLE_ENGINE if engine_total is None
                            else engine_total
                        ),
                    )
                failures.append((tier.name, failure_reason(kind, value)))
                if kind is DECLINED:
                    break
                if kind is not FAILED:  # the budget is spent
                    out_of_time = True
                    break
                if not self._retry.should_retry(attempt, value):
                    break
                # Backoff is capped at the remaining budget so a sleep can
                # never overshoot the deadline; a spent budget means stop
                # retrying, not sleep-then-fail.
                backoff = self._retry.delay(attempt, deadline=budget)
                if budget.remaining() <= 0.0:
                    failures.append(
                        (tier.name, "retry abandoned: deadline exhausted")
                    )
                    break
                if backoff > 0:
                    self._sleep(backoff)
        raise AllTiersFailedError(pattern, failures)

    # -- the walk's steps, shared with the hedged serving front -------------

    @staticmethod
    def skip_reason(
        tier: Tier, budget: Deadline, out_of_time: bool
    ) -> Optional[str]:
        """Why ``tier`` is passed over for this query, or None to try it.

        A quarantined tier is always skipped; a spent deadline (or an
        earlier tier's deadline failure) skips every tier but the
        always-available one; an open circuit skips the tier without
        paying its latency. ``breaker.allow()`` runs last because a
        half-open breaker hands out a trial permit when it says yes.
        """
        if tier.quarantined:
            return f"skipped: quarantined ({tier.quarantine_reason})"
        if (out_of_time or budget.expired()) and not tier.always_available:
            return "skipped: deadline exceeded"
        if not tier.breaker.allow():
            return f"skipped: circuit {tier.breaker.state.value}"
        return None

    @staticmethod
    def attempt(
        tier: Tier,
        pattern: str,
        deadline: Deadline,
        guard: Optional["TierGuard"] = None,
    ) -> Tuple[str, object, Optional[EngineStats]]:
        """Call ``tier`` once: ``(kind, value, engine delta)``.

        Takes ``guard`` first (the always-available tier is never
        guarded); a refusal returns :data:`SATURATED` and touches
        nothing else. Otherwise ``kind`` sorts the call into
        :data:`ANSWERED` (``value`` is ``(count, model, threshold,
        reliable)``), :data:`DECLINED`, :data:`DEADLINE` or
        :data:`CANCELLED` (``value`` is the failure reason) or
        :data:`FAILED` (``value`` is the exception), and the breaker
        records the outcome — except a cancellation, which says nothing
        about the tier's health. The engine delta is None when the
        tier's counters did not move (a hot-rung hit or decline): the
        counters are read as tuples, and an
        :class:`~repro.engine.EngineStats` is built only for a change.
        """
        guarded = guard is not None and not tier.always_available
        if guarded and not guard.acquire(tier):
            return SATURATED, "skipped: bulkhead saturated", None
        counters = tier.engine_stats
        before = counter_values(counters)
        try:
            value: object = tier.answer(
                pattern, None if tier.always_available else deadline
            )
        except TierDeclined:
            # A certified-only tier saying "I don't know" is healthy.
            tier.breaker.record_success()
            kind, value = DECLINED, "declined: cannot certify"
        except DeadlineExceededError as exc:
            if deadline.cancelled:
                kind = CANCELLED
            else:
                tier.breaker.record_failure()
                kind = DEADLINE
            value = str(exc)
        except Exception as exc:  # noqa: BLE001 - ladder boundary
            tier.breaker.record_failure()
            # Without its traceback the kept exception pins no frame, so
            # it makes no reference cycle with this one.
            kind, value = FAILED, exc.with_traceback(None)
        else:
            tier.breaker.record_success()
            kind = ANSWERED
        finally:
            if guarded:
                guard.release(tier)
        after = counter_values(counters)
        if after == before:
            return kind, value, None
        return kind, value, EngineStats(*map(sub, after, before))

    def outcome(
        self,
        pattern: str,
        index: int,
        answer: Tuple[int, ErrorModel, int, bool],
        *,
        elapsed: float,
        attempts: int,
        failures: List[tuple],
        engine: Optional[EngineStats],
        hedged: bool = False,
    ) -> QueryOutcome:
        """Turn tier ``index``'s answer into a served outcome.

        Sharded tiers keep serving through quarantined shards, so the
        outcome names the degraded shards; live tiers report how much of
        the corpus still sits in the mutable delta shard. Either one
        makes the scalar a merged upper end, so the sound interval the
        merge still guarantees rides along. Every feedback-wanting tier
        then hears the outcome (see :meth:`_notify`).
        """
        tier = self._tiers[index]
        estimator = tier.estimator
        count, model, threshold, reliable = answer
        shards_degraded = tuple(getattr(estimator, "degraded_shards", ()))
        try:
            delta_pending = int(getattr(estimator, "delta_pending", 0))
        except (TypeError, ValueError):
            delta_pending = 0
        interval: Optional[Tuple[int, int]] = None
        if shards_degraded or delta_pending:
            try:
                lo, hi = estimator.count_interval(pattern)
                interval = (int(lo), int(hi))
            except Exception:  # noqa: BLE001 - telemetry only
                interval = None
        outcome = QueryOutcome(
            pattern=pattern,
            count=count,
            tier=tier.name,
            tier_index=index,
            error_model=model,
            threshold=threshold,
            reliable=reliable,
            elapsed=elapsed,
            attempts=attempts,
            failures=tuple(failures),
            engine=engine,
            hedged=hedged,
            shards_degraded=shards_degraded,
            count_interval=interval,
            delta_pending=delta_pending,
        )
        self._notify(pattern, outcome)
        return outcome

    def _notify(self, pattern: str, outcome: QueryOutcome) -> None:
        """Report a served outcome to every feedback-wanting tier.

        The answering tier is skipped (a stateful tier must not digest
        its own answers as fresh evidence), a quarantined tier hears
        nothing, and feedback can never break serving — any exception is
        swallowed; the watchdog's differential probes are the mechanism
        that catches a tier whose feedback path corrupted it.
        """
        for tier in self._feedback:
            if tier.name == outcome.tier or tier.quarantined:
                continue
            try:
                tier.observe(pattern, outcome)
            except Exception:  # noqa: BLE001 - feedback is best-effort
                pass

    def prepend_tier(self, tier: Tier) -> "ResilientEstimator":
        """A new ladder with ``tier`` grafted on top of this one's rungs.

        Tiers (and their breakers, caches, quarantine state) are shared
        with the original ladder, as are the deadline/retry/clock knobs —
        this is how a frequency-aware tier is layered onto an
        already-built ladder (see :func:`repro.hot.with_hot_tier`).
        """
        return ResilientEstimator(
            [tier] + self._tiers,
            deadline_seconds=self._deadline_seconds,
            retry=self._retry,
            clock=self._clock,
            sleep=self._sleep,
        )

    def query_many(self, patterns: Sequence[str]) -> List[QueryOutcome]:
        """One outcome per pattern, each under its own fresh deadline."""
        return [self.query(pattern) for pattern in patterns]

    def count(self, pattern: str) -> int:
        """Ladder-served count, discarding provenance."""
        return self.query(pattern).count

    def count_many(self, patterns: Sequence[str]) -> List[int]:
        """Batch variant of :meth:`count`."""
        return [self.count(pattern) for pattern in patterns]


def build_default_ladder(
    text: Text | str,
    l: int = 64,
    *,
    deadline_seconds: Optional[float] = 0.5,
    retry: Optional[RetryPolicy] = None,
    breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
    clock: Clock = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    primary: Optional[OccurrenceEstimator] = None,
    context: Optional["BuildContext"] = None,
    max_workers: Optional[int] = None,
    hot: "bool | object" = False,
) -> ResilientEstimator:
    """The paper's accuracy hierarchy as a four-tier availability ladder.

    ``CPST_l`` serves exactly what it certifies (counts ``>= l``),
    ``APX_l`` catches the rest with uniform error ``< l``, a small q-gram
    table answers short patterns exactly if both contributions are down,
    and the text-statistics tier guarantees a sound upper bound no matter
    what. ``primary`` substitutes the first tier's estimator — the hook
    chaos tests and ``repro serve-check --fault-rate`` use to inject
    faults without touching the rest of the ladder.

    ``hot`` layers the frequency-aware hot-pattern tier on top: pass
    ``True`` for a default-sized :class:`~repro.hot.HotPatternTier`
    built over ``text``, or a pre-built instance to control its sizing.
    The hot rung sits above CPST, declines cold patterns, and learns
    from the ladder's own answers through the feedback channel.

    All tiers are built from **one** shared
    :class:`~repro.build.BuildContext` (pass ``context`` to share it
    further, e.g. with the watchdog's rebuilders or an artifact cache):
    the whole ladder costs a single suffix-array construction.
    ``max_workers > 1`` builds the tiers concurrently via
    :func:`repro.build.build_all`.
    """
    from ..build import BuildContext, build_all, default_tier_specs

    ctx = BuildContext.of(context if context is not None else text)
    specs = default_tier_specs(l)
    if primary is not None:
        specs = [spec for spec in specs if spec.kind != "cpst"]
    built = build_all(ctx, specs, max_workers=max_workers)
    cpst = primary if primary is not None else built["cpst"]
    tiers: List[Tier] = [
        Tier(cpst, "cpst", certified_only=True),
        Tier(built["apx"], "apx"),
        Tier(built["qgram"], "qgram", certified_only=True),
        Tier(built["stats"], "stats", always_available=True),
    ]
    if hot:
        from ..hot import HotPatternTier
        from ..hot.rung import HotTierRung

        store = (
            hot
            if isinstance(hot, HotPatternTier)
            else HotPatternTier.from_text(ctx.text.raw)
        )
        tiers.insert(0, HotTierRung(store))
    return ResilientEstimator(
        tiers,
        deadline_seconds=deadline_seconds,
        retry=retry,
        breaker_factory=breaker_factory,
        clock=clock,
        sleep=sleep,
    )
