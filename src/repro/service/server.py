"""The concurrent serving front: admission, bulkheads, hedging, drain.

:class:`QueryServer` is the thread-safe face of a
:class:`~repro.service.resilient.ResilientEstimator`. Where the ladder
decides *which tier* answers a query, the server decides *whether and
how* the query runs at all:

* **admission control** — a :class:`~repro.service.admission.TokenBucket`
  rate limiter plus a bounded in-flight pool with a bounded, deadline-aware
  wait queue. A refused query is not dropped: it is **shed** to the
  ladder's always-available statistics tier and answered with a sound
  upper bound, reported as a :class:`~repro.service.outcome.ShedOutcome`
  naming the reason. A tier that declares a shed hook
  (:attr:`~repro.service.tiers.Tier.upgrades_shed`, the hot rung) may
  tighten that answer. Accuracy degrades before availability does.
* **bulkheads** — one semaphore per tier bounds how many threads may be
  inside each tier at once, so a stalled CPST cannot exhaust the workers
  APX or the q-gram table need. A saturated bulkhead makes the ladder
  degrade past the tier (reason ``"skipped: bulkhead saturated"``), never
  block on it.
* **hedged queries** — instead of waiting for the primary to *fail*, the
  server can fire the next tier after a latency percentile of the
  current one (tracked per tier, floored at ``hedge_after``). The hedged
  walk is the ladder's own: the same skips, the same
  :meth:`~repro.service.resilient.ResilientEstimator.attempt` and the
  same :meth:`~repro.service.resilient.ResilientEstimator.outcome`, so a
  hedged answer carries degraded-shard provenance and feeds the hot rung.
  First answer wins; losers are cancelled cooperatively through
  :class:`~repro.service.deadline.CancellableDeadline`. Hedging replaces
  the retry policy: the next tier *is* the retry.
* **corruption watchdog** — an optional
  :class:`~repro.service.watchdog.CorruptionWatchdog` runs low-rate
  differential probes in the background and quarantines/rebuilds tiers
  that contradict their error contracts.
* **graceful drain** — :meth:`QueryServer.drain` sheds new arrivals while
  in-flight queries finish; :meth:`QueryServer.close` drains, stops the
  watchdog and the hedge workers, and makes further queries raise
  :class:`~repro.errors.ServerClosedError`.

The asyncio front (:class:`~repro.parallel.asyncserver.AsyncQueryServer`)
wraps this class: it awaits admission and runs
:meth:`QueryServer._serve` or :meth:`QueryServer._shed_answer` in one
thread hop per query.

Thread-safety contract
----------------------
``QueryServer.query`` is safe from any number of threads. Underneath:
breakers, the admission controller, the token bucket, bulkheads and the
latency tracker all take internal locks; each tier's planner serialises
its own walks (parallelism comes from *different* tiers running in
different threads, bounded per-tier by the bulkheads); the retry RNG is
lock-protected. Per-query ``engine`` deltas are best-effort under
concurrency.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import (
    AllTiersFailedError,
    InvalidParameterError,
    PatternError,
    ServerClosedError,
)
from .admission import AdmissionController, AdmissionStats, TokenBucket
from .deadline import CancellableDeadline, Clock, Deadline
from .outcome import QueryOutcome, ShedOutcome
from .resilient import ANSWERED, DEADLINE, ResilientEstimator, failure_reason
from .tiers import Tier
from .watchdog import CorruptionWatchdog

#: A hedge fires once the running tier outlasts this latency percentile.
HEDGE_PERCENTILE = 95.0


class Bulkhead:
    """Per-tier concurrency caps with non-blocking (or bounded) acquisition.

    Implements the ladder's ``TierGuard`` protocol: ``acquire(tier)``
    returns False — and counts a saturation — when the tier is full,
    making callers degrade past it instead of piling up behind it.
    """

    def __init__(
        self,
        limits: Mapping[str, int],
        *,
        default_limit: Optional[int] = None,
        wait: float = 0.0,
    ):
        for name, limit in limits.items():
            if limit < 1:
                raise InvalidParameterError(
                    f"bulkhead limit for {name!r} must be >= 1, got {limit}"
                )
        if default_limit is not None and default_limit < 1:
            raise InvalidParameterError(
                f"default_limit must be >= 1 or None, got {default_limit}"
            )
        if wait < 0:
            raise InvalidParameterError(f"wait must be >= 0, got {wait}")
        self._limits = dict(limits)
        self._default_limit = default_limit
        self._wait = wait
        #: False when no tier has a cap: every acquire admits at once,
        #: without the lock that finds a tier's semaphore.
        self._bounded = bool(self._limits) or default_limit is not None
        self._semaphores: Dict[str, threading.BoundedSemaphore] = {}
        self._lock = threading.Lock()
        self.saturation: Dict[str, int] = {}

    def _semaphore(self, name: str) -> Optional[threading.BoundedSemaphore]:
        with self._lock:
            if name in self._semaphores:
                return self._semaphores[name]
            limit = self._limits.get(name, self._default_limit)
            if limit is None:
                return None
            semaphore = threading.BoundedSemaphore(limit)
            self._semaphores[name] = semaphore
            return semaphore

    def acquire(self, tier: Tier) -> bool:
        if not self._bounded:
            return True
        semaphore = self._semaphore(tier.name)
        if semaphore is None:
            return True
        if self._wait > 0:
            admitted = semaphore.acquire(timeout=self._wait)
        else:
            admitted = semaphore.acquire(blocking=False)
        if not admitted:
            with self._lock:
                self.saturation[tier.name] = (
                    self.saturation.get(tier.name, 0) + 1
                )
        return admitted

    def release(self, tier: Tier) -> None:
        if not self._bounded:
            return
        semaphore = self._semaphore(tier.name)
        if semaphore is not None:
            semaphore.release()


class LatencyTracker:
    """Sliding-window latency percentiles per tier (thread-safe)."""

    def __init__(self, window: int = 64):
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        self._window = window
        self._samples: Dict[str, deque] = {}
        self._lock = threading.Lock()

    def record(self, key: str, seconds: float) -> None:
        with self._lock:
            bucket = self._samples.get(key)
            if bucket is None:
                bucket = self._samples[key] = deque(maxlen=self._window)
            bucket.append(seconds)

    def percentile(self, key: str, pct: float, min_samples: int = 8
                   ) -> Optional[float]:
        """The ``pct``-th percentile, or None below ``min_samples``."""
        with self._lock:
            bucket = self._samples.get(key)
            if bucket is None or len(bucket) < min_samples:
                return None
            ordered = sorted(bucket)
        rank = max(0, min(len(ordered) - 1,
                          int(round(pct / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


@dataclass
class ServerStats:
    """One snapshot of the serving front's counters."""

    admission: AdmissionStats
    inflight: int
    bulkhead_saturation: Dict[str, int]
    hedges_fired: int
    hedge_wins: int
    served: int
    shed: int
    watchdog_rounds: int
    watchdog_events: int

    def summary(self) -> str:
        saturation = (
            ", ".join(f"{k}={v}" for k, v in
                      sorted(self.bulkhead_saturation.items())) or "none"
        )
        return (
            f"served {self.served}, shed {self.shed} "
            f"(rate {self.admission.rate_limited}, "
            f"queue {self.admission.queue_full + self.admission.queue_timeout}, "
            f"drain {self.admission.drained}); "
            f"hedges {self.hedges_fired} fired/{self.hedge_wins} won; "
            f"bulkhead saturation: {saturation}; "
            f"watchdog {self.watchdog_rounds} rounds/"
            f"{self.watchdog_events} events"
        )


class QueryServer:
    """Thread-safe serving front over a degradation ladder.

    Parameters
    ----------
    service:
        The ladder to serve. It must contain an ``always_available`` tier
        (the shedding target); :func:`build_default_ladder` provides one.
    max_concurrent / max_waiting / max_wait:
        Admission pool size, wait-queue bound and the longest a query may
        queue (also capped by its own deadline).
    rate / burst:
        Token-bucket rate limit in queries/second (None disables).
    bulkhead_limits / bulkhead_wait:
        Per-tier concurrency caps (name → limit; unlisted tiers are
        unbounded) and how long to wait for a slot before degrading past
        the tier (0 = never block).
    hedge_after:
        Enable hedged queries: fire the next tier once the current one has
        been running for its :data:`HEDGE_PERCENTILE`-th latency
        percentile (floored at ``hedge_after`` seconds). ``None`` disables
        hedging.
    watchdog:
        Optional :class:`CorruptionWatchdog`; started with the server's
        :meth:`start` and stopped by :meth:`close`.
    """

    def __init__(
        self,
        service: ResilientEstimator,
        *,
        max_concurrent: int = 8,
        max_waiting: int = 16,
        max_wait: float = 0.05,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        bulkhead_limits: Optional[Mapping[str, int]] = None,
        bulkhead_wait: float = 0.0,
        hedge_after: Optional[float] = None,
        watchdog: Optional[CorruptionWatchdog] = None,
        clock: Clock = time.monotonic,
    ):
        self._service = service
        shed_tiers = [tier for tier in service.tiers if tier.always_available]
        if not shed_tiers:
            raise InvalidParameterError(
                "a serving front needs a ladder with an always-available "
                "tier to shed load onto"
            )
        self._shed_tier = shed_tiers[0]
        self._shed_upgraders = [
            tier for tier in service.tiers if tier.upgrades_shed
        ]
        bucket = None
        if rate is not None:
            bucket = TokenBucket(rate, burst if burst is not None else
                                 max(1.0, rate), clock=clock)
        self._admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_waiting=max_waiting,
            max_wait=max_wait,
            bucket=bucket,
        )
        self._bulkhead = Bulkhead(bulkhead_limits or {}, wait=bulkhead_wait)
        if hedge_after is not None and hedge_after <= 0:
            raise InvalidParameterError(
                f"hedge_after must be > 0 or None, got {hedge_after}"
            )
        self._hedge_after = hedge_after
        # Hedged attempts run here; the pool starts its threads lazily.
        self._pool = None if hedge_after is None else ThreadPoolExecutor(
            max_workers=max(4, 2 * len(service.tiers)),
            thread_name_prefix="repro-hedge",
        )
        self._latency = LatencyTracker()
        self._watchdog = watchdog
        self._clock = clock
        self._counter_lock = threading.Lock()
        self._served = 0
        self._shed = 0
        self._hedges_fired = 0
        self._hedge_wins = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def service(self) -> ResilientEstimator:
        """The wrapped ladder."""
        return self._service

    @property
    def watchdog(self) -> Optional[CorruptionWatchdog]:
        """The attached corruption watchdog, if any."""
        return self._watchdog

    def start(self) -> "QueryServer":
        """Start background machinery (the watchdog thread, if attached)."""
        if self._watchdog is not None:
            self._watchdog.start()
        return self

    def drain(self, timeout: Optional[float] = 5.0) -> bool:
        """Shed new arrivals and wait for in-flight queries to finish."""
        self._admission.set_draining(True)
        return self._admission.wait_idle(timeout)

    def close(self, *, drain: bool = True, timeout: Optional[float] = 5.0
              ) -> None:
        """Drain (optionally), stop the watchdog and refuse further queries."""
        if drain:
            self.drain(timeout)
        else:
            self._admission.set_draining(True)
        if self._watchdog is not None:
            self._watchdog.stop()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        self._closed = True

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- statistics -----------------------------------------------------------

    def stats(self) -> ServerStats:
        """Snapshot of the serving front's counters."""
        with self._counter_lock:
            served, shed = self._served, self._shed
            fired, wins = self._hedges_fired, self._hedge_wins
        return ServerStats(
            admission=self._admission.stats(),
            inflight=self._admission.inflight,
            bulkhead_saturation=dict(self._bulkhead.saturation),
            hedges_fired=fired,
            hedge_wins=wins,
            served=served,
            shed=shed,
            watchdog_rounds=(
                self._watchdog.rounds if self._watchdog is not None else 0
            ),
            watchdog_events=(
                len(self._watchdog.events) if self._watchdog is not None else 0
            ),
        )

    # -- serving --------------------------------------------------------------

    def query(
        self,
        pattern: str,
        *,
        deadline: Union[Deadline, float, None] = None,
    ) -> Union[QueryOutcome, ShedOutcome]:
        """Serve one pattern; never blocks past admission + deadline bounds.

        Returns a :class:`QueryOutcome` when the ladder ran, or a
        :class:`ShedOutcome` when admission control answered from the
        always-available tier instead. Raises
        :class:`~repro.errors.ServerClosedError` after :meth:`close`.
        """
        budget, started = self._begin(pattern, deadline)
        reason = self._admission.admit(budget)
        if reason is not None:
            return self._shed_answer(pattern, reason, started)
        try:
            return self._serve(pattern, budget, started)
        finally:
            self._admission.release()

    def query_many(
        self, patterns: List[str]
    ) -> List[Union[QueryOutcome, ShedOutcome]]:
        """Serve a batch sequentially (each under its own admission slot)."""
        return [self.query(pattern) for pattern in patterns]

    def _begin(
        self, pattern: str, deadline: Union[Deadline, float, None]
    ) -> Tuple[Deadline, float]:
        """Validate one arrival: its budget and its start instant."""
        if self._closed:
            raise ServerClosedError("the serving front is closed")
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")
        started = self._clock()
        if isinstance(deadline, Deadline):
            return deadline, started
        if deadline is None:
            deadline = self._service._deadline_seconds
        return Deadline(deadline, self._clock), started

    def _serve(
        self, pattern: str, budget: Deadline, started: float
    ) -> QueryOutcome:
        """Run an admitted query down the ladder (hedged when enabled)."""
        if self._pool is not None:
            outcome = self._serve_hedged(pattern, budget, started)
        else:
            # Latency samples only feed the hedge timer, so none are kept.
            outcome = self._service.query(
                pattern, deadline=budget, tier_guard=self._bulkhead
            )
        with self._counter_lock:
            self._served += 1
        return outcome

    def _shed_answer(
        self, pattern: str, reason: str, started: float
    ) -> ShedOutcome:
        """Answer from the always-available tier without running the ladder.

        Every tier that declares a shed hook (:attr:`Tier.upgrades_shed`)
        may then replace the bound with a better answer; the first that
        does wins — same availability, tighter or exact answer.
        """
        tier = self._shed_tier
        count, model, threshold, _reliable = tier.answer(pattern, None)
        name, upgraded = tier.name, False
        for upgrader in self._shed_upgraders:
            try:
                better = upgrader.shed_upgrade(pattern, count)
            except Exception:  # noqa: BLE001 - shed path is best-effort
                continue
            if better is not None:
                (count, model), threshold = better, 1
                name, upgraded = upgrader.name, True
                break
        with self._counter_lock:
            self._shed += 1
        return ShedOutcome(
            pattern=pattern,
            count=count,
            tier=name,
            error_model=model,
            threshold=threshold,
            reason=reason,
            elapsed=self._clock() - started,
            upgraded=upgraded,
        )

    def _serve_hedged(
        self, pattern: str, budget: Deadline, started: float
    ) -> QueryOutcome:
        """The ladder's walk with speculative launches.

        Tier ``i+1`` launches when tier ``i`` has run for its hedge delay
        (its latency percentile, floored at ``hedge_after``) *or* has
        failed or declined. Each launch passes the ladder's skips and runs
        one :meth:`ResilientEstimator.attempt` on the pool under its own
        :class:`CancellableDeadline`. The first answer wins; the others
        are cancelled, and a cancelled attempt records no breaker outcome.
        Hedging replaces the retry policy: the next tier *is* the retry.
        Only a launch the timer fired is a hedge: a win counts in
        ``hedge_wins`` and marks the outcome ``hedged`` only when such a
        launch answered, not when a decline or failure handed over.
        """
        service = self._service
        tiers = service.tiers
        results: "queue.Queue[Tuple[int, str, object]]" = queue.Queue()
        cancels: List[CancellableDeadline] = []
        failures: List[Tuple[str, str]] = []
        out_of_time = False
        launched = outstanding = next_index = 0
        fired: List[int] = []  # tier indices the hedge timer launched

        def launch() -> bool:
            """Launch the next tier the skips let through."""
            nonlocal launched, outstanding, next_index
            while next_index < len(tiers):
                tier = tiers[next_index]
                next_index += 1
                skip = service.skip_reason(tier, budget, out_of_time)
                if skip is not None:
                    failures.append((tier.name, skip))
                    continue
                cancel = CancellableDeadline.from_deadline(budget)
                cancels.append(cancel)
                self._pool.submit(
                    self._timed_attempt, results, next_index - 1, tier,
                    pattern, cancel,
                )
                launched += 1
                outstanding += 1
                return True
            return False

        winner = None
        while outstanding or launch():
            timeout = None
            if next_index < len(tiers):
                observed = self._latency.percentile(
                    tiers[next_index - 1].name, HEDGE_PERCENTILE
                )
                timeout = max(self._hedge_after, observed or 0.0)
            try:
                index, kind, value = results.get(timeout=timeout)
            except queue.Empty:
                if launch():
                    fired.append(next_index - 1)
                    with self._counter_lock:
                        self._hedges_fired += 1
                continue
            outstanding -= 1
            if kind is ANSWERED:
                winner = index, value
                break
            failures.append((tiers[index].name, failure_reason(kind, value)))
            out_of_time = out_of_time or kind is DEADLINE
        for cancel in cancels:
            cancel.cancel()
        if winner is None:
            raise AllTiersFailedError(pattern, failures)
        index, answer = winner
        hedged = index in fired
        if hedged:
            with self._counter_lock:
                self._hedge_wins += 1
        # Attempts overlap, so a per-query engine delta would lie.
        return service.outcome(
            pattern, index, answer,
            elapsed=self._clock() - started,
            attempts=launched,
            failures=failures,
            engine=None,
            hedged=hedged,
        )

    def _timed_attempt(
        self,
        results: "queue.Queue[Tuple[int, str, object]]",
        index: int,
        tier: Tier,
        pattern: str,
        cancel: CancellableDeadline,
    ) -> None:
        """One hedged attempt on the pool; a win feeds the hedge timer."""
        begun = self._clock()
        kind, value, _work = self._service.attempt(
            tier, pattern, cancel, self._bulkhead
        )
        if kind is ANSWERED:
            self._latency.record(tier.name, self._clock() - begun)
        results.put((index, kind, value))
