"""Admission control for the concurrent serving front.

Under overload a service has three honest options: queue (and blow the
deadline), refuse (and lose availability), or *shed* — answer with a
cheaper, less accurate tier that cannot stall. The paper's tier hierarchy
makes shedding principled: the always-available statistics tier is a sound
upper bound computed by pure arithmetic, so an overloaded server can
legally trade error bound for latency instead of queueing past the
deadline.

Two mechanisms gate entry, both thread-safe and clock-injectable:

* :class:`TokenBucket` — classic rate limiter: ``rate`` tokens/second
  refill up to ``burst``; a query that finds no token is shed with reason
  ``"rate limited"``.
* :class:`AdmissionController` — a bounded in-flight pool plus a bounded
  wait queue. At most ``max_concurrent`` queries run at once; up to
  ``max_waiting`` more may wait (never longer than ``max_wait`` seconds,
  or the query's own remaining deadline, whichever is smaller); everything
  else is shed immediately with reason ``"admission queue full"``.

The controller decides once for both serving fronts and never waits on
its own account: :meth:`AdmissionController.arrive` and
:meth:`AdmissionController.settle` apply the drain, rate, capacity and
wait-room rules and the wait budget, and the front supplies the wait — a
:class:`threading.Condition` in :meth:`AdmissionController.admit`, an
awaited future in the asyncio front. It never answers queries itself: it
returns a shed *reason* (or ``None`` for admitted), and the front turns
the reason into a :class:`~repro.service.outcome.ShedOutcome` served by
the statistics tier.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Optional, Union

from ..errors import InvalidParameterError
from .deadline import Clock, Deadline


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second, capacity ``burst``.

    The clock is injectable; tests refill deterministically on a
    :class:`~repro.service.deadline.ManualClock`.
    """

    def __init__(
        self, rate: float, burst: float, *, clock: Clock = time.monotonic
    ):
        if rate <= 0:
            raise InvalidParameterError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise InvalidParameterError(f"burst must be >= 1, got {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available right now (never blocks)."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._updated)
            self._updated = now
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def available(self) -> float:
        """Current token count (after refill), for diagnostics."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._updated)
            self._updated = now
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
            return self._tokens


@dataclass
class AdmissionStats:
    """Counters of admission decisions (cumulative, snapshot via copy)."""

    admitted: int = 0
    rate_limited: int = 0
    queue_full: int = 0
    queue_timeout: int = 0
    drained: int = 0

    @property
    def shed(self) -> int:
        """Total queries refused admission for any reason."""
        return (
            self.rate_limited + self.queue_full + self.queue_timeout
            + self.drained
        )

    def copy(self) -> "AdmissionStats":
        return AdmissionStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )


class AdmissionController:
    """Bounded in-flight pool with a bounded, deadline-aware wait queue.

    The rules live in :meth:`arrive` and :meth:`settle`, which decide
    without waiting: a drain or rate-limit shed, a free slot, no wait
    room, or how long a query may wait. :meth:`admit` supplies the wait
    over a :class:`threading.Condition`; the asyncio front supplies its
    own over the same two calls (see
    :class:`~repro.parallel.asyncserver.AsyncQueryServer`).
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 8,
        max_waiting: int = 16,
        max_wait: float = 0.05,
        bucket: Optional[TokenBucket] = None,
    ):
        if max_concurrent < 1:
            raise InvalidParameterError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if max_waiting < 0:
            raise InvalidParameterError(
                f"max_waiting must be >= 0, got {max_waiting}"
            )
        if max_wait < 0:
            raise InvalidParameterError(f"max_wait must be >= 0, got {max_wait}")
        self._max_concurrent = max_concurrent
        self._max_waiting = max_waiting
        self._max_wait = max_wait
        self._bucket = bucket
        # Decisions take the lock itself; only waits go through the
        # condition (its context manager is a Python-level call).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._inflight = 0
        self._waiting = 0
        #: Threads in :meth:`wait_idle`, the other sleepers on ``_cond``.
        self._idle_waiters = 0
        self._draining = False
        self._stats = AdmissionStats()

    @property
    def inflight(self) -> int:
        """Queries currently admitted and not yet released."""
        with self._lock:
            return self._inflight

    def stats(self) -> AdmissionStats:
        """Snapshot of the admission counters."""
        with self._lock:
            return self._stats.copy()

    def set_draining(self, draining: bool = True) -> None:
        """While draining, every new arrival is shed (reason ``draining``)."""
        with self._lock:
            self._draining = draining
            self._cond.notify_all()

    def arrive(self, deadline: Optional[Deadline] = None
               ) -> Union[None, str, float]:
        """Decide one arrival without waiting.

        ``None`` admits it (pair with :meth:`release`); a string is the
        shed reason. A float is the ``time.monotonic()`` instant the
        query may wait until, at most ``max_wait`` and never past its
        own deadline: the caller waits for a :meth:`release` or that
        instant, then asks :meth:`settle`.
        """
        with self._lock:
            # Rate first, then drain; a draining front names the drain
            # whichever check refused the arrival.
            if self._bucket is not None and not self._bucket.try_acquire():
                if self._draining:
                    return self._shed("drained", "draining")
                return self._shed("rate_limited", "rate limited")
            if self._draining:
                return self._shed("drained", "draining")
            if self._inflight < self._max_concurrent:
                self._inflight += 1
                self._stats.admitted += 1
                return None
            if self._waiting >= self._max_waiting:
                return self._shed("queue_full", "admission queue full")
            budget = self._max_wait
            if deadline is not None:
                budget = min(budget, deadline.remaining())
            if budget <= 0:
                return self._shed("queue_full", "admission queue full")
            self._waiting += 1
            return time.monotonic() + budget

    def settle(self, until: float) -> Union[None, str, float]:
        """Decide a waiting query again (the result :meth:`arrive` names).

        A free slot admits it; past ``until`` it is shed as timed out; a
        drain sheds it; otherwise it keeps waiting until ``until``.
        """
        with self._lock:
            if self._inflight < self._max_concurrent:
                self._waiting -= 1
                self._inflight += 1
                self._stats.admitted += 1
                return None
            if time.monotonic() >= until:
                self._waiting -= 1
                return self._shed("queue_timeout", "admission queue timeout")
            if self._draining:
                self._waiting -= 1
                return self._shed("drained", "draining")
            return until

    def withdraw(self) -> None:
        """A waiter gives up before :meth:`settle` decided it."""
        with self._lock:
            self._waiting -= 1

    def _shed(self, counter: str, reason: str) -> str:
        setattr(self._stats, counter, getattr(self._stats, counter) + 1)
        return reason

    def admit(self, deadline: Optional[Deadline] = None) -> Optional[str]:
        """Try to admit one query, waiting on the condition if allowed.

        Returns ``None`` on admission (the caller *must* pair it with
        :meth:`release`), or the shed reason. Waiting is bounded by
        ``max_wait`` and by the query's remaining deadline — a query is
        shed rather than queued past the point it could still be served.
        """
        decision = self.arrive(deadline)
        if not isinstance(decision, float):
            return decision
        # Settle before each wait, under the lock the wait releases, so a
        # slot freed since arrive() is never missed.
        with self._lock:
            try:
                while True:
                    decision = self.settle(decision)
                    if not isinstance(decision, float):
                        return decision
                    left = decision - time.monotonic()
                    if left > 0:
                        self._cond.wait(timeout=left)
            finally:
                if isinstance(decision, float):  # interrupted while waiting
                    self.withdraw()

    def release(self) -> None:
        """Return one admitted query's slot to the pool.

        Only waiting arrivals (counted in ``_waiting`` from their arrival
        to their settlement) and :meth:`wait_idle` callers sleep on the
        condition, and both register under the lock before they sleep,
        so a release that sees neither has no one to wake.
        """
        with self._lock:
            if self._inflight <= 0:
                raise InvalidParameterError(
                    "release() without a matching successful admit()"
                )
            self._inflight -= 1
            if self._waiting or self._idle_waiters:
                self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no query is in flight; True iff fully drained."""
        end = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._idle_waiters += 1
            try:
                while self._inflight > 0:
                    left = None if end is None else end - time.monotonic()
                    if left is not None and left <= 0:
                        return False
                    if not self._cond.wait(timeout=left):
                        return False
                return True
            finally:
                self._idle_waiters -= 1
