"""Cooperative wall-clock deadlines with an injectable clock.

A :class:`Deadline` is a cheap value object threaded through the query
path: long loops (the trie walk in
:class:`~repro.engine.planner.TrieBatchPlanner`, retry loops in
:class:`~repro.service.resilient.ResilientEstimator`) call
:meth:`Deadline.check` at natural yield points and abort with
:class:`~repro.errors.DeadlineExceededError` once the budget is spent.

The clock is any zero-argument callable returning seconds as a float
(``time.monotonic`` by default). Tests — and the fault injector's
simulated latency spikes — use :class:`ManualClock`, so every timeout
path is exercised deterministically, without real sleeps.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import DeadlineExceededError, InvalidParameterError

Clock = Callable[[], float]


class ManualClock:
    """A clock that only moves when told to — deterministic time for tests
    and for the fault injector's simulated latency spikes."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (never backward)."""
        if seconds < 0:
            raise InvalidParameterError(
                f"clock can only advance forward, got {seconds}"
            )
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Sleep substitute: advancing the clock *is* the sleep."""
        self.advance(seconds)


class Deadline:
    """Wall-clock budget for one query, checked cooperatively.

    ``seconds=None`` means unbounded: :meth:`check` never raises and
    :meth:`remaining` is ``inf``, so call sites need no None-guards.
    """

    __slots__ = ("_clock", "_expires_at", "seconds")

    #: Only a :class:`CancellableDeadline` can be revoked.
    cancelled = False

    def __init__(self, seconds: Optional[float], clock: Clock = time.monotonic):
        if seconds is not None and seconds < 0:
            raise InvalidParameterError(
                f"deadline seconds must be >= 0 or None, got {seconds}"
            )
        self.seconds = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def unbounded(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unbounded, floored at 0)."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self._expires_at is not None and self._clock() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` iff the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(
                f"query deadline of {self.seconds:.6g}s exceeded"
            )


class CancellableDeadline(Deadline):
    """A deadline that can also be revoked explicitly.

    Hedged queries hand each speculative attempt its own
    ``CancellableDeadline``; when one attempt wins, the server calls
    :meth:`cancel` on the losers and their next cooperative
    :meth:`~Deadline.check` (one per automaton extension inside the
    engine) aborts the search. Cancellation is sticky and thread-safe:
    ``cancel()`` is a single attribute write, observed by the worker
    thread at its next checkpoint.
    """

    __slots__ = ("_cancelled",)

    def __init__(self, seconds: Optional[float], clock: Clock = time.monotonic):
        super().__init__(seconds, clock)
        self._cancelled = False

    @classmethod
    def from_deadline(cls, deadline: Deadline) -> "CancellableDeadline":
        """A cancellable view with the budget ``deadline`` has left."""
        remaining = deadline.remaining()
        seconds = None if remaining == float("inf") else remaining
        return cls(seconds, deadline._clock)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (distinct from timing out)."""
        return self._cancelled

    def cancel(self) -> None:
        """Revoke the budget: every later check fails immediately."""
        self._cancelled = True

    def remaining(self) -> float:
        return 0.0 if self._cancelled else super().remaining()

    def expired(self) -> bool:
        return self._cancelled or super().expired()

    def check(self) -> None:
        if self._cancelled:
            raise DeadlineExceededError(
                "query cancelled (a hedged attempt won elsewhere)"
            )
        super().check()
