"""Per-tier circuit breaker: skip a persistently failing tier fast.

Classic three-state breaker (Nygard, *Release It!*), tuned for the
degradation ladder: a tier that keeps timing out or erroring should not be
paid its full latency on every query while it is down.

* **closed** — calls flow; outcomes land in a sliding window of the last
  ``window`` calls. Once the window holds ``min_calls`` outcomes and the
  failure fraction reaches ``failure_threshold``, the breaker opens.
* **open** — calls are refused (:meth:`allow` is False) until
  ``reset_timeout`` seconds pass on the injected clock.
* **half-open** — after the cooldown, :meth:`allow` issues at most
  ``trial_calls`` probe permits (concurrent callers beyond that are
  refused until the trials resolve). Any failure re-opens the breaker;
  ``trial_calls`` successes close it and clear the window.

The breaker is **thread-safe**: every transition and every window update
happens under one internal lock, so concurrent callers in the half-open
state are admitted exactly ``trial_calls`` at a time — N threads
hammering :meth:`allow` cannot stampede a recovering tier. The one read
taken without the lock is :meth:`allow` seeing a closed breaker (see
there); outcomes are always recorded under the lock, because
:meth:`failure_rate` iterates the window that :meth:`record_success`
appends to.

The clock is injectable (``time.monotonic`` by default), so state-machine
tests advance a :class:`~repro.service.deadline.ManualClock` instead of
sleeping.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Deque

from ..errors import InvalidParameterError
from .deadline import Clock


class BreakerState(enum.Enum):
    """Where the breaker currently is in its closed/open/half-open cycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate breaker over a sliding window of recent call outcomes."""

    def __init__(
        self,
        *,
        window: int = 16,
        min_calls: int = 4,
        failure_threshold: float = 0.5,
        reset_timeout: float = 30.0,
        trial_calls: int = 2,
        clock: Clock = time.monotonic,
    ):
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        if not 1 <= min_calls <= window:
            raise InvalidParameterError(
                f"min_calls must be in [1, window={window}], got {min_calls}"
            )
        if not 0.0 < failure_threshold <= 1.0:
            raise InvalidParameterError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise InvalidParameterError(
                f"reset_timeout must be >= 0, got {reset_timeout}"
            )
        if trial_calls < 1:
            raise InvalidParameterError(
                f"trial_calls must be >= 1, got {trial_calls}"
            )
        self._window: Deque[bool] = deque(maxlen=window)
        self._min_calls = min_calls
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._trial_calls = trial_calls
        self._clock = clock
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._trial_successes = 0
        #: Probe permits issued since entering half-open (allow() returning
        #: True counts as one; refused once trial_calls are outstanding).
        self._trial_admitted = 0

    @property
    def state(self) -> BreakerState:
        """Current state, accounting for an elapsed open-state cooldown."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def failure_rate(self) -> float:
        """Failure fraction over the sliding window (0.0 when empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            return sum(1 for ok in self._window if not ok) / len(self._window)

    def allow(self) -> bool:
        """Whether the protected tier may be called right now.

        In the half-open state each True return consumes one of the
        ``trial_calls`` probe permits; callers that receive True are
        expected to report the call's outcome via :meth:`record_success`
        or :meth:`record_failure`.

        A closed breaker answers without the lock. The read is one
        attribute load, and a closed breaker admits with no side effect
        (no permit to count, no cooldown to check), so the answer is the
        one the locked path gives. A transition racing the read (a
        failure opening the breaker) orders this call before it, exactly
        as if this call had taken the lock first.
        """
        if self._state is BreakerState.CLOSED:
            return True
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.OPEN:
                return False
            if self._state is BreakerState.HALF_OPEN:
                if self._trial_admitted >= self._trial_calls:
                    return False
                self._trial_admitted += 1
            return True

    def record_success(self) -> None:
        """Report one successful call through the breaker."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                self._window.append(True)
                return
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self._trial_successes += 1
                if self._trial_successes >= self._trial_calls:
                    self._close()
                return
            self._window.append(True)

    def record_failure(self) -> None:
        """Report one failed call; may trip the breaker."""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self._open()
                return
            self._window.append(False)
            if (
                len(self._window) >= self._min_calls
                and self.failure_rate() >= self._failure_threshold
            ):
                self._open()

    def force_open(self) -> None:
        """Trip the breaker unconditionally (quarantine support).

        The watchdog uses this when a tier contradicts its error contract:
        the breaker opens *now*, regardless of the sliding window.
        """
        with self._lock:
            self._open()

    def force_close(self) -> None:
        """Reset the breaker to closed with a clean window (readmission)."""
        with self._lock:
            self._close()

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self._reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._trial_successes = 0
            self._trial_admitted = 0

    def _open(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._trial_successes = 0
        self._trial_admitted = 0

    def _close(self) -> None:
        self._state = BreakerState.CLOSED
        self._window.clear()
        self._trial_successes = 0
        self._trial_admitted = 0
