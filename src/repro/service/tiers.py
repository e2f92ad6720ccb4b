"""Ladder tiers: estimator wrappers and the last-resort statistics tier.

A :class:`Tier` binds one :class:`~repro.core.interface.OccurrenceEstimator`
into the degradation ladder: a stable name, a
:class:`~repro.engine.IndexCounter` for deadline-aware counting, an
optional *certified-only* mode (serve only answers the index certifies as
exact, decline the rest down the ladder), and a slot for the tier's
circuit breaker.

:class:`TextStatsEstimator` is the tier of last resort: an
:data:`~repro.core.interface.ErrorModel.UPPER_BOUND` estimator computed
from character statistics alone. It is pure arithmetic — no search loop,
no backend that can fail or stall — so the ladder can always produce a
sound (if loose) answer, even after the deadline has expired.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..bits import bits_needed
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..engine import IndexCounter
from ..errors import IndexCorruptedError
from ..space import SpaceReport
from ..textutil import Alphabet, Text
from .breaker import CircuitBreaker
from .deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class TierDeclined(Exception):
    """Internal control flow: a certified-only tier cannot certify this
    pattern and passes it down the ladder. Never escapes the service layer."""


class TextStatsEstimator(OccurrenceEstimator):
    """Conservative upper bound from character statistics.

    For every position ``k`` of the pattern, distinct occurrences of ``P``
    start at distinct text positions, so each maps to a distinct occurrence
    of the character ``P[k]``; hence ``Count(P) <= min_c freq(c)`` over the
    pattern's characters, and trivially ``Count(P) <= n - |P| + 1``. The
    estimate is the smaller of the two (0 if any character is absent).
    """

    error_model = ErrorModel.UPPER_BOUND

    def __init__(self, text: "BuildContext | Text | str"):
        """Build over a text (a :class:`~repro.build.BuildContext` gives
        its text: pure character statistics, no shared artifact)."""
        from ..build import BuildContext

        text = BuildContext.of(text).text
        self._alphabet = text.alphabet
        self._text_length = len(text)
        self._frequencies = Counter(text.raw)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    def count(self, pattern: str) -> int:
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0
        positional = max(0, self._text_length - len(pattern) + 1)
        rarest = min(self._frequencies.get(ch, 0) for ch in set(pattern))
        return min(positional, rarest)

    def space_report(self) -> SpaceReport:
        counter_bits = max(1, bits_needed(max(1, self._text_length)))
        return SpaceReport(
            name="TextStatsEstimator",
            components={
                "char_frequencies": len(self._frequencies) * counter_bits,
            },
        )


class Tier:
    """One rung of the degradation ladder.

    ``certified_only=True`` restricts the tier to answers its estimator
    certifies as exact (via ``count_or_none``); anything else raises
    :class:`TierDeclined` so the ladder falls through — a decline is a
    healthy "I don't know", not a failure. ``always_available`` marks a
    tier (the statistics tier) that is pure arithmetic and may be called
    even after the query deadline has expired.

    Every answer is sanity-checked against the feasible range
    ``[0, n - |P| + 1]``; an out-of-range value (e.g. from a corrupted
    backend) raises :class:`~repro.errors.IndexCorruptedError` and drops
    the tier's memoised cache, so a retry recomputes from scratch.

    A tier can also be **quarantined** (see
    :class:`~repro.service.watchdog.CorruptionWatchdog`): the ladder skips
    a quarantined tier unconditionally until :meth:`readmit` is called,
    and :meth:`replace_estimator` swaps in a freshly rebuilt backend with
    a clean memo cache. Quarantine flags and estimator swaps are guarded
    by an internal lock so the watchdog thread and serving threads can
    race safely.

    Stateful tiers (the hot-pattern tier) set :attr:`wants_feedback` and
    override :meth:`observe`: after every served query the ladder reports
    the winning outcome back, which is how a frequency-aware tier learns
    the traffic and caches ladder-verified answers without a second
    query path. The same tiers may set :attr:`upgrades_shed` and override
    :meth:`shed_upgrade`, which the serving fronts call on every shed
    answer.
    """

    #: Stateful tiers set this to receive :meth:`observe` callbacks.
    wants_feedback = False
    #: Tiers that can tighten a shed answer set this and override
    #: :meth:`shed_upgrade`.
    upgrades_shed = False

    def __init__(
        self,
        estimator: OccurrenceEstimator,
        name: Optional[str] = None,
        *,
        certified_only: bool = False,
        always_available: bool = False,
        breaker: Optional[CircuitBreaker] = None,
        max_states: Optional[int] = 4096,
    ):
        self.estimator = estimator
        self.name = name or type(estimator).__name__
        self.certified_only = certified_only
        self.always_available = always_available
        self.breaker = breaker
        self._max_states = max_states
        self._lock = threading.RLock()
        self._quarantined = False
        self._quarantine_reason = ""
        self._counter = IndexCounter(estimator, max_states=max_states)

    @property
    def quarantined(self) -> bool:
        """Whether the watchdog has pulled this tier out of service."""
        return self._quarantined

    @property
    def quarantine_reason(self) -> str:
        """Why the tier was quarantined (empty when in service)."""
        return self._quarantine_reason

    def quarantine(self, reason: str) -> None:
        """Pull the tier out of the ladder until :meth:`readmit`."""
        with self._lock:
            self._quarantined = True
            self._quarantine_reason = reason

    def readmit(self) -> None:
        """Return the tier to service."""
        with self._lock:
            self._quarantined = False
            self._quarantine_reason = ""

    def replace_estimator(self, estimator: OccurrenceEstimator) -> None:
        """Swap in a rebuilt backend with a fresh (empty) memo cache.

        In-flight answers from the old backend complete against the old
        counter; new queries see only the replacement.
        """
        with self._lock:
            self.estimator = estimator
            self._counter = IndexCounter(estimator, max_states=self._max_states)

    @property
    def engine_stats(self):
        """Lifetime :class:`~repro.engine.stats.EngineStats` of this tier's
        counter (the serving layer snapshots it around each attempt to
        report per-query work in the outcome)."""
        return self._counter.stats

    def answer(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> Tuple[int, ErrorModel, int, bool]:
        """Serve one pattern: ``(count, honored model, threshold, reliable)``.

        Raises :class:`TierDeclined` in certified-only mode when the
        estimator cannot certify the pattern.
        """
        if self.certified_only:
            value = self._counter.count_or_none(pattern, deadline)
            if value is None:
                raise TierDeclined(self.name)
            self._check_feasible(pattern, value, slack=0)
            return int(value), ErrorModel.EXACT, 1, True
        value = self._counter.count(pattern, deadline)
        model = self.estimator.error_model
        threshold = self.estimator.threshold
        # UNIFORM / LOWER_SIDED contracts allow answers up to l - 1 above
        # (resp. below-threshold junk up to l - 1 beyond) the trivial
        # occurrence ceiling, so the feasibility check must grant that slack.
        slack = 0 if model is ErrorModel.EXACT else max(0, threshold - 1)
        self._check_feasible(pattern, value, slack=slack)
        if model is ErrorModel.EXACT:
            reliable = True
        elif model is ErrorModel.LOWER_SIDED:
            reliable = value >= threshold
        elif model is ErrorModel.UPPER_BOUND:
            reliable = value == 0
        else:
            reliable = threshold == 1
        return int(value), model, threshold, reliable

    def observe(self, pattern: str, outcome) -> None:
        """Feedback hook: the ladder reports each served
        :class:`~repro.service.outcome.QueryOutcome` to every tier whose
        :attr:`wants_feedback` is set (skipping the tier that answered).
        The base tier is stateless and ignores it."""

    def shed_upgrade(
        self, pattern: str, count: int
    ) -> Optional[Tuple[int, ErrorModel]]:
        """Shed hook: a tighter answer than the shed bound ``count``.

        When admission sheds a query, the front answers it from the
        always-available tier and then offers that bound to every tier
        whose :attr:`upgrades_shed` is set. ``(count, model)`` replaces
        the bound; None keeps it. The base tier offers nothing.
        """
        return None

    def _check_feasible(self, pattern: str, value: object, slack: int) -> None:
        ceiling = max(0, self.estimator.text_length - len(pattern) + 1) + slack
        if (
            not isinstance(value, (int, np.integer))
            or isinstance(value, bool)
            or not 0 <= int(value) <= ceiling
        ):
            # The memoised cache may now hold the corrupted value; drop it.
            self._counter.clear()
            raise IndexCorruptedError(
                f"tier {self.name!r} produced an infeasible answer {value!r} "
                f"for pattern {pattern!r} (feasible range [0, {ceiling}])"
            )
