"""One fan-out core for every sharded executor.

A sharded executor answers a pattern the same way whatever carries its
shard searches: an epoch-current verified count from an attached
:class:`~repro.hot.HotPatternTier` short-circuits the round; otherwise
one **round** asks every live slot for its raw per-shard answer, each
reply becomes a :class:`~repro.shard.merge.ShardAnswer` (a quarantined
or failed slot contributes its trivial ceiling), the executor folds the
answers, and the folded answer is fed back to the hot tier. A round is
answered in one of two ways:

* a plain in-process loop over the shard indexes
  (:class:`~repro.shard.estimator.ShardedEstimator`), which passes the
  caller's :class:`~repro.service.deadline.Deadline` to every shard
  search as it is;
* one pipe client over the daemon worker protocol
  (:func:`repro.shard.pipe.pipe_round`), which sends to every live
  worker before it collects any reply, inside one wall-clock window per
  round (:class:`~repro.parallel.executor.ProcessShardedEstimator` over
  one fixed segment set, :class:`~repro.daemon.supervisor.Supervisor`
  over the generation that admitted the call).

:class:`FanOut` owns the round shape, the hot routing and the scalar
wrappers; :class:`ShardFanOut` adds the ordered, named shard slots with
their quarantine lifecycle and merged serving metadata.
:class:`BackoffPolicy` is the one respawn policy both pipe executors
spend.
"""

from __future__ import annotations

import abc
import random
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError, PatternError
from ..service.deadline import Deadline
from ..textutil import Alphabet
from .merge import MergedCount, ShardAnswer, merge_answers, merged_threshold


class BackoffPolicy:
    """Capped, jittered exponential respawn delay under a sliding budget.

    Respawn ``i`` (0-based within the window) waits
    ``min(cap, base * 2**i) * U[0.5, 1]``. At most ``max_failures``
    respawns are granted within ``window`` seconds; the next request is
    refused, and the slot stays quarantined with degraded-but-sound
    answers instead of respawn-storming the host.
    """

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 1.0,
        max_failures: int = 3,
        window: float = 30.0,
        seed: int = 0,
    ):
        if base < 0 or cap < 0:
            raise InvalidParameterError("base and cap must be >= 0")
        if max_failures < 1:
            raise InvalidParameterError(
                f"max_failures must be >= 1, got {max_failures}"
            )
        if window <= 0:
            raise InvalidParameterError(f"window must be > 0, got {window}")
        self.base = base
        self.cap = cap
        self.max_failures = max_failures
        self.window = window
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        with self._lock:
            jitter = 0.5 + 0.5 * self._rng.random()
        return min(self.cap, self.base * (2 ** max(0, attempt))) * jitter

    def in_window(self, history: List[float], now: float) -> int:
        """How many of the respawn times in ``history`` fall in the window."""
        return sum(1 for t in history if now - t < self.window)

    def spend(self, history: List[float], now: float) -> Optional[float]:
        """Grant one respawn at ``now``, or refuse it once the budget is spent.

        ``history`` holds the slot's respawn times; it is pruned to the
        window in place and, when the respawn is granted, gains ``now``.
        Returns the delay to wait before respawning, or ``None``.
        """
        history[:] = [t for t in history if now - t < self.window]
        if len(history) >= self.max_failures:
            return None
        history.append(now)
        return self.delay(len(history) - 1)


class Slot:
    """One fan-out slot: a name plus its quarantine flag and reason."""

    __slots__ = ("name", "quarantined", "reason")

    def __init__(self, name: str):
        self.name = name
        self.quarantined = False
        self.reason = ""


def check_patterns(patterns: Sequence[str]) -> None:
    for pattern in patterns:
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")


class FanOut(OccurrenceEstimator):
    """Hot routing, rounds, answer assembly and the scalar wrappers.

    A subclass names the ``(ref, slot)`` pairs a call fans out to
    (:meth:`_targets`; ``ref`` carries the shard's name, model,
    threshold and ``ceiling(|P|)``), answers one round over the live
    ones (:meth:`_round`), and folds one pattern's answers
    (:meth:`_merge`, or :meth:`_exact` for a hot hit). ``context`` is
    whatever the subclass admitted the call under (the daemon's
    generation) and is passed through untouched.
    """

    #: The scalar methods take a deadline; the ladder's whole-pattern
    #: counter passes its own through instead of checking it once.
    accepts_deadline = True

    _hot = None

    def attach_hot(self, hot) -> None:
        """Route through a :class:`~repro.hot.HotPatternTier`.

        An epoch-current verified count answers without any shard
        round; every folded answer is reported back, so hot patterns
        verify themselves against what the round would produce.
        """
        self._hot = hot

    # -- subclass hooks -------------------------------------------------------

    @abc.abstractmethod
    def merged_count(self, pattern: str, deadline: Optional[Deadline] = None):
        """One pattern's folded answer (``count``, ``lo``, ``hi``, ``exact``)."""

    @abc.abstractmethod
    def _targets(self, context: Any) -> Sequence[Tuple[Any, Slot]]:
        """The ``(ref, slot)`` pairs of one call, in shard order."""

    @abc.abstractmethod
    def _round(
        self,
        slots: Sequence[Slot],
        op: str,
        payload: Any,
        deadline: Optional[Deadline],
        context: Any,
    ) -> List[Tuple[Any, str]]:
        """One ``(value, failure_reason)`` per live slot, in order."""

    def _merge(
        self, answers: List[ShardAnswer], pattern_length: int, context: Any
    ):
        return merge_answers(answers)

    def _exact(self, count: int, context: Any):
        """A hot hit as the one-answer exact merge a round would give."""
        answer = ShardAnswer(
            shard="hot", model=ErrorModel.EXACT, threshold=1, value=count,
            ceiling=count,
        )
        return MergedCount(
            count=count, lo=count, hi=count, error_model=ErrorModel.EXACT,
            threshold=1, degraded_shards=(), answers=(answer,),
        )

    # -- the round ------------------------------------------------------------

    def _gather(
        self,
        patterns: Sequence[str],
        deadline: Optional[Deadline],
        batch: bool,
        context: Any = None,
    ) -> list:
        """Answer ``patterns`` (one, or a batch in one round).

        Quarantined slots are not asked; a live slot that raises
        propagates the exception — an answer degrades only along paths
        whose weakened model is declared, never silently.
        """
        hot = self._hot
        results: list = [None] * len(patterns)
        cold: List[int] = []
        for qi, pattern in enumerate(patterns):
            exact = None if hot is None else hot.lookup_exact(pattern)
            if exact is None:
                cold.append(qi)
            else:
                results[qi] = self._exact(int(exact), context)
        if not cold:
            return results
        targets = self._targets(context)
        live = [i for i, (_, slot) in enumerate(targets) if not slot.quarantined]
        shipped = [patterns[qi] for qi in cold]
        op, payload = ("count_many", shipped) if batch else ("count", shipped[0])
        slots = [targets[i][1] for i in live]
        replies: Dict[int, Tuple[Any, str]] = dict(
            zip(live, self._round(slots, op, payload, deadline, context))
        )
        for ci, qi in enumerate(cold):
            pattern = patterns[qi]
            p = len(pattern)
            answers = []
            for i, (ref, slot) in enumerate(targets):
                value, reason = replies.get(
                    i, (None, slot.reason or "quarantined")
                )
                if reason:
                    answers.append(ShardAnswer(
                        shard=ref.name, model=None, threshold=ref.threshold,
                        value=None, ceiling=ref.ceiling(p), degraded=True,
                        reason=reason,
                    ))
                else:
                    answers.append(ShardAnswer(
                        shard=ref.name, model=ref.model,
                        threshold=ref.threshold,
                        value=value[ci] if batch else value,
                        ceiling=ref.ceiling(p),
                    ))
            answer = self._merge(answers, p, context)
            if hot is not None:
                try:
                    hot.observe(
                        pattern, answer.count,
                        ErrorModel.EXACT if answer.exact else answer.error_model,
                    )
                except Exception:  # noqa: BLE001 - feedback must never break serving
                    pass
            results[qi] = answer
        return results

    # -- scalar surface -------------------------------------------------------

    def count(self, pattern: str, deadline: Optional[Deadline] = None) -> int:
        """The merged scalar (the sound upper end of the merged interval)."""
        return self.merged_count(pattern, deadline).count

    def count_interval(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> Tuple[int, int]:
        """Sound ``[lo, hi]`` interval on the true corpus count."""
        merged = self.merged_count(pattern, deadline)
        return (merged.lo, merged.hi)

    def count_or_none(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> Optional[int]:
        """Certified-exact merged count, or ``None``.

        Exact iff no shard is degraded and every shard pins its count:
        exact shards always, lower-sided shards when they certify,
        uniform/upper-bound shards when they answer 0 (which their
        one-sided contracts make exact).
        """
        merged = self.merged_count(pattern, deadline)
        return merged.lo if merged.exact else None

    def is_reliable(self, pattern: str) -> bool:
        return self.count_or_none(pattern) is not None


class ShardFanOut(FanOut):
    """A fan-out over a fixed, ordered set of named shard slots.

    ``slots`` (insertion order is shard order) pair with ``refs``, the
    matching serving metadata (``name``, ``model``, ``threshold``,
    ``text_length``, ``characters``, ``ceiling``). A quarantined shard
    contributes only its trivial ceiling and drops the merged model to
    ``UPPER_BOUND``; the other shards keep answering.
    """

    def __init__(self, slots: List[Any], refs: Sequence[Any]):
        names = [slot.name for slot in slots]
        if not names:
            raise InvalidParameterError(
                f"{type(self).__name__} needs >= 1 shard"
            )
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"shard names must be unique: {names}")
        self._slots = slots
        self._refs = refs
        self._lock = threading.RLock()
        self._alphabet: Optional[Alphabet] = None

    def _targets(self, context: Any) -> Sequence[Tuple[Any, Slot]]:
        return list(zip(self._refs, self._slots))

    # -- merged serving metadata ----------------------------------------------

    @property
    def error_model(self) -> ErrorModel:  # type: ignore[override]
        """The weakest model any shard currently forces (dynamic: a
        quarantined shard degrades the whole estimator to UPPER_BOUND)."""
        if any(slot.quarantined for slot in self._slots):
            return ErrorModel.UPPER_BOUND
        models = [ref.model for ref in self._refs]
        if any(m is ErrorModel.UPPER_BOUND for m in models):
            return ErrorModel.UPPER_BOUND
        if all(m is ErrorModel.EXACT for m in models):
            return ErrorModel.EXACT
        return ErrorModel.UNIFORM

    @property
    def threshold(self) -> int:
        """The static merged threshold ``1 + sum (l_i - 1)``."""
        return merged_threshold([ref.threshold for ref in self._refs])

    @property
    def alphabet(self) -> Alphabet:
        """Union of the per-shard alphabets."""
        with self._lock:
            if self._alphabet is None:
                characters: set = set()
                for ref in self._refs:
                    characters.update(ref.characters)
                self._alphabet = Alphabet(characters)
            return self._alphabet

    @property
    def text_length(self) -> int:
        """Summed per-shard text lengths (the sharded corpus view; this
        exceeds the monolithic concatenation by the ``k - 1`` extra
        separators the per-shard texts carry)."""
        return sum(ref.text_length for ref in self._refs)

    @property
    def shard_names(self) -> List[str]:
        """Shard names in shard order."""
        return [slot.name for slot in self._slots]

    @property
    def k(self) -> int:
        """Number of shards."""
        return len(self._slots)

    # -- shard lifecycle ------------------------------------------------------

    def _slot(self, name: str) -> Any:
        for slot in self._slots:
            if slot.name == name:
                return slot
        raise InvalidParameterError(
            f"unknown shard {name!r} (have {self.shard_names})"
        )

    @property
    def degraded_shards(self) -> Tuple[str, ...]:
        """Names of shards currently quarantined."""
        return tuple(slot.name for slot in self._slots if slot.quarantined)

    def _fail(self, slot: Slot, reason: str) -> None:
        with self._lock:
            slot.quarantined = True
            slot.reason = reason

    def quarantine_shard(self, name: str, reason: str = "") -> None:
        """Pull one shard out of service; the others keep answering."""
        self._fail(self._slot(name), reason)

    def _responsive(self, slot: Slot) -> bool:
        return True

    def readmit_shard(self, name: str) -> None:
        """Return a shard to service (it must answer first)."""
        slot = self._slot(name)
        if not self._responsive(slot):
            raise InvalidParameterError(
                f"shard {name!r} has no responsive worker; use respawn_shard"
            )
        with self._lock:
            slot.quarantined = False
            slot.reason = ""

    def __repr__(self) -> str:
        degraded = len(self.degraded_shards)
        return (
            f"{type(self).__name__}(k={self.k}, chars={self.text_length}"
            + (f", degraded={degraded}" if degraded else "")
            + ")"
        )
