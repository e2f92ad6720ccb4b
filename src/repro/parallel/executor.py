"""Process-parallel sharded serving over shared-memory segments.

:class:`ProcessShardedEstimator` is the multiprocess sibling of
:class:`~repro.shard.estimator.ShardedEstimator`: the same fan-out core
(:mod:`repro.shard.fanout`), the same per-shard answer semantics, the
same :func:`~repro.shard.merge.merge_answers` error algebra — but each
shard's index lives in a **worker process** that attached the shard's
shared segment (:mod:`repro.parallel.pool`) as zero-copy views. The
parent holds no index at all: only the segment headers' serving metadata
(error model, threshold, text length, alphabet), which is exactly what
the merge needs.

Workers run the daemon worker protocol (:mod:`repro.daemon.worker`):
each attaches its shard's segment as one fixed generation, and every
round goes through the shared pipe client (:mod:`repro.shard.pipe`),
which sends to every worker before it collects any reply. A worker that
reports an error makes the parent re-raise (a live shard's failure
propagates, it never silently degrades). A worker that **dies** — pipe
EOF, no reply within the round's window, process gone — is quarantined:
its contribution degrades to the trivial ceiling, the merged model
drops to ``UPPER_BOUND``, and the remaining shards keep serving.
:meth:`ProcessShardedEstimator.respawn_shard` starts a fresh worker
against the same shared segment (nothing to rebuild: the index bytes
never left shared memory).

Workers are started with the ``spawn`` method: nothing is inherited from
the parent, so the only way a worker can answer is through the shared
segment — which is the zero-copy claim the differential tests pin down.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.interface import OccurrenceEstimator
from ..errors import InvalidParameterError, ReproError
from ..service.deadline import Deadline
from ..shard.fanout import BackoffPolicy, ShardFanOut, check_patterns
from ..shard.merge import MergedCount
from ..shard.pipe import PipeWorker, pipe_round, round_window
from ..space import SpaceReport
from .pool import SegmentPool
from .segment import write_estimator_segment

#: The generation number every worker attaches its one segment under.
_GENERATION = 0


class ProcessShardedEstimator(ShardFanOut):
    """``k`` shard indexes served by worker processes over shared segments.

    Construct from serialised segments (``name -> bytes``, e.g. from
    :func:`~repro.parallel.segment.write_estimator_segment` or loaded
    from disk), or directly from live estimators via
    :meth:`from_estimators`. Intervals, scalars and the error-model
    algebra are identical to the in-process
    :class:`~repro.shard.estimator.ShardedEstimator` over the same shard
    indexes — the differential tests and the parallel benchmark assert
    exactly that. ``backoff`` budgets :meth:`respawn_shard`.

    Always :meth:`close` (or use as a context manager): the estimator
    owns worker processes and shared-memory blocks.
    """

    def __init__(
        self,
        segments: "Mapping[str, bytes] | Sequence[Tuple[str, bytes]]",
        *,
        max_states: int = 4096,
        worker_timeout: float = 60.0,
        start_method: str = "spawn",
        backoff: Optional[BackoffPolicy] = None,
    ):
        items = (
            list(segments.items())
            if isinstance(segments, Mapping)
            else list(segments)
        )
        if worker_timeout <= 0:
            raise InvalidParameterError(
                f"worker_timeout must be > 0, got {worker_timeout}"
            )
        super().__init__([PipeWorker(name) for name, _ in items], [])
        self._ctx = mp.get_context(start_method)
        self._max_states = max_states
        self._worker_timeout = worker_timeout
        self._backoff = backoff or BackoffPolicy()
        self._pool = SegmentPool()
        self._closed = False
        try:
            for name, blob in items:
                self._refs.append(self._pool.publish(name, blob).ref)
            for slot in self._slots:
                self._start(slot)
        except Exception:
            self.close()
            raise

    @classmethod
    def from_estimators(
        cls,
        estimators: "Mapping[str, OccurrenceEstimator] | Sequence[Tuple[str, OccurrenceEstimator]]",
        **kwargs: Any,
    ) -> "ProcessShardedEstimator":
        """Export each estimator to a segment and serve it from workers."""
        items = (
            list(estimators.items())
            if isinstance(estimators, Mapping)
            else list(estimators)
        )
        segments = [
            (name, write_estimator_segment(est, name)) for name, est in items
        ]
        return cls(segments, **kwargs)

    # -- worker lifecycle -----------------------------------------------------

    def _start(self, slot: PipeWorker) -> None:
        """Spawn a worker for ``slot`` and attach its shard's segment."""
        slot.spawn(self._ctx, self._max_states, self._worker_timeout)
        ref = self._refs[self._slots.index(slot)]
        telemetry, reason = pipe_round(
            [slot], ("attach", _GENERATION, ref.shm_name),
            self._worker_timeout, self._fail,
        )[0]
        if reason:
            raise ReproError(
                f"worker for shard {slot.name!r} could not attach its "
                f"segment: {reason}"
            )
        slot.attached[_GENERATION] = telemetry
        with self._lock:
            slot.quarantined = False
            slot.reason = ""

    def close(self) -> None:
        """Stop every worker and unlink the shared segments. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.kill()
        self._pool.close()

    def __enter__(self) -> "ProcessShardedEstimator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _responsive(self, slot: PipeWorker) -> bool:
        """Liveness is proven by a protocol ping, not by process state: a
        freshly SIGKILLed worker can report alive for a moment (its pipe
        is at EOF before the zombie is reapable), and a wedged worker is
        alive but useless. Only a worker that answers gets readmitted."""
        try:
            value, _ = pipe_round([slot], ("ping",), 1.0, self._fail)[0]
        except ReproError:
            return False
        return value == "pong"

    def respawn_shard(self, name: str) -> None:
        """Replace a dead or wedged worker with a fresh one attached to
        the *same* shared segment (the index bytes never left memory).

        Respawns are budgeted by the ``backoff`` policy: each one waits
        its jittered exponential delay before spawning, and once the
        window's budget is spent the shard is quarantined and a
        :class:`~repro.errors.ReproError` raised instead — a
        crash-looping worker degrades to its sound ceiling rather than
        respawn-storming the host.
        """
        slot = self._slot(name)
        delay = self._backoff.spend(slot.respawn_times, time.monotonic())
        if delay is None:
            budget = (
                f"{self._backoff.max_failures} respawns within "
                f"{self._backoff.window:.0f}s"
            )
            self.quarantine_shard(name, f"respawn budget exhausted ({budget})")
            raise ReproError(
                f"shard {name!r} exhausted its respawn budget ({budget}); "
                "it stays quarantined (degraded upper-bound answers)"
            )
        time.sleep(delay)
        slot.respawns += 1
        slot.kill()
        self._start(slot)

    def respawn_telemetry(self) -> Dict[str, Dict[str, float]]:
        """Per-shard respawn accounting: lifetime attempts, attempts in
        the current window, and the budget remaining before quarantine."""
        now = time.monotonic()
        out: Dict[str, Dict[str, float]] = {}
        for slot in self._slots:
            windowed = self._backoff.in_window(slot.respawn_times, now)
            out[slot.name] = {
                "respawns": slot.respawns,
                "window_respawns": windowed,
                "budget_remaining": max(
                    0, self._backoff.max_failures - windowed
                ),
            }
        return out

    def worker_pid(self, name: str) -> Optional[int]:
        """The shard worker's OS pid (fault-injection tests kill it)."""
        slot = self._slot(name)
        return None if slot.process is None else slot.process.pid

    # -- counting -------------------------------------------------------------

    def _round(self, slots, op, payload, deadline, context):
        remaining, window = round_window(deadline, self._worker_timeout)
        return pipe_round(
            slots, (op, _GENERATION, payload, remaining), window, self._fail
        )

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("ProcessShardedEstimator is closed")

    def merged_count(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> MergedCount:
        """Fan one pattern out to every shard worker and merge."""
        check_patterns([pattern])
        self._check_open()
        return self._gather([pattern], deadline, False)[0]

    def merged_count_many(
        self, patterns: Sequence[str], deadline: Optional[Deadline] = None
    ) -> List[MergedCount]:
        """A whole workload in **one protocol round per shard**.

        This is the throughput path: each worker answers its entire batch
        through its memoising counter before replying, so the per-query
        cost is one local search, not one IPC round trip. Scalars and
        intervals are identical to ``k`` :meth:`merged_count` calls.
        Verified epoch-current hot patterns never reach the pipe at all.
        """
        patterns = list(patterns)
        check_patterns(patterns)
        self._check_open()
        return self._gather(patterns, deadline, True)

    # -- space ----------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Per-shard reports (from the attach telemetry) rolled up, with
        every shard's segment accounted **once per host** under ``shared``
        and the worker count recorded — so ``resident_per_worker`` shows
        what each process actually adds beyond the shared maps."""
        parts = []
        shared: Dict[str, int] = {}
        for slot, ref in zip(self._slots, self._refs):
            telemetry = slot.attached.get(_GENERATION, {})
            parts.append(SpaceReport(
                slot.name,
                dict(telemetry.get("space_components", {})),
                dict(telemetry.get("space_overhead", {})),
            ))
            shared[f"{slot.name}.segment"] = ref.nbytes * 8
        merged = SpaceReport.merge(parts, name="ProcessShardedEstimator")
        return SpaceReport(
            merged.name,
            dict(merged.components),
            dict(merged.overhead),
            shared,
            len(self._slots),
        )

    def attach_telemetry(self) -> Dict[str, Dict[str, int]]:
        """Per-shard zero-copy evidence from the worker attaches:
        ``segment_bytes`` mapped vs ``attach_alloc_bytes`` the attach
        actually allocated in the worker."""
        out: Dict[str, Dict[str, int]] = {}
        for slot in self._slots:
            telemetry = slot.attached.get(_GENERATION, {})
            out[slot.name] = {
                "segment_bytes": int(telemetry.get("segment_bytes", 0)),
                "attach_alloc_bytes": int(
                    telemetry.get("attach_alloc_bytes", 0)
                ),
            }
        return out
