"""The serving supervisor: crash-only control plane over a live corpus.

:class:`Supervisor` is the long-lived owner of the serving side of a
:class:`~repro.live.corpus.LiveCorpus`: it publishes **generations**
(immutable shared-memory segment sets, :mod:`repro.daemon.generation`),
runs a fleet of worker processes that attach them
(:mod:`repro.daemon.worker`), monitors the fleet with heartbeats, and
swaps generations under live traffic with a drain barrier. It implements
:class:`~repro.core.interface.OccurrenceEstimator`, so it drops into the
existing service ladder (``Tier(supervisor, "daemon")`` behind a
:class:`~repro.service.server.QueryServer` or
:class:`~repro.service.server.AsyncQueryServer`) unchanged.

Generation flip ordering (the invariants the chaos suite pins down)::

    publish   pool G+1 created, blobs digest-verified on the way in
    attach    every worker parses + attaches G+1 (G still serving)
    activate  admission pointer moves to G+1 (one assignment, under lock)
    release   wait: in-flight queries admitted under G reach zero
              then workers drop G, then G's pool is unlinked

A crash *before* activate leaves G serving and G+1 at worst as orphaned
shared blocks (reclaimed by pool cleanup / the resource tracker); a crash
*after* activate leaves G+1 serving. There is no point at which a query
can observe half of each — admission is a single pointer move, and
workers verify every segment digest at attach, so a torn export can
never be admitted at all.

Failure policy (crash-only): the supervisor holds **no durable state**.
Everything it serves is re-derivable from the corpus directory — restart
is :meth:`Supervisor.open`, which recovers the latest committed manifest
plus the WAL tail and republishes. Worker crashes are absorbed: the dead
worker's segments degrade to their sound ceilings (merged model
``UPPER_BOUND``) while a monitor thread respawns it under capped,
jittered exponential backoff (:class:`~repro.shard.fanout.BackoffPolicy`);
a worker that keeps dying is *condemned* (quarantined for good, answers
stay degraded-but-sound) instead of being respawned in a hot loop.

Queries go through the shared fan-out core (:mod:`repro.shard.fanout`)
and pipe client (:mod:`repro.shard.pipe`); what is the supervisor's own
is the generation lifecycle, the monitor, and the fold that widens the
shard merge by the generation's tombstones and adds its exact delta.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.interface import ErrorModel
from ..errors import InvalidParameterError, ReproError
from ..live.corpus import LiveCorpus
from ..service.deadline import Deadline
from ..service.faults import SimulatedCrashError
from ..shard.fanout import BackoffPolicy, FanOut, check_patterns
from ..shard.merge import ShardAnswer, merge_answers
from ..shard.pipe import BUSY, PipeWorker, pipe_round, round_window
from ..space import SpaceReport
from ..textutil import Alphabet
from .generation import DELTA_SEGMENT, Generation, GenerationPublisher


@dataclass(frozen=True)
class DaemonAnswer:
    """One merged answer, stamped with the generation that served it.

    ``lo``/``hi`` bracket the true count of the corpus state the
    generation froze: the compacted-shard merge widened by the
    generation's tombstones on the low side, plus the exact delta
    segment. ``count`` is ``hi`` — the over-count-never-under-count
    convention every layer of the merge algebra shares.
    """

    generation: int
    lo: int
    hi: int
    error_model: ErrorModel
    threshold: int
    widening: int
    degraded: Tuple[str, ...]

    @property
    def count(self) -> int:
        return self.hi

    @property
    def exact(self) -> bool:
        return self.lo == self.hi and not self.degraded


class Supervisor(FanOut):
    """Crash-only serving supervisor with generation-based hot reload.

    Construct over an open :class:`~repro.live.corpus.LiveCorpus` (or via
    :meth:`open` to recover a directory) and call :meth:`start`; the
    supervisor publishes the corpus's current state as generation
    ``corpus.generation``, spawns one worker per segment, registers a
    manifest-commit listener (every compaction hot-reloads automatically)
    and starts the heartbeat monitor. :meth:`reload` publishes and flips
    on demand (e.g. after a batch of appends, without waiting for
    compaction). Always :meth:`close` — the supervisor owns processes and
    shared memory.
    """

    def __init__(
        self,
        corpus: LiveCorpus,
        *,
        owns_corpus: bool = False,
        max_states: int = 4096,
        worker_timeout: float = 30.0,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        drain_timeout: float = 30.0,
        backoff: Optional[BackoffPolicy] = None,
        injector: Optional[Any] = None,
        start_method: str = "spawn",
        auto_publish: bool = True,
    ):
        if worker_timeout <= 0 or heartbeat_interval <= 0:
            raise InvalidParameterError(
                "worker_timeout and heartbeat_interval must be > 0"
            )
        self._corpus = corpus
        self._owns_corpus = owns_corpus
        self._ctx = mp.get_context(start_method)
        self._max_states = max_states
        self._worker_timeout = worker_timeout
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._drain_timeout = drain_timeout
        self._backoff = backoff or BackoffPolicy()
        self._injector = injector
        self._auto_publish = auto_publish
        self._publisher = GenerationPublisher(corpus, injector=injector)

        #: Guards generations/pools/current/in-flight/worker health state.
        self._lock = threading.RLock()
        self._drain_cond = threading.Condition(self._lock)
        #: Serialises publish/flip/retire and fleet growth.
        self._flip_lock = threading.RLock()
        self._workers: List[PipeWorker] = []
        self._generations: Dict[int, Generation] = {}
        self._pools: Dict[int, Any] = {}
        self._current: Optional[int] = None
        self._inflight: Dict[int, int] = {}
        self._epoch = corpus.generation - 1
        self._in_reload = False
        self._draining = False
        self._started = False
        self._closed = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self.stats: Dict[str, int] = {
            "publishes": 0,
            "flips": 0,
            "respawns": 0,
            "condemned": 0,
            "heartbeat_failures": 0,
            "queries": 0,
            "hot_hits": 0,
        }

    # -- construction ---------------------------------------------------------

    @classmethod
    def open(
        cls, directory: "str | Path", **kwargs: Any
    ) -> "Supervisor":
        """Recover a corpus directory and start serving it.

        This *is* the supervisor's crash-recovery path: it holds no
        durable state of its own, so restart = re-open the corpus (latest
        committed manifest + WAL tail, every acknowledged mutation
        included) and republish. The returned supervisor is started.
        """
        corpus = LiveCorpus.open(directory)
        try:
            supervisor = cls(corpus, owns_corpus=True, **kwargs)
            supervisor.start()
        except Exception:
            corpus.close()
            raise
        return supervisor

    def start(self) -> Generation:
        """Publish the initial generation, spawn the fleet, begin
        monitoring. Returns the serving generation."""
        if self._started:
            raise ReproError("supervisor already started")
        self._started = True
        try:
            generation = self.reload(compact=False)
        except Exception:
            self.close()
            raise
        if self._auto_publish:
            self._corpus.add_commit_listener(self._on_commit)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-daemon-monitor",
            daemon=True,
        )
        self._monitor.start()
        return generation

    def close(self) -> None:
        """Stop monitoring, stop every worker, unlink every generation.

        Idempotent, and tolerant of *any* partial state — including the
        frozen aftermath of a simulated supervisor crash mid-flip.
        """
        if self._closed:
            return
        self._closed = True
        if self._auto_publish:
            try:
                self._corpus.remove_commit_listener(self._on_commit)
            except Exception:
                pass
        self._monitor_stop.set()
        if self._monitor is not None and self._monitor.is_alive():
            self._monitor.join(timeout=5.0)
        for worker in self._workers:
            worker.kill()
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._generations.clear()
            self._current = None
        for pool in pools:
            try:
                pool.close()
            except Exception:
                pass
        if self._owns_corpus:
            try:
                self._corpus.close()
            except Exception:
                pass

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- introspection --------------------------------------------------------

    @property
    def corpus(self) -> LiveCorpus:
        return self._corpus

    @property
    def generation(self) -> Optional[Generation]:
        """The currently admitting generation (None before start)."""
        with self._lock:
            if self._current is None:
                return None
            return self._generations[self._current]

    @property
    def draining(self) -> bool:
        return self._draining

    def worker_pid(self, index: int) -> Optional[int]:
        """The worker's OS pid (chaos tests SIGKILL / SIGSTOP it)."""
        worker = self._workers[index]
        return None if worker.process is None else worker.process.pid

    def worker_states(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "index": index,
                    "pid": (
                        None if w.process is None else w.process.pid
                    ),
                    "alive": (
                        w.process is not None and w.process.is_alive()
                    ),
                    "quarantined": w.quarantined,
                    "condemned": w.condemned,
                    "reason": w.reason,
                    "respawns": w.respawns,
                    "window_failures": len(w.respawn_times),
                    "attached": sorted(w.attached),
                }
                for index, w in enumerate(self._workers)
            ]

    def status(self) -> Dict[str, Any]:
        """Operator-facing snapshot (the control socket's ``status``)."""
        with self._lock:
            current = (
                self._generations[self._current].as_dict()
                if self._current is not None
                else None
            )
            held = sorted(self._generations)
            inflight = {
                str(gen): n for gen, n in self._inflight.items() if n
            }
        return {
            "directory": str(self._corpus.directory),
            "corpus_generation": self._corpus.generation,
            "delta_pending": self._corpus.delta_pending,
            "generation": current,
            "generations_held": held,
            "inflight": inflight,
            "draining": self._draining,
            "workers": self.worker_states(),
            "stats": dict(self.stats),
        }

    # -- worker lifecycle -----------------------------------------------------

    def _ensure_workers(self, needed: int) -> None:
        # Called under the flip lock: the fleet only grows here.
        while len(self._workers) < needed:
            worker = PipeWorker(f"w{len(self._workers)}")
            worker.spawn(self._ctx, self._max_states, self._worker_timeout)
            self._workers.append(worker)

    def _attach(self, worker: PipeWorker, number: int, shm_name: str) -> None:
        value, reason = pipe_round(
            [worker], ("attach", number, shm_name), self._worker_timeout,
            self._fail,
        )[0]
        if reason:
            raise ReproError(
                f"daemon worker {worker.name} could not attach "
                f"generation {number}: {reason}"
            )
        worker.attached[number] = value

    def _release(self, worker: PipeWorker, number: int) -> None:
        worker.attached.pop(number, None)
        if not worker.serving():
            return
        try:
            pipe_round(
                [worker], ("release", number), self._worker_timeout,
                self._fail,
            )
        except ReproError:
            pass  # release is best effort: unlink proceeds regardless

    # -- failure handling -----------------------------------------------------

    def _fail(self, worker: PipeWorker, reason: str) -> None:
        """Quarantine a failed worker and schedule (or refuse) its respawn."""
        now = time.monotonic()
        with self._lock:
            worker.quarantined = True
            worker.reason = reason
            delay = self._backoff.spend(worker.respawn_times, now)
            if delay is not None:
                worker.retry_at = now + delay
            elif not worker.condemned:
                worker.condemned = True
                worker.reason = (
                    f"condemned: more than {self._backoff.max_failures} "
                    f"failures within {self._backoff.window:.0f}s "
                    f"(last: {reason})"
                )
                self.stats["condemned"] += 1

    def _try_respawn(self, worker: PipeWorker) -> None:
        """One monitored respawn attempt: fresh process, reattach every
        generation the supervisor still holds for this slot."""
        with self._flip_lock:
            if self._closed or worker.condemned:
                return
            if worker.serving():
                # Someone beat us to it (an operator revive, the flip
                # path) while we waited on the lock; don't kill their
                # fresh worker.
                return
            worker.kill()
            index = self._workers.index(worker)
            try:
                worker.spawn(self._ctx, self._max_states, self._worker_timeout)
                with self._lock:
                    targets = [
                        (number, gen.segments[index].shm_name)
                        for number, gen in self._generations.items()
                        if index < len(gen.segments)
                    ]
                for number, shm_name in targets:
                    self._attach(worker, number, shm_name)
            except Exception as exc:
                self._fail(worker, f"respawn failed: {exc}")
                return
            with self._lock:
                worker.quarantined = False
                worker.reason = ""
                self.stats["respawns"] += 1
                worker.respawns += 1

    def revive_worker(self, index: int) -> None:
        """Operator override: clear a condemned worker's history and
        respawn it (the control socket's ``revive``)."""
        worker = self._workers[index]
        with self._lock:
            worker.condemned = False
            worker.respawn_times = []
            worker.retry_at = 0.0
        self._try_respawn(worker)
        if worker.quarantined:
            raise ReproError(
                f"worker {index} failed to revive: {worker.reason}"
            )

    def _heartbeat(self, worker: PipeWorker) -> None:
        if self._injector is not None and self._injector.dropping(
            "heartbeat"
        ):
            self.stats["heartbeat_failures"] += 1
            self._fail(worker, "heartbeat lost")
            return
        try:
            value, reason = pipe_round(
                [worker], ("ping",), self._heartbeat_timeout, self._fail
            )[0]
        except ReproError:
            value, reason = None, "worker error"
        if reason == BUSY:
            return  # a long in-flight query holds the pipe; not a failure
        if value != "pong":
            self.stats["heartbeat_failures"] += 1

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self._heartbeat_interval):
            if self._closed:
                return
            with self._lock:
                workers = list(self._workers)
            now = time.monotonic()
            for worker in workers:
                if worker.condemned:
                    continue
                if worker.quarantined:
                    if now >= worker.retry_at:
                        self._try_respawn(worker)
                    continue
                self._heartbeat(worker)

    # -- generation lifecycle -------------------------------------------------

    def _on_commit(self, manifest: Any) -> None:
        """Manifest-commit hook: every compaction hot-reloads the fleet."""
        if self._in_reload or self._closed or not self._started:
            return
        self.reload(compact=False)

    def reload(self, compact: bool = True) -> Generation:
        """Publish the corpus's current state and flip the fleet to it.

        With ``compact=True`` (the SIGHUP semantics) a pending delta is
        first folded into a new durable shard generation; the flip then
        serves the compacted form. ``compact=False`` publishes the delta
        as an extra exact segment without touching disk.
        """
        with self._flip_lock:
            if self._closed:
                raise ReproError("supervisor is closed")
            already = self._in_reload
            self._in_reload = True
            try:
                if compact and self._corpus.delta_pending:
                    self._corpus.compact()
                with self._lock:
                    self._epoch = max(
                        self._epoch + 1, self._corpus.generation
                    )
                    number = self._epoch
                generation, pool = self._publisher.publish(number)
                self.stats["publishes"] += 1
                self._flip(generation, pool)
                self.stats["flips"] += 1
                return generation
            finally:
                self._in_reload = already

    def arm_faults(self, injector: Optional[Any]) -> None:
        """Swap the control-plane fault injector (chaos tests arm one
        *after* start so the startup publish/flip does not spend the
        schedule). ``None`` disarms."""
        self._injector = injector
        self._publisher._injector = injector

    def _crash_point(self, site: str) -> None:
        if self._injector is not None:
            self._injector.crash_point(site)

    def _flip(self, generation: Generation, pool: Any) -> None:
        """Attach everywhere, activate atomically, retire the old.

        A *real* attach failure (torn segment, dead worker that cannot be
        replaced) aborts: already-attached workers release, the new pool
        unlinks, the old generation keeps serving — the torn generation
        never existed as far as admission is concerned. A *simulated
        crash* (chaos injection) propagates with the state frozen
        as-is: crash-only recovery, not rollback, is the contract then.
        """
        self._ensure_workers(len(generation.segments))
        attached: List[PipeWorker] = []
        try:
            for i, ref in enumerate(generation.segments):
                self._crash_point("flip_attach")
                worker = self._workers[i]
                if not worker.serving():
                    # A quarantined slot cannot verify the new segment;
                    # force one respawn attempt so the flip can proceed.
                    self._try_respawn(worker)
                if not worker.serving():
                    raise ReproError(
                        f"worker {i} unavailable for generation "
                        f"{generation.number}: {worker.reason}"
                    )
                self._attach(worker, generation.number, ref.shm_name)
                attached.append(worker)
            self._crash_point("flip_activate")
        except SimulatedCrashError:
            raise
        except Exception:
            for worker in attached:
                self._release(worker, generation.number)
            pool.close()
            raise
        with self._lock:
            old = self._current
            self._generations[generation.number] = generation
            self._pools[generation.number] = pool
            self._current = generation.number
        # The generation carries the corpus epoch forward: any hot count
        # verified against the old generation is demoted (never served
        # EXACT again) before the new one answers its first query.
        if self._hot is not None:
            self._hot.bump_epoch()
        self._crash_point("flip_release")
        if old is not None and old != generation.number:
            self._retire(old)

    def _retire(self, number: int) -> None:
        """Drain barrier + release + unlink for one old generation."""
        deadline = time.monotonic() + self._drain_timeout
        with self._lock:
            while self._inflight.get(number, 0) > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # bounded: stragglers hit worker errors, not UB
                self._drain_cond.wait(remaining)
            generation = self._generations.pop(number, None)
            pool = self._pools.pop(number, None)
            self._inflight.pop(number, None)
        if generation is not None:
            for i in range(
                min(len(generation.segments), len(self._workers))
            ):
                self._release(self._workers[i], number)
        if pool is not None:
            pool.close()

    # -- drain / stop ---------------------------------------------------------

    def drain(self) -> int:
        """Stop admitting queries; wait for in-flight ones to finish.

        Returns the number of queries that were in flight when the drain
        began. The fleet stays up (status keeps answering); `resume`
        re-opens admission.
        """
        deadline = time.monotonic() + self._drain_timeout
        with self._lock:
            self._draining = True
            pending = sum(self._inflight.values())
            while sum(self._inflight.values()) > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drain_cond.wait(remaining)
        return pending

    def resume(self) -> None:
        with self._lock:
            self._draining = False

    # -- counting -------------------------------------------------------------

    def _admit(self) -> Generation:
        with self._lock:
            if self._closed:
                raise ReproError("supervisor is closed")
            if self._draining:
                raise ReproError("supervisor is draining")
            if self._current is None:
                raise ReproError("supervisor is not started")
            generation = self._generations[self._current]
            self._inflight[generation.number] = (
                self._inflight.get(generation.number, 0) + 1
            )
            self.stats["queries"] += 1
            return generation

    def _finish(self, generation: Generation) -> None:
        with self._lock:
            n = self._inflight.get(generation.number, 0)
            self._inflight[generation.number] = max(0, n - 1)
            self._drain_cond.notify_all()

    def _targets(self, generation: Generation):
        return list(zip(generation.segments, self._workers))

    def _round(self, slots, op, payload, deadline, generation):
        remaining, window = round_window(deadline, self._worker_timeout)
        return pipe_round(
            slots, (op, generation.number, payload, remaining), window,
            self._fail,
        )

    def _merge(
        self,
        answers: Sequence[ShardAnswer],
        pattern_length: int,
        generation: Generation,
    ) -> DaemonAnswer:
        """Fold per-segment answers: shard merge + tombstone widening +
        exact delta, mirroring ``LiveCorpus.count_interval``."""
        widening = generation.widening(pattern_length)
        base = [a for a in answers if a.shard != DELTA_SEGMENT]
        delta = [a for a in answers if a.shard == DELTA_SEGMENT]
        if base:
            merged = merge_answers(base)
            base_lo, base_hi = merged.lo, merged.hi
        else:
            base_lo = base_hi = 0
        delta_lo = delta_hi = 0
        if delta:
            delta_lo, delta_hi = delta[0].bounds
        lo = max(0, base_lo - widening) + delta_lo
        hi = base_hi + delta_hi
        degraded = tuple(a.shard for a in answers if a.degraded)
        if degraded:
            model = ErrorModel.UPPER_BOUND
        elif lo == hi:
            model = ErrorModel.EXACT
        else:
            model = ErrorModel.UNIFORM
        return DaemonAnswer(
            generation=generation.number,
            lo=lo,
            hi=hi,
            error_model=model,
            threshold=generation.threshold,
            widening=widening,
            degraded=degraded,
        )

    # -- hot-pattern routing --------------------------------------------------

    def attach_hot(self, hot) -> None:
        """Route through a :class:`~repro.hot.HotPatternTier`.

        Epoch-current verified counts answer without any worker round
        trip; exact merged answers verify back into the store. The live
        corpus is wired too, so every append/delete/compaction bumps the
        hot epoch — and every generation flip bumps it again in
        :meth:`_flip` — demoting stale exact counts before the new
        generation serves a single query.
        """
        super().attach_hot(hot)
        self._corpus.attach_hot(hot)

    def _exact(self, count: int, generation: Generation) -> DaemonAnswer:
        with self._lock:
            self.stats["hot_hits"] += 1
        return DaemonAnswer(
            generation=generation.number,
            lo=count,
            hi=count,
            error_model=ErrorModel.EXACT,
            threshold=1,
            widening=0,
            degraded=(),
        )

    def merged_count(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> DaemonAnswer:
        """One pattern against the currently admitting generation."""
        check_patterns([pattern])
        generation = self._admit()
        try:
            return self._gather([pattern], deadline, False, generation)[0]
        finally:
            self._finish(generation)

    def merged_count_many(
        self, patterns: Sequence[str], deadline: Optional[Deadline] = None
    ) -> List[DaemonAnswer]:
        """A batch in one protocol round per segment worker — every
        answer stamped with the single generation the batch was admitted
        under (the batch never straddles a flip)."""
        patterns = list(patterns)
        check_patterns(patterns)
        if not patterns:
            return []
        generation = self._admit()
        try:
            return self._gather(patterns, deadline, True, generation)
        finally:
            self._finish(generation)

    # -- estimator interface --------------------------------------------------

    @property
    def error_model(self) -> ErrorModel:  # type: ignore[override]
        generation = self.generation
        if generation is None:
            return ErrorModel.UPPER_BOUND
        with self._lock:
            degraded = any(
                not self._workers[i].serving()
                for i in range(len(generation.segments))
            )
        if degraded:
            return ErrorModel.UPPER_BOUND
        if generation.tombstones:
            return ErrorModel.UNIFORM
        models = [ref.model for ref in generation.segments]
        if not models or all(m is ErrorModel.EXACT for m in models):
            return ErrorModel.EXACT
        if any(m is ErrorModel.UPPER_BOUND for m in models):
            return ErrorModel.UPPER_BOUND
        return ErrorModel.UNIFORM

    @property
    def threshold(self) -> int:
        generation = self.generation
        return 1 if generation is None else generation.threshold

    @property
    def alphabet(self) -> Alphabet:
        generation = self.generation
        return Alphabet(set(generation.characters if generation else ""))

    @property
    def text_length(self) -> int:
        generation = self.generation
        return 0 if generation is None else generation.text_length

    def count_many(
        self, patterns: "list[str] | tuple[str, ...]"
    ) -> List[int]:
        return [a.count for a in self.merged_count_many(patterns)]

    def space_report(self) -> SpaceReport:
        """Shared blocks once per host; workers add only bookkeeping."""
        shared: Dict[str, int] = {}
        generation = self.generation
        if generation is not None:
            for ref in generation.segments:
                shared[f"{ref.name}.segment"] = ref.nbytes * 8
        return SpaceReport(
            "Supervisor", {}, {}, shared, len(self._workers)
        )

    def __repr__(self) -> str:
        generation = self.generation
        return (
            f"Supervisor(generation="
            f"{None if generation is None else generation.number}, "
            f"workers={len(self._workers)}, draining={self._draining})"
        )
