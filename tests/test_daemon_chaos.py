"""Daemon chaos suite: the flip-ordering and crash-only invariants.

Every fault here is injected deterministically (seeded specs, explicit
kill signals), and every assertion reduces to the three acceptance
claims of the daemon plane:

1. **No torn generation ever serves.** A crash at *any* publish/flip
   boundary leaves the supervisor answering soundly for either the old
   or the new generation — never a mixture — and a supervisor restart
   (:meth:`Supervisor.open`) recovers the latest committed corpus state
   including the WAL tail.
2. **Queries concurrent with ingest→reload cycles are sound for the
   generation that admitted them**, checked differentially against the
   document snapshot recorded at each publish.
3. **A crash-looping worker converges**: capped backoff, then
   condemnation with degraded-but-sound answers — no respawn storm —
   and an operator revive restores exact service.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.interface import ErrorModel
from repro.daemon import BackoffPolicy, Supervisor
from repro.errors import ReproError
from repro.live import LiveCorpus
from repro.service import ResilientEstimator, TextStatsEstimator, Tier
from repro.service.deadline import Deadline
from repro.service.faults import (
    DAEMON_SITES,
    DaemonFaultInjector,
    DaemonFaultSpec,
    SimulatedCrashError,
)

from repro.shard.pipe import DEADLINE_GRACE
from repro.textutil import Text

from conftest import naive_count

pytestmark = [pytest.mark.chaos, pytest.mark.slow, pytest.mark.timeout(300)]

DOCS = {
    "alpha": "abracadabra stew",
    "beta": "banana bandana cabana",
    "gamma": "the quick brown fox jumps over the lazy dog",
}

PROBES = ("ab", "an", "the", "abracadabra", "zz-absent")


def _make_corpus(path, docs=DOCS, l=16, shards=2):
    corpus = LiveCorpus.attach(path, l=l, shards=shards)
    for name, body in docs.items():
        corpus.append(name, body)
    corpus.compact()
    return corpus


def _truth(docs, pattern):
    return sum(naive_count(body, pattern) for body in docs.values())


def _assert_sound(answer, docs, pattern):
    truth = _truth(docs, pattern)
    assert answer.lo <= truth <= answer.hi, (
        pattern, answer.lo, truth, answer.hi,
    )


def _supervisor(corpus, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.05)
    kwargs.setdefault("heartbeat_timeout", 1.0)
    kwargs.setdefault("worker_timeout", 20.0)
    supervisor = Supervisor(corpus, owns_corpus=True, **kwargs)
    supervisor.start()
    return supervisor


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- claim 1: crash at every flip boundary ------------------------------------


CRASH_SITES = tuple(s for s in DAEMON_SITES if s != "heartbeat")


class TestCrashAtEveryFlipBoundary:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_crash_leaves_old_or_new_never_torn(self, tmp_path, site):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(corpus)
        try:
            docs_before = dict(corpus.documents())
            old_number = supervisor.generation.number

            corpus.append("crashdoc", "text only the new generation has")
            docs_after = dict(corpus.documents())

            supervisor.arm_faults(
                DaemonFaultInjector([DaemonFaultSpec(site, at=1)])
            )
            with pytest.raises(SimulatedCrashError):
                supervisor.reload(compact=False)
            supervisor.arm_faults(None)

            # Whatever the crash point, admission is all-or-nothing: the
            # serving generation is exactly the old or the new one, and
            # every answer is sound for the snapshot that generation
            # froze (pre-activate crashes keep serving the old state).
            for pattern in PROBES:
                answer = supervisor.merged_count(pattern)
                if answer.generation == old_number:
                    _assert_sound(answer, docs_before, pattern)
                else:
                    assert answer.generation > old_number
                    _assert_sound(answer, docs_after, pattern)
            if site in ("publish_export", "publish_segments",
                        "flip_attach", "flip_activate"):
                assert supervisor.generation.number == old_number
        finally:
            supervisor.close()

        # Crash-only recovery: a fresh supervisor over the directory
        # serves the latest committed manifest plus the WAL tail — the
        # appended document is there even though no flip ever served it.
        recovered = Supervisor.open(tmp_path / "c")
        try:
            for pattern in PROBES + ("generation",):
                _assert_sound(
                    recovered.merged_count(pattern), docs_after, pattern
                )
            assert recovered.merged_count("only the new").hi >= 1
        finally:
            recovered.close()

    def test_restart_recovers_wal_tail_without_any_flip(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(corpus)
        # Mutations land durably; the supervisor "dies" before any
        # reload serves them.
        corpus.append("tail", "wal tail survivor")
        corpus.delete("alpha")
        expected = dict(corpus.documents())
        supervisor.close()

        recovered = Supervisor.open(tmp_path / "c")
        try:
            assert recovered.merged_count("survivor").hi >= 1
            for pattern in PROBES:
                _assert_sound(
                    recovered.merged_count(pattern), expected, pattern
                )
        finally:
            recovered.close()


# -- claim 2: soundness under concurrent reload cycles ------------------------


class TestConcurrentReloadSoundness:
    CYCLES = 20

    def test_twenty_ingest_reload_cycles_under_query_fire(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(corpus, drain_timeout=10.0)
        try:
            snapshots = {
                supervisor.generation.number: dict(corpus.documents())
            }
            snapshot_lock = threading.Lock()
            stop = threading.Event()
            recorded = []
            errors = []

            def hammer():
                i = 0
                while not stop.is_set():
                    pattern = PROBES[i % len(PROBES)]
                    i += 1
                    try:
                        answer = supervisor.merged_count(pattern)
                    except ReproError as exc:  # pragma: no cover
                        errors.append((pattern, repr(exc)))
                        continue
                    recorded.append(
                        (pattern, answer.generation, answer.lo, answer.hi)
                    )

            threads = [
                threading.Thread(target=hammer) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for cycle in range(self.CYCLES):
                    corpus.append(
                        f"cycle{cycle}", f"cycle body number {cycle} xyz"
                    )
                    if cycle % 7 == 3:
                        corpus.delete(f"cycle{cycle - 1}")
                    generation = supervisor.reload(
                        compact=(cycle % 5 == 4)
                    )
                    with snapshot_lock:
                        snapshots[generation.number] = dict(
                            corpus.documents()
                        )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)

            assert not errors, errors[:5]
            assert recorded, "query threads never got an answer in"
            # The fire was genuinely concurrent with the flips: answers
            # span several distinct generations.
            generations_seen = {generation for _, generation, _, _ in recorded}
            assert len(generations_seen) >= 3
            # Every answer is sound for the snapshot of the generation
            # that admitted it — the differential core of the claim.
            for pattern, generation, lo, hi in recorded:
                docs = snapshots[generation]
                truth = _truth(docs, pattern)
                assert lo <= truth <= hi, (
                    pattern, generation, lo, truth, hi,
                )
            # Nothing stale is still held: the last generation retired
            # every predecessor once its in-flight queries finished.
            assert _wait_until(
                lambda: supervisor.status()["generations_held"]
                == [supervisor.generation.number]
            )
        finally:
            supervisor.close()


# -- claim 3: worker failures converge ----------------------------------------


class TestWorkerFailureConvergence:
    def test_sigkill_degrades_soundly_then_monitor_respawns(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(
            corpus,
            backoff=BackoffPolicy(
                base=0.02, cap=0.1, max_failures=10, window=30.0
            ),
        )
        try:
            docs = dict(corpus.documents())
            exact = supervisor.merged_count("ab")
            assert not exact.degraded

            os.kill(supervisor.worker_pid(0), signal.SIGKILL)
            # The dead worker's segment degrades to its sound ceiling;
            # the answer stays an upper bound, never an under-count.
            def degraded_answer():
                answer = supervisor.merged_count("ab")
                return answer if answer.degraded else None

            assert _wait_until(lambda: degraded_answer() is not None)
            answer = supervisor.merged_count("ab")
            if answer.degraded:
                assert answer.error_model is ErrorModel.UPPER_BOUND
                _assert_sound(answer, docs, "ab")
                assert answer.hi >= exact.hi

            # The monitor respawns it against the same shared segments:
            # exact parity returns with no operator involvement.
            assert _wait_until(
                lambda: not supervisor.merged_count("ab").degraded
            )
            restored = supervisor.merged_count("ab")
            assert (restored.lo, restored.hi) == (exact.lo, exact.hi)
            assert supervisor.stats["respawns"] >= 1
        finally:
            supervisor.close()

    def test_sigstop_wedge_is_detected_and_replaced(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(
            corpus,
            heartbeat_timeout=0.5,
            backoff=BackoffPolicy(
                base=0.02, cap=0.1, max_failures=10, window=30.0
            ),
        )
        try:
            docs = dict(corpus.documents())
            wedged_pid = supervisor.worker_pid(0)
            os.kill(wedged_pid, signal.SIGSTOP)
            try:
                # A deadline-bounded query during the wedge still
                # answers — degraded, but sound.
                answer = supervisor.merged_count("an", Deadline(1.0))
                _assert_sound(answer, docs, "an")
                # Heartbeats time out against the stopped process; the
                # monitor must replace it (SIGKILL path: terminate is
                # not deliverable to a stopped process group member).
                assert _wait_until(
                    lambda: supervisor.worker_pid(0) not in (None, wedged_pid)
                    and not supervisor.merged_count("an").degraded,
                    timeout=30.0,
                )
            finally:
                try:  # unwedge whatever is left, if anything
                    os.kill(wedged_pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            restored = supervisor.merged_count("an")
            assert not restored.degraded
            assert restored.hi == corpus.count_interval("an")[1]
        finally:
            supervisor.close()

    def test_crash_loop_condemns_within_budget_then_revives(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        budget = BackoffPolicy(
            base=0.01, cap=0.05, max_failures=3, window=8.0
        )
        supervisor = _supervisor(corpus, backoff=budget)
        try:
            docs = dict(corpus.documents())
            exact = supervisor.merged_count("ab")

            kills = 0
            deadline = time.monotonic() + 30.0
            last_pid = None
            while time.monotonic() < deadline:
                state = supervisor.worker_states()[0]
                if state["condemned"]:
                    break
                pid = state["pid"]
                if (
                    pid is not None
                    and pid != last_pid
                    and state["alive"]
                ):
                    os.kill(pid, signal.SIGKILL)
                    last_pid = pid
                    kills += 1
                time.sleep(0.02)
            state = supervisor.worker_states()[0]
            assert state["condemned"], state
            # Convergence, not a respawn storm: the budget bounds the
            # number of lifetimes the crash loop could consume.
            assert kills <= budget.max_failures + 2
            assert "condemned" in state["reason"]

            # Condemned != unavailable: answers continue, degraded and
            # sound, from the surviving workers + the dead slot's ceiling.
            answer = supervisor.merged_count("ab")
            assert answer.degraded
            assert answer.error_model is ErrorModel.UPPER_BOUND
            _assert_sound(answer, docs, "ab")

            # Operator override: revive clears the history and restores
            # exact service (the monitor must not re-kill the revived
            # worker off its stale pre-revive snapshot).
            supervisor.revive_worker(0)
            assert _wait_until(
                lambda: not supervisor.merged_count("ab").degraded,
                timeout=10.0,
            )
            restored = supervisor.merged_count("ab")
            assert (restored.lo, restored.hi) == (exact.lo, exact.hi)
        finally:
            supervisor.close()

    def test_heartbeat_loss_takes_the_restart_path(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(corpus)
        try:
            baseline = supervisor.stats["respawns"]
            supervisor.arm_faults(
                DaemonFaultInjector(
                    [DaemonFaultSpec("heartbeat", at=2, mode="drop")]
                )
            )
            # A lost heartbeat from a healthy worker must be treated as
            # a failure: quarantine, then respawn — and service never
            # returns an unsound answer meanwhile.
            assert _wait_until(
                lambda: supervisor.stats["heartbeat_failures"] >= 1
            )
            assert _wait_until(
                lambda: supervisor.stats["respawns"] > baseline
            )
            supervisor.arm_faults(None)
            docs = dict(corpus.documents())
            for pattern in PROBES:
                _assert_sound(
                    supervisor.merged_count(pattern), docs, pattern
                )
            assert _wait_until(
                lambda: not supervisor.merged_count("ab").degraded
            )
        finally:
            supervisor.close()


# -- a stopped fleet costs one window per round -------------------------------


class TestStoppedFleetDeadline:
    """With every worker SIGSTOPped, a deadline-bounded call waits one
    window for the whole round — not one window per worker — and the
    ladder's deadline reaches the daemon tier instead of its
    ``worker_timeout``. Heartbeats are slowed so the monitor does not
    replace the stopped workers mid-query."""

    #: Scheduling slack on a loaded runner; one extra window per worker
    #: (the defect these pin down) costs 0.75 s on two workers.
    SLACK = 0.35

    def _stopped(self, supervisor):
        pids = [
            supervisor.worker_pid(i)
            for i in range(len(supervisor.generation.segments))
        ]
        assert len(pids) == 2
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        return pids

    @staticmethod
    def _resume(pids):
        for pid in pids:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass

    def test_round_answers_within_one_window(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(corpus, heartbeat_interval=60.0)
        pids = []
        try:
            docs = dict(corpus.documents())
            pids = self._stopped(supervisor)
            started = time.monotonic()
            answer = supervisor.merged_count("an", Deadline(0.5))
            elapsed = time.monotonic() - started
            assert elapsed < 0.5 + DEADLINE_GRACE + self.SLACK, elapsed
            assert answer.degraded
            _assert_sound(answer, docs, "an")
        finally:
            self._resume(pids)
            supervisor.close()

    def test_ladder_deadline_reaches_the_daemon_tier(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        supervisor = _supervisor(
            corpus, heartbeat_interval=60.0, worker_timeout=3.0
        )
        pids = []
        try:
            docs = dict(corpus.documents())
            whole = Text.from_rows(
                list(docs.values()), separator=corpus.config.separator
            )
            service = ResilientEstimator(
                [
                    Tier(supervisor, "daemon"),
                    Tier(TextStatsEstimator(whole), "stats",
                         always_available=True),
                ],
                deadline_seconds=0.5,
            )
            pids = self._stopped(supervisor)
            started = time.monotonic()
            outcome = service.query("an")
            elapsed = time.monotonic() - started
            assert elapsed < 0.5 + DEADLINE_GRACE + self.SLACK, elapsed
            assert outcome.count >= _truth(docs, "an")
        finally:
            self._resume(pids)
            supervisor.close()
