"""Process-sharded executor: parity with the thread executor, fault
tolerance, and the zero-copy attach telemetry.

One worker-process fleet is spawned per test class (spawn costs ~1s per
worker), and every merged interval is compared against the in-process
:class:`~repro.shard.estimator.ShardedEstimator` built over the *same*
shard plan — the two executors must be answer-identical.
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from repro.baselines.fm import FMIndex
from repro.core.interface import ErrorModel
from repro.datasets import generate
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    PatternError,
    ReproError,
)
from repro.parallel import ProcessShardedEstimator
from repro.service.deadline import Deadline
from repro.shard import (
    BackoffPolicy,
    ShardPlan,
    build_process_sharded,
    build_sharded,
)
from repro.textutil import mixed_workload

pytestmark = pytest.mark.slow


def _rows(seed: int = 11, n: int = 60):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcab") for _ in range(rng.randint(25, 70)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def plan():
    return ShardPlan.for_rows(_rows(), 2)


@pytest.fixture(scope="module")
def thread_estimator(plan):
    estimator, _ = build_sharded(plan, "cpst", l=8)
    return estimator


@pytest.fixture(scope="module")
def process_estimator(plan):
    estimator, report = build_process_sharded(plan, "cpst", l=8)
    assert report.kind == "cpst"
    with estimator:
        yield estimator


@pytest.fixture(scope="module")
def patterns(plan):
    whole = "".join(shard.text.raw for shard in plan.shards)
    return [
        p
        for p in mixed_workload(whole, per_length=8, seed=3)
        if "\x1e" not in p
    ]


def _assert_same_answer(process_est, thread_est, pattern):
    mp_ = process_est.merged_count(pattern)
    mt = thread_est.merged_count(pattern)
    assert (mp_.count, mp_.lo, mp_.hi) == (mt.count, mt.lo, mt.hi), pattern
    assert mp_.error_model == mt.error_model, pattern
    assert mp_.threshold == mt.threshold, pattern


class TestProcessThreadParity:
    def test_merged_count_identical(
        self, process_estimator, thread_estimator, patterns
    ):
        for pattern in patterns:
            _assert_same_answer(process_estimator, thread_estimator, pattern)

    def test_merged_count_many_identical(
        self, process_estimator, thread_estimator, patterns
    ):
        batched = process_estimator.merged_count_many(patterns)
        for pattern, merged in zip(patterns, batched):
            reference = thread_estimator.merged_count(pattern)
            assert (merged.lo, merged.hi) == (reference.lo, reference.hi)
            assert merged.error_model == reference.error_model

    def test_scalar_surface(
        self, process_estimator, thread_estimator, patterns
    ):
        for pattern in patterns[:10]:
            assert process_estimator.count(pattern) == thread_estimator.count(
                pattern
            )
            assert process_estimator.count_interval(
                pattern
            ) == thread_estimator.count_interval(pattern)
            assert process_estimator.count_or_none(
                pattern
            ) == thread_estimator.count_or_none(pattern)
            assert process_estimator.is_reliable(
                pattern
            ) == thread_estimator.is_reliable(pattern)

    def test_estimator_metadata(self, process_estimator, thread_estimator):
        assert process_estimator.k == thread_estimator.k
        assert (
            process_estimator.text_length == thread_estimator.text_length
        )
        assert process_estimator.threshold == thread_estimator.threshold
        assert process_estimator.error_model in tuple(ErrorModel)

    def test_pattern_validation(self, process_estimator):
        with pytest.raises(PatternError):
            process_estimator.merged_count("")
        with pytest.raises(PatternError):
            process_estimator.merged_count_many(["ab", ""])

    def test_out_of_alphabet_parity(
        self, process_estimator, thread_estimator
    ):
        # Characters outside the shard alphabet are only seen inside the
        # worker; the merged answer must match the thread executor's.
        _assert_same_answer(process_estimator, thread_estimator, "\x00\x01")

    def test_generous_deadline_changes_nothing(
        self, process_estimator, thread_estimator
    ):
        relaxed = process_estimator.merged_count("ab", Deadline(30.0))
        reference = thread_estimator.merged_count("ab")
        assert (relaxed.lo, relaxed.hi) == (reference.lo, reference.hi)
        assert not relaxed.degraded_shards

    def test_empty_batch(self, process_estimator):
        assert process_estimator.merged_count_many([]) == []


class TestWorkerDeath:
    """Kill a worker mid-flight: its shard degrades, the rest serve."""

    def test_kill_quarantine_respawn(self, plan, thread_estimator):
        estimator, _ = build_process_sharded(plan, "cpst", l=8)
        with estimator:
            victim = estimator.shard_names[0]
            _assert_same_answer(estimator, thread_estimator, "ab")

            os.kill(estimator.worker_pid(victim), signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline:
                merged = estimator.merged_count("ab")
                if estimator.degraded_shards:
                    break
            assert estimator.degraded_shards == (victim,)
            # The degraded merge is honest: one shard contributes its
            # trivial ceiling, so the merged model is an upper bound and
            # the surviving shards still bound the answer.
            assert merged.degraded_shards == (victim,)
            assert merged.error_model is ErrorModel.UPPER_BOUND
            reference = thread_estimator.merged_count("ab")
            assert merged.lo <= reference.lo
            assert merged.hi >= reference.hi

            # Batched queries survive a quarantined shard too.
            batch = estimator.merged_count_many(["ab", "ba"])
            assert all(m.degraded_shards == (victim,) for m in batch)

            # Respawn against the *same* shared segment: full parity back.
            estimator.respawn_shard(victim)
            assert estimator.degraded_shards == ()
            for pattern in ("ab", "ba", "abc"):
                _assert_same_answer(estimator, thread_estimator, pattern)

    def test_manual_quarantine_and_readmit(self, process_estimator):
        victim = process_estimator.shard_names[1]
        process_estimator.quarantine_shard(victim, "maintenance")
        merged = process_estimator.merged_count("ab")
        assert merged.degraded_shards == (victim,)
        process_estimator.readmit_shard(victim)
        assert process_estimator.degraded_shards == ()
        assert process_estimator.merged_count("ab").degraded_shards == ()

    def test_readmit_dead_worker_rejected(self, plan):
        estimator, _ = build_process_sharded(plan, "cpst", l=8)
        with estimator:
            victim = estimator.shard_names[0]
            os.kill(estimator.worker_pid(victim), signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline and not estimator.degraded_shards:
                estimator.merged_count("ab")  # notices the death
            assert estimator.degraded_shards == (victim,)
            with pytest.raises(InvalidParameterError):
                estimator.readmit_shard(victim)

    def test_unknown_shard_rejected(self, process_estimator):
        with pytest.raises(InvalidParameterError):
            process_estimator.quarantine_shard("no-such-shard")


class TestWorkerErrorDrain:
    def test_error_round_leaves_no_stale_reply(self):
        # Every worker of the round replies with an error; the parent
        # must read all of them before it re-raises, or the next request
        # reads a stale reply and quarantines a healthy shard.
        raw = generate("dna", 20_000, 1)
        plan = ShardPlan.for_documents(
            [("d0", raw[:10_000]), ("d1", raw[10_000:])], 2
        )
        estimator, _ = build_process_sharded(plan, "cpst", l=8)
        with estimator:
            before = estimator.merged_count("ACGTAC")
            patterns = [raw[i:i + 8] for i in range(0, 4_000, 40)]
            with pytest.raises(DeadlineExceededError):
                estimator.merged_count_many(patterns, Deadline(1e-9))
            after = estimator.merged_count("ACGTAC")
            assert not after.degraded_shards, after.summary()
            assert (after.lo, after.hi) == (before.lo, before.hi)
            assert after.error_model is before.error_model


class TestZeroCopyTelemetry:
    def test_attach_allocation_is_constant_not_proportional(self):
        # A worker attaching a large shared segment must allocate only
        # protocol-sized bookkeeping, never a copy of the payload: the
        # per-worker attach allocation stays far below the segment size.
        random.seed(5)
        text = "".join(random.choice("acgt") for _ in range(120_000))
        fm = FMIndex(text)
        estimator = ProcessShardedEstimator.from_estimators([("s0", fm)])
        with estimator:
            telemetry = estimator.attach_telemetry()["s0"]
            assert telemetry["segment_bytes"] > 60_000
            assert telemetry["attach_alloc_bytes"] < 64_000
            assert (
                telemetry["attach_alloc_bytes"]
                < telemetry["segment_bytes"]
            )
            assert estimator.count("acgt") == fm.count("acgt")

    def test_space_report_counts_segments_once_per_host(
        self, process_estimator
    ):
        report = process_estimator.space_report()
        assert len(report.shared) == process_estimator.k
        assert report.workers == process_estimator.k
        telemetry = process_estimator.attach_telemetry()
        for name, slot in telemetry.items():
            assert report.shared[f"{name}.segment"] == (
                slot["segment_bytes"] * 8
            )
        assert "resident_per_worker" in report.format()
        assert report.shared_bits == sum(report.shared.values())


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, plan):
        estimator, _ = build_process_sharded(plan, "cpst", l=8)
        estimator.close()
        estimator.close()
        with pytest.raises(ReproError):
            estimator.merged_count("ab")

    def test_rejects_empty_and_duplicate_segments(self):
        with pytest.raises(InvalidParameterError):
            ProcessShardedEstimator([])
        fm = FMIndex("abracadabra")
        from repro.parallel import write_estimator_segment

        blob = write_estimator_segment(fm, "s0")
        with pytest.raises(InvalidParameterError):
            ProcessShardedEstimator([("s0", blob), ("s0", blob)])


class TestRespawnBudget:
    """Respawns are budgeted: capped jittered backoff, then quarantine."""

    def test_budget_exhaustion_quarantines_with_sound_answers(self):
        fm = FMIndex("abracadabra banana" * 3)
        estimator = ProcessShardedEstimator.from_estimators(
            [("s0", fm)],
            backoff=BackoffPolicy(
                max_failures=2,
                window=60.0,
                base=0.0,  # no sleeps: the budget is what's under test
            ),
        )
        with estimator:
            estimator.respawn_shard("s0")
            estimator.respawn_shard("s0")
            telemetry = estimator.respawn_telemetry()["s0"]
            assert telemetry["respawns"] == 2
            assert telemetry["window_respawns"] == 2
            assert telemetry["budget_remaining"] == 0

            with pytest.raises(ReproError, match="respawn budget"):
                estimator.respawn_shard("s0")
            assert estimator.degraded_shards == ("s0",)
            # Exhaustion degrades, it does not blind: the shard answers
            # from its sound ceiling while quarantined.
            merged = estimator.merged_count("ab")
            assert merged.error_model is ErrorModel.UPPER_BOUND
            assert merged.hi >= fm.count("ab")

    def test_budget_refills_when_the_window_slides(self):
        fm = FMIndex("abracadabra" * 2)
        estimator = ProcessShardedEstimator.from_estimators(
            [("s0", fm)],
            backoff=BackoffPolicy(
                max_failures=1,
                window=6.0,  # > the ~1s a spawn handshake takes
                base=0.0,
            ),
        )
        with estimator:
            start = time.monotonic()
            estimator.respawn_shard("s0")
            assert (
                estimator.respawn_telemetry()["s0"]["budget_remaining"] == 0
            )
            # Sleep the attempt out of the window, then the budget refills.
            time.sleep(max(0.0, 6.1 - (time.monotonic() - start)))
            assert (
                estimator.respawn_telemetry()["s0"]["budget_remaining"] == 1
            )
            estimator.respawn_shard("s0")
            assert estimator.count("ab") == fm.count("ab")

    def test_respawn_parameter_validation(self):
        fm = FMIndex("abracadabra")
        for kwargs in (
            {"max_failures": 0},
            {"window": 0.0},
            {"base": -0.1},
            {"cap": -1.0},
        ):
            with pytest.raises(InvalidParameterError):
                ProcessShardedEstimator.from_estimators(
                    [("s0", fm)], backoff=BackoffPolicy(**kwargs)
                )


class TestPoolAtexitCleanup:
    """A forgotten pool's blocks must not outlive the interpreter."""

    def test_forgotten_pool_is_unlinked_at_exit(self, tmp_path):
        import subprocess
        import sys
        from multiprocessing import shared_memory

        script = tmp_path / "leaky.py"
        script.write_text(
            "import sys\n"
            "from repro.baselines.fm import FMIndex\n"
            "from repro.parallel import write_estimator_segment\n"
            "from repro.parallel.pool import SegmentPool\n"
            "pool = SegmentPool()  # global: still referenced at exit\n"
            "seg = pool.publish(\n"
            "    's0', write_estimator_segment(FMIndex('abracadabra'), 's0')\n"
            ")\n"
            "print(seg.shm_name, flush=True)\n"
            "sys.exit(0)  # never calls pool.close(): atexit must\n"
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        shm_name = result.stdout.strip().split()[-1]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm_name)
        # Clean unlink, not a resource-tracker salvage at exit.
        assert "leaked shared_memory" not in result.stderr
