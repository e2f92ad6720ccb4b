"""Unit tests for the concurrent serving front (repro.service.server).

Admission control and the token bucket run on ManualClock; tests that
exercise real threads keep workloads tiny so the suite stays fast.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    InvalidParameterError,
    PatternError,
    ServerClosedError,
)
from repro.service import (
    AdmissionController,
    Bulkhead,
    CancellableDeadline,
    Deadline,
    LatencyTracker,
    ManualClock,
    QueryOutcome,
    QueryServer,
    ShedOutcome,
    Tier,
    TokenBucket,
    build_default_ladder,
    run_concurrent_probe,
)
from repro.service.tiers import TextStatsEstimator
from repro.textutil import Text

TEXT = Text("abracadabra_the_quick_brown_fox_" * 30)
L = 8


def make_server(**kwargs):
    service = build_default_ladder(TEXT, L, deadline_seconds=5.0)
    return QueryServer(service, **kwargs)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_admits_up_to_capacity_then_sheds(self):
        ctrl = AdmissionController(max_concurrent=2, max_waiting=0)
        assert ctrl.admit() is None
        assert ctrl.admit() is None
        assert ctrl.admit() == "admission queue full"
        ctrl.release()
        assert ctrl.admit() is None

    def test_expired_deadline_is_never_queued(self):
        clock = ManualClock()
        ctrl = AdmissionController(max_concurrent=1, max_waiting=4, max_wait=1.0)
        assert ctrl.admit() is None
        spent = Deadline(0.0, clock)
        assert ctrl.admit(spent) == "admission queue full"

    def test_draining_sheds_everything(self):
        ctrl = AdmissionController(max_concurrent=4)
        ctrl.set_draining(True)
        assert ctrl.admit() == "draining"
        stats = ctrl.stats()
        assert stats.drained == 1 and stats.shed == 1

    def test_release_without_admit_raises(self):
        ctrl = AdmissionController()
        with pytest.raises(InvalidParameterError):
            ctrl.release()

    def test_waiter_proceeds_when_slot_frees(self):
        ctrl = AdmissionController(max_concurrent=1, max_waiting=1, max_wait=5.0)
        assert ctrl.admit() is None
        result = {}

        def waiter():
            result["reason"] = ctrl.admit()

        thread = threading.Thread(target=waiter)
        thread.start()
        # Give the waiter time to enter the queue, then free the slot.
        deadline = threading.Event()
        deadline.wait(0.05)
        ctrl.release()
        thread.join(timeout=5.0)
        assert result["reason"] is None
        assert ctrl.stats().admitted == 2

    def test_wait_idle_reports_drain(self):
        ctrl = AdmissionController(max_concurrent=2)
        assert ctrl.admit() is None
        assert not ctrl.wait_idle(timeout=0.01)
        ctrl.release()
        assert ctrl.wait_idle(timeout=1.0)


class TestBulkhead:
    def _tier(self, name):
        return Tier(TextStatsEstimator(TEXT), name)

    def test_caps_and_counts_saturation(self):
        tier = self._tier("cpst")
        bulkhead = Bulkhead({"cpst": 2})
        assert bulkhead.acquire(tier)
        assert bulkhead.acquire(tier)
        assert not bulkhead.acquire(tier)
        assert bulkhead.saturation["cpst"] == 1
        bulkhead.release(tier)
        assert bulkhead.acquire(tier)

    def test_unlisted_tier_unbounded_by_default(self):
        tier = self._tier("stats")
        bulkhead = Bulkhead({"cpst": 1})
        for _ in range(50):
            assert bulkhead.acquire(tier)

    def test_default_limit_applies_to_unlisted(self):
        tier = self._tier("apx")
        bulkhead = Bulkhead({}, default_limit=1)
        assert bulkhead.acquire(tier)
        assert not bulkhead.acquire(tier)

    def test_bounded_wait_times_out(self):
        tier = self._tier("t")
        bulkhead = Bulkhead({}, default_limit=1, wait=0.01)
        assert bulkhead.acquire(tier)
        assert not bulkhead.acquire(tier)
        assert bulkhead.saturation == {"t": 1}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Bulkhead({"cpst": 0})
        with pytest.raises(InvalidParameterError):
            Bulkhead({}, default_limit=0)


class TestLatencyTracker:
    def test_percentile_needs_min_samples(self):
        tracker = LatencyTracker()
        tracker.record("cpst", 0.5)
        assert tracker.percentile("cpst", 95.0) is None
        assert tracker.percentile("cpst", 95.0, min_samples=1) == 0.5

    def test_percentile_ranks(self):
        tracker = LatencyTracker()
        for ms in range(1, 11):
            tracker.record("apx", ms / 1000.0)
        assert tracker.percentile("apx", 0.0) == pytest.approx(0.001)
        assert tracker.percentile("apx", 100.0) == pytest.approx(0.010)

    def test_window_evicts_old_samples(self):
        tracker = LatencyTracker(window=4)
        for _ in range(10):
            tracker.record("t", 1.0)
        for _ in range(4):
            tracker.record("t", 2.0)
        assert tracker.percentile("t", 0.0, min_samples=1) == 2.0


class TestCancellableDeadline:
    def test_cancel_is_sticky_and_checks_fail(self):
        cdl = CancellableDeadline(None)
        assert not cdl.expired()
        cdl.cancel()
        assert cdl.cancelled and cdl.expired()
        assert cdl.remaining() == 0.0
        with pytest.raises(Exception, match="cancelled"):
            cdl.check()

    def test_from_deadline_inherits_budget(self):
        clock = ManualClock()
        base = Deadline(2.0, clock)
        clock.advance(0.5)
        cdl = CancellableDeadline.from_deadline(base)
        assert cdl.remaining() == pytest.approx(1.5)
        unbounded = CancellableDeadline.from_deadline(Deadline(None, clock))
        assert unbounded.remaining() == float("inf")


class TestQueryServer:
    def test_serves_and_counts(self):
        with make_server() as server:
            outcome = server.query("abra")
            assert isinstance(outcome, QueryOutcome)
            assert outcome.count == TEXT.count_naive("abra")
            assert not outcome.shed
            stats = server.stats()
            assert stats.served == 1 and stats.shed == 0

    def test_rejects_bad_patterns(self):
        with make_server() as server:
            with pytest.raises(PatternError):
                server.query("")

    def test_rate_limit_sheds_with_sound_answer(self):
        clock = ManualClock()
        with make_server(rate=1.0, burst=1.0, clock=clock) as server:
            first = server.query("abra")
            assert isinstance(first, QueryOutcome)
            second = server.query("abra")
            assert isinstance(second, ShedOutcome)
            assert second.reason == "rate limited"
            assert second.tier == "stats"
            # The shed answer is still a sound upper bound.
            assert second.contract_holds(TEXT.count_naive("abra"), len(TEXT))
            assert server.stats().shed == 1

    def test_draining_sheds_then_close_raises(self):
        server = make_server()
        server.drain()
        outcome = server.query("abra")
        assert isinstance(outcome, ShedOutcome) and outcome.reason == "draining"
        server.close()
        with pytest.raises(ServerClosedError):
            server.query("abra")

    def test_requires_always_available_tier(self):
        from repro.core import CompactPrunedSuffixTree
        from repro.service import ResilientEstimator

        bare = ResilientEstimator([Tier(CompactPrunedSuffixTree(TEXT, L), "cpst")])
        with pytest.raises(InvalidParameterError, match="always-available"):
            QueryServer(bare)

    def test_bulkhead_saturation_degrades_not_blocks(self):
        # A one-slot cpst bulkhead held by the test forces queries past
        # the primary tier without blocking.
        with make_server(bulkhead_limits={"cpst": 1}) as server:
            cpst = server.service.tiers[0]
            assert server._bulkhead.acquire(cpst)
            try:
                outcome = server.query("abra")
            finally:
                server._bulkhead.release(cpst)
            assert isinstance(outcome, QueryOutcome)
            assert outcome.tier != "cpst"
            assert ("cpst", "skipped: bulkhead saturated") in outcome.failures

    def test_hedged_mode_returns_valid_answers(self):
        with make_server(hedge_after=0.2) as server:
            for pattern in ("abra", "quick", "zzz_absent"):
                outcome = server.query(pattern)
                assert isinstance(outcome, QueryOutcome)
                assert outcome.contract_holds(
                    TEXT.count_naive(pattern), len(TEXT)
                )

    def test_hedge_fires_when_primary_stalls(self):
        # A primary that blocks until released: the hedge timer must fire
        # and the next tier must win without waiting for the primary.
        release = threading.Event()

        class StallingEstimator(TextStatsEstimator):
            def count(self, pattern):
                release.wait(5.0)
                return super().count(pattern)

        from repro.service import ResilientEstimator

        service = ResilientEstimator(
            [
                Tier(StallingEstimator(TEXT), "slow"),
                Tier(TextStatsEstimator(TEXT), "stats", always_available=True),
            ],
            deadline_seconds=10.0,
        )
        try:
            with QueryServer(service, hedge_after=0.05) as server:
                outcome = server.query("abra")
                assert outcome.tier == "stats"
                assert outcome.hedged
                assert server.stats().hedges_fired >= 1
        finally:
            release.set()

    def test_hedge_accounting_counts_only_fired_launches(self):
        # A decline hands the query to the next tier at once; that launch
        # is not a hedge. With a delay no attempt outlasts, nothing fires
        # and nothing is won, though most answers come from below tier 0.
        service = build_default_ladder(TEXT, L, deadline_seconds=5.0, hot=True)
        patterns = [TEXT.raw[s:s + n] for s in range(32) for n in (3, 6)]
        with QueryServer(service, hedge_after=5.0) as server:
            outcomes = [server.query(pattern) for pattern in patterns]
            stats = server.stats()
        assert sum(outcome.tier_index > 0 for outcome in outcomes) > 20
        assert (stats.hedges_fired, stats.hedge_wins) == (0, 0)
        assert not any(outcome.hedged for outcome in outcomes)

        # A first tier that outlasts the delay: the timer launches the
        # next tier, which answers, and that win counts.
        release = threading.Event()

        class StallingEstimator(TextStatsEstimator):
            def count(self, pattern):
                release.wait(5.0)
                return super().count(pattern)

        from repro.service import ResilientEstimator

        service = ResilientEstimator(
            [
                Tier(StallingEstimator(TEXT), "slow"),
                Tier(TextStatsEstimator(TEXT), "stats", always_available=True),
            ],
            deadline_seconds=10.0,
        )
        try:
            with QueryServer(service, hedge_after=0.05) as server:
                outcome = server.query("abra")
                stats = server.stats()
        finally:
            release.set()
        assert outcome.tier == "stats" and outcome.hedged
        assert stats.hedges_fired >= 1
        assert stats.hedge_wins == 1

    def test_concurrent_probe_loses_nothing(self):
        with make_server(max_concurrent=4, max_waiting=64, max_wait=2.0) as server:
            patterns = ["abra", "quick", "fox", "zzz", "the_"] * 8
            report = run_concurrent_probe(
                server, patterns, concurrency=8
            )
            assert report.total == len(patterns)
            assert report.answered == len(patterns)
            assert len(report.outcomes) == len(patterns)
            # Exactly-once: per-pattern reply counts match the workload.
            from collections import Counter

            sent = Counter(patterns)
            got = Counter(outcome.pattern for outcome in report.outcomes)
            assert got == sent

    def test_engine_columns_populated(self):
        with make_server() as server:
            report = run_concurrent_probe(
                server, ["abracadabra", "quick_brown"], concurrency=2
            )
            by_name = {tier.name: tier for tier in report.tiers}
            assert by_name["cpst"].automaton_steps > 0
            assert by_name["cpst"].rank_calls > 0
            assert "steps" in report.format()
