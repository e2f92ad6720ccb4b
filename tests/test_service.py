"""Unit tests for the resilient serving layer (repro.service).

Everything time-dependent runs on a ManualClock — no real sleeps anywhere
in this module.
"""

from __future__ import annotations

import pytest

from repro import CompactPrunedSuffixTree, validate_index
from repro.core.interface import ErrorModel, OccurrenceEstimator
from repro.errors import (
    AllTiersFailedError,
    DeadlineExceededError,
    IndexCorruptedError,
    InvalidParameterError,
    PatternError,
)
from repro.service import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    FaultSpec,
    FaultyIndex,
    ManualClock,
    QueryOutcome,
    ResilientEstimator,
    RetryPolicy,
    TextStatsEstimator,
    Tier,
    build_default_ladder,
    is_transient,
    run_health_probe,
)
from repro.service.tiers import TierDeclined
from repro.space import SpaceReport
from repro.textutil import Text

TEXT = Text("abracadabra" * 40)


class StubEstimator(OccurrenceEstimator):
    """Scriptable estimator: answers from a list, or raises."""

    error_model = ErrorModel.EXACT

    def __init__(self, answers=None, error=None):
        self._answers = list(answers or [])
        self._error = error
        self.calls = 0

    @property
    def alphabet(self):
        return TEXT.alphabet

    @property
    def text_length(self):
        return len(TEXT)

    def count(self, pattern):
        self.calls += 1
        if self._error is not None:
            raise self._error
        if self._answers:
            return self._answers.pop(0)
        return TEXT.count_naive(pattern)

    def space_report(self):
        return SpaceReport(name="Stub", components={"stub": 1})


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        deadline.check()  # must not raise

    def test_expires_on_manual_clock(self):
        clock = ManualClock()
        deadline = Deadline(0.5, clock)
        deadline.check()
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.6)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_rejects_negative_budget_and_backward_time(self):
        with pytest.raises(InvalidParameterError):
            Deadline(-1.0)
        with pytest.raises(InvalidParameterError):
            ManualClock().advance(-1)

    def test_threads_through_batch_counter(self):
        from repro.engine import IndexCounter

        clock = ManualClock()
        index = CompactPrunedSuffixTree(TEXT, 8)
        counter = IndexCounter(index)
        expired = Deadline(0.1, clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError):
            counter.count("abracadabra", expired)
        # A live deadline lets the same query through.
        assert counter.count("abracadabra", Deadline(10.0, clock)) == \
            TEXT.count_naive("abracadabra")


class TestRetryPolicy:
    def test_deterministic_given_seed(self):
        a = RetryPolicy(max_attempts=5, seed=42)
        b = RetryPolicy(max_attempts=5, seed=42)
        assert [a.delay(i) for i in range(1, 5)] == [b.delay(i) for i in range(1, 5)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=9, base_delay=0.1, max_delay=0.4, multiplier=2.0,
            jitter=0.0,
        )
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7, max_attempts=3)
        for _ in range(50):
            assert 0.05 <= policy.delay(1) <= 0.1

    def test_transience_classification(self):
        assert is_transient(RuntimeError("boom"))
        assert not is_transient(PatternError("bad"))
        assert not is_transient(DeadlineExceededError("late"))
        assert not is_transient(InvalidParameterError("bad"))

    def test_should_retry_respects_budget_and_kind(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(1, RuntimeError())
        assert not policy.should_retry(2, RuntimeError())
        assert not policy.should_retry(1, PatternError("bad"))

    def test_delay_capped_at_remaining_deadline(self):
        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, jitter=0.0, max_delay=60.0,
        )
        budget = Deadline(2.0, clock)
        clock.advance(1.5)
        assert policy.delay(1, deadline=budget) == pytest.approx(0.5)
        # An unbounded deadline imposes no cap.
        assert policy.delay(1, deadline=Deadline(None, clock)) == 10.0
        assert policy.delay(1) == 10.0

    def test_delay_is_zero_once_deadline_spent(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0)
        budget = Deadline(1.0, clock)
        clock.advance(2.0)
        assert policy.delay(1, deadline=budget) == 0.0

    def test_ladder_stops_retrying_when_deadline_spent(self):
        # The backoff sleep must never overshoot the deadline, and a spent
        # budget ends the retry loop instead of sleeping first.
        clock = ManualClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        flaky = StubEstimator(error=RuntimeError("transient"))
        service = ResilientEstimator(
            [Tier(flaky, "flaky"),
             Tier(TextStatsEstimator(TEXT), "stats", always_available=True)],
            deadline_seconds=1.0,
            retry=RetryPolicy(
                max_attempts=10, base_delay=0.6, jitter=0.0, max_delay=5.0,
            ),
            clock=clock,
            sleep=sleep,
        )
        outcome = service.query("abra")
        assert outcome.tier == "stats"
        # First backoff (0.6s) fits the budget; the capped second sleep
        # lands exactly on the deadline, then the loop stops retrying.
        assert sleeps == [pytest.approx(0.6), pytest.approx(0.4)]
        assert sum(sleeps) <= 1.0
        # The loop ended because the budget ran out, not by attempt count.
        assert flaky.calls < 10
        assert any("deadline" in reason for name, reason in outcome.failures
                   if name == "flaky")

    def test_retry_abandoned_when_failure_consumes_budget(self):
        # A tier whose failing call itself burns the whole budget: the
        # ladder must not sleep at all — it abandons the retry and moves on.
        clock = ManualClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        class BudgetBurner(StubEstimator):
            def count(self, pattern):
                self.calls += 1
                clock.advance(2.0)
                raise RuntimeError("transient")

        burner = BudgetBurner()
        service = ResilientEstimator(
            [Tier(burner, "burner"),
             Tier(TextStatsEstimator(TEXT), "stats", always_available=True)],
            deadline_seconds=1.0,
            retry=RetryPolicy(max_attempts=10, base_delay=0.6, jitter=0.0),
            clock=clock,
            sleep=sleep,
        )
        outcome = service.query("abra")
        assert outcome.tier == "stats"
        assert burner.calls == 1
        assert sleeps == []
        assert ("burner", "retry abandoned: deadline exhausted") in outcome.failures


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        config = dict(
            window=4, min_calls=4, failure_threshold=0.5,
            reset_timeout=30.0, trial_calls=2, clock=clock,
        )
        config.update(overrides)
        return CircuitBreaker(**config)

    def test_stays_closed_below_min_calls(self):
        breaker = self._breaker(ManualClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_at_failure_rate_over_window(self):
        breaker = self._breaker(ManualClock())
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()  # window [T, T, F, F] -> rate 0.5
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_recovers_through_half_open(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.2)  # past reset_timeout
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN  # needs trial_calls=2
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failure_rate() == 0.0  # window cleared on close

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(29.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_rejects_bad_configuration(self):
        for kwargs in (
            {"window": 0}, {"min_calls": 0}, {"min_calls": 99},
            {"failure_threshold": 0.0}, {"failure_threshold": 1.5},
            {"reset_timeout": -1}, {"trial_calls": 0},
        ):
            with pytest.raises(InvalidParameterError):
                self._breaker(ManualClock(), **kwargs)

    def test_half_open_admits_exactly_trial_calls_probes(self):
        clock = ManualClock()
        breaker = self._breaker(clock, trial_calls=3)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(30.0)
        # Single-threaded permit accounting: only trial_calls allow()s pass.
        admitted = sum(1 for _ in range(10) if breaker.allow())
        assert admitted == 3
        assert breaker.state is BreakerState.HALF_OPEN

    def test_force_open_and_force_close(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        breaker.force_open()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        # Unlike a failure-driven open, force_open survives the reset
        # timeout only as far as half-open — force_close ends it outright.
        breaker.force_close()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.failure_rate() == 0.0


class TestCircuitBreakerConcurrency:
    """The half-open state is a concurrency funnel: under N threads
    hammering allow()/record(), exactly trial_calls probes may pass."""

    def test_n_threads_through_half_open_admit_exactly_trial_calls(self):
        import threading

        clock = ManualClock()
        trial_calls = 4
        breaker = CircuitBreaker(
            window=8, min_calls=4, failure_threshold=0.5,
            reset_timeout=1.0, trial_calls=trial_calls, clock=clock,
        )
        for _ in range(8):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.5)  # cooldown over: next allow() goes half-open

        n_threads = 16
        attempts_per_thread = 50
        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            mine = 0
            for _ in range(attempts_per_thread):
                if breaker.allow():
                    mine += 1
            with lock:
                admitted.append(mine)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        # Exactly trial_calls probes admitted across all threads combined.
        assert sum(admitted) == trial_calls
        assert breaker.state is BreakerState.HALF_OPEN
        # The admitted probes all succeed -> the breaker closes; further
        # traffic flows freely again.
        for _ in range(trial_calls):
            breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()


class TestTextStatsEstimator:
    def test_contract_validates_as_upper_bound(self):
        stats = TextStatsEstimator(TEXT)
        assert stats.error_model is ErrorModel.UPPER_BOUND
        report = validate_index(stats, TEXT)
        assert report.ok, [v.reason for v in report.violations]

    def test_bounds(self):
        stats = TextStatsEstimator(TEXT)
        assert stats.count("z") == 0  # absent character
        assert stats.count("abracadabra" * 41) == 0  # longer than the text
        truth = TEXT.count_naive("abra")
        assert truth <= stats.count("abra") <= len(TEXT) - 4 + 1
        # The rarest-character bound engages: 'c' occurs once per period.
        assert stats.count("acad") <= TEXT.count_naive("c") + 0

    def test_reliability_only_at_zero(self):
        stats = TextStatsEstimator(TEXT)
        assert stats.is_reliable("z")
        assert not stats.is_reliable("abra")


class TestTier:
    def test_certified_only_declines_below_threshold(self):
        tier = Tier(CompactPrunedSuffixTree(TEXT, 8), certified_only=True)
        count, model, threshold, reliable = tier.answer("abra")
        assert count == TEXT.count_naive("abra")
        assert model is ErrorModel.EXACT and reliable
        with pytest.raises(TierDeclined):
            tier.answer("abracadabra!")  # absent -> below threshold

    def test_infeasible_answers_rejected(self):
        for bogus in (-3, len(TEXT) + 999, "42", None, True):
            tier = Tier(StubEstimator(answers=[bogus]))
            with pytest.raises(IndexCorruptedError):
                tier.answer("abra")

    def test_uniform_tier_keeps_threshold_slack(self):
        from repro.core import ApproxIndex

        apx = ApproxIndex(TEXT, 8)
        tier = Tier(apx)
        # A pattern longer than the text: truth 0, but the uniform contract
        # allows up to l - 1, which must not trip the feasibility check.
        count, model, threshold, _ = tier.answer("abracadabra" * 41)
        assert model is ErrorModel.UNIFORM
        assert 0 <= count <= threshold - 1


class TestResilientEstimator:
    def _ladder(self, clock=None, **kwargs):
        clock = clock or ManualClock()
        kwargs.setdefault("retry", RetryPolicy(max_attempts=2, base_delay=0.001))
        return build_default_ladder(
            TEXT, 8, clock=clock, sleep=clock.sleep, **kwargs
        ), clock

    def test_primary_serves_frequent_patterns(self):
        service, _ = self._ladder()
        outcome = service.query("abra")
        assert outcome.tier == "cpst" and outcome.tier_index == 0
        assert outcome.count == TEXT.count_naive("abra")
        assert not outcome.degraded
        assert outcome.error_model is ErrorModel.EXACT

    def test_rare_patterns_degrade_to_apx_with_uniform_contract(self):
        service, _ = self._ladder()
        outcome = service.query("zzz")
        assert outcome.tier == "apx" and outcome.degraded
        truth = TEXT.count_naive("zzz")
        assert outcome.contract_holds(truth, len(TEXT))
        assert ("cpst", "declined: cannot certify") in outcome.failures

    def test_malformed_patterns_raise_immediately(self):
        service, _ = self._ladder()
        with pytest.raises(PatternError):
            service.query("")
        with pytest.raises(PatternError):
            service.query(123)  # type: ignore[arg-type]

    def test_all_tiers_failed_carries_reasons(self):
        clock = ManualClock()
        broken = StubEstimator(error=RuntimeError("backend down"))
        service = ResilientEstimator(
            [Tier(broken, "only")],
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            clock=clock, sleep=clock.sleep,
        )
        with pytest.raises(AllTiersFailedError) as excinfo:
            service.query("abra")
        assert excinfo.value.pattern == "abra"
        tiers = [tier for tier, _ in excinfo.value.failures]
        assert tiers == ["only", "only"]  # original try + one retry

    def test_deadline_expiry_jumps_to_stats_tier(self):
        clock = ManualClock()
        spike = FaultSpec(latency_rate=1.0, latency=1.0)
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, 8),
            {"automaton_step": spike},
            seed=3, sleep=clock.sleep,
        )
        service, _ = self._ladder(clock=clock, primary=faulty,
                                  deadline_seconds=0.5)
        outcome = service.query("abracadabra")
        assert outcome.tier == "stats"
        assert outcome.error_model is ErrorModel.UPPER_BOUND
        assert any("deadline" in reason for _, reason in outcome.failures)
        assert outcome.contract_holds(
            TEXT.count_naive("abracadabra"), len(TEXT)
        )

    def test_breaker_short_circuits_failing_primary(self):
        clock = ManualClock()
        faulty = FaultyIndex.failing(CompactPrunedSuffixTree(TEXT, 8), seed=5)
        service, _ = self._ladder(
            clock=clock, primary=faulty,
            breaker_factory=lambda: CircuitBreaker(
                window=4, min_calls=2, failure_threshold=0.5,
                reset_timeout=60.0, clock=clock,
            ),
        )
        for pattern in ("abra", "brac", "raca", "acad", "cada"):
            service.query(pattern)
        assert service.tiers[0].breaker.state is BreakerState.OPEN
        outcome = service.query("dabr")
        assert ("cpst", "skipped: circuit open") in outcome.failures
        assert outcome.attempts == 1  # primary not even tried

    def test_retry_recovers_transient_failure_on_same_tier(self):
        clock = ManualClock()
        flaky = StubEstimator(answers=[])
        flaky._error = None
        calls = {"n": 0}

        class Flaky(StubEstimator):
            def count(self, pattern):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient blip")
                return TEXT.count_naive(pattern)

        service = ResilientEstimator(
            [Tier(Flaky(), "flaky")],
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
            clock=clock, sleep=clock.sleep,
        )
        outcome = service.query("abra")
        assert outcome.tier == "flaky"
        assert outcome.attempts == 2 and outcome.degraded
        assert outcome.count == TEXT.count_naive("abra")

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            ResilientEstimator([Tier(StubEstimator(), "x"),
                                Tier(StubEstimator(), "x")])

    def test_count_many_matches_truth_on_healthy_ladder(self):
        service, _ = self._ladder()
        patterns = ["abra", "cad", "zz", "a", "dabra"]
        counts = service.count_many(patterns)
        outcomes = service.query_many(patterns)
        assert counts == [outcome.count for outcome in outcomes]
        for outcome in outcomes:
            assert outcome.contract_holds(
                TEXT.count_naive(outcome.pattern), len(TEXT)
            )


class TestHealthProbe:
    def test_healthy_ladder_reports_pass(self):
        clock = ManualClock()
        service = build_default_ladder(
            TEXT, 8, clock=clock, sleep=clock.sleep,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        report = run_health_probe(service, text=TEXT, seed=1)
        assert report.ok and report.answered == report.total
        text = report.format()
        assert "serve-check PASS" in text
        for name in ("cpst", "apx", "qgram", "stats"):
            assert name in text

    def test_requires_patterns_or_text(self):
        clock = ManualClock()
        service = build_default_ladder(TEXT, 8, clock=clock, sleep=clock.sleep)
        with pytest.raises(ValueError):
            run_health_probe(service)


class TestQueryOutcomeContract:
    def _outcome(self, model, count, threshold=8, pattern="abra"):
        return QueryOutcome(
            pattern=pattern, count=count, tier="t", tier_index=0,
            error_model=model, threshold=threshold, reliable=False,
            elapsed=0.0, attempts=1,
        )

    def test_exact(self):
        assert self._outcome(ErrorModel.EXACT, 5).contract_holds(5)
        assert not self._outcome(ErrorModel.EXACT, 6).contract_holds(5)

    def test_uniform(self):
        assert self._outcome(ErrorModel.UNIFORM, 12).contract_holds(5)
        assert not self._outcome(ErrorModel.UNIFORM, 13).contract_holds(5)
        assert not self._outcome(ErrorModel.UNIFORM, 4).contract_holds(5)

    def test_lower_sided(self):
        assert self._outcome(ErrorModel.LOWER_SIDED, 20).contract_holds(20)
        assert not self._outcome(ErrorModel.LOWER_SIDED, 19).contract_holds(20)
        assert self._outcome(ErrorModel.LOWER_SIDED, 3).contract_holds(2)
        assert not self._outcome(ErrorModel.LOWER_SIDED, 9).contract_holds(2)

    def test_upper_bound_with_and_without_text_length(self):
        outcome = self._outcome(ErrorModel.UPPER_BOUND, 50)
        assert outcome.contract_holds(10)
        assert not outcome.contract_holds(60)
        assert outcome.contract_holds(10, text_length=100)
        assert not outcome.contract_holds(10, text_length=40)
