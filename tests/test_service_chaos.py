"""Chaos tests: prove every degradation path fires under injected faults.

All fault injection is seeded (SEED below) and all time is manual, so
these tests are exactly reproducible run to run — CI executes them as a
dedicated job via ``-m chaos``. The core claim under test: whatever
faults the primary tiers suffer, the ladder answers *every* pattern, each
:class:`QueryOutcome` names its serving tier, and the error model the
outcome declares is truthful against ground-truth counts (the same
per-model rules :mod:`repro.validation` enforces).
"""

from __future__ import annotations

import pytest

from repro import CompactPrunedSuffixTree, validate_index
from repro.core import ApproxIndex
from repro.core.interface import ErrorModel
from repro.service import (
    BreakerState,
    FaultSpec,
    FaultyIndex,
    ManualClock,
    RetryPolicy,
    TextStatsEstimator,
    build_default_ladder,
)
from repro.textutil import Text, mixed_workload

pytestmark = pytest.mark.chaos

SEED = 1234
TEXT = Text("abracadabra_the_quick_brown_fox_" * 30)
L = 8
WORKLOAD = mixed_workload(TEXT, per_length=8, seed=SEED)
TRUTH = {pattern: TEXT.count_naive(pattern) for pattern in WORKLOAD}


def _ladder(primary=None, deadline_seconds=0.5, clock=None):
    clock = clock or ManualClock()
    service = build_default_ladder(
        TEXT, L,
        deadline_seconds=deadline_seconds,
        retry=RetryPolicy(max_attempts=2, base_delay=0.001, seed=SEED),
        clock=clock,
        sleep=clock.sleep,
        primary=primary,
    )
    return service, clock


def _assert_outcomes_truthful(outcomes):
    """Every outcome's declared error model must hold against ground truth."""
    for outcome in outcomes:
        assert outcome.contract_holds(TRUTH[outcome.pattern], len(TEXT)), (
            outcome.summary(), TRUTH[outcome.pattern]
        )


class TestPrimaryBlackout:
    """Acceptance scenario: the primary tier fails 100% of calls."""

    def test_every_pattern_still_answered_with_truthful_contracts(self):
        faulty = FaultyIndex.failing(
            CompactPrunedSuffixTree(TEXT, L), rate=1.0, seed=SEED
        )
        service, _ = _ladder(primary=faulty)
        outcomes = [service.query(pattern) for pattern in WORKLOAD]
        assert len(outcomes) == len(WORKLOAD)  # nothing unanswered
        # The dead primary never serves; every outcome names a real tier.
        assert all(outcome.tier != "cpst" for outcome in outcomes)
        assert {outcome.tier for outcome in outcomes} <= {"apx", "qgram", "stats"}
        assert all(outcome.degraded for outcome in outcomes)
        _assert_outcomes_truthful(outcomes)
        # Faults demonstrably fired, and the breaker eventually opened.
        assert sum(faulty.injections.values()) > 0
        assert service.tiers[0].breaker.state is BreakerState.OPEN

    def test_contract_rules_match_repro_validation(self):
        # The per-model rules used by contract_holds are the ones
        # validate_index enforces: the fault-free fallback tiers pass both.
        for estimator in (ApproxIndex(TEXT, L), TextStatsEstimator(TEXT)):
            report = validate_index(estimator, TEXT, patterns=WORKLOAD)
            assert report.ok, [v.reason for v in report.violations]


class TestCorruptedAnswers:
    def test_out_of_range_corruption_is_caught_not_served(self):
        spec = FaultSpec(corrupt_rate=1.0)
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"count_or_none": spec, "automaton_count": spec},
            seed=SEED,
        )
        service, _ = _ladder(primary=faulty)
        outcomes = [service.query(pattern) for pattern in WORKLOAD]
        corrupt_injections = sum(
            count for (site, kind), count in faulty.injections.items()
            if kind == "corrupt"
        )
        assert corrupt_injections > 0
        # Corrupted answers never surface: the feasibility check converts
        # them into tier failures and the ladder degrades truthfully.
        assert all(outcome.tier != "cpst" for outcome in outcomes)
        _assert_outcomes_truthful(outcomes)
        flagged = [
            reason
            for outcome in outcomes
            for tier, reason in outcome.failures
            if tier == "cpst" and "IndexCorruptedError" in reason
        ]
        assert flagged, "feasibility check never fired"


class TestBulkStepChaos:
    """Chaos parity for bulk waves (the automaton_step_many site)."""

    def test_bulk_site_fires_only_on_vectorized_waves(self, monkeypatch):
        from repro.engine import planner as planner_module
        from repro.engine import planner_for
        from repro.service.faults import InjectedFault

        spec = FaultSpec(error_rate=1.0)
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"automaton_step_many": spec},
            seed=SEED,
        )
        # Every wave of this small workload is narrower than the planner's
        # width floor, so at the default width each state steps on its
        # own and never touches step_many: same faults, no trips.
        multi = [p for p in WORKLOAD if len(p) >= 2]
        default = planner_for(faulty)
        truth = CompactPrunedSuffixTree(TEXT, L)
        assert default.count_many(multi) == [truth.count(p) for p in multi]
        assert default.stats.bulk_calls == 0
        assert faulty.injections[("automaton_step_many", "error")] == 0
        # With every wave in bulk, the walk goes straight into the site.
        monkeypatch.setattr(planner_module, "WAVE_WIDTH_MIN", 1)
        with pytest.raises(InjectedFault, match="automaton_step_many"):
            planner_for(faulty).count_many(multi)
        assert faulty.injections[("automaton_step_many", "error")] > 0

    def test_bulk_waves_face_scalar_step_rates(self, monkeypatch):
        """Each bulk-stepped state rolls the automaton_step rate, so a
        bulk wave cannot dodge chaos by batching."""
        from repro.engine import planner as planner_module
        from repro.engine import planner_for

        monkeypatch.setattr(planner_module, "WAVE_WIDTH_MIN", 1)
        spec = FaultSpec(latency_rate=1.0, latency=0.01)
        clock = ManualClock()
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"automaton_step": spec},
            seed=SEED,
            sleep=clock.sleep,
        )
        planner = planner_for(faulty)
        planner.count_many([p for p in WORKLOAD if len(p) >= 2])
        spikes = faulty.injections[("automaton_step", "latency")]
        assert spikes == planner.stats.automaton_steps > 0
        assert planner.stats.bulk_calls > 0

    def test_ladder_survives_bulk_blackout(self):
        spec = FaultSpec(error_rate=1.0)
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"automaton_step_many": spec},
            seed=SEED,
        )
        service, _ = _ladder(primary=faulty)
        outcomes = [service.query(pattern) for pattern in WORKLOAD]
        assert len(outcomes) == len(WORKLOAD)
        _assert_outcomes_truthful(outcomes)


class TestLatencyChaos:
    def test_latency_spikes_deadline_out_to_stats_tier(self):
        clock = ManualClock()
        spike = FaultSpec(latency_rate=1.0, latency=1.0)  # 1s per automaton step
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"automaton_step": spike},
            seed=SEED,
            sleep=clock.sleep,
        )
        service, _ = _ladder(primary=faulty, deadline_seconds=0.5, clock=clock)
        long_patterns = [p for p in WORKLOAD if len(p) >= 2][:20]
        outcomes = [service.query(pattern) for pattern in long_patterns]
        assert (
            sum(count for (site, kind), count in faulty.injections.items()
                if kind == "latency") > 0
        )
        # Once the deadline burns, only the always-available tier may serve.
        stats_served = [o for o in outcomes if o.tier == "stats"]
        assert stats_served, "no query ever degraded to the stats tier"
        for outcome in stats_served:
            assert outcome.error_model is ErrorModel.UPPER_BOUND
            assert any("deadline" in reason for _, reason in outcome.failures)
        _assert_outcomes_truthful(outcomes)


class TestPartialFaults:
    def test_intermittent_faults_split_traffic_between_tiers(self):
        spec = FaultSpec(error_rate=0.3)
        faulty = FaultyIndex(
            CompactPrunedSuffixTree(TEXT, L),
            {"count_or_none": spec, "automaton_count": spec},
            seed=SEED,
        )
        service, _ = _ladder(primary=faulty)
        outcomes = [service.query(pattern) for pattern in WORKLOAD]
        served_by = {outcome.tier for outcome in outcomes}
        # With intermittent faults and retries, the primary still serves
        # some queries while others degrade — both paths exercised.
        assert "cpst" in served_by
        assert served_by & {"apx", "qgram", "stats"}
        assert any(outcome.attempts > 1 for outcome in outcomes)
        _assert_outcomes_truthful(outcomes)

    def test_two_dead_tiers_fall_through_to_qgram_and_stats(self):
        dead_cpst = FaultyIndex.failing(
            CompactPrunedSuffixTree(TEXT, L), rate=1.0, seed=SEED
        )
        service, _ = _ladder(primary=dead_cpst)
        # Also kill the second tier, in place, via a wrapper.
        apx_tier = service.tiers[1]
        assert apx_tier.name == "apx"
        apx_tier.estimator = dead_apx = FaultyIndex.failing(
            apx_tier.estimator, rate=1.0, seed=SEED + 1
        )
        from repro.engine import IndexCounter

        apx_tier._counter = IndexCounter(dead_apx, max_states=4096)
        outcomes = [service.query(pattern) for pattern in WORKLOAD]
        served_by = {outcome.tier for outcome in outcomes}
        assert served_by <= {"qgram", "stats"}
        assert served_by == {"qgram", "stats"}  # both rungs demonstrably used
        for outcome in outcomes:
            if outcome.tier == "qgram":
                assert outcome.error_model is ErrorModel.EXACT
                assert outcome.count == TRUTH[outcome.pattern]
            else:
                assert outcome.error_model is ErrorModel.UPPER_BOUND
        _assert_outcomes_truthful(outcomes)


class TestDeterminism:
    def test_same_seed_same_story(self):
        def run():
            faulty = FaultyIndex(
                CompactPrunedSuffixTree(TEXT, L),
                {"count_or_none": FaultSpec(error_rate=0.5),
                 "automaton_count": FaultSpec(error_rate=0.5)},
                seed=SEED,
            )
            service, _ = _ladder(primary=faulty)
            outcomes = [service.query(pattern) for pattern in WORKLOAD]
            return [
                (o.pattern, o.count, o.tier, o.attempts, o.failures)
                for o in outcomes
            ], dict(faulty.injections)

        first, first_injections = run()
        second, second_injections = run()
        assert first == second
        assert first_injections == second_injections
