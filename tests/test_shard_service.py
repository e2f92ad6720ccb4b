"""Shard-granular fault isolation through the serving layer.

Corrupting or killing one shard must degrade only that shard: the
watchdog convicts, rebuilds and readmits it while the other k-1 shards
keep answering, and every served outcome names the degraded shards and
the widened-but-sound bound.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro import sa as sa_module
from repro.core.interface import ErrorModel
from repro.datasets import generate
from repro.service.server import QueryServer
from repro.service.tiers import Tier
from repro.service.watchdog import CorruptionWatchdog, probes_from_text
from repro.shard import MergePolicy, ShardPlan, build_sharded, build_sharded_ladder
from repro.textutil import ROW_SEPARATOR, Text, sample_from_text

L = 8
K = 4


class LyingEstimator:
    """Wraps a per-shard estimator and silently overcounts.

    Exposes no automaton protocol, so the lie reaches the fan-out path
    and the sharded product automaton is vetoed rather than bypassed.
    """

    def __init__(self, inner, offset=1000):
        self._inner = inner
        self._offset = offset

    def count(self, pattern):
        return self._inner.count(pattern) + self._offset

    @property
    def error_model(self):
        return self._inner.error_model

    @property
    def threshold(self):
        return self._inner.threshold

    @property
    def text_length(self):
        return self._inner.text_length

    @property
    def alphabet(self):
        return self._inner.alphabet

    def space_report(self):
        return self._inner.space_report()


@pytest.fixture()
def setting():
    rng = random.Random(7)
    rows = ["".join(rng.choice("abcd") for _ in range(500)) for _ in range(12)]
    plan = ShardPlan.for_rows(rows, K)
    service = build_sharded_ladder(plan, L, deadline_seconds=None)
    mono = Text.from_rows(rows)
    probes = {
        pattern: truth
        for pattern, truth in probes_from_text(mono, seed=3).items()
        if ROW_SEPARATOR not in pattern
    }
    return plan, service, mono, probes


def _corrupt_shard(service, shard_name):
    tier = next(t for t in service.tiers if t.name == "apx-sharded")
    sharded = tier.estimator
    sharded.replace_shard(
        shard_name, LyingEstimator(sharded.estimator_for(shard_name))
    )
    tier.replace_estimator(sharded)  # flush the tier's memo
    return tier, sharded


class TestShardGranularWatchdog:
    def test_convicts_only_the_lying_shard(self, setting):
        plan, service, mono, probes = setting
        tier, _ = _corrupt_shard(service, "shard2")
        watchdog = CorruptionWatchdog(
            service, probes, probes_per_round=len(probes), seed=1
        )
        findings = watchdog.run_probe_round()
        assert any(not f.ok and f.tier == "apx-sharded" for f in findings)
        events = watchdog.events
        assert len(events) == 1
        event = events[0]
        assert event.tier == "apx-sharded"
        assert event.shard == "shard2"
        assert event.target == "apx-sharded/shard2"
        # shard-granular: the tier itself never left service
        assert not tier.quarantined
        assert tier.breaker.allow()

    def test_rebuilds_verifies_and_readmits(self, setting):
        plan, service, mono, probes = setting
        tier, sharded = _corrupt_shard(service, "shard1")
        watchdog = CorruptionWatchdog(
            service, probes, probes_per_round=len(probes), seed=1
        )
        watchdog.run_probe_round()
        event = watchdog.events[0]
        assert event.rebuilt and event.readmitted
        assert event.rebuild_seconds >= 0.0
        assert event.verification and all(f.ok for f in event.verification)
        assert all(
            f.tier == "apx-sharded/shard1" for f in event.verification
        )
        assert sharded.degraded_shards == ()
        # the rebuilt shard answers honestly again
        for pattern in list(probes)[:5]:
            truth = mono.count_naive(pattern)
            assert truth <= sharded.count(pattern) <= truth + sharded.threshold - 1

    def test_other_shards_keep_serving_during_quarantine(self, setting):
        plan, service, mono, probes = setting
        tier = next(t for t in service.tiers if t.name == "apx-sharded")
        sharded = tier.estimator
        sharded.quarantine_shard("shard3", "chaos")
        tier.replace_estimator(sharded)
        # knock the certified primary out so the sharded APX tier serves
        service.tiers[0].quarantine("chaos")
        for pattern in list(probes)[:8]:
            outcome = service.query(pattern)
            assert outcome.tier == "apx-sharded"
            assert outcome.shards_degraded == ("shard3",)
            assert outcome.degraded
            lo, hi = outcome.count_interval
            assert lo <= mono.count_naive(pattern) <= hi
        sharded.readmit_shard("shard3")
        service.tiers[0].readmit()

    def test_healthy_outcome_reports_no_shards(self, setting):
        plan, service, mono, probes = setting
        outcome = service.query(next(iter(probes)))
        assert outcome.shards_degraded == ()
        assert outcome.count_interval is None

    def test_report_to_json_includes_shard_history(self, setting):
        plan, service, mono, probes = setting
        _corrupt_shard(service, "shard0")
        watchdog = CorruptionWatchdog(
            service, probes, probes_per_round=len(probes), seed=1
        )
        watchdog.run_probe_round()
        report = watchdog.report()
        payload = json.loads(report.to_json())
        assert payload["events"] == 1
        entry = payload["history"][0]
        assert entry["shard"] == "shard0"
        assert entry["target"] == "apx-sharded/shard0"
        assert entry["rebuilt"] is True
        assert entry["readmitted"] is True
        assert entry["verification_passed"] is True
        assert "shard0" in report.format()

    def test_whole_tier_path_still_works_for_unsharded_tiers(self, setting):
        plan, service, mono, probes = setting
        # Corrupt the monolithic qgram tier: no shard localisation there,
        # so the watchdog must fall back to whole-tier quarantine.
        qgram_tier = next(t for t in service.tiers if t.name == "qgram")
        qgram_tier.replace_estimator(
            LyingEstimator(qgram_tier.estimator, offset=7)
        )
        # make the qgram tier serve by quarantining everything above it
        for tier in service.tiers[:2]:
            tier.quarantine("chaos")
        watchdog = CorruptionWatchdog(
            service, probes, probes_per_round=len(probes), seed=1
        )
        watchdog.run_probe_round()
        events = [e for e in watchdog.events if e.tier == "qgram"]
        assert events and events[0].shard == ""
        assert qgram_tier.quarantined


class TestMergePolicyThroughLadder:
    @pytest.mark.parametrize(
        "policy", [MergePolicy.SPLIT_BUDGET, MergePolicy.WIDEN_INTERVAL]
    )
    def test_served_answers_sound_under_both_policies(self, policy):
        rng = random.Random(11)
        rows = ["".join(rng.choice("ab") for _ in range(300)) for _ in range(8)]
        plan = ShardPlan.for_rows(rows, 4)
        service = build_sharded_ladder(
            plan, L, policy=policy, deadline_seconds=None
        )
        mono = Text.from_rows(rows)
        for pattern in ("ab", "ba", "aab", "bbbb"):
            outcome = service.query(pattern)
            truth = mono.count_naive(pattern)
            assert outcome.contract_holds(truth, len(mono))


class TestOneSuffixSortPerShard:
    def test_ladder_sorts_each_shard_once(self, monkeypatch):
        """The sharded CPST and APX tiers build from one context per shard:
        k suffix sorts for the whole ladder, and rebuilding a shard of
        either tier reuses the memoised artifacts."""
        sorts = []
        real = sa_module.suffix_array

        def counting(data, *args, **kwargs):
            sorts.append(len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(sa_module, "suffix_array", counting)
        rng = random.Random(13)
        rows = ["".join(rng.choice("abcd") for _ in range(200)) for _ in range(8)]
        plan = ShardPlan.for_rows(rows, K)
        service = build_sharded_ladder(plan, L, deadline_seconds=None)
        assert len(sorts) == K
        assert sorted(sorts) == sorted(len(shard.text) + 1 for shard in plan.shards)
        for tier in service.tiers[:2]:
            sharded = tier.estimator
            name = sharded.shard_names[0]
            before = sharded.estimator_for(name).count("ab")
            sharded.rebuild_shard(name)
            assert sharded.estimator_for(name).count("ab") == before
        assert len(sorts) == K


class TestCertifiedFanoutEngineWork:
    def test_fanout_answer_carries_its_counter_work(self, setting):
        # The certified sharded CPST tier answers through the fan-out's
        # own count_or_none, never its product-automaton planner; the
        # answer still reports that call. The per-shard steps stay in
        # each shard slot's counter.
        _plan, service, _mono, probes = setting
        pattern = next(p for p, truth in sorted(probes.items()) if truth >= L)
        server = QueryServer(service)
        try:
            outcome = server.query(pattern)
        finally:
            server.close()
        assert outcome.tier == "cpst-sharded"
        assert outcome.count == probes[pattern]
        assert outcome.engine.patterns == 1
        tier = service.tiers[0]
        assert tier.engine_stats is tier._counter.planner.stats
        assert tier.engine_stats.patterns == 1


class TestTierFollowsShardSet:
    """A tier over a sharded APX counts through a planner over the product
    of the per-shard automata. That planner memoises results and holds the
    automata it was built with, so the tier must rebuild it whenever
    quarantine, readmission or replacement changes the shard set."""

    @pytest.fixture(scope="class")
    def dblp(self):
        raw = generate("dblp", 4000, 0)
        n = len(raw)
        rows = [raw[i * n // 8 : (i + 1) * n // 8] for i in range(8)]
        patterns = sorted(
            p for p in set(sample_from_text(raw, 5, 60, seed=3)) if "\n" not in p
        )
        return ShardPlan.for_rows(rows, K), rows, patterns

    @staticmethod
    def _holds(tier, rows, pattern):
        value, model, threshold, _ = tier.answer(pattern)
        truth = sum(Text(row).count_naive(pattern) for row in rows)
        assert model is ErrorModel.UNIFORM, pattern
        return truth <= value <= truth + threshold - 1

    def test_quarantine_query_readmit_query(self, dblp):
        plan, rows, patterns = dblp
        sharded, _ = build_sharded(plan, "apx", 16)
        tier = Tier(sharded)
        name = sharded.shard_names[0]
        sharded.quarantine_shard(name, "test")
        for pattern in patterns:
            assert tier.answer(pattern)[1] is ErrorModel.UPPER_BOUND
        sharded.readmit_shard(name)
        assert all(self._holds(tier, rows, p) for p in patterns)

    def test_counter_built_during_quarantine_then_readmitted(self, dblp):
        plan, rows, patterns = dblp
        sharded, _ = build_sharded(plan, "apx", 16)
        name = sharded.shard_names[0]
        sharded.quarantine_shard(name, "test")
        tier = Tier(sharded)
        sharded.readmit_shard(name)
        assert all(self._holds(tier, rows, p) for p in patterns)

    def test_replaced_shard_is_counted(self, dblp):
        plan, _rows, patterns = dblp
        sharded, _ = build_sharded(plan, "apx", 16)
        tier = Tier(sharded)
        stale = [tier.answer(p)[0] for p in patterns]
        other, _ = build_sharded(
            ShardPlan.for_rows([generate("english", 1000, 1)], 1), "apx", 16
        )
        name = sharded.shard_names[0]
        sharded.replace_shard(name, other.estimator_for(other.shard_names[0]))
        fresh = Tier(sharded)
        answers = [tier.answer(p)[0] for p in patterns]
        assert answers == [fresh.answer(p)[0] for p in patterns]
        assert answers == [sharded.count(p) for p in patterns]
        assert answers != stale

    def test_concurrent_answers_follow_the_last_readmission(self, dblp):
        # Four serving threads (more than the cores) race twenty
        # quarantine/readmit flaps; once the last readmission lands, every
        # answer must come from the full shard set again.
        plan, rows, patterns = dblp
        sharded, _ = build_sharded(plan, "apx", 16)
        tier = Tier(sharded)
        name = sharded.shard_names[0]
        stop = threading.Event()
        errors = []

        def serve():
            while not stop.is_set():
                for pattern in patterns[:8]:
                    try:
                        tier.answer(pattern)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(20):
                sharded.quarantine_shard(name, "flap")
                sharded.readmit_shard(name)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert all(self._holds(tier, rows, p) for p in patterns)
