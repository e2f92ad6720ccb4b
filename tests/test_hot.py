"""Unit and ladder-integration tests for the frequency-aware hot tier.

The hot tier (:mod:`repro.hot`) is a cache with a *contract*: whatever it
serves is either a ladder-verified exact count from the current epoch, or
an ``UPPER_BOUND`` interval that contains the truth. These tests pin that
contract at every layer — fingerprints, count–min sketch, Space-Saving
table, store semantics (promotion, staleness, epoch demotion), the ladder
rung, and the serving integrations (feedback loop, shed upgrade, sharded
fan-out short-circuit, live-corpus invalidation).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.interface import ErrorModel
from repro.errors import IndexCorruptedError
from repro.hot import (
    MOD,
    CountMinSketch,
    HotPatternTier,
    HotTierRung,
    RollingKarpRabin,
    SpaceSavingTable,
    with_hot_tier,
)
from repro.service import QueryServer, build_default_ladder
from repro.service.tiers import TierDeclined
from repro.shard import ShardPlan, build_sharded
from repro.textutil import Text

TEXT = Text("abracadabra_the_quick_brown_fox_" * 30)


# ---------------------------------------------------------------------------
# fingerprints


class TestRollingKarpRabin:
    def test_windows_match_scalar_fingerprint(self):
        kr = RollingKarpRabin()
        body = "abracadabra banana"
        codes = kr.encode(body)
        for length in (1, 2, 3, 5, 8):
            fps = kr.window_fingerprints(codes, length)
            assert fps.shape[0] == len(body) - length + 1
            for i in range(fps.shape[0]):
                assert int(fps[i]) == kr.fingerprint(body[i : i + length])

    def test_extend_chain_equals_direct(self):
        kr = RollingKarpRabin()
        codes = kr.encode("mississippi")
        fps = None
        for length in range(6):
            fps = kr.extend(fps, codes, length)
            direct = kr.window_fingerprints(codes, length + 1)
            assert np.array_equal(fps, direct)

    def test_fingerprints_stay_below_modulus(self):
        kr = RollingKarpRabin()
        codes = kr.encode("z" * 64 + "é世")
        fps = kr.window_fingerprints(codes, 7)
        assert int(fps.max()) < MOD

    def test_rejects_oversized_base(self):
        with pytest.raises(ValueError):
            RollingKarpRabin(base=1 << 21)


# ---------------------------------------------------------------------------
# count–min sketch


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4, seed=7)
        rng = random.Random(3)
        truth = {}
        for _ in range(500):
            fp = rng.randrange(1 << 30)
            truth[fp] = truth.get(fp, 0) + 1
            sketch.add(fp)
        for fp, count in truth.items():
            assert sketch.estimate(fp) >= count

    def test_add_many_matches_scalar_adds(self):
        a = CountMinSketch(width=128, depth=3, seed=1)
        b = CountMinSketch(width=128, depth=3, seed=1)
        fps = np.array([5, 5, 9, 123456, 5, 9], dtype=np.uint64)
        a.add_many(fps)
        for fp in fps:
            b.add(int(fp))
        for fp in (5, 9, 123456, 777):
            assert a.estimate(fp) == b.estimate(fp)
        assert a.total == b.total == len(fps)

    def test_clone_empty_shares_geometry_not_counts(self):
        sketch = CountMinSketch(width=32, depth=2, seed=9)
        sketch.add(42)
        clone = sketch.clone_empty()
        assert clone.estimate(42) == 0
        assert sketch.estimate(42) >= 1
        clone.add(42)
        assert clone.estimate(42) == sketch.estimate(42)

    def test_space_bits_scale_with_geometry(self):
        small = CountMinSketch(width=32, depth=2).space_bits()
        big = CountMinSketch(width=64, depth=4).space_bits()
        assert 0 < small < big


# ---------------------------------------------------------------------------
# space-saving table


class TestSpaceSavingTable:
    def test_fills_then_evicts_minimum(self):
        table = SpaceSavingTable(2)
        a = table.admit("aa", 1, fingerprint=0)
        b = table.admit("bb", 1, fingerprint=0)
        assert a is not None and b is not None
        for _ in range(5):
            table.hit("aa")
        # Full table: a newcomer must beat the minimum to get in.
        assert table.admit("cc", 1, fingerprint=0) is None
        entry = table.admit("cc", table.min_hits() + 3, fingerprint=0)
        assert entry is not None
        assert "bb" not in table
        # Space-Saving inheritance: hits = victim + 1, overestimate = victim.
        assert entry.hits == b.hits + 1
        assert entry.overestimate == b.hits
        assert table.evictions == 1

    def test_would_admit_tracks_minimum(self):
        table = SpaceSavingTable(1)
        assert table.would_admit(1)
        table.admit("xx", 4, fingerprint=0)
        assert not table.would_admit(4)
        assert table.would_admit(5)

    def test_heavy_hitter_survives_a_zipf_stream(self):
        table = SpaceSavingTable(4)
        rng = random.Random(0)
        stream = ["hot"] * 200 + [f"cold{i}" for i in range(120)]
        rng.shuffle(stream)
        for pattern in stream:
            if table.hit(pattern) is None:
                table.admit(pattern, 1, fingerprint=0)
        assert "hot" in table
        entry = table.get("hot")
        # The estimate over-approximates but is bounded by the classic
        # overestimate invariant: hits - overestimate <= true arrivals.
        assert entry.hits >= 200
        assert entry.hits - entry.overestimate <= 200

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpaceSavingTable(0)


# ---------------------------------------------------------------------------
# the store


def _store(**kwargs) -> HotPatternTier:
    return HotPatternTier.from_text(TEXT.raw, **kwargs)


class TestHotPatternTier:
    def test_cold_pattern_misses(self):
        store = _store()
        assert store.lookup("abra") is None
        assert store.stats.misses == 1

    def test_exact_promotion_roundtrip(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        ans = store.lookup("abra")
        assert ans is not None
        assert ans.model is ErrorModel.EXACT
        assert (ans.count, ans.lo, ans.hi) == (truth, truth, truth)
        assert store.stats.verifications == 1

    def test_warm_pattern_declines_once_for_promotion(self):
        store = _store()
        store.note_warm("abra")
        store.note_warm("abra")
        # Warm and admissible: decline so the ladder's answer reaches
        # observe().
        assert store.lookup("abra") is None
        misses = store.stats.misses
        store.observe_exact("abra", TEXT.count_naive("abra"))
        assert store.lookup("abra").model is ErrorModel.EXACT
        assert store.stats.misses == misses

    def test_unverifiable_pattern_falls_to_sketch(self):
        store = _store()
        truth = TEXT.count_naive("quick")
        # The ladder answered but could not certify (e.g. APX uniform):
        # after admission the sketch serves an upper bound instead of
        # declining forever.
        store.observe("quick", truth + 3, ErrorModel.UNIFORM)
        store.observe("quick", truth + 3, ErrorModel.UNIFORM)
        ans = store.lookup("quick")
        assert ans is not None
        assert ans.model is ErrorModel.UPPER_BOUND
        assert ans.lo == 0
        assert ans.hi >= truth
        assert store.stats.sketch_hits == 1

    def test_sketch_upper_bound_holds_for_every_window(self):
        body = "banana bandana cabana"
        store = HotPatternTier.from_text(body, warm_min=1, max_len=6)
        kr = store._kr
        for length in range(1, 7):
            for start in range(len(body) - length + 1):
                pattern = body[start : start + length]
                estimate = store._answers.estimate(kr.fingerprint(pattern))
                assert estimate >= body.count(pattern), pattern

    def test_append_widens_hi_and_contains_new_truth(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        appended = "abracadabra"
        store.note_append(appended)
        ans = store.lookup("abra")
        assert ans.model is ErrorModel.UPPER_BOUND
        new_truth = truth + appended.count("abra")
        assert ans.lo <= new_truth <= ans.hi
        assert ans.lo == truth  # appends never remove occurrences
        assert store.stats.stale_hits == 1
        assert store.stats.demotions == 1

    def test_delete_widens_lo(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        store.note_delete(10)
        ans = store.lookup("abra")
        assert ans.model is ErrorModel.UPPER_BOUND
        # A deleted document of length 10 removes at most 10 - 4 + 1
        # occurrences of a length-4 pattern.
        assert ans.lo == max(0, truth - 7)
        assert ans.hi == truth

    def test_epoch_bump_demotes_exact_to_point_interval(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        store.bump_epoch()
        assert store.lookup_exact("abra") is None
        ans = store.lookup("abra")
        assert ans.model is ErrorModel.UPPER_BOUND
        assert (ans.lo, ans.hi) == (truth, truth)
        # Re-verification restores EXACT service.
        store.observe_exact("abra", truth)
        assert store.lookup("abra").model is ErrorModel.EXACT

    def test_stale_limit_drops_verification(self):
        store = _store(stale_limit=1)
        store.observe_exact("abra", TEXT.count_naive("abra"))
        store.note_append("xxxx")
        store.note_append("yyyy")
        ans = store.lookup("abra")
        # Too mutated to bound usefully: the verified count is gone and
        # the answer (if any) comes from the sketch.
        assert ans is None or ans.model is ErrorModel.UPPER_BOUND
        entry = next(iter(store._table.entries()), None)
        if entry is not None:
            assert entry.verified_count is None

    def test_length_only_append_adds_sketch_slack(self):
        store = HotPatternTier.from_text("banana", warm_min=1)
        store.observe("an", 2, ErrorModel.UNIFORM)
        store.observe("an", 2, ErrorModel.UNIFORM)
        base = store.lookup("an")
        assert base is not None and base.model is ErrorModel.UPPER_BOUND
        store.note_append(20)  # length only: the sketch can't ingest text
        widened = store.lookup("an")
        assert widened.hi == base.hi + (20 - 2 + 1)

    def test_lookup_exact_skips_fanout_only_when_current(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        assert store.lookup_exact("abra") == truth
        assert store.stats.fanouts_skipped == 1
        store.bump_epoch()
        assert store.lookup_exact("abra") is None

    def test_rebuild_goes_dark_without_documents(self):
        store = _store(warm_min=1)
        store.observe_exact("abra", TEXT.count_naive("abra"))
        store.rebuild()
        # A zeroed sketch would answer 0 for occurring patterns; after a
        # blind rebuild the store must decline instead.
        store.note_warm("abra")
        store.note_warm("abra")
        store.observe("abra", 1, ErrorModel.UNIFORM)
        ans = store.lookup("abra")
        assert ans is None or ans.model is ErrorModel.EXACT

    def test_rebuild_with_documents_restores_the_sketch(self):
        store = _store()
        store.rebuild([("doc", "banana banana")])
        assert store.text_length == len("banana banana")
        store.observe("an", 2, ErrorModel.UNIFORM)
        store.observe("an", 2, ErrorModel.UNIFORM)
        ans = store.lookup("an")
        assert ans is not None
        assert ans.hi >= "banana banana".count("an")

    def test_space_report_names_every_component(self):
        report = _store().space_report()
        assert set(report.components) == {
            "topk_table", "freq_sketch", "answer_sketch",
        }
        assert report.total_bits > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HotPatternTier(max_len=0)
        with pytest.raises(ValueError):
            HotPatternTier(warm_min=0)
        with pytest.raises(ValueError):
            HotPatternTier(reverify_every=1)


# ---------------------------------------------------------------------------
# the ladder rung


class TestHotTierRung:
    def test_cold_pattern_declines(self):
        rung = HotTierRung(_store())
        with pytest.raises(TierDeclined):
            rung.answer("abra")

    def test_exact_answer_is_reliable(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        rung = HotTierRung(store)
        count, model, threshold, reliable = rung.answer("abra")
        assert (count, model, threshold, reliable) == (
            truth, ErrorModel.EXACT, 1, True,
        )

    def test_infeasible_verified_count_is_caught(self):
        store = _store()
        store.observe_exact("abra", 10**9)
        rung = HotTierRung(store)
        with pytest.raises(IndexCorruptedError):
            rung.answer("abra")

    def test_sketch_answer_is_clamped_to_the_ceiling(self):
        store = HotPatternTier.from_text("aaaa", warm_min=1)
        store.note_warm("aa")
        store.note_warm("aa")
        store.observe("aa", 3, ErrorModel.UNIFORM)
        rung = HotTierRung(store)
        count, model, _, _ = rung.answer("aa")
        assert model is ErrorModel.UPPER_BOUND
        assert count <= len("aaaa") - 2 + 1

    def test_observe_rejects_unreliable_outcomes(self):
        store = _store()
        rung = HotTierRung(store)
        truth = TEXT.count_naive("abra")
        degraded = SimpleNamespace(
            count=truth, error_model=ErrorModel.EXACT, reliable=True,
            shards_degraded=("s1",), delta_pending=0,
        )
        rung.observe("abra", degraded)
        assert store.lookup_exact("abra") is None
        pending = SimpleNamespace(
            count=truth, error_model=ErrorModel.LOWER_SIDED, reliable=True,
            shards_degraded=(), delta_pending=3,
        )
        rung.observe("abra", pending)
        assert store.lookup_exact("abra") is None
        clean = SimpleNamespace(
            count=truth, error_model=ErrorModel.LOWER_SIDED, reliable=True,
            shards_degraded=(), delta_pending=0,
        )
        rung.observe("abra", clean)
        assert store.lookup_exact("abra") == truth

    def test_shed_lookup_never_raises_and_respects_quarantine(self):
        store = _store()
        truth = TEXT.count_naive("abra")
        store.observe_exact("abra", truth)
        rung = HotTierRung(store)
        assert rung.shed_lookup("abra") == (truth, ErrorModel.EXACT)
        assert rung.shed_lookup("never-seen-pattern") is None
        rung.quarantine("test")
        assert rung.shed_lookup("abra") is None


# ---------------------------------------------------------------------------
# ladder integration: the feedback loop end to end


class TestLadderFeedback:
    def test_repeated_queries_promote_and_serve_exact(self):
        service = build_default_ladder(TEXT, 4, hot=True)
        assert [tier.name for tier in service.tiers][0] == "hot"
        truth = TEXT.count_naive("abra")
        outcomes = [service.query("abra") for _ in range(6)]
        assert outcomes[-1].tier == "hot"
        assert outcomes[-1].error_model is ErrorModel.EXACT
        assert outcomes[-1].count == truth
        # Every outcome along the way was truthful.
        for outcome in outcomes:
            assert outcome.contract_holds(truth, len(TEXT))

    def test_prepend_tier_shares_underlying_tiers(self):
        service = build_default_ladder(TEXT, 4)
        layered, rung = with_hot_tier(service, _store())
        assert layered.tiers[0] is rung
        assert layered.tiers[1:] == service.tiers

    def test_prebuilt_store_is_used_verbatim(self):
        store = _store(capacity=3)
        service = build_default_ladder(TEXT, 4, hot=store)
        assert service.tiers[0].hot is store

    def test_shed_answers_upgrade_through_the_hot_store(self):
        service = build_default_ladder(TEXT, 4, hot=True)
        truth = TEXT.count_naive("abra")
        for _ in range(6):
            service.query("abra")
        server = QueryServer(service, rate=0.0001, burst=1)
        with server:
            outcomes = [server.query("abra") for _ in range(4)]
        shed = [o for o in outcomes if o.shed]
        assert shed, "the token bucket should have shed some queries"
        for outcome in shed:
            assert outcome.upgraded
            assert outcome.tier == "hot"
            assert outcome.error_model is ErrorModel.EXACT
            assert outcome.count == truth
        assert service.tiers[0].hot_stats.shed_upgrades >= len(shed)


# ---------------------------------------------------------------------------
# sharded fan-out short-circuit


class TestShardedShortCircuit:
    @pytest.fixture(scope="class")
    def setup(self):
        docs = [
            ("d0", "abracadabra banana " * 8),
            ("d1", "cabana bandana abra " * 8),
            ("d2", "the quick brown abra " * 8),
        ]
        plan = ShardPlan.for_documents(docs, 2)
        estimator, _ = build_sharded(plan, "cpst", l=4)
        store = HotPatternTier.from_documents(docs)
        estimator.attach_hot(store)
        truth = sum(body.count("abra") for _, body in docs)
        return estimator, store, truth

    def test_exact_merge_feeds_back_then_skips_the_fanout(self, setup):
        estimator, store, truth = setup
        first = estimator.merged_count("abra")
        assert first.exact and first.count == truth
        skipped_before = store.stats.fanouts_skipped
        second = estimator.merged_count("abra")
        assert store.stats.fanouts_skipped == skipped_before + 1
        assert second.exact and second.count == truth
        assert [a.shard for a in second.answers] == ["hot"]

    def test_epoch_bump_restores_the_full_fanout(self, setup):
        estimator, store, truth = setup
        estimator.merged_count("abra")
        store.bump_epoch()
        skipped_before = store.stats.fanouts_skipped
        answer = estimator.merged_count("abra")
        assert store.stats.fanouts_skipped == skipped_before
        assert len(answer.answers) > 1
        assert answer.count == truth


# ---------------------------------------------------------------------------
# live-corpus invalidation wiring


class TestLiveCorpusWiring:
    def test_mutations_and_commits_bump_the_hot_epoch(self, tmp_path):
        from repro.live import LiveCorpus

        corpus = LiveCorpus.create(tmp_path / "corpus", l=4)
        try:
            corpus.append("base", "abracadabra " * 6)
            store = HotPatternTier.from_documents(
                corpus.documents().items()
            )
            corpus.attach_hot(store)
            truth = corpus.count("abra")
            store.observe_exact("abra", truth)
            epoch = store.epoch
            corpus.append("extra", "abra lives here")
            assert store.epoch > epoch
            ans = store.lookup("abra")
            new_truth = corpus.count("abra")
            assert ans.model is ErrorModel.UPPER_BOUND
            assert ans.lo <= new_truth <= ans.hi
            epoch = store.epoch
            corpus.compact()
            assert store.epoch > epoch
            corpus.delete("extra")
            final = store.lookup("abra")
            if final is not None:
                assert final.lo <= corpus.count("abra") <= final.hi
        finally:
            corpus.close()
