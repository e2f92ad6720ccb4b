"""Tests for the sharded corpus plane: plans, merge algebra, differentials."""

from __future__ import annotations

import random

import pytest

from repro.engine import IndexCounter
from repro.core.interface import ErrorModel
from repro.errors import InvalidParameterError
from repro.shard import (
    MergePolicy,
    ShardAnswer,
    ShardPlan,
    build_sharded,
    effective_shard_threshold,
    merge_answers,
    merged_threshold,
    shard_threshold,
)
from repro.space import SpaceReport
from repro.textutil import ROW_SEPARATOR, Text


def _documents(count=12, size=400, seed=0, alphabet="abcd"):
    rng = random.Random(seed)
    return [
        (f"doc{i:02d}", "".join(rng.choice(alphabet) for _ in range(size)))
        for i in range(count)
    ]


def _workload(mono: Text, seed=0, per_length=20, lengths=(2, 3, 5, 8)):
    rng = random.Random(seed)
    raw = mono.raw
    patterns = set()
    for length in lengths:
        for _ in range(per_length):
            start = rng.randrange(0, len(raw) - length)
            patterns.add(raw[start : start + length])
        patterns.add("".join(rng.choice("abcd") for _ in range(length)))
    patterns.add("zzzz")  # certainly absent
    return sorted(p for p in patterns if ROW_SEPARATOR not in p)


class TestShardPlan:
    def test_bin_packing_balances_loads(self):
        docs = [("big", "a" * 1000), ("mid", "b" * 600),
                ("s1", "c" * 400), ("s2", "d" * 350)]
        plan = ShardPlan.for_documents(docs, 2)
        loads = [len(shard.text) for shard in plan]
        # big alone vs mid+s1+s2: the greedy packing may not be perfect
        # but must not put everything on one shard.
        assert max(loads) < sum(loads)
        assert plan.shard_of("big") != plan.shard_of("mid")

    def test_deterministic(self):
        docs = _documents()
        a = ShardPlan.for_documents(docs, 3)
        b = ShardPlan.for_documents(docs, 3)
        assert a.manifest == b.manifest
        assert [s.text.raw for s in a] == [s.text.raw for s in b]

    def test_manifest_covers_every_document(self):
        docs = _documents(count=7)
        plan = ShardPlan.for_documents(docs, 3)
        assert sorted(plan.manifest) == sorted(name for name, _ in docs)
        assert set(plan.manifest.values()) == set(plan.names)
        for name, _ in docs:
            assert plan.shard_of(name) in plan.names

    def test_documents_keep_insertion_order_within_shard(self):
        docs = _documents(count=6)
        plan = ShardPlan.for_documents(docs, 2)
        order = {name: i for i, (name, _) in enumerate(docs)}
        for shard in plan:
            indices = [order[name] for name in shard.documents]
            assert indices == sorted(indices)

    def test_explicit_assignment(self):
        docs = [("a", "xx"), ("b", "yy"), ("c", "zz")]
        plan = ShardPlan.explicit(
            docs, {"a": "left", "b": "right", "c": "left"}
        )
        assert plan.names == ["left", "right"]
        assert plan.shard_of("c") == "left"
        left = plan.shards[0]
        assert left.documents == ("a", "c")

    def test_explicit_rejects_unassigned_and_unknown(self):
        docs = [("a", "xx"), ("b", "yy")]
        with pytest.raises(InvalidParameterError):
            ShardPlan.explicit(docs, {"a": "s0"})
        with pytest.raises(InvalidParameterError):
            ShardPlan.explicit(docs, {"a": "s0", "b": "s0", "ghost": "s1"})

    def test_rejects_separator_in_body(self):
        with pytest.raises(InvalidParameterError, match="separator"):
            ShardPlan.for_documents([("bad", f"x{ROW_SEPARATOR}y")], 1)

    def test_rejects_bad_shard_counts(self):
        docs = _documents(count=3)
        with pytest.raises(InvalidParameterError):
            ShardPlan.for_documents(docs, 0)
        with pytest.raises(InvalidParameterError):
            ShardPlan.for_documents(docs, 4)

    def test_rejects_duplicate_documents(self):
        with pytest.raises(InvalidParameterError):
            ShardPlan.for_documents([("a", "x"), ("a", "y")], 1)

    def test_for_rows_names(self):
        plan = ShardPlan.for_rows(["aaa", "bbb"], 2)
        assert sorted(plan.manifest) == ["row000000", "row000001"]

    def test_format_mentions_every_shard(self):
        plan = ShardPlan.for_rows(["aaa", "bbb", "ccc"], 2)
        text = plan.format()
        for name in plan.names:
            assert name in text


class TestMergeAlgebra:
    def test_shard_threshold_split(self):
        # l=8, k=4: per-shard budget (8-1)//4 = 1 -> floor 2.
        assert shard_threshold(8, 4, MergePolicy.SPLIT_BUDGET) == 2
        # l=64, k=4: 1 + 63//4 = 16; merged 4*15+1 = 61 <= 64.
        assert shard_threshold(64, 4, MergePolicy.SPLIT_BUDGET) == 16
        assert merged_threshold([16] * 4) == 61

    def test_shard_threshold_widen(self):
        assert shard_threshold(8, 4, MergePolicy.WIDEN_INTERVAL) == 8
        assert merged_threshold([8] * 4) == 4 * 7 + 1

    def test_split_budget_never_exceeds_original(self):
        for l in (2, 3, 8, 17, 64, 100):
            for k in (1, 2, 3, 5, 8):
                t = shard_threshold(l, k, MergePolicy.SPLIT_BUDGET)
                assert merged_threshold([t] * k) <= max(l, 1 + k)

    def test_effective_threshold_exact_kinds(self):
        assert effective_shard_threshold("fm", 64, 4, MergePolicy.SPLIT_BUDGET) == 1
        assert effective_shard_threshold("cpst", 64, 4, MergePolicy.SPLIT_BUDGET) == 16

    def test_bounds_exact(self):
        a = ShardAnswer("s", ErrorModel.EXACT, 1, 5, ceiling=100)
        assert a.bounds == (5, 5)

    def test_bounds_uniform_clamped(self):
        a = ShardAnswer("s", ErrorModel.UNIFORM, 8, 10, ceiling=100)
        assert a.bounds == (3, 10)
        clamped = ShardAnswer("s", ErrorModel.UNIFORM, 8, 10, ceiling=6)
        assert clamped.bounds == (3, 6)

    def test_bounds_lower_sided(self):
        certified = ShardAnswer("s", ErrorModel.LOWER_SIDED, 8, 12, ceiling=100)
        assert certified.bounds == (12, 12)
        declined = ShardAnswer("s", ErrorModel.LOWER_SIDED, 8, None, ceiling=100)
        assert declined.bounds == (0, 7)
        tiny = ShardAnswer("s", ErrorModel.LOWER_SIDED, 8, None, ceiling=3)
        assert tiny.bounds == (0, 3)

    def test_bounds_degraded_is_ceiling(self):
        a = ShardAnswer("s", None, 1, None, ceiling=42, degraded=True)
        assert a.bounds == (0, 42)

    def test_merge_all_exact(self):
        merged = merge_answers([
            ShardAnswer(f"s{i}", ErrorModel.EXACT, 1, i, ceiling=100)
            for i in range(3)
        ])
        assert merged.count == 3 and merged.exact
        assert merged.error_model is ErrorModel.EXACT
        assert merged.threshold == 1

    def test_merge_uniform_threshold(self):
        merged = merge_answers([
            ShardAnswer("a", ErrorModel.UNIFORM, 4, 10, ceiling=100),
            ShardAnswer("b", ErrorModel.UNIFORM, 4, 0, ceiling=100),
        ])
        assert merged.error_model is ErrorModel.UNIFORM
        assert merged.threshold == 1 + 3 + 3
        assert merged.count == 10
        assert merged.lo == 7 and merged.hi == 10

    def test_merge_degraded_is_upper_bound(self):
        merged = merge_answers([
            ShardAnswer("a", ErrorModel.EXACT, 1, 10, ceiling=100),
            ShardAnswer("b", None, 1, None, ceiling=40, degraded=True),
        ])
        assert merged.error_model is ErrorModel.UPPER_BOUND
        assert merged.degraded_shards == ("b",)
        assert (merged.lo, merged.hi) == (10, 50)
        assert merged.count == 50
        assert not merged.exact


@pytest.mark.parametrize("k", [1, 2, 4, 7])
@pytest.mark.parametrize(
    "policy", [MergePolicy.SPLIT_BUDGET, MergePolicy.WIDEN_INTERVAL]
)
class TestDifferential:
    """Satellite: sharded counts vs the unsharded monolith, seeded."""

    L = 8

    @pytest.fixture()
    def setting(self, k, policy):
        docs = _documents(count=12, size=400, seed=13)
        mono = Text.from_rows([body for _, body in docs])
        plan = ShardPlan.for_documents(docs, k)
        return docs, mono, plan

    def test_exact_kind_matches_monolith(self, setting, k, policy):
        _, mono, plan = setting
        fm, _ = build_sharded(plan, "fm", self.L, policy=policy)
        for pattern in _workload(mono, seed=1, per_length=8):
            assert fm.count(pattern) == mono.count_naive(pattern), pattern

    def test_cpst_certifies_only_truth(self, setting, k, policy):
        _, mono, plan = setting
        cpst, report = build_sharded(plan, "cpst", self.L, policy=policy)
        certified = 0
        for pattern in _workload(mono, seed=2, per_length=8):
            value = cpst.count_or_none(pattern)
            if value is not None:
                assert value == mono.count_naive(pattern), pattern
                certified += 1
        assert certified > 0  # the workload exercises the certified path

    def test_apx_within_merged_budget(self, setting, k, policy):
        _, mono, plan = setting
        apx, report = build_sharded(plan, "apx", self.L, policy=policy)
        slack = apx.threshold - 1
        assert slack == report.merged_threshold - 1
        assert slack == k * (report.shard_threshold - 1)
        if policy is MergePolicy.SPLIT_BUDGET:
            assert apx.threshold <= max(self.L, 1 + k)
        for pattern in _workload(mono, seed=3, per_length=8):
            truth = mono.count_naive(pattern)
            count = apx.count(pattern)
            assert truth <= count <= truth + slack, pattern
            lo, hi = apx.count_interval(pattern)
            assert lo <= truth <= hi, pattern

    def test_engine_path_matches_fanout(self, setting, k, policy):
        _, mono, plan = setting
        apx, _ = build_sharded(plan, "apx", self.L, policy=policy)
        patterns = _workload(mono, seed=4, per_length=8)
        fanout = [apx.count(p) for p in patterns]
        assert IndexCounter(apx).count_many(patterns) == fanout


class TestShardedLifecycle:
    @pytest.fixture()
    def sharded(self):
        docs = _documents(count=8, size=300, seed=5)
        plan = ShardPlan.for_documents(docs, 4)
        estimator, _ = build_sharded(plan, "apx", 8)
        mono = Text.from_rows([body for _, body in docs])
        return estimator, mono

    def test_quarantine_degrades_soundly(self, sharded):
        estimator, mono = sharded
        assert estimator.error_model is ErrorModel.UNIFORM
        estimator.quarantine_shard("shard1", "test")
        assert estimator.error_model is ErrorModel.UPPER_BOUND
        assert estimator.degraded_shards == ("shard1",)
        for pattern in ("ab", "abc", "zzzz"):
            truth = mono.count_naive(pattern)
            lo, hi = estimator.count_interval(pattern)
            assert lo <= truth <= hi
            assert estimator.count(pattern) >= truth
        estimator.readmit_shard("shard1")
        assert estimator.error_model is ErrorModel.UNIFORM
        assert estimator.degraded_shards == ()

    def test_rebuild_and_verify(self, sharded):
        estimator, mono = sharded
        estimator.quarantine_shard("shard2", "test")
        seconds = estimator.rebuild_shard("shard2")
        assert seconds >= 0.0
        probes = estimator.verify_shard("shard2", ["ab", "ba", "zzzz"])
        assert probes and all(p.ok for p in probes)
        estimator.readmit_shard("shard2")
        assert estimator.degraded_shards == ()

    def test_convict_clean_estimator_finds_nothing(self, sharded):
        estimator, _ = sharded
        assert estimator.can_localize()
        assert estimator.convict_shards("ab") == []

    def test_unknown_shard_rejected(self, sharded):
        estimator, _ = sharded
        with pytest.raises(InvalidParameterError):
            estimator.quarantine_shard("nope", "test")

    def test_space_report_rolls_up_shards(self, sharded):
        estimator, _ = sharded
        report = estimator.space_report()
        assert any(key.startswith("shard0.") for key in report.components)
        assert report.total_bits > 0


class TestSpaceReportMerge:
    def test_add_two_reports(self):
        a = SpaceReport("A", {"x": 10}, {"o": 1})
        b = SpaceReport("B", {"x": 20}, {"o": 2})
        merged = a + b
        assert merged.components == {"A.x": 10, "B.x": 20}
        assert merged.overhead == {"A.o": 1, "B.o": 2}
        assert merged.total_bits == a.total_bits + b.total_bits

    def test_merge_sums_colliding_keys(self):
        a = SpaceReport("same", {"x": 10}, {})
        b = SpaceReport("same", {"x": 5}, {})
        merged = SpaceReport.merge([a, b])
        assert merged.components == {"same.x": 15}

    def test_merge_names_anonymous_parts(self):
        a = SpaceReport("", {"x": 1}, {})
        b = SpaceReport("", {"y": 2}, {})
        merged = SpaceReport.merge([a, b], name="roll")
        assert merged.name == "roll"
        assert merged.components == {"part0.x": 1, "part1.y": 2}

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            SpaceReport.merge([])

    def test_add_non_report_is_type_error(self):
        with pytest.raises(TypeError):
            SpaceReport("A", {"x": 1}, {}) + 3


class TestCountIntervalDefault:
    """The OccurrenceEstimator.count_interval default on plain indexes."""

    def test_exact_index(self):
        from repro.baselines.fm import FMIndex

        fm = FMIndex("abracadabra")
        assert fm.count_interval("ra") == (2, 2)

    def test_uniform_index(self):
        from repro.core.approx import ApproxIndex

        text = "abcd" * 100
        apx = ApproxIndex(text, l=8)
        truth = Text(text).count_naive("ab")
        lo, hi = apx.count_interval("ab")
        assert lo <= truth <= hi

    def test_lower_sided_index(self):
        from repro.core.cpst import CompactPrunedSuffixTree

        text = "abcd" * 100 + "xyzw"
        cpst = CompactPrunedSuffixTree(text, l=8)
        assert cpst.count_interval("ab") == (100, 100)
        lo, hi = cpst.count_interval("xyzw")  # occurs once, below threshold
        assert lo == 0 and hi == 7
