"""Tests for suffix-sharing batch counting through the engine's
:class:`~repro.engine.IndexCounter` (the planner side; the whole-pattern
side is covered in ``test_engine.py``)."""

from __future__ import annotations

import pytest

from repro import (
    ApproxIndex,
    CompactPrunedSuffixTree,
    FMIndex,
    PrunedSuffixTree,
    QGramIndex,
)
from repro.engine import IndexCounter
from repro.errors import PatternError
from repro.textutil import Text, mixed_workload

TEXT = Text("the cat sat on the mat and the rat sat too " * 25)


@pytest.fixture(
    params=["fm", "apx", "cpst", "pst"],
)
def wrapped(request):
    indexes = {
        "fm": lambda: FMIndex(TEXT),
        "apx": lambda: ApproxIndex(TEXT, 8),
        "cpst": lambda: CompactPrunedSuffixTree(TEXT, 8),
        "pst": lambda: PrunedSuffixTree(TEXT, 8),
    }
    index = indexes[request.param]()
    return index, IndexCounter(index)


class TestSuffixSharingCounter:
    def test_matches_direct_counts(self, wrapped):
        index, counter = wrapped
        for pattern in mixed_workload(TEXT, lengths=(1, 2, 4, 9), per_length=10):
            assert counter.count(pattern) == index.count(pattern), pattern

    def test_count_many_order_preserved(self, wrapped):
        index, counter = wrapped
        patterns = ["the", "at", "the", "sat on", "zz"]
        assert counter.count_many(patterns) == [index.count(p) for p in patterns]

    def test_shared_suffixes_share_states(self):
        index = FMIndex(TEXT)
        counter = IndexCounter(index)
        counter.count("the cat")
        states_before = len(counter.planner._states)
        counter.count("e cat")  # proper suffix: fully cached already
        assert len(counter.planner._states) == states_before

    def test_overlapping_batch_is_cheap(self):
        """All substrings of one string need only O(p^2) automaton steps
        in total (each suffix extended once)."""
        index = FMIndex(TEXT)
        counter = IndexCounter(index)
        base = "the cat sat"
        patterns = [
            base[i:j]
            for i in range(len(base))
            for j in range(i + 1, len(base) + 1)
        ]
        results = counter.count_many(patterns)
        assert results == [index.count(p) for p in patterns]
        # distinct suffixes of distinct... states keyed by suffix of some
        # pattern: bounded by #distinct substrings.
        assert len(counter.planner._states) <= len(set(patterns))

    def test_clear(self, wrapped):
        _, counter = wrapped
        counter.count("the")
        counter.clear()
        assert not counter.planner._results and not counter.planner._states

    def test_empty_pattern_rejected(self, wrapped):
        _, counter = wrapped
        with pytest.raises(PatternError):
            counter.count("")

    def test_unknown_character(self, wrapped):
        index, counter = wrapped
        assert counter.count("ZZZ") == index.count("ZZZ") == 0


class TestBoundedCache:
    def test_epoch_eviction_preserves_correctness(self):
        from repro.textutil import zipf_workload

        index = FMIndex(TEXT)
        bounded = IndexCounter(index, max_states=32)
        workload = zipf_workload(TEXT, num_queries=120, distinct=30, seed=4)
        assert bounded.count_many(workload) == [index.count(p) for p in workload]
        assert len(bounded.planner._states) <= 32 + max(len(p) for p in workload)

    def test_invalid_bound(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            IndexCounter(FMIndex(TEXT), max_states=0)


class TestZipfWorkload:
    def test_shapes(self):
        from repro.textutil import zipf_workload

        workload = zipf_workload(TEXT, num_queries=200, distinct=20, seed=1)
        assert len(workload) == 200
        assert len(set(workload)) <= 20
        assert all(p in TEXT.raw for p in workload)
        # Zipf skew: the most popular pattern dominates.
        from collections import Counter
        top = Counter(workload).most_common(1)[0][1]
        assert top > 200 / 20

    def test_validation(self):
        from repro.errors import InvalidParameterError
        from repro.textutil import zipf_workload

        with pytest.raises(InvalidParameterError):
            zipf_workload(TEXT, distinct=0)
        with pytest.raises(InvalidParameterError):
            zipf_workload(TEXT, length_range=(5, 2))

    def test_deterministic(self):
        from repro.textutil import zipf_workload

        assert zipf_workload(TEXT, seed=9) == zipf_workload(TEXT, seed=9)


class TestCountOrNoneSharing:
    def test_matches_cpst_semantics(self):
        index = CompactPrunedSuffixTree(TEXT, 8)
        counter = IndexCounter(index)
        for pattern in mixed_workload(TEXT, lengths=(1, 3, 6), per_length=10):
            assert counter.count_or_none(pattern) == index.count_or_none(pattern)

    def test_requires_lower_sided(self):
        # An exact index certifies every count through the planner.
        index = FMIndex(TEXT)
        counter = IndexCounter(index)
        assert counter.count_or_none("the") == index.count("the")

    def test_fallback_without_automaton(self):
        index = QGramIndex(TEXT, q=4)
        counter = IndexCounter(index)
        assert counter.planner is None
        assert counter.count_or_none("the") == index.count_or_none("the")
        assert counter.count_or_none("the cat") is None
