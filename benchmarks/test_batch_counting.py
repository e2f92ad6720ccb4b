"""Suffix-sharing batch counting: measured speedup on overlapping workloads.

The MOL-style workload (all substrings of a handful of patterns) shares
suffixes heavily; the engine's trie planner (behind the IndexCounter
every caller counts through) should clearly beat naive per-pattern
counting there. The ``results/engine_stats.json`` artifact (step/rank-op
and naive-vs-planned throughput comparison) is produced by
``test_engine_bench.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.fm import FMIndex
from repro.core.approx import ApproxIndex
from repro.core.cpst import CompactPrunedSuffixTree
from repro.engine import IndexCounter, planner_for

from .conftest import sample_patterns


@pytest.fixture(scope="module")
def workload(contexts):
    ctx = contexts["english"]
    bases = sample_patterns(ctx, 14, 8)
    patterns = [
        base[i:j]
        for base in bases
        for i in range(len(base))
        for j in range(i + 1, len(base) + 1)
    ]
    return ctx, patterns


def test_batched_fm(benchmark, workload):
    ctx, patterns = workload
    index = FMIndex(ctx)

    def run():
        return IndexCounter(index, max_states=None).count_many(patterns)

    results = benchmark(run)
    assert len(results) == len(patterns)
    # Equivalence + speed against naive per-pattern counting.
    t0 = time.perf_counter()
    naive = [index.count(p) for p in patterns]
    naive_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    shared = IndexCounter(index, max_states=None).count_many(patterns)
    shared_time = time.perf_counter() - t0
    assert shared == naive
    # Heavily overlapping workload: sharing must win by a clear margin.
    assert shared_time < naive_time, (shared_time, naive_time)


def test_batched_apx(benchmark, workload):
    ctx, patterns = workload
    index = ApproxIndex(ctx, 32)

    def run():
        return IndexCounter(index, max_states=None).count_many(patterns)

    results = benchmark(run)
    assert all(r >= 0 for r in results)


def test_planner_fm(benchmark, workload):
    """The engine planner driven directly (no counter) on the same batch."""
    ctx, patterns = workload
    index = FMIndex(ctx)

    def run():
        return planner_for(index).count_many(patterns)

    results = benchmark(run)
    assert results == [index.count(p) for p in patterns]


def test_engine_stats_comparison(contexts):
    """Figure 9 workload, naive vs trie-planned: the planner must need
    measurably fewer automaton extensions. (The persisted
    ``engine_stats.json`` artifact now lives in test_engine_bench.py,
    which adds the naive-vs-planned throughput columns.)"""
    from repro.experiments.engine import measure

    # One corpus keeps the smoke job fast; `repro experiment engine`
    # covers the full corpus/index grid.
    ctx = contexts["english"]
    workload = [
        p for length in (6, 8, 10, 12)
        for p in sample_patterns(ctx, length, 50)
    ]
    for label, index in (
        ("FM", FMIndex(ctx)),
        ("CPST-16", CompactPrunedSuffixTree(ctx, 16)),
    ):
        row = measure(index, workload, "english", label)
        assert row.results_identical
        assert row.planned_steps < row.naive_steps, label
