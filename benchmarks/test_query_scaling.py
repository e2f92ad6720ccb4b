"""X2c: query-cost scaling sweeps.

Backward-search-based indexes (FM, APX, CPST) cost O(|P|) rank/select
probes per query, *independent of l*; the PST walk costs O(|P|) symbol
comparisons. These benches sweep pattern length and threshold to expose
both facts as timing series.
"""

from __future__ import annotations

import pytest

from repro.core.approx import ApproxIndex
from repro.core.cpst import CompactPrunedSuffixTree

from .conftest import sample_patterns


@pytest.fixture(scope="module")
def english(contexts):
    return contexts["english"]


@pytest.mark.parametrize("length", [2, 8, 32])
def test_apx_time_vs_pattern_length(benchmark, english, length):
    index = ApproxIndex(english, 32)
    patterns = sample_patterns(english, length, 20)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    benchmark.extra_info["pattern_length"] = length
    benchmark(run)


@pytest.mark.parametrize("length", [2, 8, 32])
def test_cpst_time_vs_pattern_length(benchmark, english, length):
    index = CompactPrunedSuffixTree(english, 32)
    patterns = sample_patterns(english, length, 20)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    benchmark.extra_info["pattern_length"] = length
    benchmark(run)


@pytest.mark.parametrize("l", [8, 64, 512])
def test_apx_time_vs_threshold(benchmark, english, l):
    index = ApproxIndex(english, l)
    patterns = sample_patterns(english, 8, 20)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    benchmark.extra_info["threshold"] = l
    benchmark(run)


@pytest.mark.parametrize("l", [8, 64, 512])
def test_cpst_time_vs_threshold(benchmark, english, l):
    index = CompactPrunedSuffixTree(english, l)
    patterns = sample_patterns(english, 8, 20)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    benchmark.extra_info["threshold"] = l
    benchmark(run)
