"""Benchmarks for the extension indexes (combined / multiplicative / rows /
RRR-compressed FM): build + query cost and their contracts at bench scale."""

from __future__ import annotations

import pytest

from repro import CombinedIndex, MultiplicativeIndex
from repro.baselines.fm import FMIndex
from repro.core.rows import RowSelectivityIndex

from .conftest import sample_patterns


@pytest.fixture(scope="module")
def english(contexts):
    return contexts["english"]


def test_combined_query_batch(benchmark, english):
    index = CombinedIndex(english.text, 32)
    patterns = sample_patterns(english, 4, 30) + sample_patterns(english, 10, 30)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    total = benchmark(run)
    assert total >= 0
    for pattern in patterns[:20]:
        true = english.text.count_naive(pattern)
        assert true <= index.count(pattern) <= true + 32 - 1


def test_multiplicative_query_batch(benchmark, english):
    index = MultiplicativeIndex(english.text, epsilon=0.5, cutoff=32)
    patterns = sample_patterns(english, 3, 40)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    benchmark(run)
    for pattern in patterns[:20]:
        true = english.text.count_naive(pattern)
        if true >= 32:
            assert true <= index.count(pattern) <= 1.5 * true


def test_row_selectivity_build_and_query(benchmark):
    rows = [
        f"user {i % 37} viewed item {i % 101} from campaign {i % 7}"
        for i in range(1500)
    ]

    index = benchmark.pedantic(
        RowSelectivityIndex, args=(rows, 16), rounds=1, iterations=1
    )
    matched = index.count_rows_or_none("campaign 3")
    assert matched == sum(1 for row in rows if "campaign 3" in row)


def test_fm_rrr_space_tradeoff(benchmark, english):
    """RRR-compressed FM: smaller than the plain wavelet matrix variant."""
    build = lambda: FMIndex(english, "matrix-rrr")
    packed = benchmark.pedantic(build, rounds=1, iterations=1)
    plain = FMIndex(english, "matrix")
    assert packed.space_report().payload_bits < plain.space_report().payload_bits
    for pattern in sample_patterns(english, 5, 10):
        assert packed.count(pattern) == plain.count(pattern)
