"""X2a: query-time benchmarks for every index.

Times ``count()`` batches (mixed pattern lengths sampled from the text)
for the FM-index, APX, CPST, PST and Patricia at a representative
threshold, on the `english` corpus. The interesting comparison: APX and
CPST run O(|P|) rank/select operations like the FM-index, while PST walks
explicit labels and Patricia does blind descent.
"""

from __future__ import annotations

import pytest

from repro.baselines.fm import FMIndex
from repro.baselines.patricia import PrunedPatriciaTrie
from repro.baselines.pst import PrunedSuffixTree
from repro.core.approx import ApproxIndex
from repro.core.cpst import CompactPrunedSuffixTree

from .conftest import sample_patterns


@pytest.fixture(scope="module")
def workload(contexts):
    ctx = contexts["english"]
    patterns = []
    for length in (2, 4, 8, 16):
        patterns.extend(sample_patterns(ctx, length, 25))
    return ctx, patterns


THRESHOLD = 32


@pytest.fixture(scope="module")
def built_indexes(workload):
    ctx, _ = workload
    return {
        "fm": FMIndex(ctx),
        "apx": ApproxIndex(ctx, THRESHOLD),
        "cpst": CompactPrunedSuffixTree(ctx, THRESHOLD),
        "pst": PrunedSuffixTree(ctx, THRESHOLD),
        "patricia": PrunedPatriciaTrie(ctx, THRESHOLD),
    }


@pytest.mark.parametrize("name", ["fm", "apx", "cpst", "pst", "patricia"])
def test_count_batch(benchmark, workload, built_indexes, name):
    _, patterns = workload
    index = built_indexes[name]

    def run() -> int:
        total = 0
        for pattern in patterns:
            total += index.count(pattern)
        return total

    total = benchmark(run)
    assert total >= 0


def test_mol_estimate_batch(benchmark, workload, built_indexes):
    """Selectivity estimation cost on top of the CPST (Figure 9 workload)."""
    from repro.selectivity import MOLEstimator

    ctx, _ = workload
    estimator = MOLEstimator(built_indexes["cpst"])
    patterns = sample_patterns(ctx, 8, 20)

    def run() -> float:
        return sum(estimator.estimate(p) for p in patterns)

    value = benchmark(run)
    assert value >= 0.0
