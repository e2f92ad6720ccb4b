"""X2b: construction-time benchmarks.

Times the shared substrate (suffix array, LCP, BWT) and each index build
on the `english` corpus. Index builds reuse precomputed intermediates so
the numbers isolate per-structure construction cost, matching how the
experiment harness amortises work.
"""

from __future__ import annotations

import pytest

from repro.baselines.fm import FMIndex
from repro.baselines.patricia import PrunedPatriciaTrie
from repro.baselines.pst import PrunedSuffixTree
from repro.core.approx import ApproxIndex
from repro.core.cpst import CompactPrunedSuffixTree
from repro.sa import lcp_array, suffix_array, suffix_array_sais
from repro.suffixtree.pruned import PrunedSuffixTreeStructure

THRESHOLD = 32


@pytest.fixture(scope="module")
def english(contexts):
    ctx = contexts["english"]
    ctx.bwt  # warm every cached intermediate
    ctx.structure(THRESHOLD)
    return ctx


def test_build_suffix_array_doubling(benchmark, english):
    sa = benchmark(suffix_array, english.text.data)
    assert sa.size == len(english.text) + 1


def test_build_suffix_array_sais(benchmark, english):
    import numpy as np

    # Pure-python SA-IS: bench a smaller slice, re-terminated with the
    # sentinel the algorithm requires.
    data = np.concatenate([english.text.data[:5000], [0]])
    sa = benchmark.pedantic(suffix_array_sais, args=(data,), rounds=2, iterations=1)
    assert sa.size == data.size


def test_build_lcp(benchmark, english):
    lcp = benchmark(lcp_array, english.text.data, english.sa)
    assert lcp.size == english.sa.size


def test_build_structure(benchmark, english):
    structure = benchmark.pedantic(
        PrunedSuffixTreeStructure,
        args=(english.text, THRESHOLD),
        kwargs={"sa": english.sa, "lcp": english.lcp},
        rounds=2,
        iterations=1,
    )
    assert structure.num_nodes >= 1


def test_build_fm(benchmark, english):
    index = benchmark.pedantic(FMIndex, args=(english,), rounds=2, iterations=1)
    assert index.text_length == len(english.text)


def test_build_apx(benchmark, english):
    index = benchmark.pedantic(
        ApproxIndex, args=(english, THRESHOLD), rounds=2, iterations=1
    )
    assert index.threshold == THRESHOLD


def test_build_cpst(benchmark, english):
    index = benchmark.pedantic(
        CompactPrunedSuffixTree, args=(english, THRESHOLD), rounds=2, iterations=1
    )
    assert index.threshold == THRESHOLD


def test_build_pst(benchmark, english):
    index = benchmark.pedantic(
        PrunedSuffixTree, args=(english, THRESHOLD), rounds=2, iterations=1
    )
    assert index.threshold == THRESHOLD


def test_build_patricia(benchmark, english):
    index = benchmark.pedantic(
        PrunedPatriciaTrie, args=(english, THRESHOLD), rounds=2, iterations=1
    )
    assert index.threshold == THRESHOLD


def test_build_suffix_array_dc3(benchmark, english):
    import numpy as np

    from repro.sa import suffix_array_dc3

    data = np.concatenate([english.text.data[:5000], [0]])
    sa = benchmark.pedantic(suffix_array_dc3, args=(data,), rounds=2, iterations=1)
    assert sa.size == data.size


def test_verify_suffix_array_linear(benchmark, english):
    from repro.sa import verify_suffix_array

    ok = benchmark(verify_suffix_array, english.text.data, english.sa)
    assert ok


def test_build_pipeline_artifact(english, save_report):
    """Per-index builds vs one shared BuildContext (sequential and
    ``max_workers=4``) over the default tier set + FM. Persists the
    comparison — including the pipeline's own per-stage telemetry — as
    ``results/build_report.json`` for CI to upload.

    Timing uses ``perf_counter`` directly (one round each, like the
    figure benches): the assertions are on suffix-sort *counts*, which
    cannot flake, while the wall-clock numbers are reporting only.
    """
    import json
    import time

    import repro.sa as sa_mod
    from repro.baselines import FMIndex, QGramIndex
    from repro.build import BuildContext, IndexSpec, build_all, default_tier_specs
    from repro.core import ApproxIndex, CompactPrunedSuffixTree
    from repro.service.tiers import TextStatsEstimator

    text = english.text
    specs = default_tier_specs(THRESHOLD) + [IndexSpec("fm")]

    sorts = []
    real = sa_mod.suffix_array

    def counting(*args, **kwargs):
        sorts.append(1)
        return real(*args, **kwargs)

    sa_mod.suffix_array = counting
    try:
        t0 = time.perf_counter()
        independent = [
            CompactPrunedSuffixTree(text, THRESHOLD),
            ApproxIndex(text, max(2, THRESHOLD - THRESHOLD % 2)),
            QGramIndex(text, q=max(2, min(THRESHOLD, 8))),
            TextStatsEstimator(text),
            FMIndex(text),
        ]
        independent_seconds = time.perf_counter() - t0
        independent_sorts = len(sorts)

        sorts.clear()
        t0 = time.perf_counter()
        sequential = build_all(BuildContext(text, name="english"), specs)
        sequential_seconds = time.perf_counter() - t0
        sequential_sorts = len(sorts)

        sorts.clear()
        t0 = time.perf_counter()
        parallel = build_all(
            BuildContext(text, name="english"), specs, max_workers=4
        )
        parallel_seconds = time.perf_counter() - t0
        parallel_sorts = len(sorts)
    finally:
        sa_mod.suffix_array = real

    # The whole point of the pipeline: one sort, however it is driven.
    assert sequential_sorts == 1
    assert parallel_sorts == 1
    assert independent_sorts > sequential_sorts
    assert len(independent) == len(specs)
    probe = text.raw[100:108]
    assert sequential["fm"].count(probe) == parallel["fm"].count(probe)

    payload = {
        "corpus": "english",
        "size": len(text),
        "threshold": THRESHOLD,
        "suffix_sorts": {
            "independent": independent_sorts,
            "shared_sequential": sequential_sorts,
            "shared_parallel": parallel_sorts,
        },
        "wall_seconds": {
            "independent": round(independent_seconds, 4),
            "shared_sequential": round(sequential_seconds, 4),
            "shared_parallel": round(parallel_seconds, 4),
        },
        "sequential_report": sequential.report.as_dict(),
        "parallel_report": parallel.report.as_dict(),
    }
    path = save_report("build_report", json.dumps(payload, indent=2))
    json_path = path.with_suffix(".json")
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert json_path.exists()
