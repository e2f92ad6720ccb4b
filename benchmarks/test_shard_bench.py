"""Sharded corpus plane benchmarks.

Measures the partitioned build against the monolith it replaces and
persists the telemetry as ``results/shard_report.json`` for CI to
upload: per-shard build wall-clock, artifact-cache reuse on a re-shard
(only the changed shard should pay a suffix sort), and fan-out query
latency vs the monolithic index.

The assertions are on counts and cache hits — things that cannot flake;
the wall-clock numbers are reporting only.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.build import ArtifactCache
from repro.core.approx import ApproxIndex
from repro.shard import MergePolicy, ShardPlan, build_sharded
from repro.textutil import ROW_SEPARATOR, Text

from .conftest import sample_patterns

THRESHOLD = 16
SHARDS = 4
DOCUMENTS = 12


@pytest.fixture(scope="module")
def corpus(contexts):
    """The english corpus cut into document-aligned pieces."""
    raw = contexts["english"].text.raw
    n = len(raw)
    docs = [
        (f"doc{i:02d}", raw[i * n // DOCUMENTS : (i + 1) * n // DOCUMENTS])
        for i in range(DOCUMENTS)
    ]
    return contexts["english"], docs


def test_sharded_build_vs_monolith(benchmark, corpus):
    """One parallel sharded build; count must match the monolith's model."""
    ctx, docs = corpus
    plan = ShardPlan.for_documents(docs, SHARDS)

    def build():
        return build_sharded(plan, "apx", THRESHOLD, max_workers=SHARDS)

    sharded, report = benchmark.pedantic(build, rounds=2, iterations=1)
    assert len(report.reports) == SHARDS
    assert report.shard_threshold >= 2


def test_shard_report_artifact(corpus, tmp_path_factory, save_report):
    """Builds cold, re-shards warm (one document moved), and fans out a
    workload — persisting the whole comparison as
    ``results/shard_report.json``. The warm re-shard must reuse the
    cached artifacts of every unchanged shard."""
    ctx, docs = corpus
    mono = Text.from_rows([body for _, body in docs])
    cache = ArtifactCache(tmp_path_factory.mktemp("shard-cache"))

    plan = ShardPlan.for_documents(docs, SHARDS)
    t0 = time.perf_counter()
    sharded, cold = build_sharded(
        plan, "apx", THRESHOLD, cache=cache, max_workers=SHARDS
    )
    cold_wall = time.perf_counter() - t0

    # Re-shard: nudge one document into a different shard; all other
    # shard texts are byte-identical, so their artifacts come from cache.
    assignment = {name: plan.manifest[name] for name, _ in docs}
    moved = docs[0][0]
    donor = plan.manifest[moved]
    target = next(n for n in plan.names if n != donor)
    assignment[moved] = target
    replan = ShardPlan.explicit(docs, assignment)
    t0 = time.perf_counter()
    resharded, warm = build_sharded(
        replan, "apx", THRESHOLD, cache=cache, max_workers=SHARDS
    )
    warm_wall = time.perf_counter() - t0
    changed = {donor, target}
    unchanged = [n for n in replan.names if n not in changed]
    assert unchanged, "re-shard should leave at least one shard untouched"
    for name in unchanged:
        assert warm.reports[name].reuse_hits > 0, name
    assert warm.reuse_hits > cold.reuse_hits or cold.reuse_hits == 0

    # Fan-out query latency vs the monolithic index on the same corpus.
    monolith = ApproxIndex(ctx, THRESHOLD)
    workload = [
        p for length in (4, 6, 8)
        for p in sample_patterns(ctx, length, 40)
        if ROW_SEPARATOR not in p
    ]
    t0 = time.perf_counter()
    fanout = [sharded.count(p) for p in workload]
    fan_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    [monolith.count(p) for p in workload]
    mono_wall = time.perf_counter() - t0
    # Soundness across the fan-out: every merged answer stays within the
    # merged threshold of the true count.
    slack = warm.merged_threshold - 1
    for pattern, got in zip(workload, fanout):
        truth = mono.count_naive(pattern)
        assert truth <= got <= truth + slack, pattern

    payload = {
        "shards": SHARDS,
        "documents": DOCUMENTS,
        "threshold": THRESHOLD,
        "policy": MergePolicy.SPLIT_BUDGET.value,
        "cold_build": {"wall_seconds": round(cold_wall, 6), **cold.as_dict()},
        "warm_reshard": {
            "wall_seconds": round(warm_wall, 6),
            "moved_document": moved,
            "rebuilt_shards": sorted(changed),
            **warm.as_dict(),
        },
        "query": {
            "patterns": len(workload),
            "fanout_wall_seconds": round(fan_wall, 6),
            "monolith_wall_seconds": round(mono_wall, 6),
        },
    }
    path = save_report("shard_report", json.dumps(payload, indent=2))
    # save_report appends .txt; mirror to the canonical .json name too.
    json_path = path.with_suffix(".json")
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert json_path.exists()
