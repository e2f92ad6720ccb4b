"""Process-parallel serving benchmarks.

Compares the multiprocess shard executor (shared-memory segments, one
batched protocol round per shard) against the in-process
:class:`~repro.shard.estimator.ShardedEstimator` serving the *same* shard
indexes, and persists the comparison as ``results/parallel_report.json``
for CI to upload.

Correctness assertions (identical merged intervals, zero-copy attach
telemetry) always run. The throughput floor — the process executor must
at least double the thread executor's batch throughput at 4 workers — is
asserted only when the host actually has >= 4 CPUs; pure-Python shard
searches cannot run in parallel on fewer cores, and wall-clock numbers on
a starved host are reporting-only.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.shard import ShardPlan, build_process_sharded, build_sharded
from repro.textutil import ROW_SEPARATOR, mixed_workload

THRESHOLD = 16
WORKERS = 4
DOCUMENTS = 12
CPUS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def corpus(contexts):
    raw = contexts["english"].text.raw
    n = len(raw)
    docs = [
        (f"doc{i:02d}", raw[i * n // DOCUMENTS : (i + 1) * n // DOCUMENTS])
        for i in range(DOCUMENTS)
    ]
    plan = ShardPlan.for_documents(docs, WORKERS)
    patterns = [
        p
        for p in mixed_workload(raw, per_length=40, seed=2)
        if ROW_SEPARATOR not in p
    ]
    return plan, patterns


def test_parallel_report_artifact(corpus, save_report):
    """Thread vs process executor over identical shard indexes."""
    plan, patterns = corpus

    thread_estimator, build_report = build_sharded(
        plan, "cpst", THRESHOLD, max_workers=WORKERS
    )
    t0 = time.perf_counter()
    thread_answers = [thread_estimator.merged_count(p) for p in patterns]
    thread_wall = time.perf_counter() - t0

    process_estimator, process_build = build_process_sharded(
        plan, "cpst", THRESHOLD, max_workers=WORKERS
    )
    with process_estimator:
        process_estimator.merged_count_many(patterns[:5])  # warm workers
        t0 = time.perf_counter()
        process_answers = process_estimator.merged_count_many(patterns)
        process_wall = time.perf_counter() - t0
        telemetry = process_estimator.attach_telemetry()
        space = process_estimator.space_report()

    # Identical intervals: the acceptance criterion of the process plane.
    mismatches = [
        pattern
        for pattern, a, b in zip(patterns, thread_answers, process_answers)
        if (a.lo, a.hi, a.error_model) != (b.lo, b.hi, b.error_model)
    ]
    assert not mismatches, mismatches[:5]

    # Zero-copy attach: per-worker allocation is bookkeeping, not payload.
    for name, slot in telemetry.items():
        assert slot["attach_alloc_bytes"] < max(
            64_000, slot["segment_bytes"]
        ), name

    speedup = thread_wall / process_wall if process_wall else float("inf")
    report = {
        "corpus": "english",
        "patterns": len(patterns),
        "workers": WORKERS,
        "cpus": CPUS,
        "thread": {
            "wall_seconds": thread_wall,
            "qps": len(patterns) / thread_wall,
        },
        "process": {
            "wall_seconds": process_wall,
            "qps": len(patterns) / process_wall,
            "build_wall_seconds": process_build.wall_seconds,
            "segment_bytes": {
                name: slot["segment_bytes"] for name, slot in telemetry.items()
            },
            "attach_alloc_bytes": {
                name: slot["attach_alloc_bytes"]
                for name, slot in telemetry.items()
            },
            "shared_bits": space.shared_bits,
            "resident_per_worker_bits": space.resident_per_worker_bits,
        },
        "speedup": speedup,
        "intervals_identical": True,
        "speedup_asserted": CPUS >= WORKERS,
    }
    path = save_report("parallel_report", json.dumps(report, indent=2))
    path.with_suffix(".json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    if CPUS >= WORKERS:
        assert speedup >= 2.0, (
            f"process executor only {speedup:.2f}x the thread executor "
            f"({CPUS} CPUs, {WORKERS} workers)"
        )


def test_spawn_and_respawn_cost(corpus, benchmark):
    """Worker respawn reuses the shared segment: no re-export, no copy."""
    plan, _ = corpus
    process_estimator, _ = build_process_sharded(
        plan, "cpst", THRESHOLD, max_workers=WORKERS
    )
    with process_estimator:
        victim = process_estimator.shard_names[0]

        def respawn():
            process_estimator.respawn_shard(victim)
            return process_estimator.merged_count("the")

        merged = benchmark.pedantic(respawn, rounds=3, iterations=1)
        assert merged.count >= 0
        assert not process_estimator.degraded_shards
