"""Engine throughput: wave-planned batches vs per-pattern counting.

The Figure 9 workload (random patterns at lengths 6/8/10/12) drives each
engine-capable index two ways — naive per-pattern counting and the trie
planner's wave walk — and persists throughput plus the bulk-width
histogram as ``results/engine_stats.json`` (the artifact CI's
bench-smoke job uploads). The headline floor: on a >= 4-CPU host the
planned batch path must clear **5x** the naive per-pattern throughput
somewhere in the corpus/index grid — batch speedup compounds suffix
sharing with wave width, so it grows with batch size, and the
800-pattern Figure 9 batch on the low-sigma corpus is the shape the
batch-serving claim rests on.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.baselines.fm import FMIndex
from repro.core.cpst import CompactPrunedSuffixTree
from repro.engine import planner_for

from .conftest import sample_patterns

#: The CI floor only binds on hosts with real parallel headroom (and
#: therefore believable timers); laptops and tiny runners still produce
#: the artifact, just without the hard assertion.
MIN_CPUS_FOR_FLOOR = 4
BATCH_THROUGHPUT_FLOOR = 5.0


def _figure9_workload(ctx, per_length=200):
    return [
        p
        for length in (6, 8, 10, 12)
        for p in sample_patterns(ctx, length, per_length)
    ]


def _throughput_row(ctx_name, label, index, patterns):
    """Time naive per-pattern counting and the planned batch over one
    workload."""
    started = time.perf_counter()
    naive = [index.count(p) for p in patterns]
    naive_seconds = time.perf_counter() - started

    planner = planner_for(index)
    started = time.perf_counter()
    planned_results = planner.count_many(patterns)
    planned_seconds = time.perf_counter() - started

    assert planned_results == naive
    k = len(patterns)
    return {
        "dataset": ctx_name,
        "index": label,
        "patterns": k,
        "naive_seconds": round(naive_seconds, 6),
        "planned_seconds": round(planned_seconds, 6),
        "naive_qps": round(k / naive_seconds, 1),
        "planned_qps": round(k / planned_seconds, 1),
        "batch_speedup": round(naive_seconds / planned_seconds, 2),
        "bulk_waves": planner.stats.bulk_calls,
        "bulk_states": planner.stats.bulk_states,
        "bulk_width_histogram": {
            str(width): count
            for width, count in sorted(planner.bulk_widths.items())
        },
    }


def test_vectorized_throughput_artifact(contexts, save_report):
    """Naive-vs-planned throughput + bulk-width histograms, persisted
    as ``results/engine_stats.json`` together with the step/rank-op
    comparison rows of the engine experiment."""
    from repro.experiments.engine import measure

    throughput = []
    experiment_rows = []
    for name in ("english", "dna"):
        ctx = contexts[name]
        patterns = _figure9_workload(ctx)
        for label, index in (
            ("FM", FMIndex(ctx)),
            ("CPST-16", CompactPrunedSuffixTree(ctx, 16)),
        ):
            throughput.append(_throughput_row(name, label, index, patterns))
            row = measure(index, patterns, name, label)
            assert row.results_identical
            assert row.planned_steps < row.naive_steps, (name, label)
            experiment_rows.append(
                {
                    "dataset": row.dataset,
                    "index": row.index,
                    "patterns": row.patterns,
                    "naive_steps": row.naive_steps,
                    "planned_steps": row.planned_steps,
                    "step_saving": round(row.step_saving, 4),
                    "naive_rank_ops": row.naive_rank_ops,
                    "planned_rank_ops": row.planned_rank_ops,
                    "state_cache_hits": row.state_cache_hits,
                    "bulk_waves": row.bulk_waves,
                    "bulk_states": row.bulk_states,
                    "batch_speedup": round(row.batch_speedup, 2),
                }
            )
    payload = {"rows": experiment_rows, "throughput": throughput}
    rendered = json.dumps(payload, indent=2)
    path = save_report("engine_stats", rendered)
    json_path = path.with_suffix(".json")
    json_path.write_text(rendered + "\n", encoding="utf-8")
    assert json_path.exists()

    # Bulk waves must genuinely fire somewhere in the grid (narrow waves
    # step one state at a time, which may zero them on high-sigma
    # corpora, but the dna workload's fat waves always clear the width
    # floor).
    assert any(r["bulk_waves"] > 0 for r in throughput)
    assert sum(r["bulk_waves"] for r in experiment_rows) > 0

    # The CI floor: planned batch throughput >= 5x naive per-pattern
    # throughput on the grid's best row (the low-sigma corpus packs the
    # fattest waves, and CPST's ISL bisects amortise best), asserted only
    # where the host has the cores CI's bench-smoke runs on.
    cpus = os.cpu_count() or 1
    best = max(r["batch_speedup"] for r in throughput)
    if cpus >= MIN_CPUS_FOR_FLOOR:
        assert best >= BATCH_THROUGHPUT_FLOOR, (
            f"planned batch throughput floor missed: best {best:.2f}x "
            f"< {BATCH_THROUGHPUT_FLOOR}x on a {cpus}-CPU host"
        )
    # Histogram sanity everywhere: widths times counts == bulk states.
    for r in throughput:
        total = sum(
            int(w) * c for w, c in r["bulk_width_histogram"].items()
        )
        assert total == r["bulk_states"], r["index"]


@pytest.mark.parametrize("kind", ["fm", "cpst"])
def test_wave_planner_benchmark(benchmark, contexts, kind):
    """pytest-benchmark row for the wave planner on the Figure 9
    workload (compare against test_planner_fm in test_batch_counting)."""
    ctx = contexts["english"]
    index = FMIndex(ctx) if kind == "fm" else CompactPrunedSuffixTree(ctx, 16)
    patterns = _figure9_workload(ctx, per_length=25)
    expected = [index.count(p) for p in patterns]

    def run():
        return planner_for(index).count_many(patterns)

    assert benchmark(run) == expected
