"""Engine experiment: trie-planned batching vs per-pattern counting.

The Figure 9 workload (random patterns extracted from the text at lengths
6/8/10/12) repeats suffixes constantly, so the engine's
:class:`~repro.engine.planner.TrieBatchPlanner` should answer the batch
with measurably fewer automaton extensions than counting each pattern in
isolation. This experiment quantifies that on every corpus for each
engine-capable index (FM, APX, CPST), using
:class:`~repro.engine.stats.EngineStats` as the work meter:

* **naive** — a fresh planner per pattern (no state reuse across
  patterns): exactly the work ``index.count`` performs per query;
* **planned** — one :class:`~repro.engine.IndexCounter` over the whole
  workload: the shared-suffix trie walk (one ``step_many`` wave per
  (symbol, depth) frontier group) plus the LRU state cache.

Both paths must produce identical counts — the planner is an execution
strategy, not an approximation — which the ``results_identical`` headline
check enforces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..baselines.fm import FMIndex
from ..build import BuildContext, spec_for
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import dataset_names, generate
from ..engine import EngineStats, IndexCounter, TrieBatchPlanner
from ..textutil import sample_from_text
from .tables import format_table


@dataclass(frozen=True)
class EngineRow:
    """One (corpus, index) workload: naive vs trie-planned engine work."""

    dataset: str
    index: str
    patterns: int
    naive_steps: int
    planned_steps: int
    naive_rank_ops: int
    planned_rank_ops: int
    state_cache_hits: int
    results_identical: bool
    #: Wall-clock seconds (0.0 on rows from older callers that skip timing).
    naive_seconds: float = 0.0
    planned_seconds: float = 0.0
    #: Wave telemetry from the planned run.
    bulk_waves: int = 0
    bulk_states: int = 0

    @property
    def step_saving(self) -> float:
        """Fraction of automaton extensions the planner avoided."""
        if self.naive_steps == 0:
            return 0.0
        return 1.0 - self.planned_steps / self.naive_steps

    @property
    def batch_speedup(self) -> float:
        """Naive per-pattern over planned batch wall clock (1.0 when
        untimed)."""
        if self.naive_seconds <= 0 or self.planned_seconds <= 0:
            return 1.0
        return self.naive_seconds / self.planned_seconds


def _extensions(stats: EngineStats) -> int:
    """Total automaton extensions (starts + steps) recorded in ``stats``."""
    return stats.automaton_starts + stats.automaton_steps


def measure(
    index, patterns: Sequence[str], dataset: str, label: str
) -> EngineRow:
    """Run one workload both ways and report the engine work of each."""
    counter = IndexCounter(index)
    assert counter.planner is not None, f"{label} has no automaton view"
    automaton = counter.planner.automaton
    naive_stats = EngineStats()
    naive_results = []
    started = time.perf_counter()
    for pattern in patterns:
        # A fresh planner per pattern = no cross-pattern reuse: the same
        # extension sequence a plain index.count(pattern) executes.
        naive_results.append(
            TrieBatchPlanner(automaton, stats=naive_stats).count(pattern)
        )
    naive_seconds = time.perf_counter() - started
    started = time.perf_counter()
    planned_results = counter.count_many(list(patterns))
    planned_seconds = time.perf_counter() - started
    planned = counter.stats
    return EngineRow(
        dataset=dataset,
        index=label,
        patterns=len(patterns),
        naive_steps=_extensions(naive_stats),
        planned_steps=_extensions(planned),
        naive_rank_ops=naive_stats.rank_calls,
        planned_rank_ops=planned.rank_calls,
        state_cache_hits=planned.state_cache_hits,
        results_identical=naive_results == planned_results,
        naive_seconds=naive_seconds,
        planned_seconds=planned_seconds,
        bulk_waves=planned.bulk_calls,
        bulk_states=planned.bulk_states,
    )


def run(
    size: int = 30_000,
    pattern_lengths: Sequence[int] = (6, 8, 10, 12),
    patterns_per_length: int = 100,
    seed: int = 0,
    datasets: Sequence[str] | None = None,
    thresholds: Dict[str, int] | None = None,
) -> List[EngineRow]:
    """Measure naive vs planned engine work on the Figure 9 workload."""
    picks = {"dblp": 16, "dna": 32, "english": 32, "sources": 8,
             **(thresholds or {})}
    rows: List[EngineRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        workload = [
            pattern
            for length in pattern_lengths
            for pattern in sample_from_text(
                ctx.text, length, patterns_per_length, seed=(seed, 1, length)
            )
        ]
        l = picks.get(name, 16)
        apx = spec_for("apx", l).build(ctx)
        for label, index in (
            ("FM", FMIndex(ctx)),
            (f"APX-{apx.threshold}", apx),
            (f"CPST-{l}", CompactPrunedSuffixTree(ctx, l)),
        ):
            rows.append(measure(index, workload, name, label))
    return rows


def format_results(rows: Sequence[EngineRow]) -> str:
    """Render the naive-vs-planned work table."""
    headers = [
        "dataset", "index", "patterns",
        "naive steps", "planned steps", "saved",
        "naive rank ops", "planned rank ops", "cache hits", "identical",
    ]
    table_rows = [
        [
            row.dataset, row.index, row.patterns,
            row.naive_steps, row.planned_steps,
            f"{row.step_saving * 100:.1f}%",
            row.naive_rank_ops, row.planned_rank_ops,
            row.state_cache_hits,
            "yes" if row.results_identical else "NO",
        ]
        for row in rows
    ]
    return format_table(
        headers,
        table_rows,
        title="Engine — trie-planned batching vs per-pattern counting "
        "(Figure 9 workload)",
    )


def headline_checks(rows: Sequence[EngineRow]) -> Dict[str, bool]:
    """The claims the engine layer must deliver on this workload."""
    return {
        "planner_fewer_steps": all(
            row.planned_steps < row.naive_steps for row in rows
        ),
        "results_identical": all(row.results_identical for row in rows),
        "rank_ops_follow_steps": all(
            (row.planned_rank_ops <= row.naive_rank_ops) for row in rows
        ),
    }
