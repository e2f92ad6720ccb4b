"""Sharding experiment: partitioned indexes vs the monolith.

The sharded corpus plane (:mod:`repro.shard`) claims that a
document-aligned partition can serve the paper's occurrence estimates
with an *explicit* error algebra: ``k`` per-shard indexes at threshold
``l_shard`` merge into one answer within ``k * (l_shard - 1)`` of the
truth, and the SPLIT_BUDGET policy picks ``l_shard`` so that this merged
budget stays within the original ``l - 1``. This experiment measures
exactly that on every corpus, for ``k`` in ``shard_counts`` and both
merge policies:

* the merged APX answer must stay within ``merged_threshold - 1`` of the
  monolithic truth (and under SPLIT_BUDGET that bound must not exceed
  the monolith's own ``l - 1``);
* the sharded CPST must certify (via ``count_or_none``) only true
  counts — document-aligned partitioning is exactness-preserving;
* the engine path (the product automaton behind
  :class:`~repro.engine.IndexCounter`) must agree with the fan-out path
  answer for answer.

Patterns containing the row separator are excluded: they straddle
document boundaries, where the sharded and monolithic concatenations
legitimately disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..datasets import dataset_names, generate
from ..engine import IndexCounter
from ..shard import MergePolicy, ShardPlan, build_sharded
from ..textutil import ROW_SEPARATOR, Text, mixed_workload
from .tables import format_table


@dataclass(frozen=True)
class ShardRow:
    """One (corpus, k, policy) configuration vs the monolithic truth."""

    dataset: str
    k: int
    policy: str
    l: int
    shard_threshold: int
    merged_threshold: int
    patterns: int
    #: Largest |merged APX count - truth| over the workload.
    max_error: int
    #: Merged APX answers all within ``merged_threshold - 1`` of truth.
    within_bound: bool
    #: Sharded CPST ``count_or_none`` certified only true counts.
    certified_exact: bool
    #: Product-automaton (engine) answers equal the fan-out answers.
    engine_identical: bool


def _documents(corpus: str, pieces: int) -> List[str]:
    """Split a synthetic corpus into ``pieces`` contiguous documents."""
    n = len(corpus)
    docs = [
        corpus[i * n // pieces : (i + 1) * n // pieces] for i in range(pieces)
    ]
    return [doc for doc in docs if doc]


def run(
    size: int = 20_000,
    l: int = 16,
    seed: int = 0,
    shard_counts: Sequence[int] = (1, 2, 4),
    datasets: Sequence[str] | None = None,
) -> List[ShardRow]:
    """Measure merged error, certification and engine agreement."""
    rows: List[ShardRow] = []
    for name in datasets or dataset_names():
        docs = _documents(generate(name, size, seed), pieces=12)
        mono = Text.from_rows(docs)
        patterns = [
            pattern
            for pattern in mixed_workload(mono, per_length=6, seed=seed)
            if ROW_SEPARATOR not in pattern
        ]
        truths = {pattern: mono.count_naive(pattern) for pattern in patterns}
        for k in shard_counts:
            plan = ShardPlan.for_rows(docs, k)
            for policy in (MergePolicy.SPLIT_BUDGET, MergePolicy.WIDEN_INTERVAL):
                apx, report = build_sharded(plan, "apx", l, policy=policy)
                cpst, _ = build_sharded(plan, "cpst", l, policy=policy)
                fanout = [apx.count(pattern) for pattern in patterns]
                engine = IndexCounter(apx).count_many(patterns)
                errors = [
                    abs(count - truths[pattern])
                    for pattern, count in zip(patterns, fanout)
                ]
                certified = True
                for pattern in patterns:
                    value = cpst.count_or_none(pattern)
                    if value is not None and value != truths[pattern]:
                        certified = False
                rows.append(
                    ShardRow(
                        dataset=name,
                        k=k,
                        policy=policy.value,
                        l=l,
                        shard_threshold=report.shard_threshold,
                        merged_threshold=report.merged_threshold,
                        patterns=len(patterns),
                        max_error=max(errors) if errors else 0,
                        within_bound=all(
                            e <= apx.threshold - 1 for e in errors
                        ),
                        certified_exact=certified,
                        engine_identical=fanout == engine,
                    )
                )
    return rows


def format_results(rows: Sequence[ShardRow]) -> str:
    """Render the sharded-vs-monolith table."""
    headers = [
        "dataset", "k", "policy", "l", "l_shard", "merged l",
        "patterns", "max err", "within bound", "certified", "engine ==",
    ]
    table_rows = [
        [
            row.dataset, row.k, row.policy, row.l,
            row.shard_threshold, row.merged_threshold,
            row.patterns, row.max_error,
            "yes" if row.within_bound else "NO",
            "yes" if row.certified_exact else "NO",
            "yes" if row.engine_identical else "NO",
        ]
        for row in rows
    ]
    return format_table(
        headers,
        table_rows,
        title="Sharding — partitioned indexes with error-budget-aware merge",
    )


def headline_checks(rows: Sequence[ShardRow]) -> Dict[str, bool]:
    """The claims the sharded corpus plane must deliver."""
    return {
        "merged_error_within_bound": all(row.within_bound for row in rows),
        "certified_counts_exact": all(row.certified_exact for row in rows),
        "engine_matches_fanout": all(row.engine_identical for row in rows),
        "split_budget_preserves_l": all(
            row.merged_threshold <= row.l
            for row in rows
            if row.policy == MergePolicy.SPLIT_BUDGET.value
        ),
    }
