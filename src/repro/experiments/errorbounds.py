"""Experiment X1: empirical validation of the paper's error theorems.

Checks, over sampled workloads on every corpus:

* Theorem 7 — ``ApproxIndex.count`` lies in ``[Count, Count + l - 1]``;
* Theorem 10 — ``CompactPrunedSuffixTree`` is exact when ``Count >= l``
  and reports below-threshold otherwise;
* the same lower-sided contract for the classical PST baseline;
* the Patricia baseline stays within ``l`` for patterns with
  ``Count >= l/2`` (and *no* guarantee below — its failures are recorded,
  not asserted, since they are the paper's criticism of that approach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..baselines.patricia import PrunedPatriciaTrie
from ..baselines.pst import PrunedSuffixTree
from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import dataset_names, generate
from ..textutil import sample_from_text
from .tables import format_table


@dataclass(frozen=True)
class BoundCheckRow:
    """Validation outcome of one (corpus, index, l) combination."""

    dataset: str
    index: str
    l: int
    patterns: int
    violations: int
    max_error: float
    mean_error: float


def _workload(ctx: BuildContext, seed: int, per_length: int = 40) -> List[str]:
    patterns: set[str] = set()
    for length in (1, 2, 3, 4, 6, 8, 12):
        patterns.update(
            sample_from_text(ctx.text, length, per_length, seed=(seed, 1, length))
        )
    return sorted(patterns)


def run(
    size: int = 20_000,
    thresholds: Sequence[int] = (4, 16, 64),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[BoundCheckRow]:
    """Validate every index's error contract on every corpus."""
    rows: List[BoundCheckRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        patterns = _workload(ctx, seed)
        truths = {p: ctx.text.count_naive(p) for p in patterns}
        for l in thresholds:
            apx = ApproxIndex(ctx, l)
            violations = 0
            errors = []
            for pattern in patterns:
                true = truths[pattern]
                estimate = apx.count(pattern)
                errors.append(estimate - true)
                if not true <= estimate <= true + l - 1:
                    violations += 1
            rows.append(
                BoundCheckRow(
                    name, "APPROX", l, len(patterns), violations,
                    max(errors), sum(errors) / len(errors),
                )
            )
            for index_name, index in (
                ("CPST", CompactPrunedSuffixTree(ctx, l)),
                ("PST", PrunedSuffixTree(ctx, l)),
            ):
                violations = 0
                errors = []
                for pattern in patterns:
                    true = truths[pattern]
                    got = index.count_or_none(pattern)
                    if true >= l:
                        errors.append(0 if got == true else abs((got or 0) - true))
                        if got != true:
                            violations += 1
                    else:
                        errors.append(0)
                        if got is not None:
                            violations += 1
                rows.append(
                    BoundCheckRow(
                        name, index_name, l, len(patterns), violations,
                        max(errors), sum(errors) / len(errors),
                    )
                )
            patricia = PrunedPatriciaTrie(ctx, l)
            violations = 0
            errors = []
            for pattern in patterns:
                true = truths[pattern]
                estimate = patricia.count(pattern)
                if true >= l // 2:
                    errors.append(abs(estimate - true))
                    if abs(estimate - true) >= l:
                        violations += 1
            rows.append(
                BoundCheckRow(
                    name, "Patricia(freq)", l, len(errors), violations,
                    max(errors) if errors else 0.0,
                    sum(errors) / len(errors) if errors else 0.0,
                )
            )
    return rows


def format_results(rows: Sequence[BoundCheckRow]) -> str:
    """Render the validation table (violations must be zero everywhere)."""
    return format_table(
        headers=["dataset", "index", "l", "patterns", "violations", "max_err", "mean_err"],
        rows=[
            (r.dataset, r.index, r.l, r.patterns, r.violations, r.max_error, r.mean_error)
            for r in rows
        ],
        title="X1 — empirical validation of the error guarantees",
    )


def all_bounds_hold(rows: Sequence[BoundCheckRow]) -> bool:
    """True iff no index violated its contract anywhere."""
    return all(row.violations == 0 for row in rows)
