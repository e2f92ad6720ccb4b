"""Experiment X8: the space budget → error threshold trade-off.

The inverse reading of Figure 8 that a practitioner actually faces: given
a space budget (as a % of the text), what error threshold can each index
afford, and what does that do to end-to-end estimation quality? For each
corpus and each budget we fit the CPST and APX thresholds, then measure
MOL estimation error with the fitted CPST as backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..core.ladder import fit_threshold
from ..datasets import dataset_names, generate
from ..errors import InvalidParameterError
from ..selectivity import MOLEstimator
from ..space import text_bits
from ..textutil import sample_from_text
from .tables import format_table


@dataclass(frozen=True)
class BudgetRow:
    """Fitted thresholds and resulting MOL error for one budget."""

    dataset: str
    budget_percent: float
    budget_bits: int
    cpst_l: int
    apx_l: int
    mol_mean_error: float


def run(
    size: int = 30_000,
    budgets_percent: Sequence[float] = (2.0, 5.0, 10.0, 20.0),
    pattern_length: int = 8,
    patterns: int = 80,
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[BudgetRow]:
    """Fit thresholds per budget and measure the estimation quality."""
    rows: List[BudgetRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        reference = text_bits(len(ctx.text), ctx.text.sigma)
        workload = sample_from_text(
            ctx.text, pattern_length, patterns, seed=(seed, 1, pattern_length)
        )
        truths = {p: ctx.text.count_naive(p) for p in set(workload)}
        for percent in budgets_percent:
            budget = int(reference * percent / 100)
            try:
                cpst_l, cpst = fit_threshold(ctx, budget, CompactPrunedSuffixTree)
                apx_l, _ = fit_threshold(ctx, budget, ApproxIndex)
            except InvalidParameterError:
                continue  # budget too small even for the coarsest index
            estimator = MOLEstimator(cpst)
            error = sum(
                abs(estimator.estimate(p) - truths[p]) for p in workload
            ) / len(workload)
            rows.append(
                BudgetRow(name, percent, budget, cpst_l, apx_l, error)
            )
    return rows


def format_results(rows: Sequence[BudgetRow]) -> str:
    return format_table(
        headers=["dataset", "budget %", "budget bits", "CPST l", "APX l", "MOL mean err"],
        rows=[
            (r.dataset, r.budget_percent, r.budget_bits, r.cpst_l, r.apx_l,
             r.mol_mean_error)
            for r in rows
        ],
        title="X8 — thresholds affordable per space budget, and resulting MOL error",
    )


def headline_checks(rows: Sequence[BudgetRow]) -> dict:
    """More budget => finer threshold => lower (or equal-ish) error."""
    by_dataset: dict[str, List[BudgetRow]] = {}
    for row in rows:
        by_dataset.setdefault(row.dataset, []).append(row)
    thresholds_monotone = all(
        all(a.cpst_l >= b.cpst_l for a, b in zip(seq, seq[1:]))
        for seq in by_dataset.values()
    )
    cpst_affords_finer = all(row.cpst_l <= row.apx_l for row in rows)
    return {
        "thresholds_monotone_in_budget": thresholds_monotone,
        "cpst_affords_finer_threshold": cpst_affords_finer,
    }
