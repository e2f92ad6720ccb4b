"""Experiment X7: KVI vs MO vs MOC vs MOL vs MOLC.

The paper states (Section 6): "We performed (details omitted) a comparison
between MO, MOL and KVI and found out that MOL delivered the best
estimates", and that MOC/MOLC could not be run at their scale. At this
library's scale all five run; this experiment regenerates the omitted
comparison: mean absolute estimation error per estimator per corpus, on
the Figure 9 workload, over a fixed CPST backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Type

from ..build import BuildContext
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import dataset_names, generate
from ..selectivity import (
    KVIEstimator,
    MOCEstimator,
    MOEstimator,
    MOLCEstimator,
    MOLEstimator,
    SelectivityEstimator,
)
from ..textutil import sample_from_text
from .tables import format_table

ESTIMATORS: Dict[str, Type[SelectivityEstimator]] = {
    "KVI": KVIEstimator,
    "MO": MOEstimator,
    "MOC": MOCEstimator,
    "MOL": MOLEstimator,
    "MOLC": MOLCEstimator,
}


@dataclass(frozen=True)
class EstimatorRow:
    """Mean |error| of every estimator on one corpus."""

    dataset: str
    l: int
    patterns: int
    mean_errors: Dict[str, float]  # estimator name -> mean absolute error

    def best(self) -> str:
        return min(self.mean_errors, key=self.mean_errors.get)


def run(
    size: int = 20_000,
    l: int = 32,
    pattern_lengths: Sequence[int] = (6, 8, 10, 12),
    per_length: int = 50,
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[EstimatorRow]:
    """Compare all five estimators over a shared CPST backend."""
    rows: List[EstimatorRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        backend = CompactPrunedSuffixTree(ctx, l)
        estimators = {
            est_name: cls(backend) for est_name, cls in ESTIMATORS.items()
        }
        patterns: List[str] = []
        for length in pattern_lengths:
            patterns.extend(
                sample_from_text(ctx.text, length, per_length, seed=(seed, 1, length))
            )
        truths = {p: ctx.text.count_naive(p) for p in set(patterns)}
        mean_errors = {}
        for est_name, estimator in estimators.items():
            total = sum(
                abs(estimator.estimate(p) - truths[p]) for p in patterns
            )
            mean_errors[est_name] = total / len(patterns)
        rows.append(EstimatorRow(name, l, len(patterns), mean_errors))
    return rows


def format_results(rows: Sequence[EstimatorRow]) -> str:
    names = list(ESTIMATORS)
    return format_table(
        headers=["dataset", "l", "patterns"] + names + ["best"],
        rows=[
            [r.dataset, r.l, r.patterns]
            + [r.mean_errors[name] for name in names]
            + [r.best()]
            for r in rows
        ],
        title="X7 — mean |estimate - truth| per selectivity estimator (CPST backend)",
    )


def headline_checks(rows: Sequence[EstimatorRow]) -> Dict[str, bool]:
    """The paper's omitted-comparison conclusion, as checks."""
    mol_family_beats_kvi = all(
        min(r.mean_errors["MOL"], r.mean_errors["MOLC"])
        <= r.mean_errors["KVI"] + 1e-9
        for r in rows
    )
    constraints_never_hurt_much = all(
        r.mean_errors["MOLC"] <= 1.5 * r.mean_errors["MOL"] + 1e-9 for r in rows
    )
    return {
        "mol_family_beats_kvi": mol_family_beats_kvi,
        "constraints_never_hurt_much": constraints_never_hurt_much,
    }
