"""Experiment X6: distribution of the APX additive error.

Theorem 7 bounds the APX error by ``l - 1``; this experiment measures how
the error actually distributes inside ``[0, l-1]``. Each backward-search
step keeps both interval endpoints within ``l/2 - 1`` of the truth, with
the deviation depending on where the endpoints fall between discriminant
samples — empirically roughly uniform, so the *total* error concentrates
around ``l/2`` rather than hugging the worst case.

Output: per corpus and threshold, the observed mean/median/p95/max of
``estimate - true`` over an in-text workload, plus a coarse histogram in
units of ``l/8``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..datasets import dataset_names, generate
from ..textutil import sample_from_text
from .tables import format_table


@dataclass(frozen=True)
class ErrorDistRow:
    """Error distribution of one (corpus, threshold) pair."""

    dataset: str
    l: int
    patterns: int
    mean: float
    median: float
    p95: float
    max: int
    histogram: tuple  # 8 buckets of width l/8 over [0, l)


def run(
    size: int = 20_000,
    thresholds: Sequence[int] = (16, 64),
    pattern_lengths: Sequence[int] = (3, 5, 8),
    per_length: int = 60,
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[ErrorDistRow]:
    """Measure the APX error distribution on in-text patterns."""
    rows: List[ErrorDistRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        patterns: List[str] = []
        for length in pattern_lengths:
            patterns.extend(
                sample_from_text(ctx.text, length, per_length, seed=(seed, 1, length))
            )
        truths = {p: ctx.text.count_naive(p) for p in set(patterns)}
        for l in thresholds:
            apx = ApproxIndex(ctx, l)
            errors = np.asarray(
                [apx.count(p) - truths[p] for p in patterns], dtype=np.int64
            )
            bucket_width = max(1, l // 8)
            histogram = np.bincount(
                np.minimum(errors // bucket_width, 7), minlength=8
            )
            rows.append(
                ErrorDistRow(
                    dataset=name,
                    l=l,
                    patterns=len(patterns),
                    mean=float(errors.mean()),
                    median=float(np.median(errors)),
                    p95=float(np.percentile(errors, 95)),
                    max=int(errors.max()),
                    histogram=tuple(int(x) for x in histogram),
                )
            )
    return rows


def format_results(rows: Sequence[ErrorDistRow]) -> str:
    return format_table(
        headers=["dataset", "l", "patterns", "mean", "median", "p95", "max", "hist(l/8 buckets)"],
        rows=[
            (
                r.dataset, r.l, r.patterns, r.mean, r.median, r.p95, r.max,
                " ".join(str(v) for v in r.histogram),
            )
            for r in rows
        ],
        title="X6 — distribution of the APX additive error (bounded by l-1)",
    )


def all_within_bound(rows: Sequence[ErrorDistRow]) -> bool:
    """Theorem 7 check over the whole workload."""
    return all(0 <= row.max <= row.l - 1 and row.mean >= 0 for row in rows)
