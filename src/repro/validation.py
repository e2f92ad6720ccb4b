"""Contract validation harness for occurrence estimators.

``validate_index`` exercises any :class:`~repro.core.interface.OccurrenceEstimator`
against ground truth over a workload and checks the contract implied by its
error model — the tool users extending the library with their own index
variants should run first, and the engine behind the X1 experiment.

* ``EXACT``       — estimate == truth for every pattern;
* ``UNIFORM``     — ``truth <= estimate <= truth + l - 1``;
* ``LOWER_SIDED`` — via ``count_or_none``: equal to truth when
  ``truth >= l``, ``None`` otherwise;
* ``UPPER_BOUND`` — ``truth <= estimate <= n - |P| + 1`` (never an
  undercount, never above the trivial occurrence bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .core.interface import ErrorModel, OccurrenceEstimator
from .errors import InvalidParameterError
from .textutil import Text, mixed_workload


@dataclass(frozen=True)
class Violation:
    """One contract breach."""

    pattern: str
    truth: int
    estimate: Optional[int]
    reason: str


@dataclass
class ValidationReport:
    """Outcome of one validation run."""

    index_name: str
    error_model: ErrorModel
    threshold: int
    patterns_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    max_error: int = 0
    total_error: int = 0

    @property
    def ok(self) -> bool:
        """True iff the contract held on every pattern."""
        return not self.violations

    @property
    def mean_error(self) -> float:
        """Mean signed error over checked patterns (uniform model only)."""
        if not self.patterns_checked:
            return 0.0
        return self.total_error / self.patterns_checked

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.index_name} [{self.error_model.value}, l={self.threshold}]: "
            f"{self.patterns_checked} patterns, {status}, "
            f"max_err={self.max_error}, mean_err={self.mean_error:.2f}"
        )


def validate_index(
    index: OccurrenceEstimator,
    text: Text | str,
    patterns: Sequence[str] | None = None,
    seed: int = 0,
) -> ValidationReport:
    """Check an index's error contract against the text's ground truth.

    ``patterns`` defaults to a mixed in-text/random/adversarial workload.
    The text must be the one the index was built on (validated via length).
    """
    t = text if isinstance(text, Text) else Text(text)
    if index.text_length != len(t):
        raise InvalidParameterError(
            f"index was built on a text of length {index.text_length}, "
            f"got one of length {len(t)}"
        )
    workload = list(patterns) if patterns is not None else mixed_workload(
        t, per_length=15, seed=seed
    )
    report = ValidationReport(
        index_name=type(index).__name__,
        error_model=index.error_model,
        threshold=index.threshold,
    )
    l = index.threshold
    for pattern in workload:
        truth = t.count_naive(pattern)
        report.patterns_checked += 1
        if index.error_model is ErrorModel.EXACT:
            estimate = index.count(pattern)
            if estimate != truth:
                report.violations.append(
                    Violation(pattern, truth, estimate, "exact index answered wrongly")
                )
            continue
        if index.error_model is ErrorModel.UNIFORM:
            estimate = index.count(pattern)
            error = estimate - truth
            report.max_error = max(report.max_error, error)
            report.total_error += error
            if not truth <= estimate <= truth + l - 1:
                report.violations.append(
                    Violation(
                        pattern, truth, estimate,
                        f"estimate outside [truth, truth+{l - 1}]",
                    )
                )
            continue
        if index.error_model is ErrorModel.UPPER_BOUND:
            estimate = index.count(pattern)
            error = estimate - truth
            report.max_error = max(report.max_error, error)
            report.total_error += error
            ceiling = max(0, len(t) - len(pattern) + 1)
            if not truth <= estimate <= ceiling:
                report.violations.append(
                    Violation(
                        pattern, truth, estimate,
                        f"estimate outside [truth, {ceiling}]",
                    )
                )
            continue
        # LOWER_SIDED: prefer the detecting API when available.
        checker = getattr(index, "count_or_none", None)
        if checker is None:
            estimate = index.count(pattern)
            if truth >= l and estimate != truth:
                report.violations.append(
                    Violation(pattern, truth, estimate, "wrong above threshold")
                )
            continue
        got = checker(pattern)
        if _length_based(index):
            # Q-gram-style contract: exact iff the pattern is short enough.
            q = index.q  # type: ignore[attr-defined]
            if len(pattern) <= q and got != truth:
                report.violations.append(
                    Violation(pattern, truth, got, "wrong within q-gram range")
                )
            elif len(pattern) > q and got is not None:
                report.violations.append(
                    Violation(pattern, truth, got, "certified beyond q-gram range")
                )
            continue
        if truth >= l and got != truth:
            report.violations.append(
                Violation(pattern, truth, got, "wrong or missing above threshold")
            )
        elif truth < l and got is not None:
            report.violations.append(
                Violation(pattern, truth, got, "certified below threshold")
            )
    return report


def _length_based(index: OccurrenceEstimator) -> bool:
    """Q-gram-style indexes certify by pattern *length*, not frequency."""
    return hasattr(index, "q")


def validate_all(
    text: Text | str, l: int = 16, seed: int = 0
) -> List[ValidationReport]:
    """Validate one instance of every bundled index on the given text.

    Every index is built from one :class:`~repro.build.BuildContext` (one
    suffix sort), with each kind's parameters from
    :func:`~repro.build.spec_for`: at an odd ``l`` the APX indexes and the
    Patricia trie are built at ``l - 1``.
    """
    from .baselines import QGramIndex
    from .build import BuildContext, spec_for
    from .core import CombinedIndex

    ctx = BuildContext(text)
    t = ctx.text
    indexes: List[OccurrenceEstimator] = [
        spec_for(kind, l).build(ctx)
        for kind in ("fm", "rlfm", "apx", "apx-ef", "cpst", "pst")
    ]
    indexes += [CombinedIndex(ctx, l), QGramIndex(ctx, q=4)]
    reports = [validate_index(index, t, seed=seed) for index in indexes]
    # The Patricia trie has no universal contract: validate only on
    # frequent patterns, where |error| < l is guaranteed.
    trie = spec_for("patricia", l).build(ctx)
    trie_l = trie.threshold
    frequent = [
        p for p in mixed_workload(t, per_length=15, seed=seed)
        if t.count_naive(p) >= trie_l // 2
    ]
    trie_report = ValidationReport(
        index_name="PrunedPatriciaTrie(frequent-only)",
        error_model=ErrorModel.UNIFORM,
        threshold=trie_l,
    )
    for pattern in frequent:
        truth = t.count_naive(pattern)
        estimate = trie.count(pattern)
        trie_report.patterns_checked += 1
        error = abs(estimate - truth)
        trie_report.max_error = max(trie_report.max_error, error)
        trie_report.total_error += error
        if error >= trie_l:
            trie_report.violations.append(
                Violation(pattern, truth, estimate, "blind-search error >= l")
            )
    reports.append(trie_report)
    return reports
