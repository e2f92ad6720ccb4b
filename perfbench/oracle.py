"""Naive ground truth and the answer contract every served answer obeys.

The truth is a plain scan of the documents the answering generation
holds, computed outside every timed region. The contract is the
paper's error model as the serving stack declares it:

- the served interval contains the true count;
- an exact answer equals the true count;
- an APX-style (``UNIFORM``) answer over-counts by at most ``l - 1``;
- a CPST answer is exact wherever the index certifies it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.interface import ErrorModel

#: Joins documents for counting; never occurs in a generated corpus, so
#: no occurrence can straddle two documents.
DOC_JOIN = "\x00"
#: Violations kept verbatim for the report; the rest are only counted.
KEEP_EXAMPLES = 20


def naive_count(text: str, pattern: str) -> int:
    """Overlapping occurrences of ``pattern`` in ``text``."""
    count = 0
    at = text.find(pattern)
    while at != -1:
        count += 1
        at = text.find(pattern, at + 1)
    return count


def joined(bodies: Iterable[str]) -> str:
    """Documents as one searchable string with no cross-document hits."""
    return DOC_JOIN.join(bodies)


def outcome_interval(outcome) -> Tuple[int, int]:
    """The sound ``[lo, hi]`` a serving-front answer declares.

    ``QueryOutcome`` and ``ShedOutcome`` carry a scalar plus an error
    model; the interval follows from the model (a degraded answer that
    reports its widened interval uses that instead).
    """
    interval = getattr(outcome, "count_interval", None)
    if interval is not None:
        return int(interval[0]), int(interval[1])
    count = int(outcome.count)
    model = outcome.error_model
    if model is ErrorModel.EXACT:
        return count, count
    if model is ErrorModel.UNIFORM:
        return max(0, count - int(outcome.threshold) + 1), count
    if model is ErrorModel.LOWER_SIDED:
        if count >= outcome.threshold:
            return count, count
        return 0, int(outcome.threshold) - 1
    return 0, count


class Oracle:
    """Checks answers and keeps the first few violations for the report."""

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.examples: List[str] = []

    def _fail(self, message: str) -> bool:
        self.violations += 1
        if len(self.examples) < KEEP_EXAMPLES:
            self.examples.append(message)
        return False

    def interval(
        self,
        pattern: str,
        truth: int,
        lo: int,
        hi: int,
        *,
        exact: bool,
        model: Optional[ErrorModel] = None,
        threshold: int = 1,
    ) -> bool:
        """One interval answer against the truth; False on a violation."""
        self.checked += 1
        if not lo <= truth <= hi:
            return self._fail(f"{pattern!r}: [{lo}, {hi}] misses truth {truth}")
        if exact and not lo == hi == truth:
            return self._fail(f"{pattern!r}: exact answer {hi} != truth {truth}")
        if model is ErrorModel.UNIFORM and hi - truth > threshold - 1:
            return self._fail(
                f"{pattern!r}: uniform answer {hi} exceeds truth {truth} "
                f"by more than l-1 = {threshold - 1}"
            )
        return True

    def ack(self, what: str, ok: bool) -> bool:
        """A write or reload: counted as attempted, failed unless ``ok``."""
        self.checked += 1
        return True if ok else self._fail(f"{what}: not acknowledged")

    def outcome(self, outcome, truth: int) -> bool:
        """A ``QueryServer`` answer (``QueryOutcome`` or ``ShedOutcome``)."""
        if outcome.shed:
            self.checked += 1
            return self._fail(f"{outcome.pattern!r}: shed ({outcome.reason})")
        lo, hi = outcome_interval(outcome)
        model = outcome.error_model
        return self.interval(
            outcome.pattern, truth, lo, hi,
            exact=model is ErrorModel.EXACT,
            model=model,
            threshold=int(outcome.threshold),
        )

    def daemon(self, pattern: str, answer, truth: int) -> bool:
        """A ``Supervisor`` answer; a degraded answer counts as failed."""
        if answer.degraded:
            self.checked += 1
            return self._fail(f"{pattern!r}: degraded via {answer.degraded}")
        return self.interval(
            pattern, truth, answer.lo, answer.hi,
            exact=answer.exact,
            model=answer.error_model,
            threshold=int(answer.threshold),
        )

    def estimate(
        self, pattern: str, truth: int, estimate: float,
        certified: Optional[int], ceiling: int,
    ) -> bool:
        """A selectivity estimate: in range, and exact where the CPST
        certified the whole pattern."""
        self.checked += 1
        if not 0.0 <= estimate <= ceiling:
            return self._fail(f"{pattern!r}: estimate {estimate} outside [0, {ceiling}]")
        if certified is not None and (certified != truth or estimate != truth):
            return self._fail(
                f"{pattern!r}: certified count {certified} / estimate "
                f"{estimate} != truth {truth}"
            )
        return True
