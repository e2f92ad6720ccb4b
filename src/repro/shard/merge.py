"""Error algebra for merging per-shard counts.

Document-aligned partitioning is *exactness-preserving*: the paper reduces
a collection to one separator-joined text (Section 1), and a query pattern
(which never contains the separator) cannot straddle a document boundary,
so the true count over the corpus is exactly the sum of the true per-shard
counts. What does **not** sum exactly is the error: ``k`` shards each
honoring a uniform additive bound ``l_shard - 1`` (paper Section 4) sum to
an answer in ``[Count(P), Count(P) + k * (l_shard - 1)]``, i.e. a uniform
model at the merged threshold ``1 + sum_i (l_i - 1)``.

:class:`MergePolicy` names the two sound ways to handle that widening:

* ``SPLIT_BUDGET`` — build every shard at
  ``l_shard = max(2, 1 + (l - 1) // k)`` so the merged bound
  ``k * (l_shard - 1)`` stays within the original budget ``l - 1``
  (exactly, whenever ``k <= l - 1``; the floor of 2 is the smallest
  threshold the APX construction supports);
* ``WIDEN_INTERVAL`` — keep ``l_shard = l`` (cheaper, smaller shards
  prune more) and report the widened merged threshold
  ``k * (l - 1) + 1`` honestly.

Lower-sided shards (the CPST family, Section 5) merge through their
*certified* channel: when every shard certifies its count the merged sum
is exact; an uncertified shard contributes the interval
``[0, min(l_i - 1, ceiling_i)]``, which keeps the merged scalar sound
under the uniform model. A shard that is quarantined (or otherwise not
answering) contributes its trivial occurrence ceiling
``max(0, n_i - |P| + 1)``, degrading the merged model to
:data:`~repro.core.interface.ErrorModel.UPPER_BOUND` — the weakest sound
statement, never an unsound one.

Every rule lives in :meth:`ShardAnswer.bounds` and
:func:`merge_answers`, shared verbatim by the fan-out path
(:class:`~repro.shard.estimator.ShardedEstimator`) and the engine
automaton path (:class:`~repro.shard.estimator.ShardedAutomaton`), so the
two execution strategies cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.interface import ErrorModel
from ..errors import InvalidParameterError


class MergePolicy(enum.Enum):
    """How a shard plan spends the error budget ``l`` across ``k`` shards."""

    #: Build shards at ``l_shard = max(2, 1 + (l - 1) // k)`` so the merged
    #: additive error stays within the original ``l - 1`` budget.
    SPLIT_BUDGET = "split"
    #: Build shards at ``l_shard = l`` and report the widened merged
    #: threshold ``k * (l - 1) + 1``.
    WIDEN_INTERVAL = "widen"

    @classmethod
    def parse(cls, value: "MergePolicy | str") -> "MergePolicy":
        """Coerce a CLI string (``"split"`` / ``"widen"``) to a policy."""
        if isinstance(value, cls):
            return value
        for policy in cls:
            if policy.value == value:
                return policy
        raise InvalidParameterError(
            f"unknown merge policy {value!r} "
            f"(known: {[p.value for p in cls]})"
        )


def shard_threshold(l: int, k: int, policy: MergePolicy) -> int:
    """The per-shard threshold ``l_shard`` a policy builds ``k`` shards at.

    ``l`` is the requested corpus-level threshold (must be >= 2, the
    smallest threshold the approximate construction supports).
    """
    if l < 2:
        raise InvalidParameterError(f"threshold l must be >= 2, got {l}")
    if k < 1:
        raise InvalidParameterError(f"shard count k must be >= 1, got {k}")
    if MergePolicy.parse(policy) is MergePolicy.SPLIT_BUDGET:
        return max(2, 1 + (l - 1) // k)
    return l


def merged_threshold(thresholds: Sequence[int]) -> int:
    """The threshold the merged uniform model honors: ``1 + sum (l_i - 1)``."""
    if not thresholds:
        raise InvalidParameterError("merged_threshold needs >= 1 shard")
    return 1 + sum(max(0, t - 1) for t in thresholds)


@dataclass(frozen=True)
class ShardAnswer:
    """One shard's contribution to a merged count.

    ``value`` is the raw per-shard answer under ``model``; ``None`` means
    *no numeric answer* — for a lower-sided shard that is the legal
    "cannot certify" outcome, for a degraded shard it means the shard did
    not answer at all. ``ceiling`` is the shard's trivial occurrence bound
    ``max(0, n_i - |P| + 1)``, the widest interval any sound answer needs.
    """

    shard: str
    model: Optional[ErrorModel]
    threshold: int
    value: Optional[int]
    ceiling: int
    #: True when the shard is quarantined / not serving: its contribution
    #: falls back to the full ``[0, ceiling]`` interval.
    degraded: bool = False
    reason: str = ""

    @property
    def bounds(self) -> Tuple[int, int]:
        """Sound ``[lo, hi]`` interval on the shard's true count.

        Every branch clamps ``hi`` to the shard ceiling — both the raw
        value and the ceiling upper-bound the true count, so the minimum
        does too, and the clamp is what keeps the merged scalar inside
        the corpus-level feasible range ``[0, n - |P| + 1]``.
        """
        if self.degraded or self.model is None:
            return (0, self.ceiling)
        if self.model is ErrorModel.LOWER_SIDED:
            if self.value is None:
                # Uncertified: the true count is below the threshold.
                return (0, min(self.threshold - 1, self.ceiling))
            v = min(int(self.value), self.ceiling)
            return (v, v)
        if self.value is None:
            return (0, self.ceiling)
        v = int(self.value)
        if self.model is ErrorModel.EXACT:
            v = min(v, self.ceiling)
            return (v, v)
        if self.model is ErrorModel.UNIFORM:
            hi = min(v, self.ceiling)
            lo = min(max(0, v - (self.threshold - 1)), hi)
            return (lo, hi)
        # UPPER_BOUND: sound ceiling, no lower information.
        return (0, min(v, self.ceiling))


@dataclass(frozen=True)
class MergedCount:
    """A merged per-query answer: the served scalar plus its interval.

    ``count`` (the scalar a caller of ``count()`` receives) is the upper
    end of the interval — the only choice that keeps the merged answer
    sound under every constituent model (uniform answers over-count,
    never under-count). ``lo``/``hi`` bracket the true corpus count;
    ``threshold`` is the *static* merged threshold
    ``1 + sum (l_i - 1)``, while ``hi - lo + 1`` is the (often tighter)
    per-query effective width.
    """

    count: int
    lo: int
    hi: int
    error_model: ErrorModel
    threshold: int
    degraded_shards: Tuple[str, ...]
    answers: Tuple[ShardAnswer, ...]

    @property
    def exact(self) -> bool:
        """Whether the interval pins the true count."""
        return self.lo == self.hi and not self.degraded_shards

    def summary(self) -> str:
        """One-line operator-facing description."""
        tag = (
            f"degraded: {','.join(self.degraded_shards)}"
            if self.degraded_shards
            else ("exact" if self.exact else f"width {self.hi - self.lo}")
        )
        return (
            f"{self.count} in [{self.lo}, {self.hi}] over "
            f"{len(self.answers)} shard(s) "
            f"[{self.error_model.value}, l={self.threshold}, {tag}]"
        )


def merge_answers(answers: Sequence[ShardAnswer]) -> MergedCount:
    """Fold per-shard answers into one :class:`MergedCount`.

    The merged model is the weakest any contribution forces: any degraded
    shard -> ``UPPER_BOUND``; an exact interval -> ``EXACT``; otherwise
    ``UNIFORM`` at the static merged threshold (which the scalar provably
    honors: each live shard's over-count is at most ``l_i - 1``).
    """
    if not answers:
        raise InvalidParameterError("merge_answers needs >= 1 shard answer")
    lo = 0
    hi = 0
    for answer in answers:
        a_lo, a_hi = answer.bounds
        lo += a_lo
        hi += a_hi
    degraded = tuple(a.shard for a in answers if a.degraded)
    threshold = merged_threshold([a.threshold for a in answers])
    if degraded:
        model = ErrorModel.UPPER_BOUND
        threshold = 1
    elif lo == hi:
        model = ErrorModel.EXACT
        threshold = 1
    else:
        model = ErrorModel.UNIFORM
    return MergedCount(
        count=hi,
        lo=lo,
        hi=hi,
        error_model=model,
        threshold=threshold,
        degraded_shards=degraded,
        answers=tuple(answers),
    )
