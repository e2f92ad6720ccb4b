"""Threshold ladders and space-budget tuning.

Two practitioner-facing tools on top of the paper's structures:

* :class:`ThresholdLadder` — a stack of CPSTs at geometrically spaced
  thresholds ``l_0 > l_1 > … > l_k``. A query walks the ladder from the
  cheapest (largest-threshold) index down and stops at the first level
  that certifies the count, so frequent patterns are answered by tiny
  structures and rare ones either resolve deeper or come back as a
  certified interval ``[0, l_k)``. Total space is dominated by the last
  level (sizes roughly double per halving, see Figure 8), i.e. a ladder
  costs ~2x its finest level while exposing *every* level's certification
  boundary.
* :func:`fit_threshold` — the inverse of the Figure 8 sweep: find the
  smallest threshold whose index fits a bit budget (the knob the paper's
  selectivity discussion frames as the space/error trade-off).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Type

from ..core.cpst import CompactPrunedSuffixTree
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError
from ..space import SpaceReport
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class ThresholdLadder(OccurrenceEstimator):
    """A descending stack of CPSTs sharing one suffix-array construction."""

    error_model = ErrorModel.LOWER_SIDED

    def __init__(
        self,
        text: "BuildContext | Text | str",
        thresholds: Sequence[int],
        *,
        max_workers: Optional[int] = None,
    ):
        """Build every level over a text, or over a shared
        :class:`~repro.build.BuildContext`: one suffix sort total, and
        with ``max_workers > 1`` the per-level pruned structures and
        CPSTs are built concurrently."""
        from ..build import BuildContext

        ctx = BuildContext.of(text)
        levels = sorted(set(int(l) for l in thresholds), reverse=True)
        if not levels:
            raise InvalidParameterError("ladder needs at least one threshold")
        if levels[-1] < 2:
            raise InvalidParameterError("every threshold must be >= 2")
        # Materialise the shared arrays once before any fan-out.
        ctx.lcp

        def build_level(l: int) -> Tuple[int, CompactPrunedSuffixTree]:
            return l, CompactPrunedSuffixTree(ctx, l)

        if max_workers is None or max_workers <= 1 or len(levels) == 1:
            built = [build_level(l) for l in levels]
        else:
            with ThreadPoolExecutor(
                max_workers=min(max_workers, len(levels)),
                thread_name_prefix="repro-ladder",
            ) as pool:
                built = list(pool.map(build_level, levels))
        self._levels: List[Tuple[int, CompactPrunedSuffixTree]] = built
        self._text_length = len(ctx.text)
        self._alphabet = ctx.text.alphabet

    @classmethod
    def geometric(
        cls,
        text: Text | str,
        coarsest: int = 256,
        finest: int = 8,
        factor: int = 4,
        *,
        max_workers: Optional[int] = None,
    ) -> "ThresholdLadder":
        """Thresholds ``coarsest, coarsest/factor, …, >= finest``."""
        if factor < 2:
            raise InvalidParameterError(f"factor must be >= 2, got {factor}")
        thresholds = []
        l = coarsest
        while l >= finest:
            thresholds.append(l)
            l //= factor
        if not thresholds or thresholds[-1] != finest:
            thresholds.append(finest)
        return cls(text, thresholds, max_workers=max_workers)

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def threshold(self) -> int:
        """The finest (most expensive, most precise) level's threshold."""
        return self._levels[-1][0]

    @property
    def thresholds(self) -> List[int]:
        """All levels, coarsest first."""
        return [l for l, _ in self._levels]

    def count(self, pattern: str) -> int:
        """Count from the first certifying level, else 0."""
        result = self.count_or_none(pattern)
        return 0 if result is None else result

    def count_or_none(self, pattern: str) -> Optional[int]:
        """Exact count when any level certifies; None below the finest."""
        resolved = self.resolve(pattern)
        return resolved[1] if resolved is not None else None

    def resolve(self, pattern: str) -> Optional[Tuple[int, int]]:
        """``(certifying threshold, exact count)`` from the cheapest level
        that certifies the pattern; ``None`` when even the finest cannot.

        Walks coarse → fine, so hot (frequent) patterns never touch the
        expensive levels.
        """
        for l, index in self._levels:
            got = index.count_or_none(pattern)
            if got is not None:
                return l, got
        return None

    def is_reliable(self, pattern: str) -> bool:
        return self.count_or_none(pattern) is not None

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        components = {}
        overhead = {}
        for l, index in self._levels:
            report = index.space_report()
            components[f"level_{l}"] = report.payload_bits
            overhead[f"level_{l}_directories"] = report.overhead_bits
        return SpaceReport(
            name=f"Ladder{self.thresholds}", components=components, overhead=overhead
        )

    def __repr__(self) -> str:
        return f"ThresholdLadder(n={self._text_length}, thresholds={self.thresholds})"


def fit_threshold(
    text: Text | str,
    budget_bits: int,
    index_class: Type[OccurrenceEstimator] = CompactPrunedSuffixTree,
    min_threshold: int = 2,
    max_threshold: int | None = None,
) -> Tuple[int, OccurrenceEstimator]:
    """Smallest threshold whose index fits in ``budget_bits`` payload.

    A binary search over ``[min_threshold, max_threshold]`` (default
    ``n``); raises if even ``max_threshold`` busts the budget. Returns
    ``(threshold, built index)``.

    APX exists only at even thresholds, and the search probes every
    integer, so an odd probe builds the next even index *up*: the payload
    stays non-increasing in the probed threshold, which the binary search
    needs, and no probe builds an index finer than ``min_threshold``. The
    threshold returned for APX may then be odd, one below the returned
    index's own. (:func:`repro.build.spec_for` rounds *down* instead,
    because there the caller names the error bound it must not exceed.)
    """
    from ..build import BuildContext

    ctx = BuildContext.of(text)
    text = ctx.text
    if budget_bits < 1:
        raise InvalidParameterError("budget must be positive")
    ceiling = max_threshold if max_threshold is not None else max(2, len(text))

    def build(l: int) -> OccurrenceEstimator:
        if index_class.__name__ == "ApproxIndex" and l % 2:
            l += 1
        # Every probe of the search shares one context: the suffix sort
        # happens once no matter how many thresholds are tried.
        return index_class(ctx, l)  # type: ignore[call-arg]

    def fits(l: int) -> Tuple[bool, OccurrenceEstimator]:
        index = build(l)
        return index.space_report().payload_bits <= budget_bits, index

    ok, index = fits(ceiling)
    if not ok:
        raise InvalidParameterError(
            f"even threshold {ceiling} needs "
            f"{index.space_report().payload_bits} bits > budget {budget_bits}"
        )
    lo, hi = min_threshold, ceiling
    best = (ceiling, index)
    while lo <= hi:
        mid = (lo + hi) // 2
        ok, candidate = fits(mid)
        if ok:
            best = (mid, candidate)
            hi = mid - 1
        else:
            lo = mid + 1
    return best
