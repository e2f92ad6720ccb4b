"""Combined index: CPST certification + APX uniform bounds.

The paper's experimental section concludes that the CPST "should be
indubitably preferred" in practice while the APX "remains interesting due
to its better theoretical guarantees". This module combines them into the
index a practitioner actually wants:

* patterns occurring at least ``l`` times → **exact** count (CPST path);
* all other patterns → a uniform-error estimate in
  ``[Count(P), Count(P) + l - 1]`` (APX path), *plus* the certified fact
  that ``Count(P) < l``, which lets the estimate be clamped to
  ``[0, l - 1]``.

The result is strictly stronger than either component: exactness above the
threshold, uniform additive error below it, and an explicit reliability
flag — at the cost of storing both structures (still ``O(n log(sigma*l)/l)``
bits overall, since the two components share the same asymptotics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..core.cpst import CompactPrunedSuffixTree
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..space import SpaceReport
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class CombinedIndex(OccurrenceEstimator):
    """Exact-above-threshold, uniform-error-below-threshold estimator."""

    error_model = ErrorModel.UNIFORM  # worst-case contract; often exact

    def __init__(self, text: "BuildContext | Text | str", l: int):
        from ..build import BuildContext, spec_for

        # Both components derive from one shared context: one suffix sort.
        # At an odd l the APX is built at l - 1 (spec_for's even rule).
        ctx = BuildContext.of(text)
        self._cpst = CompactPrunedSuffixTree(ctx, l)
        self._apx = spec_for("apx", l).build(ctx)
        self._l = l

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._cpst.alphabet

    @property
    def text_length(self) -> int:
        return self._cpst.text_length

    @property
    def threshold(self) -> int:
        return self._l

    def count(self, pattern: str) -> int:
        """Exact when ``Count >= l``; else a clamped uniform-error estimate."""
        exact = self._cpst.count_or_none(pattern)
        if exact is not None:
            return exact
        # Below threshold: the APX estimate is in [Count, Count + l - 1];
        # the CPST certifies Count <= l - 1, so clamping loses nothing.
        return min(self._apx.count(pattern), self._l - 1)

    def count_with_certainty(self, pattern: str) -> Tuple[int, bool]:
        """``(estimate, is_exact)`` in one call."""
        exact = self._cpst.count_or_none(pattern)
        if exact is not None:
            return exact, True
        return min(self._apx.count(pattern), self._l - 1), False

    def count_bounds(self, pattern: str) -> Tuple[int, int]:
        """A certified interval ``[lo, hi]`` containing the true count.

        Frequent patterns get a point interval; infrequent ones get the
        intersection of the APX window with ``[0, l - 1]``.
        """
        exact = self._cpst.count_or_none(pattern)
        if exact is not None:
            return exact, exact
        estimate = min(self._apx.count(pattern), self._l - 1)
        lo = max(0, estimate - (self._apx.threshold - 2))
        return lo, estimate

    def is_reliable(self, pattern: str) -> bool:
        return self._cpst.count_or_none(pattern) is not None

    def count_or_none(self, pattern: str) -> Optional[int]:
        """Lower-sided view (lets the combined index back the estimators)."""
        return self._cpst.count_or_none(pattern)

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        return self._cpst.space_report().merged_with(
            self._apx.space_report(), name=f"Combined-{self._l}"
        )

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> "StorageBundle":
        """The threshold plus both component indexes as child bundles."""
        from ..bits import StorageBundle

        return StorageBundle(
            kind="CombinedIndex",
            meta={"l": self._l},
            children={
                "cpst": self._cpst.export_storage(),
                "apx": self._apx.export_storage(),
            },
        )

    @classmethod
    def attach_storage(cls, bundle: "StorageBundle") -> "CombinedIndex":
        """Rebuild from a bundle; both components attach zero-copy."""
        from ..bits import attach_structure

        inst = cls.__new__(cls)
        inst._l = int(bundle.meta["l"])
        inst._cpst = attach_structure(bundle.children["cpst"])
        inst._apx = attach_structure(bundle.children["apx"])
        return inst

    def __repr__(self) -> str:
        return f"CombinedIndex(n={self.text_length}, l={self._l})"


from ..bits import register_structure  # noqa: E402  (after class definition)

register_structure("CombinedIndex", CombinedIndex.attach_storage)
