"""Relaxed multiplicative estimation (paper Section 8, open problem).

Theorem 4 proves that a *universal* ``(1+eps)`` multiplicative guarantee
forces ``Omega(n log sigma)`` bits — as much as the text. The paper's
closing question asks whether the model can be relaxed: "what if we allow
non-existing substrings to have an arbitrary estimation error, forcing all
others with a multiplicative bound?"

This module realises the natural construction that relaxation admits:
pick a *support cutoff* ``c`` and build an APX index with additive error
``l = floor(eps * c)``. Then for every pattern with ``Count(P) >= c``::

    Count(P) <= estimate <= Count(P) + l - 1 <= (1 + eps) * Count(P)

i.e. the multiplicative bound holds for all sufficiently frequent patterns
at ``O(n log(sigma*eps*c) / (eps*c))`` bits — *sublinear* in the text, in
contrast to Theorem 4's bound, because rare/absent patterns are allowed
arbitrary error. A CPST at threshold ``c`` optionally certifies which
regime a query falls into.

This is an extension beyond the paper's published results, flagged as such;
the guarantee above is elementary but the tests verify it empirically.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError
from ..space import SpaceReport
from ..textutil import Alphabet, Text


class MultiplicativeIndex(OccurrenceEstimator):
    """``(1+eps)``-approximate counting for patterns with ``Count >= cutoff``."""

    error_model = ErrorModel.UNIFORM  # additive contract always; mult. above cutoff

    def __init__(
        self,
        text: Text | str,
        epsilon: float,
        cutoff: int,
        certify: bool = True,
    ):
        if epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be > 0, got {epsilon}")
        if cutoff < 1:
            raise InvalidParameterError(f"cutoff must be >= 1, got {cutoff}")
        if epsilon * cutoff < 2:
            raise InvalidParameterError(
                f"need epsilon * cutoff >= 2 for the multiplicative bound "
                f"(got {epsilon * cutoff:.2f}); raise the cutoff or epsilon"
            )
        from ..build import BuildContext, spec_for

        # The APX and its certifier derive from one shared context: one
        # suffix sort even when both components are requested. The APX's
        # additive threshold is floor(eps * cutoff), rounded down to even.
        ctx = BuildContext.of(text)
        self._epsilon = epsilon
        self._cutoff = cutoff
        self._apx: ApproxIndex = spec_for("apx", int(epsilon * cutoff)).build(ctx)
        self._certifier: Optional[CompactPrunedSuffixTree] = (
            CompactPrunedSuffixTree(ctx, cutoff)
            if certify and cutoff >= 2
            else None
        )

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._apx.alphabet

    @property
    def text_length(self) -> int:
        return self._apx.text_length

    @property
    def threshold(self) -> int:
        """The additive threshold of the underlying APX index."""
        return self._apx.threshold

    @property
    def epsilon(self) -> float:
        """The multiplicative slack guaranteed above the cutoff."""
        return self._epsilon

    @property
    def cutoff(self) -> int:
        """The support cutoff above which the multiplicative bound holds."""
        return self._cutoff

    def count(self, pattern: str) -> int:
        """Estimate with ``true <= est <= (1+eps)*true`` when
        ``true >= cutoff`` (and the additive APX bound always)."""
        return self._apx.count(pattern)

    def count_certified(self, pattern: str) -> Tuple[int, bool]:
        """``(estimate, multiplicative_bound_certified)``.

        The flag is True iff the companion CPST proves ``Count >= cutoff``
        (requires ``certify=True`` at construction). When the flag is True
        the estimate is additionally *exact* — the certifier knows the true
        count — so we return that.
        """
        if self._certifier is not None:
            exact = self._certifier.count_or_none(pattern)
            if exact is not None:
                return exact, True
        return self._apx.count(pattern), False

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        report = self._apx.space_report()
        if self._certifier is None:
            return SpaceReport(
                f"Multiplicative(eps={self._epsilon}, c={self._cutoff})",
                dict(report.components),
                dict(report.overhead),
            )
        return report.merged_with(
            self._certifier.space_report(),
            name=f"Multiplicative(eps={self._epsilon}, c={self._cutoff})",
        )

    def __repr__(self) -> str:
        return (
            f"MultiplicativeIndex(n={self.text_length}, eps={self._epsilon}, "
            f"cutoff={self._cutoff}, l={self.threshold})"
        )
