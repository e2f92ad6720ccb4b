"""Constraint-clamped estimators: MOC and MOLC (paper Section 7.2).

The MO family can *overestimate*: multiplying conditionals may yield a
probability for ``P`` larger than the probability of one of its known
substrings — impossible, since every occurrence of ``P`` contains every
substring of ``P``. [Jagadish-Ng-Srivastava] address this with a constraint
network; the paper reports it was too memory-hungry to run on their
corpora ("for some of our data sets the creation of the constraint network
was prohibitive"), which is why Figure 9 uses MOL.

At this library's scale the *monotonicity core* of those constraints is
cheap, so we provide simplified variants (flagged as such):

* :class:`MOCEstimator` — MO estimate clamped by the smallest probability
  of any certified substring of the pattern (``Pr(P) <= Pr(s)`` for all
  ``s`` inside ``P``).
* :class:`MOLCEstimator` — the MOL lattice DP with the same constraint
  applied at every node: an inferred ``Pr(a·alpha·b)`` may not exceed
  ``Pr(a·alpha)`` or ``Pr(alpha·b)``.

Both inherit everything else (parsing, defaults, normalisation) from the
unconstrained classes, so benchmark deltas isolate the constraints.
"""

from __future__ import annotations

from .mo import MOEstimator
from .mol import MOLEstimator


class MOCEstimator(MOEstimator):
    """MO with the containment-monotonicity clamp (simplified MOC)."""

    def _estimate_probability(self, pattern: str) -> float:
        raw = super()._estimate_probability(pattern)
        ceiling = self._containment_ceiling(pattern)
        return min(raw, ceiling)

    def _containment_ceiling(self, pattern: str) -> float:
        """Smallest certified probability over substrings of the pattern.

        Scans maximal known fragments only: any certified substring of a
        certified fragment has a probability at least as large, so the
        minimum over maximal fragments is the binding constraint.
        """
        ceiling = 1.0
        for start in range(len(pattern)):
            length = self.oracle.longest_known(pattern, start)
            if length == 0:
                continue
            probability = self._probability_of_known(pattern[start : start + length])
            assert probability is not None
            ceiling = min(ceiling, probability)
        return ceiling


class MOLCEstimator(MOLEstimator):
    """MOL with per-node monotonicity constraints (simplified MOLC)."""

    def _infer(self, r_parent: float, l_parent: float, overlap: float) -> float:
        # The constraint: containment monotonicity at every inferred node.
        return min(super()._infer(r_parent, l_parent, overlap), r_parent, l_parent)
