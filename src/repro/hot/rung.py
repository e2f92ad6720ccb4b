"""The hot store as a first-class ladder tier.

:class:`HotTierRung` subclasses :class:`~repro.service.tiers.Tier`, so
the degradation ladder, circuit breakers, bulkheads, health probes and
the corruption watchdog all treat it exactly like an index-backed rung:

- ``answer`` serves epoch-current verified counts as ``EXACT``, demoted
  and warm-tail answers as ``UPPER_BOUND`` (clamped to the trivial
  occurrence ceiling), and raises ``TierDeclined`` for cold patterns so
  the ladder falls through unchanged.
- ``wants_feedback``/``observe`` close the loop: the ladder reports each
  served outcome back, which is the *only* way exact counts enter the
  store — the hot tier never runs its own search.
- ``upgrades_shed``/``shed_upgrade`` tighten an overload shed answer
  with an exact cached count or a strictly tighter store bound.
- the watchdog probes it differentially like any tier; a quarantine
  rebuild swaps in a fresh :class:`_HotBackend` whose store starts cold
  (cold means it declines, and declining is always sound).

Fault injection threads through :class:`_HotBackend.lookup` — the
``hot_lookup`` chaos site — so a poisoned sketch is simulated at the
same boundary a real memory corruption would bite.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.interface import ErrorModel, OccurrenceEstimator
from ..service.faults import HotFaultInjector
from ..service.tiers import Tier, TierDeclined
from ..space import SpaceReport
from ..textutil import Alphabet
from .tier import HotAnswer, HotPatternTier


class _HotBackend(OccurrenceEstimator):
    """Estimator-shaped shim over a :class:`HotPatternTier`.

    Exists so the hot store plugs into machinery that expects a
    ``tier.estimator`` (feasibility ceilings, watchdog rebuild swaps,
    space rollups). It is not a general estimator: ``count`` only
    answers patterns the store is willing to serve.
    """

    error_model = ErrorModel.UPPER_BOUND

    def __init__(
        self, hot: HotPatternTier, injector: Optional[HotFaultInjector] = None
    ) -> None:
        self.hot = hot
        self.injector = injector

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet("")

    @property
    def text_length(self) -> int:
        return self.hot.text_length

    @property
    def threshold(self) -> int:
        return 1

    def lookup(self, pattern: str) -> Optional[HotAnswer]:
        """Store lookup with the ``hot_lookup`` fault site applied."""
        injector = self.injector
        if injector is not None:
            injector.roll()
        ans = self.hot.lookup(pattern)
        if ans is None or injector is None:
            return ans
        ceiling = max(0, self.hot.text_length - len(pattern) + 1)
        corrupted = injector.corrupt(ans.count, ceiling)
        if corrupted == ans.count:
            return ans
        if ans.model is ErrorModel.EXACT:
            return HotAnswer(
                corrupted, corrupted, corrupted, ans.model, ans.source, ans.epoch
            )
        lo = min(ans.lo, max(0, corrupted))
        return HotAnswer(corrupted, lo, corrupted, ans.model, ans.source, ans.epoch)

    def count(self, pattern: str) -> int:
        ans = self.lookup(pattern)
        if ans is None:
            raise KeyError(f"hot tier does not serve {pattern!r}")
        return int(ans.count)

    def space_report(self) -> SpaceReport:
        return self.hot.space_report()


class HotTierRung(Tier):
    """The frequency-aware rung the ladder tries before CPST."""

    wants_feedback = True
    upgrades_shed = True

    def __init__(
        self,
        hot: HotPatternTier,
        name: str = "hot",
        *,
        breaker=None,
        injector: Optional[HotFaultInjector] = None,
    ) -> None:
        super().__init__(_HotBackend(hot, injector), name, breaker=breaker)

    @property
    def hot(self) -> HotPatternTier:
        """The live store (tracks watchdog estimator swaps)."""
        return self.estimator.hot

    @property
    def hot_stats(self):
        return self.estimator.hot.stats

    def answer(
        self, pattern: str, deadline=None
    ) -> Tuple[int, ErrorModel, int, bool]:
        backend = self.estimator
        ans = backend.lookup(pattern)
        if ans is None:
            raise TierDeclined(self.name)
        if ans.model is ErrorModel.EXACT:
            self._check_feasible(pattern, ans.count, slack=0)
            return int(ans.count), ErrorModel.EXACT, 1, True
        # A sketch estimate (+ append slack) can legitimately exceed the
        # trivial ceiling; the min of two upper bounds is still an upper
        # bound, and the clamp keeps honest answers inside the feasible
        # range. Negative (corrupted) values stay detectable: the clamped
        # int is feasible exactly when it is not negative.
        ceiling = max(0, backend.text_length - len(pattern) + 1)
        value = int(ans.count) if ans.count < 0 else min(int(ans.count), ceiling)
        if value < 0:
            self._check_feasible(pattern, value, slack=0)
        return value, ErrorModel.UPPER_BOUND, 1, value == 0

    def observe(self, pattern: str, outcome) -> None:
        """Digest a ladder outcome: frequency always, exact when proven.

        ``outcome.reliable`` marks answers the serving tier certifies as
        exact (CPST above threshold, qgram short patterns, a zero upper
        bound); degraded-shard or delta-pending answers are never taken
        as exact even if flagged, because their scalar is a merged upper
        end, not a point count.
        """
        count = getattr(outcome, "count", None)
        model = getattr(outcome, "error_model", None)
        if count is None or model is None:
            return
        exact = (
            bool(getattr(outcome, "reliable", False))
            and not getattr(outcome, "shards_degraded", ())
            and not getattr(outcome, "delta_pending", 0)
        )
        if exact:
            effective = ErrorModel.EXACT
        elif model is ErrorModel.EXACT:
            # An exact-shaped answer we cannot trust (degraded shards,
            # pending delta): digest it as an upper bound, never verify.
            effective = ErrorModel.UPPER_BOUND
        else:
            effective = model
        self.estimator.hot.observe(pattern, int(count), effective)

    def shed_upgrade(
        self, pattern: str, count: int
    ) -> Optional[Tuple[int, ErrorModel]]:
        """Replace the shed bound ``count`` only with something better.

        An exact cached count always wins; a store bound wins only when
        it is strictly tighter, so an upgraded shed answer is never wider
        than the statistics bound it replaces. A miss still warms the
        store's frequency sketch: sustained overload traffic becomes
        servable even though the ladder never sees it.
        """
        hit = self.shed_lookup(pattern)
        hot = self.estimator.hot
        if hit is None:
            hot.note_warm(pattern)
            return None
        value, model = hit
        if model is not ErrorModel.EXACT and value >= count:
            return None
        hot.note_shed_upgrade()
        return hit

    def shed_lookup(self, pattern: str) -> Optional[Tuple[int, ErrorModel]]:
        """Best-effort store answer for the overload shed path.

        Returns ``(count, model)`` or None; never raises (a shedding
        server must not pay retries), never returns an infeasible value.
        """
        if self.quarantined:
            return None
        backend = self.estimator
        try:
            ans = backend.lookup(pattern)
        except Exception:  # noqa: BLE001 - shed path is best-effort
            return None
        if ans is None:
            return None
        ceiling = max(0, backend.text_length - len(pattern) + 1)
        if ans.model is ErrorModel.EXACT:
            value = int(ans.count)
            if not 0 <= value <= ceiling:
                return None
            return value, ErrorModel.EXACT
        value = min(int(ans.count), ceiling)
        if value < 0:
            return None
        return value, ErrorModel.UPPER_BOUND


def hot_rebuilder(source, **tier_kwargs):
    """Watchdog rebuild factory: a fresh, cold backend over a new store.

    ``source`` is the corpus text (str) or ``(name, body)`` documents the
    answer sketch is re-ingested from. The returned zero-argument factory
    plugs into :class:`~repro.service.watchdog.CorruptionWatchdog`
    rebuilders: the swapped-in backend has no fault injector and no
    cached state — it declines everything until the feedback loop
    re-verifies, and declining is always sound.
    """

    def build() -> _HotBackend:
        if isinstance(source, str):
            store = HotPatternTier.from_text(source, **tier_kwargs)
        else:
            store = HotPatternTier.from_documents(list(source), **tier_kwargs)
        return _HotBackend(store)

    return build


def with_hot_tier(
    service, hot: HotPatternTier, **rung_kwargs
) -> "tuple[object, HotTierRung]":
    """Layer a hot rung onto an existing ladder.

    Returns ``(new_service, rung)``; the new
    :class:`~repro.service.resilient.ResilientEstimator` shares every
    underlying tier (breakers, caches, quarantine state) with the
    original.
    """
    rung = HotTierRung(hot, **rung_kwargs)
    return service.prepend_tier(rung), rung
