"""Runtime corruption watchdog: differential probes over the tier ladder.

The persistence layer checksums indexes *at load time* (:mod:`repro.io`),
and every served answer passes a feasibility check — but a long-running
process can still rot silently: a bit flip in an in-memory structure can
turn a certified-exact count into a *plausible, in-range, wrong* one that
no range check will ever catch. What does catch it is redundancy: the
ladder holds several structures that answer the same question under known
error contracts (CPST exact above threshold, APX uniform error ``l``,
q-grams exact by length, text statistics as a sound ceiling), so a
low-rate stream of **differential probes** — patterns whose true counts
were recorded at build time — can cross-examine every tier against the
contract it claims.

:class:`CorruptionWatchdog` runs those probes (synchronously via
:meth:`~CorruptionWatchdog.run_probe_round`, or periodically on a
background thread), and when a tier contradicts its contract it:

1. **quarantines** the tier (the ladder skips it unconditionally),
2. flips the tier's circuit breaker open,
3. **rebuilds** the tier's estimator from the original text (when a
   rebuilder is registered), and
4. re-probes the rebuilt tier and **readmits** it only once every probe
   passes again.

Every action is recorded as a :class:`QuarantineEvent` for operators.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError
from ..textutil import Text, mixed_workload
from .outcome import contract_holds
from .resilient import ResilientEstimator
from .tiers import Tier, TierDeclined

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import ArtifactCache, BuildContext


@dataclass(frozen=True)
class ProbeFinding:
    """One tier × one probe pattern: did the contract hold?"""

    tier: str
    pattern: str
    expected: int
    #: The count observed, or None when the probe raised/declined.
    observed: Optional[int]
    ok: bool
    reason: str = ""


@dataclass
class QuarantineEvent:
    """One watchdog intervention on one tier (or one shard of one tier)."""

    tier: str
    #: The findings that convicted the tier.
    findings: List[ProbeFinding]
    #: For shard-granular interventions: the convicted shard's name
    #: (empty for whole-tier quarantines).
    shard: str = ""
    rebuilt: bool = False
    readmitted: bool = False
    #: Probe findings from the post-rebuild verification pass.
    verification: List[ProbeFinding] = field(default_factory=list)
    #: Wall time the rebuild factory took (0.0 when no rebuilder ran).
    rebuild_seconds: float = 0.0

    @property
    def target(self) -> str:
        """The quarantined unit: ``tier`` or ``tier/shard``."""
        return f"{self.tier}/{self.shard}" if self.shard else self.tier

    def summary(self) -> str:
        state = (
            "readmitted" if self.readmitted
            else ("rebuilt, still quarantined" if self.rebuilt else "quarantined")
        )
        unit = f"shard {self.target!r}" if self.shard else f"tier {self.tier!r}"
        first = self.findings[0] if self.findings else None
        detail = (
            f" (first: {first.pattern!r} expected {first.expected}, "
            f"{first.reason or f'observed {first.observed}'})"
            if first else ""
        )
        return f"watchdog: {unit} {state}{detail}"

    def as_dict(self) -> dict:
        """JSON-safe view of this intervention (for the report export)."""
        first = self.findings[0] if self.findings else None
        return {
            "tier": self.tier,
            "shard": self.shard,
            "target": self.target,
            "findings": len(self.findings),
            "first_reason": first.reason if first is not None else "",
            "rebuilt": self.rebuilt,
            "readmitted": self.readmitted,
            "verification_passed": (
                all(f.ok for f in self.verification)
                if self.verification else None
            ),
            "rebuild_seconds": self.rebuild_seconds,
        }


@dataclass(frozen=True)
class WatchdogReport:
    """Operator-facing rollup of a watchdog's activity so far."""

    rounds: int
    events: int
    rebuilt: int
    readmitted: int
    #: Tiers currently out of service (quarantined, not yet readmitted).
    quarantined_tiers: Tuple[str, ...]
    #: Total wall time spent inside rebuild factories.
    rebuild_seconds: float
    #: Per-event detail (one :meth:`QuarantineEvent.as_dict` per
    #: intervention, oldest first) — the quarantine history
    #: :meth:`to_json` exports, including shard-granular events.
    history: Tuple[dict, ...] = ()

    def format(self) -> str:
        lines = [
            f"watchdog report: {self.rounds} rounds, {self.events} events "
            f"({self.rebuilt} rebuilt, {self.readmitted} readmitted)",
            f"  rebuild wall time: {self.rebuild_seconds * 1e3:.1f} ms",
        ]
        if self.quarantined_tiers:
            lines.append(
                "  still quarantined: " + ", ".join(self.quarantined_tiers)
            )
        for entry in self.history:
            lines.append(
                f"  event: {entry['target']} "
                f"(rebuilt={entry['rebuilt']}, readmitted={entry['readmitted']})"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe view (parity with :meth:`repro.build.BuildReport.as_dict`)."""
        return {
            "rounds": self.rounds,
            "events": self.events,
            "rebuilt": self.rebuilt,
            "readmitted": self.readmitted,
            "quarantined_tiers": list(self.quarantined_tiers),
            "rebuild_seconds": self.rebuild_seconds,
            "history": [dict(entry) for entry in self.history],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as JSON, for dashboards and benchmark artifacts."""
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def probes_from_text(
    text: Text | str,
    *,
    per_length: int = 4,
    seed: int = 0,
    patterns: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Probe patterns with ground-truth counts recorded at build time.

    Defaults to the standard mixed workload (present, absent and
    adversarial patterns alike) so probes exercise both the certified and
    the declined paths of lower-sided tiers.
    """
    t = text if isinstance(text, Text) else Text(text)
    if patterns is None:
        patterns = mixed_workload(t, per_length=per_length, seed=seed)
    return {pattern: t.count_naive(pattern) for pattern in set(patterns)}


def default_rebuilders(
    text: Text | str,
    l: int = 64,
    *,
    context: Optional["BuildContext"] = None,
    cache: Optional["ArtifactCache"] = None,
) -> Dict[str, Callable[[], OccurrenceEstimator]]:
    """Rebuild-from-text factories matching :func:`build_default_ladder`.

    All factories share one :class:`~repro.build.BuildContext`, so a
    rebuild reuses the suffix array / BWT already materialised at serve
    time instead of re-sorting the text. Pass the ``context`` the ladder
    was built from to make rebuilds near-instant, or a ``cache``
    (:class:`~repro.build.ArtifactCache`) to recover the artifacts from
    disk after a restart.
    """
    from ..build import BuildContext, default_tier_specs

    ctx = context if context is not None else BuildContext(text, cache=cache)
    return {
        spec.kind: functools.partial(spec.build, ctx)
        for spec in default_tier_specs(l)
    }


class CorruptionWatchdog:
    """Background differential prober with quarantine/rebuild/readmit.

    ``probes`` maps pattern → true count. ``rebuilders`` maps tier name →
    zero-argument factory producing a fresh estimator; tiers without a
    rebuilder stay quarantined until an operator intervenes. Each round
    samples ``probes_per_round`` patterns (seeded RNG, deterministic), so
    steady-state probe load is low-rate by construction.

    Thread-safety: rounds serialise on an internal lock; probing calls
    ``tier.answer`` exactly like the serving path, so it is safe to run
    concurrently with live traffic (probe work is just more traffic).
    """

    def __init__(
        self,
        service: ResilientEstimator,
        probes: Mapping[str, int],
        *,
        rebuilders: Optional[
            Mapping[str, Callable[[], OccurrenceEstimator]]
        ] = None,
        probes_per_round: int = 4,
        interval: float = 5.0,
        seed: int = 0,
    ):
        if not probes:
            raise InvalidParameterError("the watchdog needs at least one probe")
        if probes_per_round < 1:
            raise InvalidParameterError(
                f"probes_per_round must be >= 1, got {probes_per_round}"
            )
        if interval <= 0:
            raise InvalidParameterError(f"interval must be > 0, got {interval}")
        self._service = service
        self._probes: List[Tuple[str, int]] = sorted(probes.items())
        self._rebuilders = dict(rebuilders or {})
        self._probes_per_round = min(probes_per_round, len(self._probes))
        self._interval = interval
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._events: List[QuarantineEvent] = []
        self._rounds = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def events(self) -> List[QuarantineEvent]:
        """All interventions so far (newest last)."""
        with self._lock:
            return list(self._events)

    @property
    def rounds(self) -> int:
        """Probe rounds completed."""
        with self._lock:
            return self._rounds

    def report(self) -> WatchdogReport:
        """Rollup of rounds, interventions and rebuild wall time so far."""
        with self._lock:
            events = list(self._events)
            rounds = self._rounds
        quarantined = tuple(
            tier.name for tier in self._service.tiers if tier.quarantined
        )
        return WatchdogReport(
            rounds=rounds,
            events=len(events),
            rebuilt=sum(1 for e in events if e.rebuilt),
            readmitted=sum(1 for e in events if e.readmitted),
            quarantined_tiers=quarantined,
            rebuild_seconds=sum(e.rebuild_seconds for e in events),
            history=tuple(e.as_dict() for e in events),
        )

    # -- probing --------------------------------------------------------------

    def run_probe_round(self) -> List[ProbeFinding]:
        """One synchronous round: sample probes, check every tier, act.

        Returns every finding of the round (violations and passes). Tests
        and the CLI call this directly; the background thread calls it on
        its interval.
        """
        with self._lock:
            sample = self._rng.sample(self._probes, self._probes_per_round)
            findings: List[ProbeFinding] = []
            for tier in self._service.tiers:
                if tier.quarantined:
                    continue
                tier_findings = [
                    self._probe_tier(tier, pattern, truth)
                    for pattern, truth in sample
                ]
                findings.extend(tier_findings)
                violations = [f for f in tier_findings if not f.ok]
                if violations:
                    self._quarantine(tier, violations)
            self._rounds += 1
            return findings

    def _probe_tier(self, tier: Tier, pattern: str, truth: int) -> ProbeFinding:
        try:
            count, model, threshold, _reliable = tier.answer(pattern, None)
        except TierDeclined:
            # Only the lower-sided contract promises to certify: declining
            # a pattern whose true count reaches the threshold is itself a
            # violation — unless the tier's exactness horizon is pattern
            # *length* (a q-gram table with ``q``), in which case longer
            # patterns are legally declined regardless of their count.
            horizon = getattr(tier.estimator, "q", None)
            legal = (
                tier.estimator.error_model is not ErrorModel.LOWER_SIDED
                or truth < getattr(tier.estimator, "threshold", 1)
                or (horizon is not None and len(pattern) > horizon)
            )
            return ProbeFinding(
                tier.name, pattern, truth, None, legal,
                "" if legal else "declined a count it must certify",
            )
        except Exception as exc:  # noqa: BLE001 - probe boundary
            return ProbeFinding(
                tier.name, pattern, truth, None, False,
                f"probe raised {type(exc).__name__}: {exc}",
            )
        n = tier.estimator.text_length
        ok = contract_holds(model, count, threshold, pattern, truth, n)
        return ProbeFinding(
            tier.name, pattern, truth, count, ok,
            "" if ok else f"{model.value} contract violated: "
                          f"observed {count}, truth {truth}",
        )

    # -- quarantine / rebuild / readmit ---------------------------------------

    def _quarantine(self, tier: Tier, violations: List[ProbeFinding]) -> None:
        # Shard-granular first: a sharded estimator that can localise the
        # contradiction to individual shards loses only those shards — the
        # tier stays in service (no tier quarantine, breaker untouched) and
        # the other k-1 shards keep answering under the merge's declared
        # degraded model while the convicted shard is rebuilt in place.
        if self._quarantine_shards(tier, violations):
            return
        tier.quarantine(
            f"differential probe contradiction ({violations[0].reason})"
        )
        tier.breaker.force_open()
        event = QuarantineEvent(tier=tier.name, findings=list(violations))
        self._events.append(event)
        rebuilder = self._rebuilders.get(tier.name)
        if rebuilder is None:
            return
        rebuild_started = time.perf_counter()
        rebuilt_estimator = rebuilder()
        event.rebuild_seconds = time.perf_counter() - rebuild_started
        tier.replace_estimator(rebuilt_estimator)
        event.rebuilt = True
        # Verify the rebuild against *every* probe before readmission.
        verification = [
            self._probe_tier(tier, pattern, truth)
            for pattern, truth in self._probes
        ]
        event.verification = verification
        if all(f.ok for f in verification):
            tier.readmit()
            tier.breaker.force_close()
            event.readmitted = True

    def _quarantine_shards(
        self, tier: Tier, violations: List[ProbeFinding]
    ) -> bool:
        """Try to localise the contradiction to individual shards.

        Returns True when at least one shard was convicted and handled
        (quarantine -> rebuild -> verify -> readmit, per shard); False
        when the tier is not sharded, cannot localise, or no single shard
        explains the violations — the caller then falls back to
        whole-tier quarantine.
        """
        estimator = tier.estimator
        convict = getattr(estimator, "convict_shards", None)
        can_localize = getattr(estimator, "can_localize", None)
        if convict is None or can_localize is None or not can_localize():
            return False
        convicted: List[str] = []
        for finding in violations:
            try:
                names = convict(finding.pattern)
            except Exception:  # noqa: BLE001 - localisation is best-effort
                return False
            for name in names:
                if name not in convicted:
                    convicted.append(name)
        if not convicted:
            return False
        patterns = [pattern for pattern, _ in self._probes]
        for name in convicted:
            estimator.quarantine_shard(
                name,
                f"differential probe contradiction ({violations[0].reason})",
            )
            event = QuarantineEvent(
                tier=tier.name, shard=name, findings=list(violations)
            )
            self._events.append(event)
            try:
                started = time.perf_counter()
                estimator.rebuild_shard(name)
                event.rebuild_seconds = time.perf_counter() - started
                event.rebuilt = True
            except Exception:  # noqa: BLE001 - no builder: stays quarantined
                continue
            probes = estimator.verify_shard(name, patterns)
            event.verification = [
                ProbeFinding(
                    f"{tier.name}/{name}", probe.pattern, probe.expected,
                    probe.observed, probe.ok, probe.reason,
                )
                for probe in probes
            ]
            if probes and all(probe.ok for probe in probes):
                estimator.readmit_shard(name)
                event.readmitted = True
        # The tier served throughout. Quarantine, rebuild and readmission
        # each moved the estimator's shard version, so the tier's counter
        # drops what it memoised through the corrupt shard on its next
        # answer.
        return True

    # -- background thread ----------------------------------------------------

    def start(self) -> None:
        """Run probe rounds on a daemon thread every ``interval`` seconds."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-watchdog", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background thread (waits up to ``timeout`` seconds)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.run_probe_round()
            except Exception:  # noqa: BLE001 - watchdog must not die silently
                # A failing probe round must not kill the thread; the next
                # round retries. (Individual tier failures are findings,
                # not exceptions — this guards the round machinery itself.)
                if self._stop.is_set():
                    break
