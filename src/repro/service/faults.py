"""Deterministic fault injection for chaos-testing the serving layer.

:class:`FaultyIndex` wraps any estimator and injects three fault kinds at
configurable per-call-site rates, driven by one seeded RNG so every chaos
run is reproducible:

* **errors** — raise :class:`InjectedFault` (transient, so the retry
  policy engages);
* **latency spikes** — call the injected sleeper for a configured number
  of seconds. Paired with a :class:`~repro.service.deadline.ManualClock`
  shared with the query's :class:`~repro.service.deadline.Deadline`, a
  spike deterministically burns wall-clock budget without real sleeping;
* **corrupted answers** — replace a count with an out-of-range value
  (negative, or beyond ``n``), exercising the ladder's feasibility check.

Call sites are named (see :data:`SITES`); each maps onto one operation of
the wrapped index or of its engine automaton view
(:func:`repro.engine.automaton_of`):

==================== ====================================================
site                 instrumented operation
==================== ====================================================
``count``            ``index.count(pattern)``
``count_or_none``    ``index.count_or_none(pattern)`` (lower-sided only)
``count_many``       ``index.count_many(patterns)`` (fires per batch,
                     then per-pattern via ``count``)
``automaton_start``  ``BackwardSearchAutomaton.start(ch)``
``automaton_step``   ``BackwardSearchAutomaton.step(state, ch)``
``automaton_step_many`` ``BackwardSearchAutomaton.step_many(states, ch)``
                     (fires per bulk wave, then per-state via the
                     ``automaton_step`` rate, so bulk waves and narrow
                     waves stepped one state at a time face the same
                     chaos)
``automaton_count``  ``BackwardSearchAutomaton.count_state(state)``
                     (corruptible: the one automaton site returning a
                     count)
==================== ====================================================

The ``automaton_*`` sites fire *mid-search* — the engine's
:class:`~repro.engine.planner.TrieBatchPlanner` drives the wrapped
automaton one wave at a time — not just at the call boundary.
:class:`FaultyIndex` supplies its instrumented automaton through the
``__engine_automaton__`` hook, so every engine consumer (the
:class:`~repro.engine.IndexCounter` behind the serving tiers and the
selectivity oracles, batch callers) sees the faults without any
feature-probing of the wrapper.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from ..engine import AutomatonCapabilities, BackwardSearchAutomaton, automaton_of
from ..errors import InvalidParameterError, ReproError

#: All call sites :class:`FaultyIndex` can instrument. ``hot_lookup``
#: is served by :class:`HotFaultInjector` (the hot-pattern tier has one
#: call site and no estimator to proxy), not by :class:`FaultyIndex`.
SITES = (
    "count",
    "count_or_none",
    "count_many",
    "automaton_start",
    "automaton_step",
    "automaton_step_many",
    "automaton_count",
    "hot_lookup",
)


class InjectedFault(ReproError, RuntimeError):
    """The failure raised by an injected error fault (transient by design)."""


class SimulatedCrashError(ReproError, RuntimeError):
    """A simulated process kill fired by a :class:`DiskFaultInjector`.

    Raised *after* the injector has written whatever partial bytes the
    scenario calls for, so the on-disk state is exactly what a real power
    cut at that boundary would leave. Tests catch it and re-open the
    directory to exercise recovery.
    """


#: Durability-layer boundaries a :class:`DiskFaultSpec` can crash at.
#: Each maps to one step of the live corpus plane's write protocols:
#:
#: ====================== ==================================================
#: site                   simulated failure
#: ====================== ==================================================
#: ``wal_append``         torn WAL tail: only a prefix of the record frame
#:                        reaches the log before the crash
#: ``wal_rewrite``        crash mid WAL compaction rewrite (temp file torn,
#:                        the old log is still intact)
#: ``manifest_temp``      partial manifest write: the temp file is torn,
#:                        the previous manifest still serves
#: ``manifest_rename``    crash between writing the manifest temp and the
#:                        atomic ``os.replace``
#: ``manifest_committed`` crash immediately after the rename, before any
#:                        WAL truncation or old-generation cleanup
#: ====================== ==================================================
DISK_SITES = (
    "wal_append",
    "wal_rewrite",
    "manifest_temp",
    "manifest_rename",
    "manifest_committed",
)


@dataclass(frozen=True)
class DiskFaultSpec:
    """One scheduled crash at a durability boundary.

    ``site`` names the boundary (see :data:`DISK_SITES`); ``at`` is the
    1-based occurrence of that site at which the crash fires (every
    earlier pass through the site completes normally); ``partial`` is the
    fraction of the in-flight payload actually written before the
    simulated power cut — 0.0 writes nothing, 1.0 writes the full payload
    (the crash then separates the write from whatever durability step
    follows it).
    """

    site: str
    at: int = 1
    partial: float = 0.5

    def __post_init__(self):
        if self.site not in DISK_SITES:
            raise InvalidParameterError(
                f"unknown disk fault site {self.site!r}; valid: {DISK_SITES}"
            )
        if self.at < 1:
            raise InvalidParameterError(f"at must be >= 1, got {self.at}")
        if not 0.0 <= self.partial <= 1.0:
            raise InvalidParameterError(
                f"partial must be in [0, 1], got {self.partial}"
            )


class DiskFaultInjector:
    """Deterministic crash scheduler for the live corpus durability layer.

    Holds any number of :class:`DiskFaultSpec` schedules and counts every
    pass through every site. The durability code calls :meth:`firing`
    right before each protected write; a returned spec means "tear this
    write per ``partial`` and die". After a crash fires, the injector is
    spent (further sites pass through) — one injector simulates one
    process lifetime.
    """

    def __init__(self, specs: "Sequence[DiskFaultSpec] | DiskFaultSpec"):
        if isinstance(specs, DiskFaultSpec):
            specs = [specs]
        self._specs = list(specs)
        self.counts: Counter = Counter()
        self.fired: Optional[DiskFaultSpec] = None

    def firing(self, site: str) -> Optional[DiskFaultSpec]:
        """The spec scheduled to crash at this pass of ``site``, if any."""
        if site not in DISK_SITES:
            raise InvalidParameterError(
                f"unknown disk fault site {site!r}; valid: {DISK_SITES}"
            )
        self.counts[site] += 1
        if self.fired is not None:
            return None
        for spec in self._specs:
            if spec.site == site and spec.at == self.counts[site]:
                self.fired = spec
                return spec
        return None

    def crash_write(self, site: str, handle, data: bytes) -> None:
        """Write ``data`` to a binary ``handle``, crashing if scheduled.

        On a scheduled crash only ``int(len(data) * partial)`` bytes are
        written (flushed and fsynced, so the torn prefix really is what a
        reader sees) before :class:`SimulatedCrashError` is raised.
        """
        spec = self.firing(site)
        if spec is None:
            handle.write(data)
            return
        torn = data[: int(len(data) * spec.partial)]
        if torn:
            handle.write(torn)
        handle.flush()
        try:
            import os

            os.fsync(handle.fileno())
        except (OSError, ValueError):  # pragma: no cover - non-file handles
            pass
        raise SimulatedCrashError(
            f"simulated crash at {site!r} (occurrence {spec.at}, "
            f"{len(torn)}/{len(data)} bytes written)"
        )

    def crash_point(self, site: str) -> None:
        """A pure crash boundary with no write (e.g. between temp-write
        and rename): raises :class:`SimulatedCrashError` when scheduled."""
        spec = self.firing(site)
        if spec is not None:
            raise SimulatedCrashError(
                f"simulated crash at {site!r} (occurrence {spec.at})"
            )


#: Control-plane boundaries a :class:`DaemonFaultSpec` can fire at.
#: Each maps to one step of the serving daemon's publish/flip protocol
#: (:mod:`repro.daemon`):
#:
#: ==================== ====================================================
#: site                 simulated failure
#: ==================== ====================================================
#: ``publish_export``   publisher dies while exporting estimator segments
#:                      (no shared memory touched yet)
#: ``publish_segments`` publisher dies between exporting the segment blobs
#:                      and publishing them into shared memory
#: ``flip_attach``      supervisor dies mid-flip, after some (not all)
#:                      workers attached the new generation
#: ``flip_activate``    supervisor dies after every worker attached but
#:                      before the new generation became current
#: ``flip_release``     supervisor dies after activation, before the old
#:                      generation's segments were released and unlinked
#: ``heartbeat``        a heartbeat probe is *lost* (``mode="drop"``): the
#:                      supervisor sees a missed heartbeat from a healthy
#:                      worker and must take the restart path
#: ==================== ====================================================
DAEMON_SITES = (
    "publish_export",
    "publish_segments",
    "flip_attach",
    "flip_activate",
    "flip_release",
    "heartbeat",
)

#: Recognised :attr:`DaemonFaultSpec.mode` values.
DAEMON_FAULT_MODES = ("crash", "drop")


@dataclass(frozen=True)
class DaemonFaultSpec:
    """One scheduled control-plane fault.

    ``site`` names the boundary (see :data:`DAEMON_SITES`); ``at`` is the
    1-based occurrence of that site at which the fault fires. ``mode``
    selects the failure: ``"crash"`` raises
    :class:`SimulatedCrashError` at the boundary (the supervisor or
    publisher "dies" there), ``"drop"`` silently swallows the protected
    operation — only meaningful for ``heartbeat``, where it simulates a
    lost probe rather than a dead process.
    """

    site: str
    at: int = 1
    mode: str = "crash"

    def __post_init__(self):
        if self.site not in DAEMON_SITES:
            raise InvalidParameterError(
                f"unknown daemon fault site {self.site!r}; valid: {DAEMON_SITES}"
            )
        if self.at < 1:
            raise InvalidParameterError(f"at must be >= 1, got {self.at}")
        if self.mode not in DAEMON_FAULT_MODES:
            raise InvalidParameterError(
                f"mode must be one of {DAEMON_FAULT_MODES}, got {self.mode!r}"
            )


class DaemonFaultInjector:
    """Deterministic fault scheduler for the daemon control plane.

    The same shape as :class:`DiskFaultInjector`, pointed at the process
    control plane instead of the durability layer: every pass through a
    :data:`DAEMON_SITES` boundary is counted, and a matching spec either
    crashes the caller (:meth:`crash_point`) or reports a dropped
    heartbeat (:meth:`dropping`). Crash specs are one-shot per injector
    ("one injector simulates one process lifetime"); drop specs each fire
    once but do not spend the injector, so a schedule can lose several
    heartbeats in a row.
    """

    def __init__(self, specs: "Sequence[DaemonFaultSpec] | DaemonFaultSpec"):
        if isinstance(specs, DaemonFaultSpec):
            specs = [specs]
        self._specs = list(specs)
        self.counts: Counter = Counter()
        self.fired: Optional[DaemonFaultSpec] = None

    def _match(self, site: str, mode: str) -> Optional[DaemonFaultSpec]:
        if site not in DAEMON_SITES:
            raise InvalidParameterError(
                f"unknown daemon fault site {site!r}; valid: {DAEMON_SITES}"
            )
        self.counts[site] += 1
        if self.fired is not None and mode == "crash":
            return None
        for spec in self._specs:
            if (
                spec.site == site
                and spec.mode == mode
                and spec.at == self.counts[site]
            ):
                return spec
        return None

    def crash_point(self, site: str) -> None:
        """Raise :class:`SimulatedCrashError` when a crash is scheduled
        at this pass of ``site``; otherwise pass through."""
        spec = self._match(site, "crash")
        if spec is not None:
            self.fired = spec
            raise SimulatedCrashError(
                f"simulated daemon crash at {site!r} (occurrence {spec.at})"
            )

    def dropping(self, site: str) -> bool:
        """Whether the operation at this pass of ``site`` is lost."""
        return self._match(site, "drop") is not None


#: Recognised :attr:`FaultSpec.corrupt_mode` values.
CORRUPT_MODES = ("out_of_range", "bitflip", "poison")


@dataclass(frozen=True)
class FaultSpec:
    """Fault rates for one call site; all rates are probabilities in [0, 1].

    ``corrupt_mode`` selects what a corrupted count looks like:

    * ``"out_of_range"`` (default) — detectably infeasible (negative or
      past the occurrence ceiling), so the serving layer's feasibility
      check can prove it catches them;
    * ``"bitflip"`` — a low bit of the correct count is flipped. The
      result stays plausible and in range, slipping straight past the
      feasibility check — exactly the silent in-memory corruption the
      :class:`~repro.service.watchdog.CorruptionWatchdog`'s differential
      probes exist to catch.
    * ``"poison"`` — the count is silently *decreased* (clamped at 0),
      the poisoned-sketch failure: an upper-bound structure whose cells
      were damaged low violates its one-sided contract while staying
      perfectly feasible. Like ``bitflip``, only a differential probe
      against a known truth can expose it.
    """

    error_rate: float = 0.0
    latency_rate: float = 0.0
    #: Seconds each latency spike lasts (fed to the injected sleeper).
    latency: float = 0.05
    corrupt_rate: float = 0.0
    corrupt_mode: str = "out_of_range"

    def __post_init__(self):
        for field_name in ("error_rate", "latency_rate", "corrupt_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise InvalidParameterError(
                    f"{field_name} must be in [0, 1], got {rate}"
                )
        if self.latency < 0:
            raise InvalidParameterError(f"latency must be >= 0, got {self.latency}")
        if self.corrupt_mode not in CORRUPT_MODES:
            raise InvalidParameterError(
                f"corrupt_mode must be one of {CORRUPT_MODES}, "
                f"got {self.corrupt_mode!r}"
            )


class FaultyIndex:
    """Transparent estimator proxy that injects faults at named call sites.

    Any attribute not instrumented here (``alphabet``, ``text_length``,
    ``error_model``, ``space_report``, …) is delegated to the wrapped
    index, so a :class:`FaultyIndex` drops into a
    :class:`~repro.service.tiers.Tier` anywhere the real index would.
    ``injections`` counts every fault fired, keyed by ``(site, kind)``,
    so chaos tests can assert each degradation path actually triggered.
    """

    def __init__(
        self,
        inner,
        specs: Mapping[str, FaultSpec],
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        unknown = set(specs) - set(SITES)
        if unknown:
            raise InvalidParameterError(
                f"unknown fault sites {sorted(unknown)}; valid sites: {SITES}"
            )
        self._inner = inner
        self._specs: Dict[str, FaultSpec] = dict(specs)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self.injections: Counter = Counter()
        if hasattr(inner, "count_or_none"):
            self.count_or_none = self._wrap_count_or_none

    def __engine_automaton__(self) -> Optional[BackwardSearchAutomaton]:
        """Engine hook: the inner automaton instrumented with the
        ``automaton_*`` fault sites, or ``None`` when the inner index has
        no automaton view (engine consumers then fall back to ``count``)."""
        inner = automaton_of(self._inner)
        if inner is None:
            return None
        return _FaultyAutomaton(self, inner)

    @classmethod
    def failing(cls, inner, rate: float = 1.0, *, seed: int = 0) -> "FaultyIndex":
        """Shorthand: inject errors at ``rate`` on every counting site."""
        spec = FaultSpec(error_rate=rate)
        return cls(
            inner,
            {"count": spec, "count_or_none": spec, "count_many": spec,
             "automaton_count": spec},
            seed=seed,
        )

    @property
    def inner(self):
        """The wrapped, fault-free index."""
        return self._inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # -- counting sites -----------------------------------------------------

    def count(self, pattern: str) -> int:
        self._roll("count")
        return self._maybe_corrupt("count", self._inner.count(pattern), pattern)

    def count_many(self, patterns: Sequence[str]) -> List[int]:
        self._roll("count_many")
        return [self.count(pattern) for pattern in patterns]

    def _wrap_count_or_none(self, pattern: str) -> Optional[int]:
        self._roll("count_or_none")
        value = self._inner.count_or_none(pattern)
        if value is None:
            return None
        return self._maybe_corrupt("count_or_none", value, pattern)

    # -- fault machinery ----------------------------------------------------

    def _roll(self, site: str) -> None:
        spec = self._specs.get(site)
        if spec is None:
            return
        if spec.latency_rate and self._rng.random() < spec.latency_rate:
            self.injections[site, "latency"] += 1
            self._sleep(spec.latency)
        if spec.error_rate and self._rng.random() < spec.error_rate:
            self.injections[site, "error"] += 1
            raise InjectedFault(f"injected fault at call site {site!r}")

    def _maybe_corrupt(self, site: str, value: int, pattern: Optional[str]) -> int:
        spec = self._specs.get(site)
        if spec is None or not spec.corrupt_rate:
            return value
        if self._rng.random() >= spec.corrupt_rate:
            return value
        self.injections[site, "corrupt"] += 1
        if spec.corrupt_mode == "poison":
            # Silent undercount: feasible, but breaks one-sided soundness.
            return max(0, int(value) - 1 - self._rng.randrange(7))
        if spec.corrupt_mode == "bitflip":
            # Silent corruption: flip a low bit of the true count. The
            # result stays feasible (clamped at 0), so only a differential
            # probe against a known count can expose it.
            flipped = int(value) ^ (1 << self._rng.randrange(3))
            return max(0, flipped)
        # Corrupt *detectably*: past the feasible ceiling (which grants the
        # error model up to threshold - 1 of slack) or below zero, so the
        # serving layer's feasibility check can prove it catches them.
        n = self._inner.text_length + getattr(self._inner, "threshold", 1)
        if self._rng.random() < 0.5:
            return n + 1 + self._rng.randrange(1000)
        return -1 - self._rng.randrange(1000)


class HotFaultInjector:
    """Fault injection for the hot-pattern tier's single ``hot_lookup`` site.

    The hot tier is not an estimator proxy — its one call site is the
    store lookup inside :class:`repro.hot.rung.HotTierRung` — so it gets
    a dedicated injector instead of a :class:`FaultyIndex` wrapper.
    :meth:`roll` fires latency/error faults before the lookup;
    :meth:`corrupt` damages a returned count after it (``"poison"``
    silently undercounts, the corruption mode that breaks the tier's
    ``UPPER_BOUND`` soundness without ever looking infeasible).
    """

    def __init__(
        self,
        spec: FaultSpec,
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._spec = spec
        self._rng = random.Random(seed)
        self._sleep = sleep
        self.injections: Counter = Counter()

    def roll(self) -> None:
        spec = self._spec
        if spec.latency_rate and self._rng.random() < spec.latency_rate:
            self.injections["hot_lookup", "latency"] += 1
            self._sleep(spec.latency)
        if spec.error_rate and self._rng.random() < spec.error_rate:
            self.injections["hot_lookup", "error"] += 1
            raise InjectedFault("injected fault at call site 'hot_lookup'")

    def corrupt(self, value: int, ceiling: int) -> int:
        spec = self._spec
        if not spec.corrupt_rate or self._rng.random() >= spec.corrupt_rate:
            return int(value)
        self.injections["hot_lookup", "corrupt"] += 1
        if spec.corrupt_mode == "poison":
            return max(0, int(value) - 1 - self._rng.randrange(7))
        if spec.corrupt_mode == "bitflip":
            return max(0, int(value) ^ (1 << self._rng.randrange(3)))
        if self._rng.random() < 0.5:
            return int(ceiling) + 1 + self._rng.randrange(1000)
        return -1 - self._rng.randrange(1000)


class _FaultyAutomaton(BackwardSearchAutomaton):
    """The automaton view of a :class:`FaultyIndex`: delegates to the inner
    index's automaton with one fault roll per operation (the mid-search
    ``automaton_*`` sites). Only ``count_state`` returns a count, so it is
    the only corruptible automaton site."""

    def __init__(self, owner: FaultyIndex, inner: BackwardSearchAutomaton):
        self._owner = owner
        self._inner = inner

    def start(self, ch: str) -> Optional[Hashable]:
        self._owner._roll("automaton_start")
        return self._inner.start(ch)

    def step(self, state: Hashable, ch: str) -> Optional[Hashable]:
        self._owner._roll("automaton_step")
        return self._inner.step(state, ch)

    def step_many(self, states, ch):
        # One roll for the bulk wave, then one per state at the scalar
        # step rate: a bulk wave faces the same expected fault pressure
        # per state as stepping its states one at a time.
        self._owner._roll("automaton_step_many")
        for _ in states:
            self._owner._roll("automaton_step")
        return self._inner.step_many(states, ch)

    def count_state(self, state: Optional[Hashable]) -> int:
        self._owner._roll("automaton_count")
        value = self._inner.count_state(state)
        if isinstance(value, int):
            return self._owner._maybe_corrupt("automaton_count", value, None)
        return value

    def capabilities(self) -> AutomatonCapabilities:
        return self._inner.capabilities()
