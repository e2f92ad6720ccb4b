"""The frequency-aware hot-pattern store.

Three structures under one lock:

- a :class:`SpaceSavingTable` monitoring the top-k query patterns.
  Monitored entries carry an exact, *ladder-verified* occurrence count
  tagged with the epoch it was verified in — only epoch-current counts
  are ever served as ``EXACT``.
- an **answer sketch** (:class:`CountMinSketch`) filled with every
  corpus window of length ``1..max_len``. Its estimate is a sound
  upper bound on the true count of any pattern up to ``max_len``, so a
  warm-tail hit is served as ``UPPER_BOUND`` straight into the ladder's
  error algebra. Deletes never decrement (still sound); appends add
  the new document's windows so the bound keeps covering new text.
- a **frequency sketch** over query fingerprints that gates admission:
  only patterns seen at least ``warm_min`` times are answered from the
  sketch, and a pattern hot enough to displace the Space-Saving minimum
  is deliberately *declined* once so the ladder's exact answer can be
  captured by :meth:`observe` (promotion-by-verification).

Epoch discipline — the soundness spine of the whole tier:

- Every corpus mutation (append, delete, compaction commit, daemon
  generation flip) bumps the epoch.
- A monitored entry whose ``verified_epoch < epoch`` is **stale**: it is
  demoted to ``UPPER_BOUND`` with ``hi = count + Σ max(0, m - |P| + 1)``
  over appended lengths and ``lo = max(0, count - Σ max(0, m - |P| + 1))``
  over deleted lengths. With no interleaved slack (a pure compaction or
  flip, which rewrites but does not change the corpus) that interval is
  ``[c, c]`` — still served as ``UPPER_BOUND``, never ``EXACT``, until
  the ladder re-verifies it.
- Past ``stale_limit`` accumulated mutations the verified state is
  dropped entirely rather than served arbitrarily wide.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.interface import ErrorModel
from ..space import SpaceReport
from .fingerprint import RollingKarpRabin
from .sketch import CountMinSketch
from .topk import SpaceSavingTable


@dataclass(frozen=True)
class HotAnswer:
    """One hot-tier answer: served scalar plus its sound interval.

    Immutable, so a verified entry builds its ``EXACT`` answer once and
    every hit in that epoch returns the same object.
    """

    count: int
    lo: int
    hi: int
    model: ErrorModel
    #: "topk" (epoch-current exact), "stale" (demoted top-k), "sketch".
    source: str
    epoch: int


@dataclass
class HotTierStats:
    """Operator-facing counters (reported by health/space/bench)."""

    lookups: int = 0
    exact_hits: int = 0
    stale_hits: int = 0
    sketch_hits: int = 0
    misses: int = 0
    promotions: int = 0
    verifications: int = 0
    demotions: int = 0
    evictions: int = 0
    shed_upgrades: int = 0
    fanouts_skipped: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.stale_hits + self.sketch_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "exact_hits": self.exact_hits,
            "stale_hits": self.stale_hits,
            "sketch_hits": self.sketch_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "promotions": self.promotions,
            "verifications": self.verifications,
            "demotions": self.demotions,
            "evictions": self.evictions,
            "shed_upgrades": self.shed_upgrades,
            "fanouts_skipped": self.fanouts_skipped,
        }


class HotPatternTier:
    """Top-k + count–min hot store; thread-safe behind one RLock."""

    def __init__(
        self,
        *,
        capacity: int = 64,
        sketch_width: int = 4096,
        sketch_depth: int = 4,
        freq_width: int = 1024,
        freq_depth: int = 2,
        max_len: int = 16,
        warm_min: int = 2,
        stale_limit: int = 32,
        reverify_every: int = 64,
        seed: int = 0,
    ) -> None:
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if warm_min < 1:
            raise ValueError("warm_min must be >= 1")
        if reverify_every < 2:
            raise ValueError("reverify_every must be >= 2")
        self._kr = RollingKarpRabin()
        self._table = SpaceSavingTable(capacity)
        self._freq = CountMinSketch(freq_width, freq_depth, seed=seed + 1)
        self._answers: Optional[CountMinSketch] = None
        self._sketch_geometry = (sketch_width, sketch_depth, seed)
        self._max_len = int(max_len)
        self._warm_min = int(warm_min)
        self._stale_limit = int(stale_limit)
        self._reverify_every = int(reverify_every)
        #: Appended lengths the sketch could not ingest as text (widen it).
        self._sketch_slack: List[int] = []
        self._epoch = 0
        self._text_length = 0
        self._lock = threading.RLock()
        self.stats = HotTierStats()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_documents(
        cls, documents: Iterable[Tuple[str, str]], **kwargs: object
    ) -> "HotPatternTier":
        """Build with the answer sketch filled from ``(name, body)`` docs."""
        tier = cls(**kwargs)  # type: ignore[arg-type]
        width, depth, seed = tier._sketch_geometry
        tier._answers = CountMinSketch(width, depth, seed=seed)
        for _, body in documents:
            tier._ingest(body)
            tier._text_length += len(body)
        return tier

    @classmethod
    def from_text(cls, text: str, **kwargs: object) -> "HotPatternTier":
        return cls.from_documents([("text", text)], **kwargs)

    def _ingest(self, body: str) -> None:
        """Add every window of ``body`` (lengths 1..max_len) to the sketch."""
        if self._answers is None or not body:
            return
        codes = self._kr.encode(body)
        fps = None
        for length in range(min(self._max_len, len(body))):
            fps = self._kr.extend(fps, codes, length)
            self._answers.add_many(fps)

    # ------------------------------------------------------------------
    # serving

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def max_len(self) -> int:
        return self._max_len

    def _stale_interval(self, entry, plen: int) -> Optional[Tuple[int, int]]:
        """Widened ``[lo, hi]`` for a stale verified entry, or None."""
        if len(entry.stale_appends) + len(entry.stale_deletes) > self._stale_limit:
            return None
        add = sum(max(0, m - plen + 1) for m in entry.stale_appends)
        sub = sum(max(0, m - plen + 1) for m in entry.stale_deletes)
        hi = int(entry.verified_count) + add
        lo = max(0, int(entry.verified_count) - sub)
        return lo, hi

    def _fingerprint(self, pattern: str, entry) -> int:
        """``pattern``'s fingerprint: the one its top-k entry keeps when it
        is monitored, else computed (one pass over its characters)."""
        return entry.fingerprint if entry is not None else self._kr.fingerprint(pattern)

    def lookup(self, pattern: str) -> Optional[HotAnswer]:
        """Answer from the store, or None to fall through to the ladder.

        A returned answer is always sound: ``EXACT`` only for an
        epoch-current verified count, ``UPPER_BOUND`` with a containing
        interval otherwise. An epoch-current verified hit is one table
        probe and returns the answer built when the count was verified.
        """
        if not pattern:
            return None
        with self._lock:
            stats = self.stats
            stats.lookups += 1
            plen = len(pattern)
            entry = self._table.hit(pattern)
            if entry is not None and entry.verified_count is not None:
                if entry.verified_epoch == self._epoch:
                    stats.exact_hits += 1
                    return entry.answer
                interval = self._stale_interval(entry, plen)
                if interval is None:
                    # Too mutated to bound usefully: forget, re-verify.
                    entry.drop_verification()
                else:
                    lo, hi = interval
                    stats.stale_hits += 1
                    return HotAnswer(
                        hi, lo, hi, ErrorModel.UPPER_BOUND, "stale", self._epoch
                    )
            if self._answers is not None and plen <= self._max_len:
                fp = self._fingerprint(pattern, entry)
                freq = self._freq.estimate(fp)
                if freq >= self._warm_min:
                    retry = (
                        entry is not None
                        and entry.verified_count is None
                        and entry.hits % self._reverify_every == 0
                    )
                    if retry or (
                        entry is None and self._table.would_admit(freq)
                    ):
                        # Hot enough for the top-k: decline so the
                        # ladder's answer reaches observe(). A pattern
                        # the ladder cannot answer exactly is admitted
                        # unverified there, so the decline happens once
                        # (plus a retry every ``reverify_every`` hits in
                        # case the ladder regains exactness later).
                        stats.misses += 1
                        return None
                    hi = self._answers.estimate(fp)
                    if self._sketch_slack:
                        hi += sum(
                            max(0, m - plen + 1) for m in self._sketch_slack
                        )
                    stats.sketch_hits += 1
                    return HotAnswer(
                        hi, 0, hi, ErrorModel.UPPER_BOUND, "sketch", self._epoch
                    )
            stats.misses += 1
            return None

    def lookup_exact(self, pattern: str) -> Optional[int]:
        """Epoch-current exact count or None (the fan-out short-circuit).

        Unlike :meth:`lookup` this never returns an upper bound: the
        sharded/process/daemon executors only skip the fan-out when the
        hot answer is exactly the merged answer they would compute.
        """
        if not pattern:
            return None
        with self._lock:
            self.stats.lookups += 1
            entry = self._table.hit(pattern)
            if (
                entry is not None
                and entry.verified_count is not None
                and entry.verified_epoch == self._epoch
            ):
                self.stats.exact_hits += 1
                self.stats.fanouts_skipped += 1
                return int(entry.verified_count)
            self.stats.misses += 1
            return None

    # ------------------------------------------------------------------
    # feedback

    def observe(self, pattern: str, count: int, model: ErrorModel) -> None:
        """Digest one ladder-served outcome.

        Every outcome bumps the frequency sketch (that is what makes a
        pattern warm); an ``EXACT`` outcome additionally promotes the
        pattern into the top-k (Space-Saving admission) and records the
        verified count at the current epoch.
        """
        if not pattern:
            return
        with self._lock:
            entry = self._table.get(pattern)
            fp = self._fingerprint(pattern, entry)
            self._freq.add(fp)
            if model is not ErrorModel.EXACT:
                if entry is None:
                    freq = self._freq.estimate(fp)
                    if (
                        freq >= self._warm_min
                        and len(pattern) <= self._max_len
                        and self._table.would_admit(freq)
                    ):
                        # The ladder could not verify this warm pattern;
                        # admit it unverified so the next lookup serves
                        # the sketch bound instead of declining again.
                        self._table.admit(pattern, freq, fp)
                        self.stats.evictions = self._table.evictions
                return
            if entry is None:
                freq = self._freq.estimate(fp)
                before = len(self._table)
                entry = self._table.admit(pattern, freq, fp)
                if entry is None:
                    return
                if len(self._table) != before or self._table.evictions:
                    self.stats.promotions += 1
            count = int(count)
            entry.verified_count = count
            entry.verified_epoch = self._epoch
            entry.answer = HotAnswer(
                count, count, count, ErrorModel.EXACT, "topk", self._epoch
            )
            entry.stale_appends.clear()
            entry.stale_deletes.clear()
            self.stats.verifications += 1
            self.stats.evictions = self._table.evictions

    def observe_exact(self, pattern: str, count: int) -> None:
        self.observe(pattern, count, ErrorModel.EXACT)

    def note_warm(self, pattern: str) -> None:
        """Frequency-only feedback (shed traffic that got no ladder answer)."""
        if not pattern:
            return
        with self._lock:
            self._freq.add(self._fingerprint(pattern, self._table.get(pattern)))

    def note_shed_upgrade(self) -> None:
        with self._lock:
            self.stats.shed_upgrades += 1

    # ------------------------------------------------------------------
    # mutation plane

    def _demote_all(self) -> None:
        demoted = 0
        for entry in self._table.entries():
            if entry.verified_count is not None and entry.verified_epoch == self._epoch:
                demoted += 1
        self._epoch += 1
        self.stats.demotions += demoted

    def note_append(self, body: "str | int") -> None:
        """A document landed: bump epoch, widen ``hi`` slack, feed sketch.

        Pass the body text when available — the answer sketch ingests its
        windows and stays slack-free; pass just the length otherwise and
        the sketch widens every estimate by the worst-case window count.
        """
        with self._lock:
            if isinstance(body, str):
                length, text = len(body), body
            else:
                length, text = int(body), None
            self._demote_all()
            self._text_length += length
            for entry in self._table.entries():
                if entry.verified_count is not None:
                    entry.stale_appends.append(length)
            if self._answers is not None and length:
                if text is not None:
                    self._ingest(text)
                else:
                    self._sketch_slack.append(length)

    def note_delete(self, length: int) -> None:
        """A document left: bump epoch, widen ``lo`` slack.

        The answer sketch is untouched — un-decremented counts only
        overestimate, which ``UPPER_BOUND`` permits.
        """
        with self._lock:
            self._demote_all()
            self._text_length = max(0, self._text_length - int(length))
            for entry in self._table.entries():
                if entry.verified_count is not None:
                    entry.stale_deletes.append(int(length))

    def bump_epoch(self) -> None:
        """Corpus rewrite with unchanged content (compaction, flip).

        Verified counts keep their value but are never again served as
        ``EXACT`` until re-verified against the new generation.
        """
        with self._lock:
            self._demote_all()

    # ------------------------------------------------------------------
    # lifecycle

    def rebuild(
        self, documents: Optional[Iterable[Tuple[str, str]]] = None
    ) -> None:
        """Discard all cached state (used by watchdog quarantine-rebuild)."""
        with self._lock:
            self._table.clear()
            self._freq = self._freq.clone_empty()
            self._sketch_slack.clear()
            self._epoch += 1
            if documents is not None:
                width, depth, seed = self._sketch_geometry
                self._answers = CountMinSketch(width, depth, seed=seed)
                self._text_length = 0
                for _, body in documents:
                    self._ingest(body)
                    self._text_length += len(body)
            elif self._answers is not None:
                # No corpus to re-ingest: a zeroed sketch would answer 0
                # for patterns that do occur, so the warm tail goes dark
                # (declining is always sound) until the next full build.
                self._answers = None

    def space_report(self) -> SpaceReport:
        with self._lock:
            table_bits = sum(
                (len(e.pattern) * 32 + 4 * 64)
                + 64 * (len(e.stale_appends) + len(e.stale_deletes))
                for e in self._table.entries()
            )
            components = {
                "topk_table": table_bits,
                "freq_sketch": self._freq.space_bits(),
            }
            if self._answers is not None:
                components["answer_sketch"] = self._answers.space_bits()
            # Each entry also keeps its pattern's fingerprint, which is
            # derived from the pattern, so it counts as overhead.
            overhead = {
                "fingerprint_state": 2 * 64,
                "entry_fingerprints": 64 * len(self._table),
            }
            return SpaceReport("hot", components=components, overhead=overhead)
