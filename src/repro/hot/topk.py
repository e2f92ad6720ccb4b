"""Space-Saving top-k table for the hot-pattern tier.

Metwally et al.'s Space-Saving summary over the *query* stream: at most
``capacity`` monitored patterns; an arriving heavy pattern replaces the
current minimum, inheriting its hit count as the classic overestimate
bound. Each monitored entry additionally carries the serving state the
tier layers on top — the ladder-verified exact count and the epoch it
was verified in, plus the append/delete slack accumulated since.

The table keeps its minimum up to date instead of rescanning for it:
it counts how many entries sit at each hit value, so a hit moves one
entry up one level and the minimum rises exactly when its level
empties. :meth:`SpaceSavingTable.would_admit` is then O(1); only an
eviction scans, for the first entry at the minimum in insertion order
(the victim a ``min`` over the entries picks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tier import HotAnswer


@dataclass
class HotEntry:
    """One monitored pattern: frequency estimate + verified answer."""

    pattern: str
    #: Space-Saving frequency estimate (>= true arrivals since admission).
    hits: int
    #: The pattern's Karp–Rabin fingerprint, kept so a monitored pattern's
    #: sketch probes never recompute it.
    fingerprint: int
    #: Overestimate bound inherited from the evicted minimum.
    overestimate: int = 0
    #: Ladder-verified exact occurrence count (None until verified).
    verified_count: Optional[int] = None
    #: Epoch the count was verified in; stale when < the tier's epoch.
    verified_epoch: int = -1
    #: Appended document lengths since verification (widen ``hi``).
    stale_appends: List[int] = field(default_factory=list)
    #: Deleted document lengths since verification (widen ``lo``).
    stale_deletes: List[int] = field(default_factory=list)
    #: The ``EXACT`` answer for ``verified_count`` at ``verified_epoch``,
    #: built once at verification and served as is while it is current.
    answer: Optional["HotAnswer"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def drop_verification(self) -> None:
        self.verified_count = None
        self.verified_epoch = -1
        self.stale_appends.clear()
        self.stale_deletes.clear()
        self.answer = None


class SpaceSavingTable:
    """Bounded heavy-hitter table with O(1) hit and admit test, O(k) replace.

    Entries' ``hits`` change only through :meth:`hit` and :meth:`admit`;
    the kept minimum relies on it.
    """

    __slots__ = ("_capacity", "_entries", "evictions", "_levels", "_min")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("space-saving capacity must be >= 1")
        self._capacity = int(capacity)
        self._entries: Dict[str, HotEntry] = {}
        self.evictions = 0
        #: Number of entries at each hit value (no zero counts kept).
        self._levels: Dict[int, int] = {}
        #: Smallest hit value among the entries (0 when empty).
        self._min = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pattern: str) -> bool:
        return pattern in self._entries

    def entries(self) -> Iterator[HotEntry]:
        return iter(self._entries.values())

    def get(self, pattern: str) -> Optional[HotEntry]:
        return self._entries.get(pattern)

    def min_hits(self) -> int:
        """Smallest monitored frequency (0 while the table has room)."""
        if len(self._entries) < self._capacity:
            return 0
        return self._min

    def hit(self, pattern: str) -> Optional[HotEntry]:
        """Bump a monitored pattern; None when it is not monitored."""
        entry = self._entries.get(pattern)
        if entry is not None:
            hits = entry.hits
            entry.hits = hits + 1
            levels = self._levels
            left = levels[hits] - 1
            if left:
                levels[hits] = left
            else:
                del levels[hits]
                if hits == self._min:
                    # The bumped entry now sits at hits + 1 and every
                    # other one was above the emptied minimum.
                    self._min = hits + 1
            levels[hits + 1] = levels.get(hits + 1, 0) + 1
        return entry

    def would_admit(self, freq: int) -> bool:
        return len(self._entries) < self._capacity or freq > self._min

    def admit(self, pattern: str, freq: int, fingerprint: int) -> Optional[HotEntry]:
        """Insert ``pattern``, evicting the minimum if it must and may.

        Returns the (possibly pre-existing) entry, or None when the
        table is full and ``freq`` does not beat the current minimum.
        A new entry keeps ``fingerprint``.
        """
        entry = self._entries.get(pattern)
        if entry is not None:
            return entry
        levels = self._levels
        if len(self._entries) < self._capacity:
            hits = max(1, int(freq))
            if not self._entries or hits < self._min:
                self._min = hits
            entry = HotEntry(pattern, hits=hits, fingerprint=fingerprint)
            self._entries[pattern] = entry
            levels[hits] = levels.get(hits, 0) + 1
            return entry
        floor = self._min
        if freq <= floor:
            return None
        # The first entry at the minimum in insertion order, as a
        # ``min`` over the entries would pick.
        victim = next(e for e in self._entries.values() if e.hits == floor)
        del self._entries[victim.pattern]
        self.evictions += 1
        entry = HotEntry(
            pattern, hits=floor + 1, overestimate=floor, fingerprint=fingerprint
        )
        self._entries[pattern] = entry
        left = levels[floor] - 1
        if left:
            levels[floor] = left
        else:
            del levels[floor]
            self._min = floor + 1
        levels[floor + 1] = levels.get(floor + 1, 0) + 1
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self._levels.clear()
        self._min = 0
