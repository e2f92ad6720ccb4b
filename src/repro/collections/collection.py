"""Indexed document collections: named texts behind one index.

The paper reduces collections to one concatenated text (Section 1); this
module completes the round trip for applications: documents keep their
names, occurrence positions map back to ``(document, offset)`` pairs, and
pattern queries can be answered *per document* — counting, listing the
matching documents, or ranking them.

Two query tiers:

* **exact tier** (always available) — an FM-index with SA samples over
  the concatenation answers ``count``, ``documents_containing`` and
  ``top_documents`` exactly via locate + document mapping;
* **estimated tier** (optional, space-bounded) — a CPST at threshold
  ``l`` answers collection-wide counts exactly above the threshold
  without any locate machinery, for deployments that cannot afford the
  sampled suffix array.

Collections are also *mutable* without rebuilding: :meth:`append` adds
documents to an exact in-memory overlay, :meth:`delete` removes them —
a not-yet-compacted document exactly, a compacted one via a tombstone
whose occurrences are filtered out of every answer through the locate
machinery (so ``count`` stays **exact** even mid-mutation; only the
space-bounded estimated tier declines once tombstones exist, since its
answers cannot be locate-filtered). :meth:`compact` folds the overlay
back into the indexed concatenation. The crash-safe, disk-backed
version of this lifecycle is :class:`repro.live.LiveCorpus`.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.fm import FMIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..errors import InvalidParameterError
from ..space import SpaceReport
from ..textutil import ROW_SEPARATOR, Text


@dataclass(frozen=True)
class Occurrence:
    """One pattern occurrence, located in its document."""

    document: str
    offset: int


class DocumentCollection:
    """Named documents, one concatenated index, per-document queries."""

    def __init__(
        self,
        documents: Dict[str, str] | Sequence[Tuple[str, str]],
        sa_sample_rate: int = 16,
        estimate_threshold: Optional[int] = None,
        separator: str = ROW_SEPARATOR,
    ):
        items = list(documents.items()) if isinstance(documents, dict) else list(documents)
        if not items:
            raise InvalidParameterError("collection must contain documents")
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise InvalidParameterError("document names must be unique")
        if any(not body for _, body in items):
            raise InvalidParameterError("documents must be non-empty")
        # A body containing the separator would silently shift every
        # document boundary after it, corrupting per-document mapping and
        # counts — reject it up front, naming the offending document.
        for name, body in items:
            if separator in body:
                raise InvalidParameterError(
                    f"document {name!r} contains the separator character "
                    f"{separator!r}"
                )
        self._names = names
        self._separator = separator
        self._sa_sample_rate = sa_sample_rate
        self._estimate_threshold = estimate_threshold
        # Mutable overlay: appended-but-not-compacted documents (exact,
        # counted by direct scan) and tombstoned base documents (their
        # occurrences are locate-filtered out of every answer).
        self._delta: Dict[str, str] = {}
        self._tombstones: set = set()
        self._text = Text.from_rows([body for _, body in items], separator=separator)
        # Document boundaries in the concatenation ▷D1▷D2▷…▷:
        # document k occupies [starts[k], starts[k] + len(Dk)).
        self._starts: List[int] = []
        cursor = 1
        for _, body in items:
            self._starts.append(cursor)
            cursor += len(body) + 1
        self._lengths = [len(body) for _, body in items]
        from ..build import BuildContext

        # Both tiers index the same concatenation: share one suffix sort
        # (the FM-index consumes ctx.sa/ctx.bwt, the CPST ctx.structure).
        ctx = BuildContext(self._text)
        self._fm = FMIndex(ctx, sa_sample_rate=sa_sample_rate)
        self._cpst = (
            CompactPrunedSuffixTree(ctx, estimate_threshold)
            if estimate_threshold is not None
            else None
        )

    # -- document mapping -----------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Live document names: indexed (minus tombstoned) then appended."""
        live = [name for name in self._names if name not in self._tombstones]
        live.extend(self._delta)
        return live

    def __len__(self) -> int:
        return len(self.names)

    def document_of(self, position: int) -> Tuple[str, int]:
        """Map a concatenation position to ``(document name, offset)``."""
        index = bisect.bisect_right(self._starts, position) - 1
        if index < 0:
            raise InvalidParameterError(f"position {position} is a separator")
        offset = position - self._starts[index]
        if offset >= self._lengths[index]:
            raise InvalidParameterError(f"position {position} is a separator")
        return self._names[index], offset

    # -- mutation ------------------------------------------------------------

    def _is_live(self, name: str) -> bool:
        if name in self._delta:
            return True
        return name in set(self._names) and name not in self._tombstones

    def append(self, name: str, body: str) -> None:
        """Add one document to the exact in-memory overlay.

        The document participates in every query immediately (by direct
        scan — overlay documents are expected to be few between
        :meth:`compact` calls) without touching the built indexes.
        """
        if not isinstance(name, str) or not name:
            raise InvalidParameterError("document name must be a non-empty string")
        if not body:
            raise InvalidParameterError(f"document {name!r} must be non-empty")
        if self._separator in body:
            raise InvalidParameterError(
                f"document {name!r} contains the separator character "
                f"{self._separator!r}"
            )
        if self._is_live(name):
            raise InvalidParameterError(
                f"a live document named {name!r} already exists"
            )
        self._delta[name] = body

    def delete(self, name: str) -> None:
        """Remove one live document.

        A not-yet-compacted document is removed *exactly* (it only ever
        lived in the overlay). A compacted document is tombstoned: its
        occurrences are filtered out of every locate-backed answer, so
        counts remain exact — at the price of routing ``count`` through
        locate until the next :meth:`compact`.
        """
        if name in self._delta:
            del self._delta[name]
            return
        if name in set(self._names) and name not in self._tombstones:
            self._tombstones.add(name)
            return
        raise InvalidParameterError(f"no live document named {name!r}")

    def compact(self) -> "DocumentCollection":
        """Fold the overlay into a freshly indexed collection (in place).

        Rebuilds the concatenation and both index tiers from the live
        document set; afterwards the overlay is empty and every query
        runs at full index speed again. Returns ``self``.
        """
        live = self.get_documents()
        self.__init__(  # noqa: PLC2801 - deliberate in-place rebuild
            live,
            sa_sample_rate=self._sa_sample_rate,
            estimate_threshold=self._estimate_threshold,
            separator=self._separator,
        )
        return self

    def get_documents(self) -> Dict[str, str]:
        """All live documents, name -> body (indexed order then overlay)."""
        live = {
            name: self._text.raw[start : start + length]
            for name, start, length in zip(
                self._names, self._starts, self._lengths
            )
            if name not in self._tombstones
        }
        live.update(self._delta)
        return live

    @property
    def pending(self) -> int:
        """Overlay mutations awaiting :meth:`compact`."""
        return len(self._delta) + len(self._tombstones)

    # -- queries -----------------------------------------------------------

    def _delta_count(self, pattern: str) -> int:
        from ..live.delta import count_overlapping

        return sum(
            count_overlapping(body, pattern) for body in self._delta.values()
        )

    def count(self, pattern: str) -> int:
        """Total occurrences across all live documents (exact).

        Without tombstones this is the FM count plus the exact overlay
        scan; with tombstones the base contribution is locate-filtered,
        keeping the answer exact at locate cost.
        """
        if not self._tombstones:
            return self._fm.count(pattern) + self._delta_count(pattern)
        base = sum(
            1
            for position in self._fm.locate(pattern)
            if self.document_of(position)[0] not in self._tombstones
        )
        return base + self._delta_count(pattern)

    def count_estimated(self, pattern: str) -> Optional[int]:
        """Threshold-tier count: exact when >= l, None below (or when the
        collection was built without an estimate tier, or tombstones are
        pending — a CPST answer cannot be locate-filtered, so it can no
        longer be certified)."""
        if self._cpst is None or self._tombstones:
            return None
        value = self._cpst.count_or_none(pattern)
        if value is None:
            return None
        return value + self._delta_count(pattern)

    def occurrences(self, pattern: str) -> List[Occurrence]:
        """Every live occurrence with its document and in-document offset."""
        found = [
            Occurrence(*self.document_of(position))
            for position in self._fm.locate(pattern)
        ]
        if self._tombstones:
            found = [
                occ for occ in found if occ.document not in self._tombstones
            ]
        for name, body in self._delta.items():
            offset = body.find(pattern)
            while offset != -1:
                found.append(Occurrence(name, offset))
                offset = body.find(pattern, offset + 1)
        return found

    def documents_containing(self, pattern: str) -> List[str]:
        """Names of live documents containing the pattern, in live order."""
        seen = {occ.document for occ in self.occurrences(pattern)}
        return [name for name in self.names if name in seen]

    def count_in_document(self, pattern: str, name: str) -> int:
        """Occurrences of the pattern inside one live document."""
        if not self._is_live(name):
            raise InvalidParameterError(f"unknown document {name!r}")
        return sum(1 for occ in self.occurrences(pattern) if occ.document == name)

    def top_documents(self, pattern: str, k: int = 5) -> List[Tuple[str, int]]:
        """The ``k`` documents with the most occurrences, descending."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        tally = Counter(occ.document for occ in self.occurrences(pattern))
        order = {name: i for i, name in enumerate(self.names)}
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], order[kv[0]]))
        return ranked[:k]

    def snippet(self, occurrence: Occurrence, context: int = 20) -> str:
        """Text around one occurrence, extracted from the index alone
        (or from the overlay body for a not-yet-compacted document)."""
        if occurrence.document in self._delta:
            body = self._delta[occurrence.document]
            lo = max(0, occurrence.offset - context)
            hi = min(len(body), occurrence.offset + context)
            return body[lo:hi]
        name_index = self._names.index(occurrence.document)
        start_in_text = self._starts[name_index] + occurrence.offset
        lo = max(self._starts[name_index], start_in_text - context)
        hi = min(
            self._starts[name_index] + self._lengths[name_index],
            start_in_text + context,
        )
        return self._fm.extract(lo, hi - lo)

    # -- sharding -------------------------------------------------------------

    def to_shard_plan(self, shards: int) -> "ShardPlan":
        """A document-aligned :class:`~repro.shard.plan.ShardPlan` over this
        collection's documents (size-balanced greedy bin-packing), ready
        for :func:`repro.shard.build_sharded`."""
        from ..shard import ShardPlan

        return ShardPlan.for_documents(
            list(self.get_documents().items()),
            shards,
            separator=self._separator,
        )

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        report = self._fm.space_report()
        components = {f"fm.{k}": v for k, v in report.components.items()}
        overhead = {f"fm.{k}": v for k, v in report.overhead.items()}
        if self._cpst is not None:
            estimate = self._cpst.space_report()
            components.update({f"cpst.{k}": v for k, v in estimate.components.items()})
            overhead.update({f"cpst.{k}": v for k, v in estimate.overhead.items()})
        if self._delta:
            components["delta.text"] = 8 * sum(
                len(body) for body in self._delta.values()
            )
        return SpaceReport("DocumentCollection", components, overhead)

    def __repr__(self) -> str:
        extra = f", pending={self.pending}" if self.pending else ""
        return (
            f"DocumentCollection(documents={len(self)}, "
            f"chars={len(self._text)}{extra})"
        )
