"""Generation export: freeze one live-corpus snapshot into shared segments.

A **generation** is the daemon's unit of serving state: an immutable set
of REPROSEG segments resident in shared memory, plus the serving
metadata the supervisor needs to merge per-segment answers soundly. One
generation captures the live corpus at one instant — the compacted shard
set *and* the uncompacted delta, which (being separator-free documents)
exports exactly as one more segment holding an FM-index over the joined
delta text. Tombstones cannot be exported (the shards only answer in
intervals), so their lengths ride along in the generation record and
widen served intervals exactly as :meth:`repro.live.delta.DeltaShard.widening`
does in-process.

The :class:`GenerationPublisher` is the bridge from the live plane's
durability machinery to the serving plane's shared memory: it snapshots
the corpus atomically (:meth:`~repro.live.corpus.LiveCorpus.publish_snapshot`),
serialises every piece through the PR 7 storage protocol
(:func:`~repro.parallel.segment.write_estimator_segment` over
``bits/storage.py`` exports), and publishes the blobs into a fresh,
per-generation :class:`~repro.parallel.pool.SegmentPool`. Fault-injection
boundaries (``publish_export`` between snapshot and serialisation,
``publish_segments`` between serialisation and shared-memory publication)
let the chaos suite kill the publisher at every point and assert the
supervisor either serves the old generation untouched or the new one
complete — never a torn mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import InvalidParameterError
from ..parallel.pool import SegmentPool, SegmentRef
from ..parallel.segment import write_estimator_segment
from ..shard.merge import merged_threshold
from ..textutil import Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..live.corpus import LiveCorpus
    from ..service.faults import DaemonFaultInjector

#: Reserved segment name for the exported delta index. Shard names are
#: ``s<i>`` (:class:`~repro.shard.plan.ShardPlan`), so no collision.
DELTA_SEGMENT = "live-delta"


@dataclass(frozen=True)
class Generation:
    """One immutable serving state: segments + tombstone widening terms.

    ``number`` is the daemon's monotone serving epoch; it starts at the
    corpus manifest generation and advances on every publish (a delta
    publish bumps the epoch without a new manifest, so epoch >=
    ``corpus_generation`` always). The record is frozen: a generation
    never changes after publication — readers flip *between* generations,
    they never observe one mutating.
    """

    number: int
    corpus_generation: int
    segments: Tuple[SegmentRef, ...]
    tombstones: Tuple[int, ...]
    documents: int

    def widening(self, pattern_length: int) -> int:
        """Sound tombstone widening for this pattern length:
        ``sum over tombstones of max(0, m - |P| + 1)``."""
        if pattern_length < 1:
            raise InvalidParameterError(
                f"pattern length must be >= 1, got {pattern_length}"
            )
        return sum(
            max(0, length - pattern_length + 1) for length in self.tombstones
        )

    @property
    def threshold(self) -> int:
        """Static width bound of intervals served from this generation."""
        base = (
            merged_threshold([ref.threshold for ref in self.segments])
            if self.segments
            else 1
        )
        return base + sum(self.tombstones)

    @property
    def text_length(self) -> int:
        return sum(ref.text_length for ref in self.segments)

    @property
    def characters(self) -> str:
        merged: set = set()
        for ref in self.segments:
            merged.update(ref.characters)
        return "".join(sorted(merged))

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe status body (the control socket's ``generation``)."""
        return {
            "number": self.number,
            "corpus_generation": self.corpus_generation,
            "documents": self.documents,
            "tombstones": len(self.tombstones),
            "threshold": self.threshold,
            "segments": [
                {
                    "name": ref.name,
                    "nbytes": ref.nbytes,
                    "error_model": ref.error_model,
                    "threshold": ref.threshold,
                    "text_length": ref.text_length,
                }
                for ref in self.segments
            ],
        }


class GenerationPublisher:
    """Export a live corpus snapshot as a published generation.

    Stateless between calls (crash-only: a publisher that dies is simply
    re-run against the corpus, which still holds every acknowledged
    mutation). The returned :class:`~repro.parallel.pool.SegmentPool` is
    owned by the caller — the supervisor keeps it alive while the
    generation serves and unlinks it when the last reader detaches.
    """

    def __init__(
        self,
        corpus: "LiveCorpus",
        *,
        injector: Optional["DaemonFaultInjector"] = None,
    ):
        self._corpus = corpus
        self._injector = injector

    def _crash_point(self, site: str) -> None:
        if self._injector is not None:
            self._injector.crash_point(site)

    def export(self) -> Tuple[List[Tuple[str, bytes]], Dict[str, object]]:
        """Serialise the corpus's current state to segment blobs.

        Returns ``(blobs, snapshot_meta)`` where ``snapshot_meta`` holds
        the corpus generation, tombstone lengths and live document count
        captured in the *same* atomic snapshot the blobs came from.
        """
        from ..baselines.fm import FMIndex

        manifest, sharded, delta_items, tombstones = (
            self._corpus.publish_snapshot()
        )
        self._crash_point("publish_export")
        blobs: List[Tuple[str, bytes]] = []
        if sharded is not None:
            for name in sharded.shard_names:
                if name == DELTA_SEGMENT:
                    raise InvalidParameterError(
                        f"shard name {name!r} collides with the reserved "
                        "delta segment name"
                    )
                blobs.append(
                    (
                        name,
                        write_estimator_segment(
                            sharded.estimator_for(name), name
                        ),
                    )
                )
        base_documents = 0
        if sharded is not None:
            base_documents = sum(
                len(entry.documents) for entry in manifest.shards
            )
        if delta_items:
            bodies = [body for _, body in delta_items]
            text = Text.from_rows(
                bodies, separator=manifest.config.separator
            )
            blobs.append(
                (
                    DELTA_SEGMENT,
                    write_estimator_segment(FMIndex(text), DELTA_SEGMENT),
                )
            )
        meta: Dict[str, object] = {
            "corpus_generation": manifest.generation,
            "tombstones": tuple(tombstones),
            "documents": base_documents - len(tombstones) + len(delta_items),
        }
        self._crash_point("publish_segments")
        return blobs, meta

    def publish(self, number: int) -> Tuple[Generation, SegmentPool]:
        """Export and copy a generation into fresh shared-memory blocks.

        The pool's blocks are verified on publish (the pool re-parses
        every blob with digest checks before any worker sees it), so a
        generation that publishes at all is never torn.
        """
        blobs, meta = self.export()
        pool = SegmentPool(name_prefix=f"repro-daemon-g{number}")
        refs: List[SegmentRef] = []
        try:
            for name, blob in blobs:
                refs.append(pool.publish(name, blob).ref)
        except Exception:
            pool.close()
            raise
        generation = Generation(
            number=number,
            corpus_generation=int(meta["corpus_generation"]),  # type: ignore[arg-type]
            segments=tuple(refs),
            tombstones=tuple(meta["tombstones"]),  # type: ignore[arg-type]
            documents=int(meta["documents"]),  # type: ignore[arg-type]
        )
        return generation, pool
