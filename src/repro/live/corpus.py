"""The live corpus: crash-safe incremental ingest behind one estimator.

:class:`LiveCorpus` routes document appends and deletes into a small
mutable, *exact* delta shard (:class:`~repro.live.delta.DeltaShard`)
merged with the immutable sharded index set of the previous compaction
(:class:`~repro.shard.estimator.ShardedEstimator`) through the standard
error algebra. Every mutation is written to the write-ahead log and
fsynced **before** it is applied in memory or acknowledged, so the
answer to "what survives a crash?" is always "everything the caller was
told succeeded".

Counting semantics — for a pattern ``P`` with delta count ``d`` (exact),
merged shard interval ``[s_lo, s_hi]`` and tombstone widening ``W``
(see :meth:`DeltaShard.widening`), the served interval is::

    [max(0, s_lo - W) + d,  s_hi + d]

which is sound for any subset of tombstoned occurrences: deleting a
compacted document can only *remove* occurrences from the shard answer,
at most ``max(0, m - |P| + 1)`` of them, and the exact delta adds on
top. The scalar :meth:`count` is the interval's upper end — the same
over-count-never-under-count convention the shard merge uses.

Durability layout of a corpus directory::

    wal.log                     append-only CRC-framed mutation log
    manifest-<gen>.rman         atomic commit point (newest valid wins)
    seg-<gen>-<shard>.rseg      per-shard source text, checksummed
    idx-<gen>-<shard>.ridx      per-shard index (rebuilt if corrupt)
    cache/                      content-addressed build artifact cache

Recovery (:meth:`LiveCorpus.open`) is: load the newest manifest that
passes its integrity checks, digest-verify its segments, load (or
rebuild from segment) each shard index, then replay the WAL tail —
records at or after the manifest's sequence horizon — into a fresh
delta. A crash at *any* boundary leaves the directory recoverable to a
state containing every acknowledged mutation.
"""

from __future__ import annotations

import functools
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..build import ArtifactCache, BuildContext
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import (
    IndexCorruptedError,
    InvalidParameterError,
    PatternError,
    ReproError,
)
from ..io import load_index, save_index
from ..service.deadline import Deadline
from ..shard.build import effective_shard_threshold
from ..shard.estimator import ShardedEstimator, ShardProbe
from ..space import SpaceReport
from ..textutil import Alphabet, Text
from .delta import DeltaShard
from .manifest import (
    LiveConfig,
    Manifest,
    commit_manifest,
    latest_manifest,
    verify_segments,
)
from .wal import WalRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.faults import DiskFaultInjector
    from .compactor import CompactionReport

WAL_NAME = "wal.log"
CACHE_DIR = "cache"


def _materialize(
    base_documents: Dict[str, str], records: Sequence[WalRecord]
) -> DeltaShard:
    """Fold a WAL tail into the delta state it implies over ``base``.

    Replay is defensive: a record that no longer applies (its document
    vanished with an older generation, or a duplicate survived a partial
    trim) is skipped rather than trusted — replay must converge on *a*
    consistent state from any sound log prefix.
    """
    delta = DeltaShard()
    for record in records:
        live_in_base = (
            record.name in base_documents
            and not delta.is_tombstoned(record.name)
        )
        if record.op == "append":
            if record.name in delta or live_in_base:
                continue
            delta.add(record.name, record.body or "")
        else:
            if record.name in delta:
                delta.remove(record.name)
            elif live_in_base:
                delta.tombstone(record.name, len(base_documents[record.name]))
    return delta


def _assemble_shards(
    directory: Path,
    manifest: Manifest,
    cache: ArtifactCache,
) -> Tuple[Optional[ShardedEstimator], Dict[str, str], int]:
    """Reconstruct the immutable shard set one manifest describes.

    Segments are digest-verified (a bad segment fails the whole
    generation — the caller falls back to an older manifest); persisted
    index files are *accelerators*: one that is missing, torn, or
    mismatched is rebuilt from its segment through the artifact cache,
    never trusted. Returns ``(estimator | None, base documents,
    indexes rebuilt)``.
    """
    from ..build.pipeline import spec_for

    texts_raw = verify_segments(directory, manifest)
    config = manifest.config
    base_documents: Dict[str, str] = {}
    shard_texts: List[Tuple[str, Text]] = []
    for entry in manifest.shards:
        bodies = [
            row for row in texts_raw[entry.name].split(config.separator) if row
        ]
        if len(bodies) != len(entry.documents):
            raise IndexCorruptedError(
                f"{entry.segment}: holds {len(bodies)} document(s) but the "
                f"manifest names {len(entry.documents)}"
            )
        for name, body in zip(entry.documents, bodies):
            base_documents[name] = body
        shard_texts.append(
            (entry.name, Text.from_rows(bodies, separator=config.separator))
        )
    if not shard_texts:
        return None, {}, 0

    l_shard = effective_shard_threshold(
        config.kind, config.l, len(shard_texts), config.policy
    )
    spec = spec_for(config.kind, l_shard)
    estimators: List[Tuple[str, OccurrenceEstimator]] = []
    texts: Dict[str, Text] = {}
    builders: Dict[str, Callable[[], OccurrenceEstimator]] = {}
    rebuilt = 0
    for entry, (name, text) in zip(manifest.shards, shard_texts):
        build_fresh = functools.partial(
            spec.build, BuildContext(text, cache=cache, name=name)
        )
        try:
            index = load_index(directory / entry.index)
        except (ReproError, OSError):
            index = build_fresh()
            rebuilt += 1
        estimators.append((name, index))
        texts[name] = text
        builders[name] = build_fresh
    return (
        ShardedEstimator(estimators, texts=texts, builders=builders),
        base_documents,
        rebuilt,
    )


class LiveCorpus(OccurrenceEstimator):
    """A mutable, crash-safe document corpus served as one estimator.

    Construct via :meth:`create` (new directory), :meth:`open` (recover
    an existing one) or :meth:`attach` (whichever applies). All
    mutations and the compaction commit take the internal lock, so one
    corpus instance is safe for concurrent readers and writers; only one
    process may own a directory at a time.
    """

    accepts_deadline = True

    def __init__(
        self,
        directory: Path,
        *,
        manifest: Manifest,
        wal: WriteAheadLog,
        sharded: Optional[ShardedEstimator],
        base_documents: Dict[str, str],
        tail: List[WalRecord],
        next_seq: int,
        cache: ArtifactCache,
        injector: Optional["DiskFaultInjector"] = None,
        indexes_rebuilt: int = 0,
        manifests_rejected: int = 0,
    ):
        self._directory = directory
        self._manifest = manifest
        self._wal = wal
        self._sharded = sharded
        self._base_documents = base_documents
        self._tail = tail
        self._delta = _materialize(base_documents, tail)
        self._next_seq = next_seq
        self._cache = cache
        self._injector = injector
        self._lock = threading.RLock()
        self._commit_listeners: List[Callable[[Manifest], None]] = []
        self._hot = None
        #: Recovery telemetry: how much the last open had to repair.
        self.indexes_rebuilt = indexes_rebuilt
        self.manifests_rejected = manifests_rejected

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        *,
        kind: str = "cpst",
        l: int = 64,
        shards: int = 2,
        policy: str = "split",
        separator: Optional[str] = None,
        injector: Optional["DiskFaultInjector"] = None,
    ) -> "LiveCorpus":
        """Initialise a fresh corpus directory (generation 0, no shards).

        The generation-0 manifest is committed immediately so the build
        configuration is durable from the first instant and recovery
        always finds *some* valid manifest.
        """
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        existing, _ = latest_manifest(base)
        if existing is not None:
            raise InvalidParameterError(
                f"{base} already holds a live corpus "
                f"(generation {existing.generation}); use open()"
            )
        config = LiveConfig(
            kind=kind,
            l=l,
            shards=shards,
            policy=policy,
            **({"separator": separator} if separator is not None else {}),
        )
        manifest = Manifest(
            generation=0, wal_start_seq=0, config=config, shards=()
        )
        commit_manifest(base, manifest, injector=injector)
        wal = WriteAheadLog(base / WAL_NAME, injector=injector)
        wal.open()
        return cls(
            base,
            manifest=manifest,
            wal=wal,
            sharded=None,
            base_documents={},
            tail=[],
            next_seq=0,
            cache=ArtifactCache(base / CACHE_DIR),
            injector=injector,
        )

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        injector: Optional["DiskFaultInjector"] = None,
    ) -> "LiveCorpus":
        """Recover a corpus directory: newest valid manifest + WAL tail.

        Tolerates everything a crash can leave behind: a torn WAL tail
        (truncated), a torn or unrenamed manifest temp (ignored), a
        committed manifest with an untrimmed WAL (sequence horizon
        filters it), corrupt index files (rebuilt from segments).
        """
        base = Path(directory)
        manifest, rejected = latest_manifest(base)
        if manifest is None:
            raise InvalidParameterError(
                f"{base} holds no valid manifest; not a live corpus directory"
            )
        cache = ArtifactCache(base / CACHE_DIR)
        sharded, base_documents, rebuilt = _assemble_shards(
            base, manifest, cache
        )
        wal = WriteAheadLog(base / WAL_NAME, injector=injector)
        records = wal.open()
        tail = [r for r in records if r.seq >= manifest.wal_start_seq]
        next_seq = manifest.wal_start_seq
        if records:
            next_seq = max(next_seq, max(r.seq for r in records) + 1)
        return cls(
            base,
            manifest=manifest,
            wal=wal,
            sharded=sharded,
            base_documents=base_documents,
            tail=tail,
            next_seq=next_seq,
            cache=cache,
            injector=injector,
            indexes_rebuilt=rebuilt,
            manifests_rejected=len(rejected),
        )

    @classmethod
    def attach(
        cls,
        directory: str | Path,
        *,
        injector: Optional["DiskFaultInjector"] = None,
        **config,
    ) -> "LiveCorpus":
        """Open the directory if it is a corpus, create it otherwise."""
        base = Path(directory)
        if base.exists() and latest_manifest(base)[0] is not None:
            return cls.open(base, injector=injector)
        return cls.create(base, injector=injector, **config)

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "LiveCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def config(self) -> LiveConfig:
        return self._manifest.config

    @property
    def generation(self) -> int:
        """Generation of the currently serving manifest."""
        return self._manifest.generation

    @property
    def manifest(self) -> Manifest:
        return self._manifest

    @property
    def cache(self) -> ArtifactCache:
        return self._cache

    @property
    def sharded(self) -> Optional[ShardedEstimator]:
        """The immutable shard set (``None`` before the first compaction)."""
        return self._sharded

    @property
    def delta_pending(self) -> int:
        """Mutations awaiting compaction (delta documents + tombstones) —
        surfaced per-answer as :attr:`QueryOutcome.delta_pending`."""
        return self._delta.pending

    @property
    def names(self) -> List[str]:
        """Live document names: compacted order first, then delta order."""
        with self._lock:
            live = [
                name
                for name in self._base_documents
                if not self._delta.is_tombstoned(name)
            ]
            live.extend(
                name for name, _ in self._delta if name not in live
            )
            return live

    def documents(self) -> Dict[str, str]:
        """All live documents, name -> body."""
        with self._lock:
            live = {
                name: body
                for name, body in self._base_documents.items()
                if not self._delta.is_tombstoned(name)
            }
            live.update(self._delta.documents)
            return live

    def __len__(self) -> int:
        return len(self.documents())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._delta:
                return True
            return (
                name in self._base_documents
                and not self._delta.is_tombstoned(name)
            )

    # -- mutation -------------------------------------------------------------

    def append(self, name: str, body: str) -> int:
        """Durably add one document; returns its WAL sequence number.

        The WAL record is written and fsynced *before* the document
        becomes visible — when this method returns, the append survives
        any crash; if it raises, the document was never acknowledged.
        """
        if not isinstance(name, str) or not name:
            raise InvalidParameterError("document name must be a non-empty string")
        if not isinstance(body, str) or not body:
            raise InvalidParameterError(f"document {name!r} must be non-empty")
        separator = self.config.separator
        if separator in body:
            raise InvalidParameterError(
                f"document {name!r} contains the separator character "
                f"{separator!r}"
            )
        with self._lock:
            if name in self:
                raise InvalidParameterError(
                    f"a live document named {name!r} already exists"
                )
            record = WalRecord("append", self._next_seq, name, body)
            self._wal.append(record)  # durable before any visible effect
            self._next_seq += 1
            self._tail.append(record)
            self._delta.add(name, body)
            if self._hot is not None:
                # Epoch bump + sketch ingest: stale exact counts demote,
                # the answer sketch keeps covering the new text.
                self._hot.note_append(body)
            return record.seq

    def delete(self, name: str) -> int:
        """Durably delete one live document; returns its WAL sequence.

        A document still in the delta is removed *exactly* (it never
        reached the immutable shards). A compacted document gets a
        tombstone: served intervals widen soundly until the next
        compaction physically removes it.
        """
        with self._lock:
            if name not in self:
                raise InvalidParameterError(f"no live document named {name!r}")
            record = WalRecord("delete", self._next_seq, name)
            self._wal.append(record)
            self._next_seq += 1
            self._tail.append(record)
            if name in self._delta:
                length = len(self._delta.documents[name])
                self._delta.remove(name)
            else:
                length = len(self._base_documents[name])
                self._delta.tombstone(name, length)
            if self._hot is not None:
                self._hot.note_delete(length)
            return record.seq

    def compact(self) -> "CompactionReport":
        """Fold the delta into a new immutable shard generation (see
        :class:`~repro.live.compactor.Compactor`)."""
        from .compactor import Compactor

        return Compactor(self).run()

    # -- hot-pattern tier -----------------------------------------------------

    def attach_hot(self, hot) -> None:
        """Wire a :class:`~repro.hot.HotPatternTier` into the mutation
        plane: every append/delete widens its stale intervals and every
        compaction commit bumps its epoch, so a hot count verified
        against one corpus state is never served as exact against
        another."""
        with self._lock:
            self._hot = hot

    # -- commit hook ----------------------------------------------------------

    def add_commit_listener(self, callback: Callable[[Manifest], None]) -> None:
        """Register a callback fired after every manifest commit.

        The callback runs in the committing thread, *after* the new
        generation is both durable on disk and swapped in as the serving
        state (so it may query the corpus), and outside the corpus lock
        (so it may take its own locks — the serving daemon's generation
        publisher hangs off this hook). Listener exceptions propagate to
        the committer: a publisher that cannot keep up must be heard, not
        silently skipped.
        """
        with self._lock:
            self._commit_listeners.append(callback)

    def remove_commit_listener(
        self, callback: Callable[[Manifest], None]
    ) -> None:
        """Deregister a commit callback (no-op if never registered)."""
        with self._lock:
            if callback in self._commit_listeners:
                self._commit_listeners.remove(callback)

    # -- estimator interface --------------------------------------------------

    @property
    def error_model(self) -> ErrorModel:  # type: ignore[override]
        """The weakest model the current state forces: quarantined shards
        degrade to UPPER_BOUND, tombstones to UNIFORM (widened but
        bounded), a pure-delta or exact-shard corpus stays EXACT."""
        with self._lock:
            if self._sharded is not None and self._sharded.degraded_shards:
                return ErrorModel.UPPER_BOUND
            if self._delta.tombstones:
                return ErrorModel.UNIFORM
            if self._sharded is None:
                return ErrorModel.EXACT
            return self._sharded.error_model

    @property
    def threshold(self) -> int:
        """Static width bound of the served interval: the merged shard
        threshold plus every tombstone's maximal contribution (a deleted
        document of length ``m`` can widen the interval by at most ``m``,
        reached at pattern length 1)."""
        with self._lock:
            base = self._sharded.threshold if self._sharded is not None else 1
            return base + sum(self._delta.tombstones.values())

    @property
    def alphabet(self) -> Alphabet:
        with self._lock:
            characters = set(self._delta.character_set())
            if self._sharded is not None:
                characters.update(self._sharded.alphabet.characters)
            return Alphabet(characters)

    @property
    def text_length(self) -> int:
        """Characters under management (shard texts + delta documents
        with their implied separators) — the ceiling reference the
        serving tiers' feasibility checks use."""
        with self._lock:
            shard_chars = (
                self._sharded.text_length if self._sharded is not None else 0
            )
            delta_docs = len(self._delta.documents)
            return shard_chars + self._delta.chars + delta_docs

    def _validate_pattern(self, pattern: str) -> None:
        if not isinstance(pattern, str) or not pattern:
            raise PatternError("pattern must be a non-empty string")

    def count_interval(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> Tuple[int, int]:
        """Sound ``[lo, hi]`` interval on the live corpus's true count."""
        self._validate_pattern(pattern)
        with self._lock:
            sharded = self._sharded
            delta_count = self._delta.count(pattern)
            widening = self._delta.widening(len(pattern))
        if sharded is None:
            shard_lo = shard_hi = 0
        else:
            shard_lo, shard_hi = sharded.count_interval(pattern, deadline)
        return (
            max(0, shard_lo - widening) + delta_count,
            shard_hi + delta_count,
        )

    def count(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> int:
        """The served scalar: the interval's upper end (over-counts,
        never under-counts — the merge-wide soundness convention)."""
        return self.count_interval(pattern, deadline)[1]

    def count_or_none(
        self, pattern: str, deadline: Optional[Deadline] = None
    ) -> Optional[int]:
        """Certified-exact count, or ``None`` when the state cannot pin
        it (tombstones pending, or the shard merge is interval-valued)."""
        self._validate_pattern(pattern)
        with self._lock:
            sharded = self._sharded
            delta_count = self._delta.count(pattern)
            has_tombstones = bool(self._delta.tombstones)
        if has_tombstones:
            return None
        if sharded is None:
            return delta_count
        certified = sharded.count_or_none(pattern, deadline)
        if certified is None:
            return None
        return certified + delta_count

    def is_reliable(self, pattern: str) -> bool:
        return self.count_or_none(pattern) is not None

    # -- watchdog delegation --------------------------------------------------
    #
    # The corruption watchdog drives shard-granular quarantine through
    # duck-typed hooks; a live corpus forwards them to its immutable
    # shard set so the quarantine -> rebuild -> verify -> readmit
    # lifecycle works unchanged on a live tier.

    def _require_sharded(self) -> ShardedEstimator:
        if self._sharded is None:
            raise InvalidParameterError(
                "the corpus has no compacted shards yet (compact() first)"
            )
        return self._sharded

    @property
    def degraded_shards(self) -> Tuple[str, ...]:
        return (
            self._sharded.degraded_shards if self._sharded is not None else ()
        )

    def can_localize(self) -> bool:
        return self._sharded is not None and self._sharded.can_localize()

    def convict_shards(self, pattern: str) -> List[str]:
        return self._require_sharded().convict_shards(pattern)

    def quarantine_shard(self, name: str, reason: str = "") -> None:
        self._require_sharded().quarantine_shard(name, reason)

    def rebuild_shard(self, name: str) -> float:
        return self._require_sharded().rebuild_shard(name)

    def readmit_shard(self, name: str) -> None:
        self._require_sharded().readmit_shard(name)

    def verify_shard(
        self, name: str, patterns: Sequence[str]
    ) -> List[ShardProbe]:
        return self._require_sharded().verify_shard(name, patterns)

    # -- space ---------------------------------------------------------------

    def durable_bytes(self) -> Dict[str, int]:
        """On-disk footprint by durability role, in bytes."""
        sizes = {"wal": self._wal.size_bytes(), "manifest": 0, "segments": 0,
                 "indexes": 0}
        manifest_path = self._directory / self._manifest.filename
        try:
            sizes["manifest"] = manifest_path.stat().st_size
        except OSError:
            pass
        for entry in self._manifest.shards:
            for role, filename in (("segments", entry.segment),
                                   ("indexes", entry.index)):
                try:
                    sizes[role] += (self._directory / filename).stat().st_size
                except OSError:
                    pass
        return sizes

    def space_report(self) -> SpaceReport:
        """Resident structures as components, durable files as overhead.

        The resident side is the per-shard index rollup plus the delta
        shard's raw text; the durable side is the WAL, the serving
        manifest, and its segments and index files — so ``repro space``
        on a live corpus reports both what the process holds and what
        the directory costs.
        """
        components: Dict[str, int] = {}
        overhead: Dict[str, int] = {}
        with self._lock:
            if self._sharded is not None:
                rolled = self._sharded.space_report()
                components.update(
                    {f"shards.{k}": v for k, v in rolled.components.items()}
                )
                overhead.update(
                    {f"shards.{k}": v for k, v in rolled.overhead.items()}
                )
            components["delta.text"] = self._delta.chars * 8
            for role, size in self.durable_bytes().items():
                overhead[f"durable.{role}"] = size * 8
        return SpaceReport("LiveCorpus", components, overhead)

    def status(self) -> Dict[str, object]:
        """Operator-facing snapshot (the ``repro ingest --status`` body)."""
        with self._lock:
            durable = self.durable_bytes()
            return {
                "directory": str(self._directory),
                "generation": self._manifest.generation,
                "config": self.config.as_dict(),
                "documents": len(self.documents()),
                "base_documents": len(self._base_documents),
                "delta_documents": len(self._delta.documents),
                "tombstones": len(self._delta.tombstones),
                "delta_pending": self._delta.pending,
                "next_seq": self._next_seq,
                "shards": (
                    list(self._sharded.shard_names)
                    if self._sharded is not None
                    else []
                ),
                "degraded_shards": list(self.degraded_shards),
                "wal_bytes": durable["wal"],
                "durable_bytes": sum(durable.values()),
                "indexes_rebuilt_on_open": self.indexes_rebuilt,
                "manifests_rejected_on_open": self.manifests_rejected,
            }

    def __repr__(self) -> str:
        return (
            f"LiveCorpus({str(self._directory)!r}, "
            f"generation={self.generation}, documents={len(self)}, "
            f"delta_pending={self.delta_pending})"
        )

    def publish_snapshot(
        self,
    ) -> Tuple[Manifest, Optional[ShardedEstimator], List[Tuple[str, str]], Tuple[int, ...]]:
        """One atomic view for a generation publisher.

        Returns ``(manifest, sharded estimator, delta documents in
        insertion order, tombstone lengths)`` captured under the corpus
        lock, so the pieces are mutually consistent — the contract the
        serving daemon's :class:`~repro.daemon.GenerationPublisher`
        needs to export a sound generation.
        """
        with self._lock:
            return (
                self._manifest,
                self._sharded,
                self._delta.document_items(),
                tuple(self._delta.tombstones.values()),
            )

    # -- compaction internals (used by Compactor; same package) ---------------

    def _snapshot(self) -> Tuple[Dict[str, str], int, int, int, int]:
        """Under the lock: (live documents, sequence horizon, next
        generation, delta documents folded, tombstones cleared)."""
        with self._lock:
            return (
                self.documents(),
                self._next_seq,
                self._manifest.generation + 1,
                len(self._delta.documents),
                len(self._delta.tombstones),
            )

    def _commit(
        self,
        manifest: Manifest,
        sharded: Optional[ShardedEstimator],
        base_documents: Dict[str, str],
        horizon: int,
    ) -> None:
        """Swap the committed generation in, preserving post-snapshot ops.

        The manifest is already durable on disk. Mutations accepted
        after the snapshot (sequence >= horizon) stay in the tail and
        are re-materialised over the *new* base; the WAL is then
        rewritten down to that tail (a crash mid-rewrite is harmless —
        the sequence horizon filters the longer log on replay).
        """
        with self._lock:
            self._manifest = manifest
            self._sharded = sharded
            self._base_documents = base_documents
            self._tail = [r for r in self._tail if r.seq >= horizon]
            self._delta = _materialize(base_documents, self._tail)
            self._wal.rewrite(self._tail)
            listeners = list(self._commit_listeners)
            hot = self._hot
        # The committed generation is a different corpus *state* even
        # when its content is unchanged: demote hot exact counts until
        # they re-verify against it.
        if hot is not None:
            hot.bump_epoch()
        # Outside the lock: listeners may query the corpus or take their
        # own locks (the daemon's publisher flips a generation here).
        for listener in listeners:
            listener(manifest)

    def save_shard_index(self, path: Path, index: OccurrenceEstimator) -> Path:
        """Persist one shard index through the atomic write discipline."""
        temporary = path.with_name(path.name + ".build.tmp")
        save_index(index, temporary)
        import os

        os.replace(temporary, path)
        return path
