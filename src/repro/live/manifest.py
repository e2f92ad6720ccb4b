"""Versioned manifests: the atomic commit point of the live corpus plane.

A live corpus directory is, at any instant, fully described by one
manifest file plus the WAL tail it points at:

* ``manifest-<generation>.rman`` — which immutable shards exist (their
  segment and index files, with content digests), which documents each
  holds, the build configuration, and the WAL sequence horizon
  (``wal_start_seq``): only WAL records at or after the horizon are
  replayed on top of this shard set;
* ``seg-<generation>-<shard>.rseg`` — one checksummed segment per shard:
  the shard's separator-joined source text, enough to rebuild its index
  from scratch (and the ground truth the watchdog's differential probes
  verify against);
* ``idx-<generation>-<shard>.ridx`` — the persisted per-shard index
  (:func:`repro.io.save_index` format), a recovery *accelerator* only: a
  corrupt or missing index file is rebuilt from its segment, never
  trusted.

Commit protocol (:func:`commit_manifest`): serialize → write a temp file
(flush + fsync) → ``os.replace`` to the generation name → fsync the
directory. A reader therefore observes either the previous manifest or
the new one, never a torn mixture; recovery (:func:`latest_manifest`)
scans generations newest-first and falls back past any file that fails
its framing or digest. The three crash boundaries of the protocol are
instrumented :data:`~repro.service.faults.DISK_SITES`
(``manifest_temp``, ``manifest_rename``, ``manifest_committed``).

Manifest framing mirrors the v2 index format of :mod:`repro.io`:

``MANIFEST_MAGIC | version:2 | payload_len:8 | sha256:32 | json payload``
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import IndexCorruptedError, InvalidParameterError, ReproError
from ..io import FORMAT_VERSION, atomic_write_bytes, content_digest, fsync_directory
from ..textutil import ROW_SEPARATOR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.faults import DiskFaultInjector

MANIFEST_MAGIC = b"REPROMAN"
SEGMENT_MAGIC = b"REPROSEG"
_DIGEST_SIZE = hashlib.sha256().digest_size

_MANIFEST_PATTERN = re.compile(r"^manifest-(\d{10})\.rman$")


@dataclass(frozen=True)
class LiveConfig:
    """The build parameters a live corpus was created with.

    Persisted in every manifest so recovery never depends on caller
    arguments: re-opening a directory always compacts with the same
    index kind, threshold, shard count, merge policy and separator the
    corpus was born with.
    """

    kind: str = "cpst"
    l: int = 64
    shards: int = 2
    policy: str = "split"
    separator: str = ROW_SEPARATOR

    def __post_init__(self):
        if self.l < 2:
            raise InvalidParameterError(f"threshold l must be >= 2, got {self.l}")
        if self.shards < 1:
            raise InvalidParameterError(
                f"shard count must be >= 1, got {self.shards}"
            )
        if len(self.separator) != 1:
            raise InvalidParameterError("separator must be a single character")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "l": self.l,
            "shards": self.shards,
            "policy": self.policy,
            "separator": self.separator,
        }

    @classmethod
    def from_dict(cls, fields: dict) -> "LiveConfig":
        return cls(
            kind=str(fields["kind"]),
            l=int(fields["l"]),
            shards=int(fields["shards"]),
            policy=str(fields["policy"]),
            separator=str(fields["separator"]),
        )


@dataclass(frozen=True)
class ShardEntry:
    """One immutable shard as the manifest names it."""

    name: str
    #: Document names in shard order (bodies live in the segment file).
    documents: Tuple[str, ...]
    #: Segment file name (relative to the corpus directory).
    segment: str
    #: SHA-256 hex of the segment's raw text — ties this manifest to the
    #: exact segment content, so a mixed-generation directory is detected.
    segment_digest: str
    #: Persisted index file name (recovery accelerator; rebuilt if bad).
    index: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "documents": list(self.documents),
            "segment": self.segment,
            "segment_digest": self.segment_digest,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, fields: dict) -> "ShardEntry":
        return cls(
            name=str(fields["name"]),
            documents=tuple(str(n) for n in fields["documents"]),
            segment=str(fields["segment"]),
            segment_digest=str(fields["segment_digest"]),
            index=str(fields["index"]),
        )


@dataclass(frozen=True)
class Manifest:
    """One generation of the live corpus: shard set + WAL horizon."""

    generation: int
    #: Replay only WAL records with ``seq >= wal_start_seq`` on top of
    #: this shard set (earlier records are already compacted into it).
    wal_start_seq: int
    config: LiveConfig
    shards: Tuple[ShardEntry, ...]

    def __post_init__(self):
        if self.generation < 0:
            raise InvalidParameterError(
                f"generation must be >= 0, got {self.generation}"
            )
        if self.wal_start_seq < 0:
            raise InvalidParameterError(
                f"wal_start_seq must be >= 0, got {self.wal_start_seq}"
            )
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"shard names must be unique: {names}")

    @property
    def filename(self) -> str:
        return f"manifest-{self.generation:010d}.rman"

    def encode(self) -> bytes:
        """The framed on-disk bytes of this manifest."""
        payload = json.dumps(
            {
                "generation": self.generation,
                "wal_start_seq": self.wal_start_seq,
                "config": self.config.as_dict(),
                "shards": [shard.as_dict() for shard in self.shards],
            },
            ensure_ascii=False,
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        return (
            MANIFEST_MAGIC
            + FORMAT_VERSION.to_bytes(2, "big")
            + len(payload).to_bytes(8, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )

    @classmethod
    def decode(cls, data: bytes, source: str = "<bytes>") -> "Manifest":
        """Parse framed manifest bytes, verifying magic, length and digest.

        Raises :class:`~repro.errors.IndexCorruptedError` on any framing
        or integrity failure — recovery treats that as "this generation
        never committed" and falls back to an older one.
        """
        header = len(MANIFEST_MAGIC) + 2 + 8 + _DIGEST_SIZE
        if len(data) < header:
            raise IndexCorruptedError(f"{source}: truncated manifest header")
        if data[: len(MANIFEST_MAGIC)] != MANIFEST_MAGIC:
            raise IndexCorruptedError(f"{source}: bad manifest magic")
        offset = len(MANIFEST_MAGIC)
        version = int.from_bytes(data[offset : offset + 2], "big")
        if version != FORMAT_VERSION:
            raise IndexCorruptedError(
                f"{source}: unsupported manifest version {version}"
            )
        offset += 2
        length = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        digest = data[offset : offset + _DIGEST_SIZE]
        offset += _DIGEST_SIZE
        payload = data[offset : offset + length]
        if len(payload) != length or data[offset + length :]:
            raise IndexCorruptedError(
                f"{source}: manifest payload length mismatch"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise IndexCorruptedError(f"{source}: manifest digest mismatch")
        try:
            fields = json.loads(payload.decode("utf-8"))
            return cls(
                generation=int(fields["generation"]),
                wal_start_seq=int(fields["wal_start_seq"]),
                config=LiveConfig.from_dict(fields["config"]),
                shards=tuple(
                    ShardEntry.from_dict(entry) for entry in fields["shards"]
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexCorruptedError(
                f"{source}: undecodable manifest payload ({exc})"
            ) from exc


# -- segments ----------------------------------------------------------------


def segment_name(generation: int, shard: str) -> str:
    return f"seg-{generation:010d}-{shard}.rseg"


def index_name(generation: int, shard: str) -> str:
    return f"idx-{generation:010d}-{shard}.ridx"


def write_segment(path: str | Path, text: str) -> str:
    """Atomically persist one shard's source text; returns its digest.

    ``SEGMENT_MAGIC | version:2 | payload_len:8 | sha256:32 | utf-8 text``
    — the digest is also what the owning manifest records, so a segment
    and its manifest entry cross-check each other.
    """
    payload = text.encode("utf-8")
    framed = (
        SEGMENT_MAGIC
        + FORMAT_VERSION.to_bytes(2, "big")
        + len(payload).to_bytes(8, "big")
        + hashlib.sha256(payload).digest()
        + payload
    )
    atomic_write_bytes(path, framed)
    return content_digest(payload)


def read_segment(path: str | Path) -> str:
    """Load a segment, verifying its framing and digest.

    Raises :class:`~repro.errors.IndexCorruptedError` on any mismatch —
    a torn or bit-rotted segment must fail the whole generation, never
    silently feed a rebuild.
    """
    source = Path(path)
    try:
        data = source.read_bytes()
    except OSError as exc:
        raise IndexCorruptedError(f"{source}: unreadable segment ({exc})") from exc
    header = len(SEGMENT_MAGIC) + 2 + 8 + _DIGEST_SIZE
    if len(data) < header or data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise IndexCorruptedError(f"{source}: bad segment header")
    offset = len(SEGMENT_MAGIC)
    version = int.from_bytes(data[offset : offset + 2], "big")
    if version != FORMAT_VERSION:
        raise IndexCorruptedError(f"{source}: unsupported segment version {version}")
    offset += 2
    length = int.from_bytes(data[offset : offset + 8], "big")
    offset += 8
    digest = data[offset : offset + _DIGEST_SIZE]
    offset += _DIGEST_SIZE
    payload = data[offset : offset + length]
    if len(payload) != length or data[offset + length :]:
        raise IndexCorruptedError(f"{source}: segment length mismatch")
    if hashlib.sha256(payload).digest() != digest:
        raise IndexCorruptedError(f"{source}: segment digest mismatch")
    return payload.decode("utf-8")


# -- commit and recovery -----------------------------------------------------


def commit_manifest(
    directory: str | Path,
    manifest: Manifest,
    *,
    injector: Optional["DiskFaultInjector"] = None,
) -> Path:
    """Atomically publish one manifest generation.

    Write-temp (fsynced) → ``os.replace`` → directory fsync. The three
    instrumented crash boundaries:

    * ``manifest_temp`` — torn temp write: the final name never appears,
      the previous generation keeps serving;
    * ``manifest_rename`` — crash between the durable temp and the
      rename: same outcome (the temp file is garbage to recovery);
    * ``manifest_committed`` — crash right after the rename: the new
      generation IS the corpus now, but the WAL has not been trimmed yet
      (recovery's sequence horizon makes the untrimmed log harmless).
    """
    target = Path(directory) / manifest.filename
    data = manifest.encode()
    temporary = target.with_name(target.name + f".{os.getpid()}.tmp")
    with open(temporary, "wb") as handle:
        if injector is not None:
            injector.crash_write("manifest_temp", handle, data)
        else:
            handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if injector is not None:
        injector.crash_point("manifest_rename")
    os.replace(temporary, target)
    fsync_directory(target.parent)
    if injector is not None:
        injector.crash_point("manifest_committed")
    return target


def manifest_paths(directory: str | Path) -> List[Tuple[int, Path]]:
    """All manifest files present, ``(generation, path)``, newest first."""
    found = []
    for path in Path(directory).iterdir():
        match = _MANIFEST_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort(key=lambda item: -item[0])
    return found


def latest_manifest(
    directory: str | Path,
) -> Tuple[Optional[Manifest], List[Path]]:
    """The newest manifest that passes every integrity check, plus the
    paths of newer generations that were rejected (torn commits, digest
    failures) and skipped over.

    A rejected manifest is *left on disk* — recovery is read-only; the
    next successful compaction simply commits a higher generation.
    """
    rejected: List[Path] = []
    for generation, path in manifest_paths(directory):
        try:
            data = path.read_bytes()
            manifest = Manifest.decode(data, source=str(path))
        except (IndexCorruptedError, ReproError, OSError):
            rejected.append(path)
            continue
        if manifest.generation != generation:
            rejected.append(path)
            continue
        return manifest, rejected
    return None, rejected


def verify_segments(directory: str | Path, manifest: Manifest) -> Dict[str, str]:
    """Load and digest-check every segment the manifest names.

    Returns ``shard name -> raw segment text``. Raises
    :class:`~repro.errors.IndexCorruptedError` if any segment is missing,
    torn, or does not match the digest the manifest recorded — the whole
    generation is then unusable and recovery falls back.
    """
    texts: Dict[str, str] = {}
    base = Path(directory)
    for shard in manifest.shards:
        text = read_segment(base / shard.segment)
        actual = content_digest(text.encode("utf-8"))
        if actual != shard.segment_digest:
            raise IndexCorruptedError(
                f"{shard.segment}: digest {actual[:16]}… does not match the "
                f"manifest's {shard.segment_digest[:16]}… "
                f"(generation {manifest.generation})"
            )
        texts[shard.name] = text
    return texts
