"""Checksummed, mmap-aligned index segments.

A **segment** is one contiguous byte blob holding everything a worker
process needs to serve one shard: a JSON header describing the structure
tree (via :meth:`repro.bits.storage.StorageBundle.header`) plus a
**relocation table** mapping every flat array (dotted path) to its byte
offset, and the raw array payloads, each padded to an 8-byte boundary so
a mapped reader can view ``uint64`` words in place.

Layout (all integers big-endian, mirroring the ``io.py`` framings)::

    REPROSEG | version:2 | header_len:8 | sha256(header):32 | pad:6
    | header JSON (utf-8) | zero pad to 8 | array payloads (8-aligned)

The fixed part is 56 bytes — a multiple of 8, like the v3 artifact
framing — so every relocation offset measured from the start of the blob
is also 8-aligned. The header digest covers the JSON bytes; the header
itself carries ``payload_digest`` over the payload region and repeats the
version as ``format``, so :meth:`Segment.parse` with ``verify=True``
detects any flipped bit before a worker ever dereferences a view.

Attaching never copies: :meth:`Segment.bundle` materialises read-only
``np.frombuffer`` views into the caller's buffer (shared memory, an mmap,
or plain bytes), and :meth:`Segment.attach` hands the bundle to the
structure registry. Multiple processes parsing the same shared-memory
block therefore serve the same physical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import IndexCorruptedError, InvalidParameterError
from ..io import atomic_write_bytes
from ..bits.storage import StorageBundle, attach_structure

# Importing the family modules populates the structure registry, so a
# freshly spawned worker can attach any index kind a segment may hold.
from ..core import approx as _approx  # noqa: F401
from ..core import approx_ef as _approx_ef  # noqa: F401
from ..core import combined as _combined  # noqa: F401
from ..core import cpst as _cpst  # noqa: F401
from ..baselines import fm as _fm  # noqa: F401

SEGMENT_MAGIC = b"REPROSEG"
#: Version 3 stores the CPST's link string and the APX's block string
#: without their ``#`` delimiters, beside an ``ends`` bitvector; versions
#: 1 and 2 held the ``#``s inline and still attach (the index splits its
#: string on load). Version 2 stores each bitvector's two-level rank
#: directory (``blocks`` and ``counts``); version 1 stored one int64
#: ``rank_dir`` entry per word (the bitvector splits it on load).
SEGMENT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)
_FIXED_HEADER = len(SEGMENT_MAGIC) + 2 + 8 + 32 + 6  # = 56, a multiple of 8
ALIGNMENT = 8


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class SegmentWriter:
    """Serialise exported structures into one aligned, checksummed blob.

    ``add(key, obj)`` accepts anything implementing the storage protocol
    (or a ready :class:`StorageBundle`); ``meta`` carries free-form
    JSON-safe annotations (shard name, index kind, threshold, ...).
    """

    def __init__(self, name: str, meta: Optional[Dict[str, Any]] = None):
        self.name = name
        self.meta: Dict[str, Any] = dict(meta or {})
        self._bundles: Dict[str, StorageBundle] = {}

    def add(self, key: str, obj: Any) -> None:
        """Add one structure (or prepared bundle) under ``key``."""
        if "." in key or ":" in key:
            raise InvalidParameterError(
                f"segment keys must not contain '.' or ':', got {key!r}"
            )
        if key in self._bundles:
            raise InvalidParameterError(f"duplicate segment key {key!r}")
        if isinstance(obj, StorageBundle):
            self._bundles[key] = obj
            return
        export = getattr(obj, "export_storage", None)
        if export is None:
            raise InvalidParameterError(
                f"{type(obj).__name__} does not implement the buffer-backed "
                "storage protocol (no export_storage)"
            )
        self._bundles[key] = export()

    def to_bytes(self) -> bytes:
        """Serialise: header JSON + relocation table + aligned payloads."""
        if not self._bundles:
            raise InvalidParameterError("segment has no structures")
        relocation: List[Dict[str, Any]] = []
        chunks: List[bytes] = []
        cursor = 0  # relative to payload region start
        for key, bundle in self._bundles.items():
            for path, arr in bundle.walk_arrays(prefix=f"{key}:"):
                data = np.ascontiguousarray(arr).tobytes()
                relocation.append({
                    "name": path,
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                    "offset": cursor,
                    "nbytes": len(data),
                })
                chunks.append(data)
                pad = _align(len(data)) - len(data)
                if pad:
                    chunks.append(bytes(pad))
                cursor += _align(len(data))
        payload = b"".join(chunks)
        header = {
            "format": SEGMENT_VERSION,
            "name": self.name,
            "meta": self.meta,
            "bundles": {
                key: bundle.header() for key, bundle in self._bundles.items()
            },
            "relocation": relocation,
            "payload_size": len(payload),
            "payload_digest": hashlib.sha256(payload).hexdigest(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        head = (
            SEGMENT_MAGIC
            + SEGMENT_VERSION.to_bytes(2, "big")
            + len(header_bytes).to_bytes(8, "big")
            + hashlib.sha256(header_bytes).digest()
            + bytes(6)
            + header_bytes
        )
        head += bytes(_align(len(head)) - len(head))
        return head + payload

    def write(self, path: str | Path) -> Path:
        """Atomically persist the segment to ``path``."""
        return atomic_write_bytes(path, self.to_bytes())


class Segment:
    """A parsed segment: header + zero-copy views over the source buffer.

    The buffer may be ``bytes``, a ``memoryview`` (e.g.
    ``SharedMemory.buf``) or an ``mmap``; it must stay alive as long as
    any attached structure does. All views are marked read-only, so an
    attached structure can never scribble on the shared bytes.
    """

    def __init__(
        self,
        header: Dict[str, Any],
        buffer: Any,
        payload_start: int,
    ):
        self.header = header
        self.name = header.get("name", "")
        self.meta: Dict[str, Any] = header.get("meta", {})
        self._buffer = buffer
        self._payload_start = payload_start
        self._relocation: Dict[str, Dict[str, Any]] = {
            entry["name"]: entry for entry in header["relocation"]
        }

    @classmethod
    def parse(cls, buffer: Any, *, verify: bool = True) -> "Segment":
        """Parse a segment blob; ``verify`` checks both digests."""
        view = memoryview(buffer)
        if len(view) < _FIXED_HEADER:
            raise IndexCorruptedError("segment shorter than its fixed header")
        if bytes(view[: len(SEGMENT_MAGIC)]) != SEGMENT_MAGIC:
            raise IndexCorruptedError(
                f"not a repro segment (bad magic "
                f"{bytes(view[:len(SEGMENT_MAGIC)])!r})"
            )
        version = int.from_bytes(view[8:10], "big")
        if version not in _READABLE_VERSIONS:
            raise IndexCorruptedError(f"unsupported segment version {version}")
        header_len = int.from_bytes(view[10:18], "big")
        digest = bytes(view[18:50])
        if bytes(view[50:_FIXED_HEADER]) != bytes(_FIXED_HEADER - 50):
            raise IndexCorruptedError(
                "segment fixed-header padding is not zero"
            )
        header_start = _FIXED_HEADER
        header_end = header_start + header_len
        if header_end > len(view):
            raise IndexCorruptedError("truncated segment header")
        header_bytes = bytes(view[header_start:header_end])
        if verify and hashlib.sha256(header_bytes).digest() != digest:
            raise IndexCorruptedError("segment header failed its digest check")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise IndexCorruptedError(
                f"segment header is not valid JSON: {exc}"
            ) from None
        if not isinstance(header, dict):
            raise IndexCorruptedError("segment header is not a JSON object")
        if header.get("format") != version:
            # The fixed-header version sits outside the header digest; the
            # JSON's copy is inside it, so a flipped version is caught
            # even where it lands on another readable one.
            raise IndexCorruptedError(
                f"segment version {version} disagrees with its header's "
                f"format {header.get('format')!r}"
            )
        try:
            payload_start = _align(header_end)
            payload_size = int(header["payload_size"])
            _ = header["relocation"]
            _ = header["bundles"]
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptedError(
                f"segment header is missing or mistypes a required field: "
                f"{exc}"
            ) from None
        if payload_size < 0:
            raise IndexCorruptedError("negative segment payload size")
        if payload_start + payload_size > len(view):
            raise IndexCorruptedError("truncated segment payload")
        if verify:
            actual = hashlib.sha256(
                view[payload_start:payload_start + payload_size]
            ).hexdigest()
            if actual != header["payload_digest"]:
                raise IndexCorruptedError(
                    "segment payload failed its digest check"
                )
        return cls(header, buffer, payload_start)

    @property
    def nbytes(self) -> int:
        """Total segment size (fixed header through end of payload)."""
        return self._payload_start + int(self.header["payload_size"])

    @property
    def keys(self) -> List[str]:
        """Structure keys stored in this segment."""
        return list(self.header["bundles"])

    def _resolve(self, path: str) -> np.ndarray:
        try:
            entry = self._relocation[path]
        except KeyError:
            raise IndexCorruptedError(
                f"segment has no relocation entry for array {path!r}"
            ) from None
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        if count * dtype.itemsize != entry["nbytes"]:
            raise IndexCorruptedError(
                f"relocation entry {path!r} is inconsistent"
            )
        offset = self._payload_start + int(entry["offset"])
        arr = np.frombuffer(self._buffer, dtype=dtype, count=count, offset=offset)
        arr = arr.reshape(entry["shape"])
        arr.flags.writeable = False
        return arr

    def bundle(self, key: str) -> StorageBundle:
        """The bundle under ``key``, arrays resolved as read-only views."""
        try:
            header = self.header["bundles"][key]
        except KeyError:
            raise InvalidParameterError(
                f"segment {self.name!r} has no structure {key!r} "
                f"(have {self.keys})"
            ) from None
        return StorageBundle.from_header(header, self._resolve, prefix=f"{key}:")

    def attach(self, key: str) -> Any:
        """Reconstruct the structure under ``key`` as zero-copy views."""
        return attach_structure(self.bundle(key))


def write_estimator_segment(
    estimator: Any,
    name: str,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Convenience: one estimator under key ``"index"`` with serving meta.

    The header meta records everything the parent process needs to merge
    per-shard answers without holding the estimator itself: the error
    model, the threshold, the text length, and the alphabet characters.
    """
    from ..core.interface import ErrorModel  # local: avoid cycle at import

    model = estimator.error_model
    full_meta = {
        "kind": type(estimator).__name__,
        "error_model": model.value if isinstance(model, ErrorModel) else str(model),
        "threshold": int(estimator.threshold),
        "text_length": int(estimator.text_length),
        "characters": estimator.alphabet.characters,
    }
    full_meta.update(meta or {})
    writer = SegmentWriter(name, meta=full_meta)
    writer.add("index", estimator)
    return writer.to_bytes()
