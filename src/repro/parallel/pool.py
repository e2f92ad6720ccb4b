"""Shared-memory segment pool: map each segment into RAM exactly once.

:class:`SegmentPool` owns a set of named ``multiprocessing.shared_memory``
blocks, one per published segment. The publishing process copies the
segment bytes in **once**; every worker process then attaches the block
by name and parses it in place — the payload arrays are served from the
same physical pages in every process, which is what makes the
:class:`~repro.parallel.executor.ProcessShardedEstimator`'s memory cost
``O(segments + k * private_state)`` instead of ``O(k * segments)``.

CPython quirk this module hides: until 3.13 every ``SharedMemory``
attachment registers itself with the ``resource_tracker`` — and spawned
workers *share* the parent's tracker, so a worker's attach/exit cycle
would first double-register and then deregister (and eventually unlink)
a block the parent still serves from. :func:`attach_shared_segment`
suppresses the registration at open time (the creating pool remains the
single owner responsible for ``unlink``).
"""

from __future__ import annotations

import atexit
import sys
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Tuple

from ..core.interface import ErrorModel
from ..errors import InvalidParameterError
from .segment import Segment

#: Every live pool, so interpreter exit unlinks what a forgotten (or
#: exception-interrupted) owner left mapped. Weak references only: a
#: pool that was garbage collected already ran ``close`` via __del__.
_LIVE_POOLS: "weakref.WeakSet[SegmentPool]" = weakref.WeakSet()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - exercised in a subprocess
    """Unlink every still-open pool's blocks at interpreter exit.

    Normal exits (including ``sys.exit`` from a failing test run) reach
    this even when the owner never called ``close``; the shared blocks
    must not outlive the process that published them. SIGKILL bypasses
    atexit, but then the multiprocessing resource tracker — a separate
    process — reclaims the (tracked, pool-created) blocks instead, so
    either way ``/dev/shm`` ends clean.
    """
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _open_untracked(shm_name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without registering it with the tracker."""
    if sys.version_info >= (3, 13):  # pragma: no cover - newer interpreters
        return shared_memory.SharedMemory(name=shm_name, track=False)  # type: ignore[call-arg]
    # Pre-3.13 there is no track= parameter: registration happens
    # unconditionally inside __init__, so blank it out for the call.
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def attach_shared_segment(
    shm_name: str, *, verify: bool = True
) -> Tuple[shared_memory.SharedMemory, Segment]:
    """Open an existing shared block and parse the segment inside it.

    The returned ``SharedMemory`` must outlive every structure attached
    from the segment (their arrays are views into its buffer). The caller
    attaches only — it must ``close()`` but never ``unlink()``.
    """
    shm = _open_untracked(shm_name)
    try:
        segment = Segment.parse(shm.buf, verify=verify)
    except Exception:
        shm.close()
        raise
    return shm, segment


@dataclass(frozen=True)
class SegmentRef:
    """One published segment's serving metadata (no index bytes held).

    Everything a parent needs to admit, merge and account a segment
    without attaching it: the shared block to hand to a worker, and the
    error-model header fields the merge algebra consumes.
    """

    name: str
    shm_name: str
    nbytes: int
    error_model: str
    threshold: int
    text_length: int
    characters: str

    @property
    def model(self) -> ErrorModel:
        return ErrorModel(self.error_model)

    def ceiling(self, pattern_length: int) -> int:
        """The segment's trivial occurrence bound ``max(0, n - |P| + 1)``."""
        return max(0, self.text_length - pattern_length + 1)


class PublishedSegment:
    """One segment resident in a shared block (created by a pool)."""

    __slots__ = ("key", "shm_name", "nbytes", "meta", "_shm")

    def __init__(
        self,
        key: str,
        shm: shared_memory.SharedMemory,
        nbytes: int,
        meta: Dict[str, Any],
    ):
        self.key = key
        self._shm = shm
        self.shm_name = shm.name
        self.nbytes = nbytes
        self.meta = meta

    @property
    def bits(self) -> int:
        """Segment size in bits (for shared-space accounting)."""
        return self.nbytes * 8

    @property
    def ref(self) -> SegmentRef:
        """The segment's serving metadata, read from its header."""
        return SegmentRef(
            name=self.key,
            shm_name=self.shm_name,
            nbytes=self.nbytes,
            error_model=str(self.meta["error_model"]),
            threshold=int(self.meta["threshold"]),
            text_length=int(self.meta["text_length"]),
            characters=str(self.meta["characters"]),
        )


class SegmentPool:
    """Create, hand out and eventually unlink shared segment blocks.

    The pool is the single *owner* of its blocks: :meth:`publish` creates
    and fills them, :meth:`close` closes the local mapping and unlinks the
    names. Workers use :func:`attach_shared_segment` and only ever close.
    """

    def __init__(self, name_prefix: str = "repro-seg"):
        self._prefix = name_prefix
        self._segments: Dict[str, PublishedSegment] = {}
        self._closed = False
        _LIVE_POOLS.add(self)

    def publish(self, key: str, blob: bytes) -> PublishedSegment:
        """Copy one serialised segment into a fresh shared block."""
        if self._closed:
            raise InvalidParameterError("SegmentPool is closed")
        if key in self._segments:
            raise InvalidParameterError(f"segment {key!r} already published")
        # Parse the bytes first: never publish a blob workers cannot load,
        # and capture the header meta for the parent's bookkeeping.
        parsed = Segment.parse(blob, verify=True)
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        shm.buf[: len(blob)] = blob
        published = PublishedSegment(key, shm, len(blob), dict(parsed.meta))
        self._segments[key] = published
        return published

    def get(self, key: str) -> PublishedSegment:
        try:
            return self._segments[key]
        except KeyError:
            raise InvalidParameterError(
                f"no published segment {key!r} (have {sorted(self._segments)})"
            ) from None

    @property
    def keys(self) -> List[str]:
        return list(self._segments)

    @property
    def total_bytes(self) -> int:
        """Bytes resident in shared blocks — once per host, not per worker."""
        return sum(seg.nbytes for seg in self._segments.values())

    def close(self) -> None:
        """Close and unlink every block. Idempotent."""
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        for seg in self._segments.values():
            try:
                seg._shm.close()
                seg._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "SegmentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
