"""Zero-copy process-parallel serving plane.

Three layers, each usable alone:

* :mod:`repro.parallel.segment` — serialise any storage-protocol index
  into one contiguous, checksummed, 8-aligned **segment** blob with a
  relocation table, and attach it back as read-only zero-copy views.
* :mod:`repro.parallel.pool` — :class:`SegmentPool` maps each segment
  into a named shared-memory block exactly once per host;
  :func:`attach_shared_segment` is the worker-side open.
* :mod:`repro.parallel.executor` — :class:`ProcessShardedEstimator`, the
  multiprocess sibling of the in-process
  :class:`~repro.shard.estimator.ShardedEstimator`: ``k`` worker
  processes attached to shared segments, a batched pipe protocol, and
  the same fan-out core, merge algebra and quarantine lifecycle.
* :mod:`repro.parallel.asyncserver` — :class:`AsyncQueryServer`, the
  asyncio front over :class:`~repro.service.server.QueryServer`: it
  awaits admission on the loop and runs each admitted query's ladder
  walk (hedged or not) in one thread hop.
"""

from .asyncserver import AsyncQueryServer
from .executor import ProcessShardedEstimator
from .pool import PublishedSegment, SegmentPool, attach_shared_segment
from .segment import (
    ALIGNMENT,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    Segment,
    SegmentWriter,
    write_estimator_segment,
)

__all__ = [
    "ALIGNMENT",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "AsyncQueryServer",
    "ProcessShardedEstimator",
    "PublishedSegment",
    "Segment",
    "SegmentPool",
    "SegmentWriter",
    "attach_shared_segment",
    "write_estimator_segment",
]
