"""Shard worker process: serve any attached generation over one pipe.

Every process-backed executor runs this one entry point. A worker holds
a **map of generations** — ``generation number -> attached estimator``
— and every count request names the generation it was admitted under.
The daemon supervisor uses that to hot reload by a flip instead of a
fleet restart: it attaches G+1 while G keeps serving, switches
admission, and releases G only after its last in-flight query finished.
:class:`~repro.parallel.executor.ProcessShardedEstimator` attaches its
one fixed segment set as a single generation and never flips. The
parent side of the protocol is :mod:`repro.shard.pipe`.

Protocol (requests/replies are plain tuples; replies carry the request
id so the parent can detect desync):

==============================================  ===============================
request                                         reply
==============================================  ===============================
``("attach", id, gen, shm_name)``               ``(id, "ok", {telemetry})``
``("release", id, gen)``                        ``(id, "ok", True)``
``("count", id, gen, pattern, remaining)``      ``(id, "ok", value)``
``("count_many", id, gen, patterns, rem)``      ``(id, "ok", [value, ...])``
``("ping", id)``                                ``(id, "ok", "pong")``
``("stop",)``                                   worker exits
==============================================  ===============================

A count answers under the shard's own model (``count_or_none`` for
lower-sided shards, ``count`` otherwise); ``count_many`` answers the
whole batch in one round trip through the attachment's memoising
counter. A request that raises replies ``(id, "err", type_name,
message)``.

An ``attach`` parses the shared segment with full digest verification —
a torn or corrupt generation is rejected with ``(id, "err", ...)``
*before* it could ever answer a query, which is the worker-side half of
the "no torn generation serves" invariant. Its telemetry reports the
segment size and the index's space report; a worker's first attach
also reports the bytes the attach itself allocated (``tracemalloc``
brackets it; the zero-copy tests assert this stays far below the
segment size). ``release`` drops the
attachment and closes the shared-memory mapping (best effort: if numpy
views are still referenced the mapping stays until process exit, which
is harmless — the parent's ``unlink`` removes the name either way).
"""

from __future__ import annotations

import gc
import tracemalloc
from multiprocessing.connection import Connection
from typing import Any, Dict, Optional

from ..errors import InvalidParameterError


class _Attachment:
    """One generation's serving state inside the worker."""

    __slots__ = ("shm", "estimator", "counter", "lower_sided")

    def __init__(self, shm, estimator, counter, lower_sided: bool):
        self.shm = shm
        self.estimator = estimator
        self.counter = counter
        self.lower_sided = lower_sided


def daemon_worker_main(conn: Connection, max_states: int) -> None:
    """Worker entry point (spawned; nothing inherited but the pipe)."""
    from ..core.interface import ErrorModel
    from ..engine import IndexCounter
    from ..parallel.pool import attach_shared_segment
    from ..service.deadline import Deadline

    attachments: Dict[int, _Attachment] = {}
    # Mappings whose close() tripped on exported buffers: keep them
    # referenced so the views stay valid until process exit.
    pinned = []

    conn.send(("ready", {}))

    def answer_one(
        attachment: _Attachment, pattern: str, remaining: Optional[float]
    ) -> Optional[int]:
        sub = None if remaining is None else Deadline(remaining)
        if attachment.lower_sided:
            return attachment.counter.count_or_none(pattern, sub)
        return attachment.counter.count(pattern, sub)

    def answer_many(attachment, patterns, remaining):
        # One shared sub-deadline for the whole batch; the counter's
        # planner shares suffix work across the batch.
        sub = None if remaining is None else Deadline(remaining)
        if attachment.lower_sided:
            return attachment.counter.count_or_none_many(patterns, sub)
        return list(attachment.counter.count_many(patterns, sub))

    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "stop":
                break
            req_id = msg[1]
            try:
                if op == "attach":
                    _, _, gen, shm_name = msg
                    if gen in attachments:
                        raise InvalidParameterError(
                            f"generation {gen} already attached"
                        )
                    # Only a worker's first attach is traced: that is the
                    # zero-copy evidence, and tracing every daemon flip's
                    # attach would triple its cost.
                    traced = not attachments
                    if traced:
                        tracemalloc.start()
                    try:
                        shm, segment = attach_shared_segment(
                            shm_name, verify=True
                        )
                        try:
                            estimator = segment.attach("index")
                        except Exception:
                            shm.close()
                            raise
                        allocated, _ = tracemalloc.get_traced_memory()
                    finally:
                        if traced:
                            tracemalloc.stop()
                    attachments[gen] = _Attachment(
                        shm,
                        estimator,
                        IndexCounter(estimator, max_states=max_states),
                        estimator.error_model is ErrorModel.LOWER_SIDED,
                    )
                    report = estimator.space_report()
                    result: Any = {
                        "segment_bytes": segment.nbytes,
                        "space_components": dict(report.components),
                        "space_overhead": dict(report.overhead),
                        "generations": sorted(attachments),
                    }
                    if traced:
                        result["attach_alloc_bytes"] = allocated
                elif op == "release":
                    _, _, gen = msg
                    attachment = attachments.pop(gen, None)
                    if attachment is not None:
                        shm = attachment.shm
                        del attachment
                        gc.collect()
                        try:
                            shm.close()
                        except BufferError:
                            pinned.append(shm)
                    result = True
                elif op == "count":
                    _, _, gen, pattern, remaining = msg
                    result = answer_one(
                        attachments[gen], pattern, remaining
                    )
                elif op == "count_many":
                    _, _, gen, patterns, remaining = msg
                    result = answer_many(attachments[gen], patterns, remaining)
                elif op == "ping":
                    result = "pong"
                else:
                    raise InvalidParameterError(f"unknown op {op!r}")
            except KeyError as exc:
                conn.send((
                    req_id, "err", "InvalidParameterError",
                    f"generation {exc} is not attached "
                    f"(have {sorted(attachments)})",
                ))
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                conn.send((req_id, "err", type(exc).__name__, str(exc)))
            else:
                conn.send((req_id, "ok", result))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (or is tearing us down): just exit
    finally:
        conn.close()
        # Attached structures hold live views into shared memory — a
        # regular interpreter teardown would trip over the exported
        # buffers (BufferError from SharedMemory.close). Serving is
        # done; exit immediately and let the OS drop the mappings.
        import os

        os._exit(0)
