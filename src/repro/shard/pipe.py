"""Parent side of the daemon worker protocol: spawn, kill, and rounds.

Every process-backed executor talks to its workers through this module.
:class:`PipeWorker` is one worker process behind one duplex pipe: spawn
with its ``ready`` handshake, and kill. :func:`pipe_round` is the one
request/reply exchange: it sends to every worker before it collects any
reply, waits for all of them inside one wall-clock window (the wait for
a worker's pipe lock included), and reads every pending reply before it
re-raises a worker-reported error, so no stale reply is left on a pipe
for the next request to trip over. The worker side and the protocol
table are in :mod:`repro.daemon.worker`.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    DeadlineExceededError,
    IndexCorruptedError,
    InvalidParameterError,
    PatternError,
    ReproError,
)
from ..service.deadline import Deadline
from .fanout import Slot

#: Extra wall-clock granted past a query's own deadline before the parent
#: declares a worker dead rather than merely slow.
DEADLINE_GRACE = 0.25

#: The failure reason of a worker whose pipe lock outlived the window:
#: it is serving someone else, which is not a failure.
BUSY = "worker busy past deadline"

#: Errors a worker may legitimately report; re-raised by name in the parent.
ERROR_TYPES: Dict[str, type] = {
    "DeadlineExceededError": DeadlineExceededError,
    "PatternError": PatternError,
    "InvalidParameterError": InvalidParameterError,
    "IndexCorruptedError": IndexCorruptedError,
    "ReproError": ReproError,
}


def round_window(
    deadline: Optional[Deadline], timeout: float
) -> Tuple[Optional[float], float]:
    """``(remaining, window)`` for one round under ``deadline``.

    ``remaining`` is the budget each worker enforces on its own search
    (``None`` without a finite deadline); ``window`` is how long the
    parent waits for the whole round: that budget plus
    :data:`DEADLINE_GRACE`, never more than ``timeout``.
    """
    remaining = None if deadline is None else deadline.remaining()
    if remaining is None or not math.isfinite(remaining):
        return None, timeout
    return remaining, min(timeout, remaining + DEADLINE_GRACE)


class PipeWorker(Slot):
    """One worker process behind one duplex pipe, plus its health."""

    __slots__ = (
        "process", "conn", "lock", "req_seq", "attached", "respawns",
        "respawn_times", "condemned", "retry_at",
    )

    def __init__(self, name: str):
        super().__init__(name)
        self.process: Any = None
        self.conn: Any = None
        #: Serialises one request/reply round trip on the pipe.
        self.lock = threading.Lock()
        self.req_seq = 0
        #: Generation number -> the worker's attach telemetry.
        self.attached: Dict[int, Dict[str, Any]] = {}
        self.respawns = 0
        #: Respawns granted inside the backoff window (BackoffPolicy.spend).
        self.respawn_times: List[float] = []
        #: The daemon monitor's schedule: a condemned worker is never
        #: respawned again; a quarantined one is retried after retry_at.
        self.condemned = False
        self.retry_at = 0.0

    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.is_alive()
            and self.conn is not None
        )

    def serving(self) -> bool:
        return not self.quarantined and self.alive()

    def spawn(self, ctx: Any, max_states: int, timeout: float) -> None:
        """Start a fresh worker and wait for its ``ready`` handshake."""
        # Imported here: the worker module's package imports this one.
        from ..daemon.worker import daemon_worker_main

        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=daemon_worker_main,
            args=(child_conn, max_states),
            name=f"repro-worker-{self.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        failure = ""
        try:
            if not parent_conn.poll(timeout):
                failure = "did not complete its handshake"
            elif parent_conn.recv()[0] != "ready":
                failure = "failed its handshake"
        except (EOFError, OSError):
            failure = "died during its handshake"
        if failure:
            process.terminate()
            process.join(timeout=1.0)
            parent_conn.close()
            raise ReproError(
                f"worker {self.name} {failure} (exit code {process.exitcode})"
            )
        self.process = process
        self.conn = parent_conn
        self.attached = {}

    def kill(self) -> None:
        """Stop the worker: ask, then terminate, then SIGKILL a wedged one."""
        conn, process = self.conn, self.process
        self.conn = None
        self.process = None
        self.attached = {}
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # wedged (e.g. SIGSTOPped): SIGKILL
                process.kill()
                process.join(timeout=5.0)


def pipe_round(
    workers: Sequence[PipeWorker],
    request: Tuple[Any, ...],
    window: float,
    fail: Callable[[PipeWorker, str], None],
) -> List[Tuple[Any, str]]:
    """Send ``request`` to every worker, then collect every reply.

    ``request`` is a protocol tuple without its id, e.g.
    ``("count", generation, pattern, remaining)``. Returns one
    ``(value, failure_reason)`` per worker, in order; an empty reason
    means the worker answered. A worker that is not running, whose pipe
    breaks, that sends no reply within the window, or whose reply is out
    of sequence is handed to ``fail(worker, reason)``; one whose pipe
    lock stays held past the window is reported :data:`BUSY`. A
    worker-reported error re-raises once every reply has been read.
    Pipe locks are taken in ``workers`` order, so concurrent rounds over
    the same fleet cannot deadlock.
    """
    end = time.monotonic() + window
    replies: List[Tuple[Any, str]] = []
    held: List[PipeWorker] = []
    pending: List[Tuple[int, PipeWorker, Any, int]] = []
    error: Optional[Exception] = None
    try:
        for worker in workers:
            if not worker.lock.acquire(timeout=max(0.0, end - time.monotonic())):
                replies.append((None, BUSY))
                continue
            held.append(worker)
            conn = worker.conn
            reason = ""
            if conn is None or not worker.alive():
                reason = "worker not running"
            else:
                worker.req_seq += 1
                try:
                    conn.send((request[0], worker.req_seq) + request[1:])
                except (BrokenPipeError, OSError):
                    reason = "worker pipe broken"
            if reason:
                fail(worker, reason)
                replies.append((None, worker.reason))
            else:
                pending.append((len(replies), worker, conn, worker.req_seq))
                replies.append((None, ""))
        for index, worker, conn, req_id in pending:
            reason = ""
            try:
                if conn.poll(max(0.0, end - time.monotonic())):
                    reply = conn.recv()
                    if reply[0] != req_id:
                        reason = (
                            f"protocol desync (reply {reply[0]}, want {req_id})"
                        )
                elif worker.alive():
                    reason = "worker wedged (no reply)"
                else:
                    reason = "worker died mid-request"
            except (EOFError, OSError):
                reason = "worker died mid-request"
            if reason:
                fail(worker, reason)
                replies[index] = (None, worker.reason)
            elif reply[1] == "err":
                _, _, type_name, message = reply
                if error is None:
                    error = ERROR_TYPES.get(type_name, ReproError)(
                        f"worker {worker.name}: {message}"
                    )
            else:
                replies[index] = (reply[2], "")
    finally:
        for worker in held:
            worker.lock.release()
    if error is not None:
        raise error
    return replies
