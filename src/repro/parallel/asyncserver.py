"""Asyncio serving front over a degradation ladder.

:class:`AsyncQueryServer` is a thin asyncio layer over the thread front,
:class:`~repro.service.server.QueryServer`. It shares that front's
construction and validation, the token bucket, the admission rules, the
:class:`~repro.service.server.Bulkhead`, the latency tracker, the
counters, :meth:`~AsyncQueryServer.stats` and the shed answer, and it adds
exactly two things:

* **an awaited admission wait** — the
  :class:`~repro.service.admission.AdmissionController` decides every
  arrival without waiting; when it says "wait until ``t``", the query
  awaits a slot release (or ``t``) on the loop instead of blocking a
  thread, so many queued queries cost no threads.
* **one thread hop per query** — an admitted query runs the thread
  front's synchronous serve (the ladder's walk, hedged when
  ``hedge_after`` is set) in ``asyncio.to_thread``; a shed one runs the
  shared shed answer there. Answers therefore get the ladder's retries,
  engine deltas, degraded-shard provenance and hot-rung feedback.

This is the natural front for the
:class:`~repro.parallel.executor.ProcessShardedEstimator`: the event loop
multiplexes many in-flight queries while the searching happens in worker
processes.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Mapping, Optional, Set, Union

from ..service.deadline import Deadline
from ..service.outcome import QueryOutcome, ShedOutcome
from ..service.resilient import ResilientEstimator
from ..service.server import QueryServer, ServerStats


class AsyncQueryServer:
    """Coroutine-native serving front over a degradation ladder.

    Takes the :class:`~repro.service.server.QueryServer` parameters
    except ``watchdog`` and ``clock``, and keeps its contract:
    :meth:`query` returns a :class:`~repro.service.outcome.QueryOutcome`
    when the ladder ran, or a :class:`~repro.service.outcome.ShedOutcome`
    when admission answered from the always-available tier instead.
    ``query`` may be awaited from any number of tasks of one event loop.
    """

    def __init__(
        self,
        service: ResilientEstimator,
        *,
        max_concurrent: int = 8,
        max_waiting: int = 16,
        max_wait: float = 0.05,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        bulkhead_limits: Optional[Mapping[str, int]] = None,
        bulkhead_wait: float = 0.0,
        hedge_after: Optional[float] = None,
    ):
        self._server = QueryServer(
            service,
            max_concurrent=max_concurrent,
            max_waiting=max_waiting,
            max_wait=max_wait,
            rate=rate,
            burst=burst,
            bulkhead_limits=bulkhead_limits,
            bulkhead_wait=bulkhead_wait,
            hedge_after=hedge_after,
        )
        self._admission = self._server._admission
        self._bulkhead = self._server._bulkhead
        # Queries awaiting a slot release (or a drain's idle check).
        self._waiters: Set[asyncio.Future] = set()

    # -- lifecycle ------------------------------------------------------------

    @property
    def service(self) -> ResilientEstimator:
        return self._server.service

    @property
    def _inflight(self) -> int:
        """Queries admitted and not yet released."""
        return self._admission.inflight

    async def drain(self, timeout: Optional[float] = 5.0) -> bool:
        """Shed new arrivals; wait for in-flight queries to finish."""
        self._admission.set_draining(True)
        self._wake()
        until = None if timeout is None else time.monotonic() + timeout
        while self._admission.inflight:
            if until is not None and time.monotonic() >= until:
                return False
            await self._next_release(until)
        return True

    async def close(self, *, drain: bool = True,
                    timeout: Optional[float] = 5.0) -> None:
        """Drain (optionally) and refuse further queries."""
        if drain:
            await self.drain(timeout)
        self._server.close(drain=False)
        self._wake()

    async def __aenter__(self) -> "AsyncQueryServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def stats(self) -> ServerStats:
        """Snapshot, in the same shape the thread server reports."""
        return self._server.stats()

    # -- serving --------------------------------------------------------------

    async def query(
        self,
        pattern: str,
        *,
        deadline: Union[Deadline, float, None] = None,
    ) -> Union[QueryOutcome, ShedOutcome]:
        """Serve one pattern; the loop only ever awaits."""
        server = self._server
        budget, started = server._begin(pattern, deadline)
        decision = self._admission.arrive(budget)
        try:
            while isinstance(decision, float):
                await self._next_release(decision)
                decision = self._admission.settle(decision)
        finally:
            if isinstance(decision, float):  # cancelled while waiting
                self._admission.withdraw()
        if decision is not None:
            return await asyncio.to_thread(
                server._shed_answer, pattern, decision, started
            )
        try:
            return await asyncio.to_thread(
                server._serve, pattern, budget, started
            )
        finally:
            self._admission.release()
            self._wake()

    async def query_many(
        self, patterns: List[str]
    ) -> List[Union[QueryOutcome, ShedOutcome]]:
        """Serve a batch concurrently (each under its own admission slot)."""
        return list(
            await asyncio.gather(*(self.query(p) for p in patterns))
        )

    async def _next_release(self, until: Optional[float]) -> None:
        """Sleep until the next slot release, drain or ``time.monotonic()``
        instant ``until``."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.add(waiter)
        try:
            timeout = None if until is None else max(0.0, until - time.monotonic())
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._waiters.discard(waiter)

    def _wake(self) -> None:
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._waiters.clear()
