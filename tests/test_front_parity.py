"""Every serving front runs the ladder's own walk.

The thread front and the asyncio front, each with and without hedging,
must do what :meth:`ResilientEstimator.query` does for one query's pass
down the tiers: feed the hot rung, skip tiers once the deadline is spent
rather than charge that to their breakers, and report degraded-shard
provenance. The hedge delay (0.5 s) is long enough that no hedge fires,
so every front should serve exactly what the ladder serves.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time
from collections import Counter

import pytest

from repro.core.approx import ApproxIndex
from repro.datasets.registry import generate
from repro.errors import DeadlineExceededError
from repro.parallel import AsyncQueryServer
from repro.service import (
    BreakerState,
    QueryOutcome,
    QueryServer,
    ResilientEstimator,
    ShedOutcome,
    Tier,
    build_default_ladder,
)
from repro.service.tiers import TextStatsEstimator
from repro.shard import ShardPlan, build_sharded_ladder

FRONTS = {
    "thread": (QueryServer, {}),
    "thread-hedged": (QueryServer, {"hedge_after": 0.5}),
    "async": (AsyncQueryServer, {}),
    "async-hedged": (AsyncQueryServer, {"hedge_after": 0.5}),
}


def serve(front, service, patterns):
    """The outcomes of ``patterns`` served one at a time by ``front``."""
    cls, kwargs = FRONTS[front]
    if cls is QueryServer:
        with QueryServer(service, **kwargs) as server:
            return [server.query(pattern) for pattern in patterns]

    async def drive():
        async with AsyncQueryServer(service, **kwargs) as server:
            return [await server.query(pattern) for pattern in patterns]

    return asyncio.run(drive())


@pytest.fixture(scope="module")
def english():
    return generate("english", 20000, 7)


@pytest.mark.parametrize("front", FRONTS)
def test_hot_rung_learns_behind_every_front(front, english):
    patterns = [english[i:i + 6] for i in range(0, 3000, 300)] * 20
    ladder = build_default_ladder(english, 16, deadline_seconds=5.0, hot=True)
    expected = Counter(ladder.query(pattern).tier for pattern in patterns)

    service = build_default_ladder(english, 16, deadline_seconds=5.0, hot=True)
    outcomes = serve(front, service, patterns)

    assert service.tiers[0].hot_stats.promotions >= 1
    assert Counter(outcome.tier for outcome in outcomes) == expected
    assert expected["hot"] > len(patterns) // 2


class SpendsTheDeadline(TextStatsEstimator):
    """A primary that runs past a 20 ms budget, then gives up."""

    def count(self, pattern):
        time.sleep(0.03)
        raise DeadlineExceededError("primary ran out of time")


@pytest.mark.parametrize("front", FRONTS)
def test_spent_deadline_is_not_charged_to_the_next_tier(front, english):
    service = ResilientEstimator(
        [
            Tier(SpendsTheDeadline(english), "primary"),
            Tier(ApproxIndex(english, 8), "apx"),
            Tier(TextStatsEstimator(english), "stats", always_available=True),
        ],
        deadline_seconds=0.02,
    )
    patterns = [english[i:i + 7] for i in range(0, 2400, 100)]
    outcomes = serve(front, service, patterns)

    apx = service.tiers[1]
    assert apx.breaker.state is BreakerState.CLOSED
    assert ("apx", "skipped: deadline exceeded") in outcomes[0].failures
    assert outcomes[0].tier == "stats"


@pytest.mark.parametrize("front", FRONTS)
def test_degraded_merge_keeps_its_provenance(front):
    raw = generate("dblp", 20000, 3)
    quarter = len(raw) // 4
    documents = [
        (f"doc{i}", raw[i * quarter:(i + 1) * quarter]) for i in range(4)
    ]
    service = build_sharded_ladder(ShardPlan.for_documents(documents, 2), 8)
    for tier in service.tiers:
        if tier.name in ("cpst-sharded", "apx-sharded"):
            tier.estimator.quarantine_shard("shard0", "test")

    (outcome,) = serve(front, service, [raw[100:104]])

    assert outcome.shards_degraded == ("shard0",)
    assert outcome.count_interval == (9, 10012)


class Broken(TextStatsEstimator):
    def count(self, pattern):
        raise RuntimeError("broken tier")


@pytest.mark.parametrize("front", ["thread", "thread-hedged"])
def test_walk_leaves_no_cyclic_garbage(front, english):
    """Declines and failures pin no exception frames: a reference cycle
    per query would hand the collector work on the serving path."""
    service = build_default_ladder(
        english, 16, deadline_seconds=5.0, hot=True, primary=Broken(english)
    )
    patterns = [english[i:i + 6] for i in range(0, 3000, 300)] * 5
    gc.collect()
    gc.disable()
    try:
        serve(front, service, patterns)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("front", FRONTS)
def test_admission_books_balance_under_contention(front, english):
    """More clients than slots and cores: every query is served or shed
    exactly once, and the admission books close at zero."""
    service = build_default_ladder(english, 16, deadline_seconds=5.0)
    patterns = [english[i:i + 5] for i in range(0, 4800, 100)]
    cls, kwargs = FRONTS[front]
    limits = dict(max_concurrent=2, max_waiting=4, max_wait=0.01)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        if cls is QueryServer:
            server = QueryServer(service, **limits, **kwargs)
            outcomes = []

            def client(share):
                outcomes.extend(server.query(pattern) for pattern in share)

            threads = [
                threading.Thread(target=client, args=(patterns[k::8],))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            server.close()
        else:
            server = AsyncQueryServer(service, **limits, **kwargs)

            async def drive():
                async with server:
                    return await server.query_many(patterns)

            outcomes = asyncio.run(drive())
    finally:
        sys.setswitchinterval(previous)

    stats = server.stats()
    shed = [outcome for outcome in outcomes if outcome.shed]
    assert len(outcomes) == len(patterns)
    assert stats.served + stats.shed == len(patterns)
    assert stats.shed == len(shed) == stats.admission.shed
    assert stats.admission.admitted == stats.served
    assert stats.inflight == 0


def test_async_waiter_cancelled_gives_back_its_wait_room(english):
    release = threading.Event()

    class Stalling(TextStatsEstimator):
        def count(self, pattern):
            release.wait(5.0)
            return super().count(pattern)

    service = ResilientEstimator(
        [
            Tier(Stalling(english), "slow"),
            Tier(TextStatsEstimator(english), "stats", always_available=True),
        ],
        deadline_seconds=10.0,
    )

    async def scenario():
        server = AsyncQueryServer(
            service, max_concurrent=1, max_waiting=1, max_wait=5.0
        )
        holder = asyncio.ensure_future(server.query("the"))
        while not server._inflight:
            await asyncio.sleep(0.005)
        waiter = asyncio.ensure_future(server.query("the"))
        await asyncio.sleep(0.05)
        full = await server.query("the")
        assert isinstance(full, ShedOutcome)
        assert full.reason == "admission queue full"
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        # The cancelled waiter's room is free: the next arrival queues.
        queued = asyncio.ensure_future(server.query("the"))
        await asyncio.sleep(0.05)
        release.set()
        assert isinstance(await queued, QueryOutcome)
        assert isinstance(await holder, QueryOutcome)
        await server.close()

    try:
        asyncio.run(scenario())
    finally:
        release.set()
