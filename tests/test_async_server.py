"""Unit tests for the asyncio serving front (repro.parallel.asyncserver).

Mirrors the thread-server suite: the :class:`AsyncQueryServer` must honor
the same admission/shedding/hedging contract as
:class:`~repro.service.server.QueryServer`, with coroutine control flow.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import (
    InvalidParameterError,
    PatternError,
    ServerClosedError,
)
from repro.parallel import AsyncQueryServer
from repro.service import (
    QueryOutcome,
    ResilientEstimator,
    ShedOutcome,
    Tier,
    build_default_ladder,
    run_async_probe,
)
from repro.service.tiers import TextStatsEstimator
from repro.textutil import Text

TEXT = Text("abracadabra_the_quick_brown_fox_" * 30)
L = 8


def make_server(**kwargs) -> AsyncQueryServer:
    service = build_default_ladder(TEXT, L, deadline_seconds=5.0)
    return AsyncQueryServer(service, **kwargs)


def run(coro):
    return asyncio.run(coro)


class TestAsyncBulkhead:
    """The async front's bulkhead is the thread front's shared Bulkhead."""

    def test_caps_and_counts_saturation(self):
        async def scenario():
            async with make_server(bulkhead_limits={"cpst": 1}) as server:
                cpst = server.service.tiers[0]
                assert server._bulkhead.acquire(cpst)
                assert not server._bulkhead.acquire(cpst)
                try:
                    degraded = await server.query("abra")
                finally:
                    server._bulkhead.release(cpst)
                assert degraded.tier != "cpst"
                assert server.stats().bulkhead_saturation == {"cpst": 2}
                outcome = await server.query("abra")
                assert outcome.tier == "cpst"
                assert server._bulkhead.acquire(cpst)
                server._bulkhead.release(cpst)

        run(scenario())

    def test_unlisted_tier_unbounded_by_default(self):
        async def scenario():
            async with make_server(bulkhead_limits={"cpst": 1}) as server:
                tier = Tier(TextStatsEstimator(TEXT), "anything")
                for _ in range(50):
                    assert server._bulkhead.acquire(tier)
                assert server.stats().bulkhead_saturation == {}

        run(scenario())

    def test_validation(self):
        service = build_default_ladder(TEXT, L, deadline_seconds=5.0)
        with pytest.raises(InvalidParameterError):
            AsyncQueryServer(service, bulkhead_limits={"x": 0})
        with pytest.raises(InvalidParameterError):
            AsyncQueryServer(service, bulkhead_wait=-1.0)


class TestAsyncQueryServer:
    def test_serves_and_counts(self):
        async def scenario():
            async with make_server() as server:
                outcome = await server.query("abra")
                assert isinstance(outcome, QueryOutcome)
                assert outcome.count == TEXT.count_naive("abra")
                assert not outcome.shed
                stats = server.stats()
                assert stats.served == 1 and stats.shed == 0

        run(scenario())

    def test_rejects_bad_patterns(self):
        async def scenario():
            async with make_server() as server:
                with pytest.raises(PatternError):
                    await server.query("")

        run(scenario())

    def test_rate_limit_sheds_with_sound_answer(self):
        async def scenario():
            async with make_server(rate=0.0001, burst=1.0) as server:
                first = await server.query("abra")
                assert isinstance(first, QueryOutcome)
                second = await server.query("abra")
                assert isinstance(second, ShedOutcome)
                assert second.reason == "rate limited"
                assert second.tier == "stats"
                assert second.contract_holds(
                    TEXT.count_naive("abra"), len(TEXT)
                )
                assert server.stats().shed == 1

        run(scenario())

    def test_draining_sheds_then_close_raises(self):
        async def scenario():
            server = make_server()
            await server.drain()
            outcome = await server.query("abra")
            assert isinstance(outcome, ShedOutcome)
            assert outcome.reason == "draining"
            await server.close()
            with pytest.raises(ServerClosedError):
                await server.query("abra")

        run(scenario())

    def test_requires_always_available_tier(self):
        from repro.core import CompactPrunedSuffixTree

        bare = ResilientEstimator(
            [Tier(CompactPrunedSuffixTree(TEXT, L), "cpst")]
        )
        with pytest.raises(InvalidParameterError, match="always-available"):
            AsyncQueryServer(bare)

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            make_server(max_concurrent=0)
        with pytest.raises(InvalidParameterError):
            make_server(max_waiting=-1)
        with pytest.raises(InvalidParameterError):
            make_server(max_wait=-0.1)
        with pytest.raises(InvalidParameterError):
            make_server(hedge_after=0.0)
        with pytest.raises(InvalidParameterError):
            make_server(bulkhead_wait=-1.0)

    def test_admission_queue_full_sheds(self):
        # One slot, no waiting room: while a stalled query holds the
        # slot, the next arrival is shed with a sound stats answer.
        release = threading.Event()

        class StallingEstimator(TextStatsEstimator):
            def count(self, pattern):
                release.wait(5.0)
                return super().count(pattern)

        service = ResilientEstimator(
            [
                Tier(StallingEstimator(TEXT), "slow"),
                Tier(TextStatsEstimator(TEXT), "stats", always_available=True),
            ],
            deadline_seconds=10.0,
        )

        async def scenario():
            server = AsyncQueryServer(
                service, max_concurrent=1, max_waiting=0
            )
            blocked = asyncio.ensure_future(server.query("abra"))
            while not server._inflight:
                await asyncio.sleep(0.005)
            shed = await server.query("abra")
            assert isinstance(shed, ShedOutcome)
            assert shed.reason == "admission queue full"
            release.set()
            first = await blocked
            assert isinstance(first, QueryOutcome)
            await server.close()

        try:
            run(scenario())
        finally:
            release.set()

    def test_bulkhead_saturation_degrades_not_blocks(self):
        async def scenario():
            async with make_server(bulkhead_limits={"cpst": 1}) as server:
                cpst = server.service.tiers[0]
                assert server._bulkhead.acquire(cpst)
                try:
                    outcome = await server.query("abra")
                finally:
                    server._bulkhead.release(cpst)
                assert isinstance(outcome, QueryOutcome)
                assert outcome.tier != "cpst"
                assert (
                    "cpst",
                    "skipped: bulkhead saturated",
                ) in outcome.failures

        run(scenario())

    def test_hedged_mode_returns_valid_answers(self):
        async def scenario():
            async with make_server(hedge_after=0.2) as server:
                for pattern in ("abra", "quick", "zzz_absent"):
                    outcome = await server.query(pattern)
                    assert isinstance(outcome, QueryOutcome)
                    assert outcome.contract_holds(
                        TEXT.count_naive(pattern), len(TEXT)
                    )

        run(scenario())

    def test_hedge_fires_when_primary_stalls(self):
        release = threading.Event()

        class StallingEstimator(TextStatsEstimator):
            def count(self, pattern):
                release.wait(5.0)
                return super().count(pattern)

        service = ResilientEstimator(
            [
                Tier(StallingEstimator(TEXT), "slow"),
                Tier(TextStatsEstimator(TEXT), "stats", always_available=True),
            ],
            deadline_seconds=10.0,
        )

        async def scenario():
            async with AsyncQueryServer(service, hedge_after=0.05) as server:
                outcome = await server.query("abra")
                assert outcome.tier == "stats"
                assert outcome.hedged
                assert server.stats().hedges_fired >= 1
            release.set()

        try:
            run(scenario())
        finally:
            release.set()

    def test_query_many_concurrent(self):
        async def scenario():
            async with make_server(max_concurrent=4, max_waiting=64,
                                   max_wait=2.0) as server:
                patterns = ["abra", "quick", "fox", "zzz", "the_"] * 4
                outcomes = await server.query_many(patterns)
                assert len(outcomes) == len(patterns)
                for pattern, outcome in zip(patterns, outcomes):
                    assert outcome.pattern == pattern
                    assert outcome.contract_holds(
                        TEXT.count_naive(pattern), len(TEXT)
                    )

        run(scenario())

    def test_drain_waits_for_inflight(self):
        release = threading.Event()

        class StallingEstimator(TextStatsEstimator):
            def count(self, pattern):
                release.wait(5.0)
                return super().count(pattern)

        service = ResilientEstimator(
            [
                Tier(StallingEstimator(TEXT), "slow", always_available=True),
            ],
            deadline_seconds=10.0,
        )

        async def scenario():
            server = AsyncQueryServer(service, max_concurrent=2)
            inflight = asyncio.ensure_future(server.query("abra"))
            while not server._inflight:
                await asyncio.sleep(0.005)
            assert not await server.drain(timeout=0.05)
            release.set()
            assert await server.drain(timeout=5.0)
            outcome = await inflight
            assert isinstance(outcome, QueryOutcome)
            await server.close()

        try:
            run(scenario())
        finally:
            release.set()


class TestAsyncProbe:
    def test_probe_loses_nothing(self):
        server = make_server(max_concurrent=4, max_waiting=64, max_wait=2.0)
        patterns = ["abra", "quick", "fox", "zzz", "the_"] * 8
        report = run_async_probe(server, patterns, concurrency=8)
        assert report.total == len(patterns)
        assert report.answered == len(patterns)
        from collections import Counter

        sent = Counter(patterns)
        got = Counter(outcome.pattern for outcome in report.outcomes)
        assert got == sent

    def test_probe_generates_workload_from_text(self):
        server = make_server()
        report = run_async_probe(server, text=TEXT, seed=1, concurrency=4)
        assert report.total > 0
        assert report.ok
        assert "serve-check PASS" in report.format()
