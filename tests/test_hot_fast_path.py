"""The serving fast path: the per-query bookkeeping a hot hit pays.

Pins what makes a hot-rung answer cheap without changing any answer:
the Space-Saving table's kept minimum, the scalar count–min reads and
increments, the ladder's engine deltas (built only where an engine
ran), and a budget of Python calls per hot hit through the serving
front. The call count is
deterministic, so the budget catches a reintroduced per-attempt copy
or lock helper without timing anything.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from repro.core.interface import ErrorModel
from repro.engine import EngineStats
from repro.hot.fingerprint import MOD
from repro.hot.sketch import CountMinSketch
from repro.hot.topk import SpaceSavingTable
from repro.service import QueryServer, build_default_ladder
from repro.textutil import Text

TEXT = Text("abracadabra_the_quick_brown_fox_" * 30)
L = 8


# ---------------------------------------------------------------------------
# Space-Saving: the kept minimum


class _RescanTable:
    """Reference Space-Saving table: every minimum is a scan, and the
    victim is the first minimal entry in insertion order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # pattern -> [hits, overestimate]

    def min_hits(self):
        if len(self.entries) < self.capacity:
            return 0
        return min(hits for hits, _ in self.entries.values())

    def hit(self, pattern):
        entry = self.entries.get(pattern)
        if entry is not None:
            entry[0] += 1
        return entry

    def admit(self, pattern, freq):
        if pattern in self.entries:
            return self.entries[pattern]
        if len(self.entries) < self.capacity:
            self.entries[pattern] = [max(1, int(freq)), 0]
            return self.entries[pattern]
        victim = min(self.entries, key=lambda p: self.entries[p][0])
        hits = self.entries[victim][0]
        if freq <= hits:
            return None
        del self.entries[victim]
        self.entries[pattern] = [hits + 1, hits]
        return self.entries[pattern]


class TestKeptMinimum:
    def test_differential_against_rescanning(self):
        rng = random.Random(20)
        table, reference = SpaceSavingTable(8), _RescanTable(8)
        universe = [f"p{i}" for i in range(40)]
        kinds = {"admit": 0, "hit": 0, "evict": 0, "clear": 0}
        for step in range(12_000):
            roll = rng.random()
            pattern = universe[min(39, int(rng.paretovariate(1.2)) - 1)]
            if roll < 0.002:
                table.clear()
                reference.entries.clear()
                kinds["clear"] += 1
            elif roll < 0.55:
                got = table.hit(pattern)
                want = reference.hit(pattern)
                assert (got is None) == (want is None)
                kinds["hit"] += got is not None
            else:
                freq = rng.randrange(1, 12)
                full = len(table) == table.capacity
                before = table.evictions
                assert table.would_admit(freq) == (
                    not full or freq > reference.min_hits()
                )
                got = table.admit(pattern, freq, fingerprint=0)
                want = reference.admit(pattern, freq)
                assert (got is None) == (want is None)
                kinds["admit"] += 1
                kinds["evict"] += table.evictions - before
            state = [
                (e.pattern, e.hits, e.overestimate) for e in table.entries()
            ]
            assert state == [
                (p, hits, over) for p, (hits, over) in reference.entries.items()
            ], step
            assert table.min_hits() == reference.min_hits()
            if len(table):
                assert table._min == min(e.hits for e in table.entries())
        # Every operation kind ran many times, evictions included.
        assert min(kinds.values()) >= 10, kinds


# ---------------------------------------------------------------------------
# count–min: scalar reads and increments


def _numpy_columns(sketch, fp):
    """The column per row, computed by a numpy uint64 kernel."""
    fps = np.uint64(fp % MOD)
    return ((sketch._a * fps + sketch._b) % np.uint64(MOD)) % np.uint64(
        sketch.width
    )


class TestScalarCountMin:
    @pytest.mark.parametrize(
        "width,depth,seed", [(64, 4, 7), (4096, 4, 0), (1024, 2, 1)]
    )
    def test_add_and_estimate_match_numpy(self, width, depth, seed):
        rng = random.Random(seed)
        sketch = CountMinSketch(width, depth, seed=seed)
        reference = np.zeros((depth, width), dtype=np.uint64)
        rows = np.arange(depth)
        fps = [rng.randrange(1 << 40) for _ in range(600)]
        for fp in fps:
            amount = rng.randrange(1, 4)
            sketch.add(fp, amount)
            reference[rows, _numpy_columns(sketch, fp)] += np.uint64(amount)
        bulk = np.array([rng.randrange(MOD) for _ in range(500)], dtype=np.uint64)
        sketch.add_many(bulk)
        for fp in bulk:
            reference[rows, _numpy_columns(sketch, int(fp))] += np.uint64(1)
        assert np.array_equal(sketch._cells, reference)
        probes = fps + [int(fp) for fp in bulk]
        probes += [rng.randrange(1 << 40) for _ in range(200)]
        for fp in probes:
            want = int(reference[rows, _numpy_columns(sketch, fp)].min())
            got = sketch.estimate(fp)
            assert got == want and type(got) is int
        # A clone hashes alike into cells of its own.
        clone = sketch.clone_empty()
        assert not clone._cells.any()
        clone_reference = np.zeros_like(reference)
        for fp in fps[:50]:
            clone.add(fp)
            clone_reference[rows, _numpy_columns(clone, fp)] += np.uint64(1)
        assert np.array_equal(clone._cells, clone_reference)
        assert np.array_equal(sketch._cells, reference)
        for fp in fps[:50]:
            assert clone.estimate(fp) == int(
                clone_reference[rows, _numpy_columns(clone, fp)].min()
            )
        # uint32 cells while the total fits them; 64-bit hash constants.
        assert sketch._cells.dtype == np.uint32
        assert clone.space_bits() == sketch.space_bits() == (
            depth * width * 32 + 2 * depth * 64
        )

    @pytest.mark.parametrize("bulk", [False, True])
    def test_total_past_uint32_widens_the_plane(self, bulk):
        """An add that could carry a cell past 2**32 - 1 widens the plane
        to uint64 first: the new weight lands in full, every other cell
        keeps its count, and the scalar row views follow the new plane."""
        rng = random.Random(5)
        sketch = CountMinSketch(256, 4, seed=3)
        reference = np.zeros((4, 256), dtype=np.uint64)
        rows = np.arange(4)
        fps = [rng.randrange(1 << 40) for _ in range(300)]
        for fp in fps:
            amount = rng.randrange(1, 4)
            sketch.add(fp, amount)
            reference[rows, _numpy_columns(sketch, fp)] += np.uint64(amount)
        before = {fp: sketch.estimate(fp) for fp in fps}
        assert sketch._cells.dtype == np.uint32
        heavy, big = fps[0], 1 << 32
        if bulk:
            sketch.add_many(np.array([heavy], dtype=np.uint64), big)
        else:
            sketch.add(heavy, big)
        reference[rows, _numpy_columns(sketch, heavy)] += np.uint64(big)
        assert sketch._cells.dtype == np.uint64
        assert np.array_equal(sketch._cells, reference)
        assert sketch.estimate(heavy) == before[heavy] + big
        touched = set(_numpy_columns(sketch, heavy).tolist())
        for fp in fps[1:]:
            cols = _numpy_columns(sketch, fp)
            assert sketch.estimate(fp) == int(reference[rows, cols].min())
            if touched.isdisjoint(cols.tolist()):
                assert sketch.estimate(fp) == before[fp]
        # Both paths keep counting on the widened plane.
        sketch.add(fps[1])
        sketch.add_many(np.array(fps[2:4], dtype=np.uint64))
        for fp in fps[1:4]:
            reference[rows, _numpy_columns(sketch, fp)] += np.uint64(1)
        assert np.array_equal(sketch._cells, reference)
        assert sketch.total == int(reference[0].sum())
        assert sketch.space_bits() == 4 * 256 * 64 + 2 * 4 * 64


# ---------------------------------------------------------------------------
# the ladder: engine deltas


def _nonzero(stats):
    return {name: value for name, value in stats.as_dict().items() if value}


class TestEngineDeltas:
    def test_cpst_outcome_carries_its_engine_delta(self):
        ladder = build_default_ladder(TEXT, L, deadline_seconds=5.0)
        first = ladder.query("abracadabra")
        assert first.tier == "cpst"
        assert _nonzero(first.engine) == {
            "patterns": 1, "automaton_starts": 1, "automaton_steps": 10,
            "rank_calls": 44, "state_cache_misses": 1, "deadline_checks": 11,
        }
        assert _nonzero(ladder.query("abra").engine) == {
            "patterns": 1, "state_cache_hits": 4,
        }
        assert _nonzero(ladder.query("abracadabra").engine) == {
            "patterns": 1, "result_cache_hits": 1,
        }

    def test_declined_attempt_work_sums_into_the_answer(self):
        ladder = build_default_ladder(TEXT, L, deadline_seconds=5.0)
        outcome = ladder.query("zq")
        assert outcome.tier == "apx"
        # CPST's declined walk plus APX's answering walk.
        assert _nonzero(outcome.engine) == {
            "patterns": 2, "automaton_starts": 2, "automaton_steps": 2,
            "rank_calls": 24, "state_cache_misses": 2, "deadline_checks": 4,
        }

    def test_hot_hit_carries_all_zero_engine_stats(self):
        ladder = build_default_ladder(TEXT, L, deadline_seconds=5.0, hot=True)
        with QueryServer(ladder) as server:
            assert server.query("abracadabra").tier == "cpst"
            outcome = server.query("abracadabra")
        assert outcome.tier == "hot"
        assert isinstance(outcome.engine, EngineStats)
        assert outcome.engine == EngineStats()

    def test_hot_hits_share_one_idle_engine_instance(self):
        ladder = build_default_ladder(TEXT, L, deadline_seconds=5.0, hot=True)
        with QueryServer(ladder) as server:
            assert server.query("abracadabra").tier == "cpst"
            first = server.query("abracadabra")
            second = server.query("abracadabra")
        assert first.tier == second.tier == "hot"
        assert first.engine is second.engine
        assert _nonzero(first.engine) == {}


# ---------------------------------------------------------------------------
# the call budget of a hot hit

#: Python ``call`` events a hot hit may make through ``QueryServer.query``.
VERIFIED_HIT_CALLS = 29
SKETCH_HIT_CALLS = 32


def _calls(server, pattern):
    events = [0]

    def profile(frame, event, arg):
        if event == "call":
            events[0] += 1

    sys.setprofile(profile)
    try:
        outcome = server.query(pattern)
    finally:
        sys.setprofile(None)
    return events[0], outcome


class TestCallBudget:
    @pytest.fixture()
    def server(self):
        ladder = build_default_ladder(TEXT, L, deadline_seconds=5.0, hot=True)
        with QueryServer(ladder) as server:
            yield server

    def test_verified_hit(self, server):
        assert server.query("abracadabra").tier == "cpst"
        calls, outcome = _calls(server, "abracadabra")
        assert (outcome.tier, outcome.error_model) == ("hot", ErrorModel.EXACT)
        assert calls <= VERIFIED_HIT_CALLS

    def test_sketch_hit(self, server):
        # An absent pattern: APX answers it (never exact), so the second
        # answer admits it unverified and the third is a sketch hit.
        for _ in range(2):
            assert server.query("zq").tier == "apx"
        hot = server.service.tiers[0].hot
        before = hot.stats.sketch_hits
        calls, outcome = _calls(server, "zq")
        assert (outcome.tier, outcome.error_model) == (
            "hot", ErrorModel.UPPER_BOUND,
        )
        assert hot.stats.sketch_hits == before + 1
        assert calls <= SKETCH_HIT_CALLS
