"""Engine layer: automaton adapters, trie planner, index counter, stats,
deadlines.

The differential core: for every automaton-capable index, the engine's
trie-planned ``count_many`` must return exactly what sequential
``count`` calls return — the planner is an execution strategy, never an
approximation — both at the default wave width and with every wave
pushed through ``step_many``. On top of that: ``automaton_of`` resolution
order, capability descriptors, the LRU state-cache bound (eviction never
drops memoised results), deadline aborts mid-batch, and the
:class:`~repro.engine.IndexCounter`'s whole-pattern side and
certification rule.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager, nullcontext

import pytest

from repro import (
    ApproxIndex,
    ApproxIndexEF,
    CompactPrunedSuffixTree,
    FMIndex,
    PrunedSuffixTree,
    QGramIndex,
    RLFMIndex,
)
from repro.engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    EngineStats,
    IndexCounter,
    TrieBatchPlanner,
    automaton_of,
    planner_for,
)
from repro.engine import planner as planner_module
from repro.errors import DeadlineExceededError, PatternError
from repro.datasets import generate
from repro.service import Deadline, ManualClock
from repro.textutil import Text, mixed_workload

SIZE = 3_000
THRESHOLD = 8

BUILDERS = {
    "fm": lambda text: FMIndex(text),
    "rlfm": lambda text: RLFMIndex(text),
    "apx": lambda text: ApproxIndex(text, THRESHOLD),
    "apx-ef": lambda text: ApproxIndexEF(text, THRESHOLD),
    "cpst": lambda text: CompactPrunedSuffixTree(text, THRESHOLD),
    "pst": lambda text: PrunedSuffixTree(text, THRESHOLD),
}


@contextmanager
def every_wave_bulk():
    """Push every wave through ``step_many``: the planner reads its width
    floor on every wave, so patching it reaches planners already built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner_module, "WAVE_WIDTH_MIN", 1)
        yield


@pytest.fixture(scope="module", params=["dna", "english", "dblp"])
def corpus(request):
    text = Text(generate(request.param, SIZE, seed=3))
    workload = mixed_workload(
        text, lengths=(1, 2, 4, 8, 12), per_length=10, seed=4
    )
    return request.param, text, list(workload)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_planned_equals_sequential(corpus, kind):
    """The differential contract: planner batches == per-pattern counts."""
    name, text, workload = corpus
    index = BUILDERS[kind](text)
    sequential = [index.count(p) for p in workload]
    planner = planner_for(index)
    assert planner is not None, (name, kind)
    assert planner.count_many(workload) == sequential, (name, kind)
    # Re-asking is served from the result memo, still identical.
    assert planner.count_many(list(reversed(workload))) == sequential[::-1]


@pytest.mark.parametrize("kind", ["cpst", "pst"])
def test_planned_count_or_none_matches(corpus, kind):
    """Lower-sided batches mirror count_or_none exactly (None included)."""
    name, text, workload = corpus
    index = BUILDERS[kind](text)
    planner = planner_for(index)
    expected = [index.count_or_none(p) for p in workload]
    assert planner.count_or_none_many(workload) == expected, (name, kind)


def test_count_or_none_requires_lower_sided(corpus):
    _, text, _ = corpus
    planner = planner_for(FMIndex(text))
    with pytest.raises(PatternError, match="lower-sided"):
        planner.count_or_none("a")


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_interface_count_many_routes_through_planner(corpus, kind):
    name, text, workload = corpus
    index = BUILDERS[kind](text)
    assert index.count_many(workload) == [index.count(p) for p in workload]


def test_lru_eviction_keeps_results_correct(corpus):
    """A tiny state budget forces evictions; answers must not change and
    memoised results must survive (the cache-growth contract)."""
    name, text, workload = corpus
    index = FMIndex(text)
    planner = TrieBatchPlanner(automaton_of(index), max_states=4)
    expected = [index.count(p) for p in workload]
    assert planner.count_many(workload) == expected, name
    assert planner.stats.state_cache_evictions > 0
    # Everything is memoised: a second pass does zero automaton work.
    before = planner.stats.copy()
    assert planner.count_many(workload) == expected
    delta = planner.stats - before
    assert delta.automaton_starts == 0 and delta.automaton_steps == 0
    assert delta.result_cache_hits == len(workload)


def test_shared_suffixes_reduce_extensions(corpus):
    """The acceptance-criterion shape: trie-planned batching performs
    strictly fewer extensions than isolated counting on an overlapping
    workload."""
    _, text, _ = corpus
    index = FMIndex(text)
    base = text.raw[100:112]
    patterns = [base[i:] for i in range(len(base))]  # shared suffixes
    naive = EngineStats()
    for p in patterns:
        TrieBatchPlanner(automaton_of(index), stats=naive).count(p)
    planner = TrieBatchPlanner(automaton_of(index))
    assert planner.count_many(patterns) == [index.count(p) for p in patterns]
    planned = planner.stats
    assert (
        planned.automaton_starts + planned.automaton_steps
        < naive.automaton_starts + naive.automaton_steps
    )


def test_deadline_abort_and_recovery(corpus):
    """An expired deadline aborts mid-batch (counted in the stats); a
    fresh call without a deadline completes and memoises normally."""
    _, text, workload = corpus
    index = FMIndex(text)
    planner = planner_for(index)
    clock = ManualClock()
    deadline = Deadline(1.0, clock)
    clock.advance(2.0)  # already expired: first per-extension check trips
    with pytest.raises(DeadlineExceededError):
        planner.count_many(workload, deadline=deadline)
    assert planner.stats.deadline_aborts == 1
    assert planner.stats.deadline_checks >= 1
    # The batch is retryable: no poisoned partial answers.
    assert planner.count_many(workload) == [index.count(p) for p in workload]


def test_live_deadline_is_checked_but_harmless(corpus):
    _, text, workload = corpus
    planner = planner_for(FMIndex(text))
    clock = ManualClock()
    results = planner.count_many(workload, deadline=Deadline(60.0, clock))
    assert results == [BUILDERS["fm"](text).count(p) for p in workload]
    assert planner.stats.deadline_checks > 0
    assert planner.stats.deadline_aborts == 0


# --- automaton_of resolution -------------------------------------------------


def test_automaton_of_prefers_isinstance(corpus):
    _, text, _ = corpus
    index = FMIndex(text)
    assert automaton_of(index) is index  # the index IS its automaton


def test_automaton_of_hook_wins_over_isinstance(corpus):
    _, text, _ = corpus
    inner = FMIndex(text)

    class Wrapper:
        def __engine_automaton__(self):
            return automaton_of(inner)

    assert automaton_of(Wrapper()) is inner


def test_automaton_of_legacy_protocol_shim(corpus):
    """The pre-engine underscore protocol has no shim: an object that only
    spells those names has no automaton view, like any other object."""
    _, text, _ = corpus
    inner = FMIndex(text)

    class LegacyIndex:
        """Only speaks the retired underscore protocol."""

        def _automaton_start(self, ch):
            return inner.start(ch)

        def _automaton_step(self, state, ch):
            return inner.step(state, ch)

        def _automaton_count(self, state):
            return inner.count_state(state)

    assert automaton_of(LegacyIndex()) is None
    assert planner_for(LegacyIndex()) is None


def test_automaton_of_none_without_view(corpus):
    _, text, _ = corpus
    assert automaton_of(QGramIndex(text, q=4)) is None
    assert planner_for(QGramIndex(text, q=4)) is None
    assert automaton_of(object()) is None


# --- capabilities ------------------------------------------------------------


def test_capabilities_descriptors(corpus):
    _, text, _ = corpus
    caps = {
        kind: automaton_of(BUILDERS[kind](text)).capabilities()
        for kind in BUILDERS
    }
    assert caps["fm"] == AutomatonCapabilities(exact=True, rank_ops_per_step=2)
    assert caps["rlfm"].exact and caps["rlfm"].rank_ops_per_step == 2
    assert not caps["apx"].exact and caps["apx"].threshold == THRESHOLD
    assert caps["cpst"].lower_sided and caps["cpst"].threshold == THRESHOLD
    assert caps["pst"].lower_sided and caps["pst"].rank_ops_per_step == 0


def test_rank_calls_follow_capabilities(corpus):
    _, text, workload = corpus
    for kind in ("fm", "apx", "cpst"):
        index = BUILDERS[kind](text)
        planner = planner_for(index)
        planner.count_many(workload)
        stats = planner.stats
        per_step = planner.capabilities.rank_ops_per_step
        extensions = stats.automaton_starts + stats.automaton_steps
        assert stats.rank_calls == extensions * per_step, kind


# --- wave execution ----------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_vectorized_equals_scalar_equals_sequential(corpus, kind):
    """The differential core: batches with every wave bulk-stepped ==
    batches at the default width (narrow waves stepped one state at a
    time) == per-pattern counts, for every index family."""
    name, text, workload = corpus
    index = BUILDERS[kind](text)
    sequential = [index.count(p) for p in workload]
    default = planner_for(index)
    assert default.count_many(workload) == sequential, (name, kind)
    # Only waves at least WAVE_WIDTH_MIN wide go through step_many.
    assert all(w >= planner_module.WAVE_WIDTH_MIN for w in default.bulk_widths)
    with every_wave_bulk():
        vectorized = planner_for(index)
        assert vectorized.count_many(workload) == sequential, (name, kind)
    assert vectorized.stats.bulk_calls > 0, (name, kind)
    # The wave path really batches: total bulk width == bulk-stepped states.
    widths = vectorized.bulk_widths
    assert sum(w * c for w, c in widths.items()) == vectorized.stats.bulk_states


@pytest.mark.parametrize("kind", ["cpst", "pst"])
def test_vectorized_count_or_none_matches(corpus, kind):
    name, text, workload = corpus
    index = BUILDERS[kind](text)
    expected = [index.count_or_none(p) for p in workload]
    assert planner_for(index).count_or_none_many(workload) == expected, (name, kind)
    with every_wave_bulk():
        planner = planner_for(index)
        assert planner.count_or_none_many(workload) == expected, (name, kind)


def test_step_many_default_is_scalar_loop(corpus):
    """The ABC default makes every automaton bulk-callable."""
    _, text, _ = corpus
    index = FMIndex(text)

    class Plain(BackwardSearchAutomaton):
        def start(self, ch):
            return index.start(ch)

        def step(self, state, ch):
            return index.step(state, ch)

        def count_state(self, state):
            return index.count_state(state)

    plain = Plain()
    states = [index.start(c) for c in "athe"]
    assert plain.step_many(states, "t") == [index.step(s, "t") for s in states]
    # So the planner's waves drive an automaton without a bulk kernel.
    with every_wave_bulk():
        assert TrieBatchPlanner(plain).count("the") == index.count("the")


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_step_many_matches_step(corpus, kind):
    """Direct bulk-vs-scalar automaton differential, dead states included."""
    name, text, workload = corpus
    automaton = automaton_of(BUILDERS[kind](text))
    symbols = sorted(set(text.raw[:200]))[:4] + ["☃"]  # incl. absent
    states = [automaton.start(p[-1]) for p in workload]
    states = [s for s in states if s is not None]
    assert states, (name, kind)
    for ch in symbols:
        bulk = automaton.step_many(states, ch)
        assert bulk == [automaton.step(s, ch) for s in states], (name, kind, ch)


def test_apx_ef_bulk_counts_at_default_width():
    """Distinct 6-grams of an english sample reach waves wide enough for
    ``step_many`` at the default width; the Elias–Fano variant steps them
    in bulk over its own position sets, with the paper encoding's
    answers."""
    raw = generate("english", SIZE)
    grams = sorted({raw[i:i + 6] for i in range(0, len(raw) - 6, 7)})
    assert len(grams) > 300
    ef = ApproxIndexEF(raw, THRESHOLD)
    counter = IndexCounter(ef)
    assert counter.count_many(grams) == ApproxIndex(raw, THRESHOLD).count_many(grams)
    assert counter.stats.bulk_calls > 0


def test_eviction_parity_scalar_vs_vectorized(corpus):
    """The LRU budget is accounted identically whether a wave is stepped
    one state at a time or in bulk — one cache probe and one insert per
    distinct suffix — so a tiny budget evicts the same amount and never
    changes answers. FM walks die only on absent symbols; the CPST case
    also dies mid-pattern (below threshold), where the walk stops."""
    _, text, workload = corpus
    cpst = CompactPrunedSuffixTree(text, THRESHOLD)
    assert any(
        cpst.count_or_none(p) is None and cpst.count_or_none(p[1:]) is not None
        for p in workload
        if len(p) > 1
    )
    for index in (FMIndex(text), cpst):
        expected = [index.count(p) for p in workload]
        planners = {
            mode: TrieBatchPlanner(automaton_of(index), max_states=4)
            for mode in ("scalar", "waves")
        }
        assert planners["scalar"].count_many(workload) == expected
        with every_wave_bulk():
            assert planners["waves"].count_many(workload) == expected
        scalar, waves = planners["scalar"].stats, planners["waves"].stats
        assert scalar.state_cache_evictions == waves.state_cache_evictions > 0
        assert scalar.state_cache_misses == waves.state_cache_misses
        assert len(planners["scalar"]._states) == len(planners["waves"]._states)


@pytest.mark.parametrize("bulk", [False, True])
def test_dying_pattern_costs_its_death_depth(bulk):
    """Dead is absorbing: a long pattern whose suffix falls below the
    threshold within a few symbols costs that many extensions, caches no
    suffix longer than that, and answers None — whether its waves are
    stepped one state at a time or in bulk."""
    text = Text(generate("dna", 20_000, seed=5))
    index = CompactPrunedSuffixTree(text, 16)
    pattern = text.raw[3_000:9_000]
    death = next(
        d for d in range(1, len(pattern) + 1)
        if index.count_or_none(pattern[-d:]) is None
    )
    assert death <= 12 and len(pattern) >= 5_000
    planner = TrieBatchPlanner(automaton_of(index))
    # The long pattern, the suffix it dies at, and a pattern sharing it.
    batch = [pattern, pattern[-death:], "A" + pattern[-death - 3 :]]
    with every_wave_bulk() if bulk else nullcontext():
        assert planner.count_or_none_many(batch) == [None, None, None]
    stats = planner.stats
    assert (stats.bulk_calls > 0) == bulk
    assert stats.automaton_starts + stats.automaton_steps <= death
    assert max(len(key) for key in planner._states) <= death
    # A later batch finds the dead suffix in the cache and stops there.
    before = stats.copy()
    assert planner.count_or_none("C" + pattern) is None
    delta = planner.stats - before
    assert delta.automaton_starts + delta.automaton_steps == 0
    assert max(len(key) for key in planner._states) <= death


def test_wave_probe_accounting_deduplicates(corpus):
    """Duplicated patterns add zero LRU traffic and zero automaton work —
    probes, steps and waves are all per *distinct* suffix per batch."""
    _, text, _ = corpus
    index = FMIndex(text)
    base = text.raw[50:58]
    unique = [base, base[1:], base[2:]]
    duplicated = [base, base, base[1:], base[2:], base]
    stats = {}
    for label, patterns in [("unique", unique), ("duplicated", duplicated)]:
        planner = planner_for(index)
        with every_wave_bulk():
            planner.count_many(patterns)
        stats[label] = planner.stats
    dup, uniq = stats["duplicated"], stats["unique"]
    assert dup.state_cache_misses == uniq.state_cache_misses
    assert dup.state_cache_hits == uniq.state_cache_hits
    assert dup.automaton_steps == uniq.automaton_steps
    assert dup.bulk_calls == uniq.bulk_calls
    # Shared suffixes are stepped once each: every distinct suffix is one
    # extension (start or step), never more.
    distinct_suffixes = {p[i:] for p in unique for i in range(len(p))}
    assert (
        uniq.automaton_starts + uniq.automaton_steps <= len(distinct_suffixes)
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_automaton_vectorizes(corpus, shards):
    """The sharded product automaton bulk-steps its component columns:
    same merged scalars at the default width, with every wave in bulk,
    and through the fan-out, with bulk waves recorded."""
    from repro.shard import ShardPlan, build_sharded
    from repro.textutil import ROW_SEPARATOR

    _, text, _ = corpus
    rows = [text.raw[i : i + 400] for i in range(0, 1600, 400)]
    plan = ShardPlan.for_rows(rows, shards)
    estimator, _ = build_sharded(plan, "cpst", 8)
    probe = Text.from_rows(rows)
    patterns = [
        p
        for p in mixed_workload(probe, lengths=(1, 2, 3), per_length=6, seed=9)
        if ROW_SEPARATOR not in p
    ]
    with every_wave_bulk():
        vectorized = planner_for(estimator)
        results = vectorized.count_many(patterns)
    assert results == planner_for(estimator).count_many(patterns)
    assert results == [estimator.count(p) for p in patterns]
    assert vectorized.stats.bulk_calls > 0


# --- IndexCounter: the whole-pattern side ------------------------------------


def test_counter_whole_pattern_side_matches_direct_counts(corpus):
    """Indexes without an automaton view are counted whole-pattern, one
    call per pattern, with the counter's own stats."""
    from repro.service import TextStatsEstimator

    _, text, workload = corpus
    for index in (QGramIndex(text, q=4), TextStatsEstimator(text)):
        counter = IndexCounter(index)
        assert counter.planner is None
        assert counter.count_many(workload) == [index.count(p) for p in workload]
        assert counter.count(workload[0]) == index.count(workload[0])
        assert counter.stats.patterns == len(workload) + 1
        assert counter.stats.deadline_checks == 0
        with pytest.raises(PatternError):
            counter.count("")


def test_counter_whole_pattern_side_never_memoises(tmp_path):
    """A live corpus changes underneath the counter: an append between two
    counts shows in the second."""
    from repro.live import LiveCorpus

    with LiveCorpus.create(tmp_path / "live") as live:
        live.append("d1", "abracadabra")
        counter = IndexCounter(live)
        assert counter.planner is None
        assert counter.count("abra") == 2
        assert counter.count_or_none("abra") == 2
        live.append("d2", "abracadabra")
        assert counter.count("abra") == 4
        assert counter.count_or_none("abra") == 4
        assert counter.count_many(["abra", "cad"]) == [4, 2]


def test_counter_deadline_passed_through_or_checked(corpus):
    """The counter checks the deadline once per whole-pattern call, and
    also hands it to an index whose ``accepts_deadline`` is set."""
    from repro.service import TextStatsEstimator

    _, text, _ = corpus
    received = []

    class TakesDeadline(TextStatsEstimator):
        accepts_deadline = True

        def count(self, pattern, deadline=None):
            received.append(deadline)
            return super().count(pattern)

    clock = ManualClock()
    live = Deadline(60.0, clock)
    taking = IndexCounter(TakesDeadline(text))
    assert taking.count_many(["ab", "ba"], live) == [
        TextStatsEstimator(text).count(p) for p in ("ab", "ba")
    ]
    assert received == [live, live]
    assert taking.stats.patterns == 2 and taking.stats.deadline_checks == 2

    plain = IndexCounter(QGramIndex(text, q=4))
    expired = Deadline(1.0, clock)
    clock.advance(2.0)
    with pytest.raises(DeadlineExceededError):
        plain.count("ab", expired)
    with pytest.raises(DeadlineExceededError):
        plain.count_or_none("ab", expired)
    assert plain.stats.patterns == 2 and plain.stats.deadline_checks == 2
    assert plain.count("ab") == QGramIndex(text, q=4).count("ab")
    assert plain.stats.deadline_checks == 2


# --- IndexCounter: the certification rule ------------------------------------


def test_counter_certifies_lower_sided_automata_through_the_planner(corpus):
    _, text, workload = corpus
    for kind in ("cpst", "pst"):
        index = BUILDERS[kind](text)
        counter = IndexCounter(index)
        expected = [index.count_or_none(p) for p in workload]
        assert counter.count_or_none_many(workload) == expected, kind
        assert [counter.count_or_none(p) for p in workload] == expected, kind
        assert counter.stats is counter.planner.stats
        assert counter.stats.automaton_starts > 0, kind


def test_counter_certifies_sharded_through_the_fanout(corpus):
    """The product automaton is not lower-sided, so a sharded CPST
    certifies through its fan-out, which sees a quarantine made after
    the counter was built."""
    from repro.shard import ShardPlan, build_sharded
    from repro.textutil import ROW_SEPARATOR

    _, text, _ = corpus
    rows = [text.raw[i : i + 400] for i in range(0, 1600, 400)]
    plan = ShardPlan.for_rows(rows, 2)
    estimator, _ = build_sharded(plan, "cpst", 8)
    counter = IndexCounter(estimator)
    assert counter.planner is not None
    assert not counter.planner.capabilities.lower_sided
    probe = Text.from_rows(rows)
    patterns = [
        p
        for p in mixed_workload(probe, lengths=(1, 2, 3), per_length=6, seed=9)
        if ROW_SEPARATOR not in p
    ]
    expected = [estimator.count_or_none(p) for p in patterns]
    assert any(value is not None for value in expected)
    assert counter.count_or_none_many(patterns) == expected
    assert counter.planner.stats.automaton_starts == 0  # fan-out, not planner
    estimator.quarantine_shard(plan.names[0], "test")
    assert counter.count_or_none_many(patterns) == [None] * len(patterns)


def test_counter_stats_exact_under_concurrent_planner_and_fanout_calls(corpus):
    """A sharded counter's ``count`` walks the planner and its
    ``count_or_none`` goes through the fan-out; both write the one
    ``stats`` under one lock, so with more threads than cores and a short
    switch interval every call is counted exactly once."""
    from repro.shard import ShardPlan, build_sharded
    from repro.textutil import ROW_SEPARATOR

    _, text, _ = corpus
    rows = [text.raw[i : i + 400] for i in range(0, 1600, 400)]
    estimator, _ = build_sharded(ShardPlan.for_rows(rows, 2), "cpst", 8)
    counter = IndexCounter(estimator)
    patterns = [
        p
        for p in mixed_workload(
            Text.from_rows(rows), lengths=(1, 2, 3), per_length=6, seed=9
        )
        if ROW_SEPARATOR not in p
    ]

    def client():
        for pattern in patterns:
            counter.count(pattern)
            counter.count_or_none(pattern)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert counter.stats.patterns == 6 * 2 * len(patterns)


def test_counter_certifies_own_count_or_none_and_exact(corpus):
    _, text, workload = corpus
    qgram = QGramIndex(text, q=4)
    assert IndexCounter(qgram).count_or_none_many(workload) == [
        qgram.count_or_none(p) for p in workload
    ]
    fm = FMIndex(text)
    counter = IndexCounter(fm)
    assert counter.certifies
    assert counter.count_or_none_many(workload) == [fm.count(p) for p in workload]
    assert counter.count_or_none(workload[0]) == fm.count(workload[0])


def test_counter_refuses_what_cannot_certify(corpus):
    from repro.service import TextStatsEstimator

    _, text, workload = corpus
    for index in (ApproxIndex(text, THRESHOLD), TextStatsEstimator(text)):
        counter = IndexCounter(index)
        assert not counter.certifies
        assert counter.count(workload[0]) == index.count(workload[0])
        with pytest.raises(PatternError, match="cannot certify"):
            counter.count_or_none(workload[0])
        with pytest.raises(PatternError, match="cannot certify"):
            counter.count_or_none_many(workload)
