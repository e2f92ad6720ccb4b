"""Tests for the benchmark's own machinery: self-time arithmetic, the
percentile rule, and the oracle catching planted wrong answers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import harness
from perfbench.oracle import Oracle, naive_count, outcome_interval
from perfbench.tracing import ROOT, Tracer, covered, self_times
from repro.core.interface import ErrorModel
from repro.service.outcome import QueryOutcome


# -- self-time arithmetic ---------------------------------------------------


def test_covered_is_an_interval_union_clipped_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(1.0, 2.0), (5.0, 7.0)]) == pytest.approx(3.0)
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_self_time_subtracts_children_once_even_when_they_overlap():
    #     0: root [0, 10]
    #     1: fan-out [1, 9] under root
    #  2, 3: two parallel shard calls [2, 6] and [4, 8] under the fan-out
    #     4: a grandchild [2, 3] under shard call 2
    starts = [0.0, 1.0, 2.0, 4.0, 2.0]
    ends = [10.0, 9.0, 6.0, 8.0, 3.0]
    parents = [-1, 0, 1, 1, 2]
    selfs = self_times(starts, ends, parents)
    assert selfs == pytest.approx([2.0, 2.0, 3.0, 4.0, 1.0])
    # Serial children: the root keeps exactly the gaps between them.
    assert self_times([0.0, 1.0, 4.0], [5.0, 3.0, 5.0], [-1, 0, 0]) == pytest.approx(
        [2.0, 2.0, 1.0]
    )


class _Layer:
    def outer(self, pool):
        return list(pool.map(self.inner, range(4)))

    def inner(self, i):
        time.sleep(0.002)
        return i


def test_tracer_joins_pool_threads_to_their_request_and_restores():
    tracer = Tracer()
    original = _Layer.__dict__["inner"]
    tracer.wrap_method(_Layer, "outer", "shard.fanout")
    tracer.wrap_method(_Layer, "inner", "engine.count")
    layer = _Layer()
    with ThreadPoolExecutor(max_workers=2) as pool:
        tracer.enabled = True
        with tracer.request(7):
            assert layer.outer(pool) == [0, 1, 2, 3]
        tracer.enabled = False
    tracer.uninstall()
    assert _Layer.__dict__["inner"] is original

    names = tracer.names
    fanout = names.index("shard.fanout")
    shard_calls = [i for i, n in enumerate(names) if n == "engine.count"]
    assert len(shard_calls) == 4
    assert all(tracer.parents[i] == fanout for i in shard_calls)
    assert set(tracer.requests) == {7}

    analysis = tracer.analyze()
    assert analysis["requests"] == 1
    by_layer = analysis["by_layer"]
    assert by_layer["engine"] >= 4 * 0.002 * 0.9
    # Only the wrapper overhead between the root and the fan-out span
    # is left unattributed.
    assert analysis["unattributed_s"] < 0.5 * analysis["request_s"]
    assert by_layer["shard"] + analysis["unattributed_s"] <= analysis["request_s"]


def test_tracer_ignores_spans_outside_requests_and_while_disabled():
    tracer = Tracer()
    tracer.wrap_method(_Layer, "inner", "engine.count")
    try:
        _Layer().inner(1)  # disabled: no span
        tracer.enabled = True
        _Layer().inner(1)  # enabled, no request: recorded, not analysed
    finally:
        tracer.uninstall()
    assert tracer.names == ["engine.count"]
    assert tracer.requests == [-1]
    assert tracer.analyze()["requests"] == 0
    assert ROOT not in tracer.names


def test_concurrent_spans_keep_their_records_aligned():
    tracer = Tracer()
    tracer.enabled = True

    def spans():
        for _ in range(200):
            tracer.close(tracer.open("engine.count"))

    threads = [threading.Thread(target=spans) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(tracer.names) == 800 == len(tracer.ends) == len(tracer.parents)
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (40, 75.0), (20, 50.0), (3, 50.0)],
)
def test_tail_has_at_least_ten_samples_beyond_it(n, expected):
    pct = harness.tail_percentile(n)
    assert pct == expected
    if pct > 50.0:
        assert round(n * (100.0 - pct) / 100.0, 6) >= harness.MIN_BEYOND


def test_tail_never_exceeds_p99():
    assert harness.tail_percentile(1_000_000) == 99.0
    summary = harness.summarize([float(i) for i in range(1, 1001)])
    assert summary["samples"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail"] == pytest.approx(harness.percentile(range(1, 1001), 99.0))


def test_percentile_interpolates_like_numpy():
    import numpy as np

    data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for pct in (0, 25, 50, 90, 99, 100):
        assert harness.percentile(data, pct) == pytest.approx(np.percentile(data, pct))


# -- the oracle -------------------------------------------------------------


def test_naive_count_counts_overlaps():
    assert naive_count("aaaa", "aa") == 3
    assert naive_count("abcabc", "abc") == 2
    assert naive_count("abc", "x") == 0


def _outcome(count, model, threshold=1):
    return QueryOutcome(
        pattern="ab", count=count, tier="t", tier_index=0, error_model=model,
        threshold=threshold, reliable=model is ErrorModel.EXACT, elapsed=0.0,
        attempts=1,
    )


def test_oracle_accepts_sound_answers():
    oracle = Oracle()
    assert oracle.outcome(_outcome(5, ErrorModel.EXACT), 5)
    assert oracle.outcome(_outcome(7, ErrorModel.UNIFORM, threshold=4), 5)
    assert oracle.outcome(_outcome(9, ErrorModel.UPPER_BOUND), 5)
    assert oracle.interval("ab", 5, 3, 8, exact=False)
    assert oracle.violations == 0 and oracle.checked == 4


@pytest.mark.parametrize(
    "planted",
    [
        _outcome(6, ErrorModel.EXACT),  # exact but wrong
        _outcome(9, ErrorModel.UNIFORM, threshold=4),  # beyond the l-1 slack
        _outcome(4, ErrorModel.UNIFORM, threshold=4),  # under-counts
        _outcome(4, ErrorModel.UPPER_BOUND),  # upper bound below the truth
    ],
)
def test_oracle_catches_a_planted_wrong_answer(planted):
    oracle = Oracle()
    assert not oracle.outcome(planted, 5)
    assert oracle.violations == 1
    assert "ab" in oracle.examples[0]


def test_outcome_interval_follows_the_error_model():
    assert outcome_interval(_outcome(5, ErrorModel.EXACT)) == (5, 5)
    assert outcome_interval(_outcome(7, ErrorModel.UNIFORM, threshold=4)) == (4, 7)
    assert outcome_interval(_outcome(7, ErrorModel.UPPER_BOUND)) == (0, 7)
    assert outcome_interval(_outcome(2, ErrorModel.LOWER_SIDED, threshold=4)) == (0, 3)


def test_oracle_catches_a_wrong_certified_estimate_and_a_degraded_answer():
    oracle = Oracle()
    assert oracle.estimate("ab", 5, 4.2, None, ceiling=100)
    assert not oracle.estimate("ab", 5, 4.0, 4, ceiling=100)  # certified, wrong
    assert not oracle.estimate("ab", 5, -1.0, None, ceiling=100)

    class Degraded:
        degraded = ("shard0",)

    assert not oracle.daemon("ab", Degraded(), 5)
    assert oracle.violations == 3


def test_workload_check_flags_a_tampered_answer(tmp_path):
    """End to end: a real workload's answers pass, a planted one fails."""
    from perfbench.mol_selectivity import MolSelectivity
    from perfbench.workload import Pass

    workload = MolSelectivity(seed=3, workdir=tmp_path, seconds=0.02)
    system = workload.build()
    run = Pass()
    for index in workload.window:
        workload.serve(system, index, run)
    oracle = Oracle()
    workload.check(system, run, oracle)
    assert oracle.violations == 0 and oracle.checked == len(workload.window)

    run.answers[workload.window.start] = -1.0  # an impossible estimate
    oracle = Oracle()
    workload.check(system, run, oracle)
    assert oracle.violations == 1


def test_request_failures_are_counted_not_raised():
    from perfbench.workload import Pass

    run = Pass()
    run.recording = True
    with run.op(0, "query"):
        raise RuntimeError("boom")
    with run.op(1, "query"):
        pass
    assert len(run.failures) == 1 and "boom" in run.failures[0]
    assert list(run.op_seconds) == [1]
    assert run.patterns == 1
