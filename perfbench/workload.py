"""The closed-loop measurement every workload shares.

One client sends the next request only after the previous reply, as
the callers this system serves do (a query optimiser, an application,
an ingest job). A run is:

1. build the system ``setup_repeats`` times and report the median;
2. serve the warm-up prefix of the request log untimed;
3. serve the measured window of the log in order, timing each request;
4. check every answer against the naive oracle.

The measured window is a fixed number of requests: ``--seconds`` times
the workload's nominal rate on the reference host (2 CPUs). Every run
of a seed therefore times the same requests. A window that ended
after a fixed time instead would let a fast run reach further into
the log, where caches are warmer, and read faster still. A window
still running at ``TIME_CAP`` times ``--seconds`` is cut short, and
the report says so.

A traced run adds a pass on a freshly built system that replays the
same requests with the tracer installed; its timings never feed the
end-to-end metrics.
"""

from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Optional

from .harness import cpu_steal_s, median_setup, summarize
from .instrument import install, layer_metrics
from .oracle import Oracle
from .tracing import Tracer

#: A measured window is cut short after this multiple of ``--seconds``.
TIME_CAP = 3.0
#: Dataset seed of every corpus. The corpus is the same for every
#: ``--seed`` (runs compare one index); ``--seed`` draws the requests.
CORPUS_SEED = 0


class Pass:
    """What one pass over the request log saw."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.recording = False
        self.samples: Dict[str, List[float]] = {}
        self.op_seconds: Dict[int, float] = {}
        self.patterns = 0
        self.busy_s = 0.0
        self.answers: Dict[int, object] = {}
        self.failures: List[str] = []
        self.extra: Dict[str, object] = {}

    @contextmanager
    def op(self, index: int, kind: str, patterns: int = 1):
        """Time one request (and trace it as request ``index``).

        A request that raises is recorded as failed and the loop goes
        on: failures are counted against the attempts, not hidden.
        """
        tracer = self.tracer
        started = time.perf_counter()
        try:
            if tracer is not None and tracer.enabled:
                with tracer.request(index):
                    yield
            else:
                yield
        except Exception:  # noqa: BLE001 - the benchmark's request boundary
            self.failures.append(
                f"request {index} ({kind}): {traceback.format_exc(limit=3)}"
            )
            return
        seconds = time.perf_counter() - started
        self.op_seconds[index] = seconds
        if self.recording:
            self.samples.setdefault(kind, []).append(seconds)
            self.patterns += patterns
            self.busy_s += seconds


class Workload:
    """Base class: inputs from a seed, a system to build, a request log."""

    name = ""
    #: Set-up is repeated this many times per run; the median is reported.
    setup_repeats = 3
    #: Requests served untimed before measuring.
    warmup_ops = 0
    #: Requests per second of ``--seconds`` (the nominal rate).
    rate = 0.0
    #: The summary entry reported as ``query_p99_ms``: ``"tail"`` (the
    #: highest percentile, at most p99, with 10 samples beyond it) or
    #: ``"p95"`` where p99 does not repeat within the metric's bound.
    query_tail = "tail"

    def __init__(self, seed: int, workdir, seconds: float):
        self.seed = seed
        self.workdir = workdir
        self.window = range(self.warmup_ops, self.warmup_ops + self.window_ops(seconds))

    def window_ops(self, seconds: float) -> int:
        """Requests in the measured window."""
        return max(1, int(self.rate * seconds))

    def build(self):
        raise NotImplementedError

    def close(self, system) -> None:
        """Release what ``build`` started (processes, threads, files)."""

    def serve(self, system, index: int, run: Pass) -> None:
        """Serve request ``index`` of the log inside ``run.op``."""
        raise NotImplementedError

    def check(self, system, run: Pass, oracle: Oracle) -> Dict[str, float]:
        """Check every answer; return the accuracy metrics over the
        measured window."""
        raise NotImplementedError

    def space(self, system) -> Dict[str, float]:
        """``bits_per_symbol`` and the ``space.*`` split."""
        raise NotImplementedError

    def end_to_end(self, run: Pass) -> Dict[str, float]:
        """Workload-specific latencies beyond the shared ones."""
        return {}

    def trace_extra(self, system, run: Pass, tracer: Tracer) -> Dict[str, float]:
        """Per-layer figures the workload measures itself."""
        return {}


def _serve(workload: Workload, system, run: Pass, limit_s: float) -> Dict[str, object]:
    """Warm up untimed, then serve the measured window in order (traced
    when the pass has a tracer, until its span budget is spent)."""
    tracer = run.tracer
    for index in range(workload.warmup_ops):
        workload.serve(system, index, run)
    run.recording = True
    if tracer is not None:
        tracer.enabled = True
    steal = cpu_steal_s()
    started = time.perf_counter()
    end = workload.window.start
    for index in workload.window:
        if time.perf_counter() - started > limit_s or (tracer is not None and tracer.full):
            break
        workload.serve(system, index, run)
        end = index + 1
    run.recording = False
    if tracer is not None:
        tracer.enabled = False
    return {
        "wall_s": time.perf_counter() - started,
        "requests": end - workload.window.start,
        "truncated": end < workload.window.stop,
        "host_steal_s": cpu_steal_s() - steal,
    }


def measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, object]:
    """One run: the untraced measurement, plus the traced pass if asked."""
    setup_times, system = median_setup(
        workload.build, workload.close, workload.setup_repeats
    )
    oracle = Oracle()
    run = Pass()
    try:
        window = _serve(workload, system, run, TIME_CAP * seconds)
        accuracy = workload.check(system, run, oracle)
        space = workload.space(system)
    finally:
        workload.close(system)

    query = summarize(run.samples.get("query", []))
    result: Dict[str, object] = {
        "setup_s_samples": setup_times,
        "setup_s": statistics.median(setup_times),
        "window": window,
        "query": query,
        "query_p50_ms": query["p50"] * 1e3,
        "query_p99_ms": query[workload.query_tail] * 1e3,
        "patterns_per_s": run.patterns / run.busy_s,
        **space,
        **accuracy,
        **workload.end_to_end(run),
    }
    failures = list(run.failures)
    if trace:
        layers = traced_pass(workload, run, seconds, oracle, space)
        failures += layers.pop("failures")
        result["layers"] = layers
    result["oracle"] = {
        "checked": oracle.checked,
        "violations": oracle.violations,
        "examples": oracle.examples,
    }
    result["failures"] = failures
    result["attempted"] = oracle.checked + len(failures)
    result["failed"] = oracle.violations + len(failures)
    result["failed_frac"] = result["failed"] / max(1, result["attempted"])
    return result


def traced_pass(workload: Workload, untraced: Pass, seconds: float,
                oracle: Oracle, space: Dict[str, float]) -> Dict[str, object]:
    """Replay the measured window on a fresh system with spans on."""
    tracer = Tracer()
    install(tracer)
    try:
        tracer.enabled = True  # hooks capture the build reports of set-up
        system = workload.build()
        tracer.enabled = False
        run = Pass(tracer)
        try:
            window = _serve(workload, system, run, TIME_CAP * seconds)
            # The layer counters are read before the oracle runs: checking
            # answers calls into the program too (MOL's result memo), and
            # that work is no request's.
            extra = workload.trace_extra(system, run, tracer)
            common = [i for i in workload.window
                      if i in run.op_seconds and i in untraced.op_seconds]
            traced_s = sum(run.op_seconds[i] for i in common)
            untraced_s = sum(untraced.op_seconds[i] for i in common)
            extra["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
            extra.update(space)
            analysis = tracer.analyze()
            metrics = layer_metrics(tracer, analysis, extra)
            workload.check(system, run, oracle)
        finally:
            workload.close(system)
    finally:
        tracer.uninstall()
    tracer.write(workload.workdir / f"spans-{workload.name}-seed{workload.seed}.tsv")
    return {
        "metrics": metrics,
        "window": window,
        "spans": len(tracer.names),
        "by_name": analysis["by_name"],
        "failures": run.failures,
    }
