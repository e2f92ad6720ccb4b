"""``ingest-serve``: durable writes beside reads on the process daemon.

A dna base of 40 documents x 1 000 symbols, compacted into 2 CPST
l = 16 shards, served by a ``Supervisor`` (spawned workers) with the
hot tier attached; the corpus directory is a temp directory with fsync
on every acknowledged write. Each cycle runs, in order: 200
``merged_count`` queries, 8 ``merged_count_many`` batches of 50, 10
appends and 2 deletes of compacted documents (tombstones), then
``reload(compact=False)``; every 4th cycle reloads with
``compact=True`` instead. This exercises live (WAL, delta, tombstone
widening, compactor), daemon publish and flip, parallel segments and
pipe transport, and hot epoch demotion, so a change that speeds reads
by costing writes or compaction shows here.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.analysis import evaluate_bounds, optimality_gap
from repro.baselines.fm import FMIndex
from repro.core.interface import ErrorModel
from repro.daemon import Supervisor
from repro.datasets import generate
from repro.engine import planner_for
from repro.hot import HotPatternTier
from repro.live import LiveCorpus
from repro.textutil import Text

from .harness import process_peak_rss_mb, summarize
from .oracle import joined, naive_count
from .workload import CORPUS_SEED, Pass, Workload

BASE_DOCUMENTS = 40
DOCUMENT_LEN = 1_000
APPEND_LEN = 200
SHARDS = 2
THRESHOLD = 16
QUERIES = 200
BATCHES = 8
BATCH = 50
APPENDS = 10
DELETES = 2
COMPACT_EVERY = 4
POOL = 2_000
CYCLE_OPS = QUERIES + BATCHES + APPENDS + DELETES + 1
#: Planner state budget, as the daemon's workers use.
MAX_STATES = 4096


def _cycle_reads(rng, pool) -> List[tuple]:
    ops = [("query", pool[int(i)]) for i in rng.integers(0, len(pool), QUERIES)]
    for _ in range(BATCHES):
        ops.append(("batch", [pool[int(i)] for i in rng.integers(0, len(pool), BATCH)]))
    return ops


class IngestServe(Workload):
    name = "ingest-serve"
    setup_repeats = 3
    warmup_ops = QUERIES + BATCHES  # one read-only cycle
    rate = 0.9  # cycles per second
    # Each query crosses pipes to two spawned workers; its p99 follows
    # the host's scheduling of three processes on two CPUs and does not
    # repeat within a quarter, so p95 is reported under query_p99_ms.
    query_tail = "p95"

    def window_ops(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds)) * CYCLE_OPS

    def __init__(self, seed: int, workdir, seconds: float):
        super().__init__(seed, workdir, seconds)
        cycles = len(self.window) // CYCLE_OPS
        base_len = BASE_DOCUMENTS * DOCUMENT_LEN
        raw = generate("dna", base_len + cycles * APPENDS * APPEND_LEN, CORPUS_SEED)
        self.base = {
            f"d{i:03d}": raw[i * DOCUMENT_LEN:(i + 1) * DOCUMENT_LEN]
            for i in range(BASE_DOCUMENTS)
        }
        rng = np.random.default_rng(seed)
        pool: List[str] = []
        while len(pool) < POOL:
            length = int(rng.integers(3, 13))
            kind = rng.random()
            if kind < 0.75:  # base documents
                start = int(rng.integers(0, base_len - length + 1))
            elif kind < 0.90:  # text appended in the first cycles
                appended = min(5, cycles) * APPENDS * APPEND_LEN
                start = int(rng.integers(base_len, base_len + appended - length + 1))
            else:  # absent from everything the run writes
                pattern = "".join(rng.choice(list("ACGT"), int(rng.integers(10, 13))))
                if pattern not in raw:
                    pool.append(pattern)
                continue
            pool.append(raw[start:start + length])

        ops: List[tuple] = _cycle_reads(rng, pool)
        compacted = sorted(self.base)
        delta: List[str] = []
        offset = base_len
        for cycle in range(1, cycles + 1):
            ops += _cycle_reads(rng, pool)
            for j in range(APPENDS):
                name = f"c{cycle:03d}a{j}"
                ops.append(("append", name, raw[offset:offset + APPEND_LEN]))
                offset += APPEND_LEN
                delta.append(name)
            for _ in range(DELETES):
                ops.append(("delete", compacted.pop(0)))
            if cycle % COMPACT_EVERY == 0:
                ops.append(("compact",))
                compacted = sorted(compacted + delta)
                delta = []
            else:
                ops.append(("flip",))
        self.ops = ops

    # -- system -------------------------------------------------------------

    def build(self):
        directory = Path(tempfile.mkdtemp(prefix="ingest-", dir=self.workdir))
        corpus = LiveCorpus.create(directory / "corpus", l=THRESHOLD, shards=SHARDS)
        for name, body in self.base.items():
            corpus.append(name, body)
        corpus.compact()
        supervisor = Supervisor(corpus, owns_corpus=True)
        try:
            supervisor.start()
            hot = HotPatternTier.from_documents(list(corpus.documents().items()))
            supervisor.attach_hot(hot)
        except Exception:
            supervisor.close()
            shutil.rmtree(directory, ignore_errors=True)
            raise
        system = {
            "dir": directory,
            "sup": supervisor,
            "hot": hot,
            "snapshots": {},
            "replay": {},
            "space": self._space(corpus, hot),
        }
        self._snapshot(system)
        return system

    def close(self, system) -> None:
        system["sup"].close()
        shutil.rmtree(system["dir"], ignore_errors=True)

    def _snapshot(self, system) -> None:
        """The answering generation's documents, for the oracle."""
        supervisor = system["sup"]
        system["snapshots"][supervisor.generation.number] = joined(
            supervisor.corpus.documents().values()
        )

    def _space(self, corpus, hot) -> Dict[str, float]:
        shards = corpus.sharded.space_report()
        hot_report = hot.space_report()
        payload = shards.payload_bits + hot_report.payload_bits
        overhead = shards.overhead_bits + hot_report.overhead_bits
        base = Text(joined(self.base.values()))
        return {
            "bits_per_symbol": (payload + overhead) / (BASE_DOCUMENTS * DOCUMENT_LEN),
            "space.payload_bits": payload,
            "space.overhead_bits": overhead,
            "space.theorem3_gap": optimality_gap(
                shards.payload_bits, evaluate_bounds(base, THRESHOLD)),
        }

    def space(self, system) -> Dict[str, float]:
        return system["space"]

    # -- requests -----------------------------------------------------------

    def serve(self, system, index: int, run: Pass) -> None:
        op = self.ops[index]
        kind = op[0]
        supervisor = system["sup"]
        corpus = supervisor.corpus
        tracing = run.tracer is not None and run.tracer.enabled
        if kind in ("query", "batch"):
            if tracing:
                run.extra.setdefault("delta_pending", []).append(corpus.delta_pending)
            if kind == "query":
                with run.op(index, kind):
                    run.answers[index] = supervisor.merged_count(op[1])
                patterns = [op[1]]
            else:
                with run.op(index, kind, patterns=len(op[1])):
                    run.answers[index] = supervisor.merged_count_many(op[1])
                patterns = op[1]
            if tracing and index in run.op_seconds:
                self._replay(system, run, patterns, run.op_seconds[index])
        elif kind == "append":
            with run.op(index, "write", patterns=0):
                run.answers[index] = corpus.append(op[1], op[2])
        elif kind == "delete":
            with run.op(index, "write", patterns=0):
                run.answers[index] = corpus.delete(op[1])
        else:
            with run.op(index, kind, patterns=0):
                run.answers[index] = supervisor.reload(compact=kind == "compact")
            self._snapshot(system)
            if kind == "compact":
                durable = corpus.durable_bytes()
                run.extra["compaction_bytes"] = run.extra.get("compaction_bytes", 0) + (
                    durable["segments"] + durable["indexes"] + durable["manifest"])

    def _replay(self, system, run: Pass, patterns, call_s: float) -> None:
        """Time the same patterns on in-process planners over the
        answering generation's indexes; the call time minus this is the
        daemon's transport (pipes, pickling, worker scheduling)."""
        tracer = run.tracer
        hits = set(tracer.notes.pop("hot_hits", []))
        cold = [p for p in patterns if p not in hits]
        with tracer.paused():
            number = system["sup"].generation.number
            planners = system["replay"].get(number)
            if planners is None:
                planners = system["replay"][number] = self._planners(system)
            started = time.perf_counter()
            if cold:
                for planner, lower in planners:
                    if lower:
                        planner.count_or_none_many(cold)
                    else:
                        planner.count_many(cold)
            replay = time.perf_counter() - started
        run.extra["call_s"] = run.extra.get("call_s", 0.0) + call_s
        run.extra["replay_s"] = run.extra.get("replay_s", 0.0) + replay

    @staticmethod
    def _planners(system):
        manifest, sharded, delta, _ = system["sup"].corpus.publish_snapshot()
        indexes = [sharded.estimator_for(name) for name in sharded.shard_names]
        if delta:
            rows = [body for _, body in delta]
            indexes.append(FMIndex(Text.from_rows(rows, separator=manifest.config.separator)))
        return [
            (planner_for(index, max_states=MAX_STATES),
             index.error_model is ErrorModel.LOWER_SIDED)
            for index in indexes
        ]

    # -- results ------------------------------------------------------------

    def check(self, system, run: Pass, oracle) -> Dict[str, float]:
        snapshots = system["snapshots"]
        truths: Dict[tuple, int] = {}
        widths, exact = [], 0
        for index, answer in sorted(run.answers.items()):
            op = self.ops[index]
            if op[0] == "query":
                pairs = [(op[1], answer)]
            elif op[0] == "batch":
                if len(answer) != len(op[1]):
                    oracle.ack(f"batch {index}", False)
                    continue
                pairs = list(zip(op[1], answer))
            else:
                ok = answer is not None
                oracle.ack(f"{op[0]} {index}", ok)
                continue
            for pattern, reply in pairs:
                key = (reply.generation, pattern)
                truth = truths.get(key)
                if truth is None:
                    truth = truths[key] = naive_count(snapshots[reply.generation], pattern)
                oracle.daemon(pattern, reply, truth)
                if index in self.window:
                    widths.append(reply.hi - reply.lo)
                    exact += reply.exact
        return {
            "mean_width": statistics.fmean(widths),
            "exact_frac": exact / len(widths),
        }

    def end_to_end(self, run: Pass) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for kind, name, scale in (("batch", "batch_p50_ms", 1e3),
                                  ("write", "write_p50_ms", 1e3),
                                  ("flip", "flip_p50_ms", 1e3),
                                  ("compact", "compact_s", 1.0)):
            summary = summarize(run.samples.get(kind, []))
            out[kind] = summary
            if summary["samples"]:
                out[name] = summary["p50"] * scale
        return out

    def trace_extra(self, system, run: Pass, tracer) -> Dict[str, float]:
        supervisor = system["sup"]
        requests = max(1, len(run.op_seconds) - self.warmup_ops)
        pending = run.extra.get("delta_pending", [])
        user = tracer.counters["live.user_bytes"]
        durable = tracer.counters["live.wal_bytes"] + run.extra.get("compaction_bytes", 0)
        workers = range(len(supervisor.worker_states()))
        return {
            "live.delta_pending_mean": statistics.fmean(pending) if pending else 0.0,
            "live.write_amp": durable / user if user else 0.0,
            "daemon.transport_s": (
                run.extra.get("call_s", 0.0) - run.extra.get("replay_s", 0.0)
            ) / requests,
            "parallel.worker_rss_mb": max(
                (process_peak_rss_mb(supervisor.worker_pid(i)) for i in workers),
                default=0.0,
            ),
        }
