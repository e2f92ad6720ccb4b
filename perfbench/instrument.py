"""Which ``repro`` entry points the traced pass wraps, and the per-layer
metrics derived from the spans and counters they record.

Span names are ``<layer>.<what>``; the layer is a module name under
``src/repro/``. Scalar ``rank``/``select`` calls on the bit structures
are not wrapped (each costs less than a wrapper), so their time counts
toward the automaton step that made them (layer ``core``).

Every ``*_s`` metric is seconds per traced request, so that the layer
times of one workload add up (up to overlap on the shard pool) to its
mean request time; counts are per request unless named otherwise.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from .tracing import Tracer

LAYERS = (
    "bits", "core", "engine", "selectivity", "hot", "service", "shard",
    "live", "daemon", "parallel", "build",
)

BULK_KERNELS = ("rank_many", "select_many", "rank_pairs", "ranks_matrix")


def _count_states(tracer, result, args, kwargs):
    tracer.counters["core.step_many_states"] += len(args[1])


def _planner_first_sight(tracer, args, kwargs):
    tracer.remember("planner", args[0], lambda planner: planner.stats.copy())
    return args, kwargs


def _certified(tracer, result, args, kwargs):
    tracer.counters["engine.lower_sided_answers"] += len(result)
    tracer.counters["engine.certified"] += sum(v is not None for v in result)


def _materialize_fragments(tracer, args, kwargs):
    fragments = list(args[1])
    tracer.counters["selectivity.fragments"] += len(fragments)
    return (args[0], fragments) + tuple(args[2:]), kwargs


def _hot_first_sight(tracer, args, kwargs):
    tracer.remember("hot", args[0], lambda hot: dataclasses.replace(hot.stats))
    return args, kwargs


def _hot_lookup(tracer, result, args, kwargs):
    if result is None:
        tracer.counters["hot.misses"] += 1
        return
    tracer.counters["hot.hits"] += 1
    tracer.notes.setdefault("hot_hits", []).append(args[1])
    if getattr(result, "source", "") == "sketch":
        tracer.counters["hot.sketch_hits"] += 1


def _shed(tracer, result, args, kwargs):
    tracer.counters["service.shed"] += int(bool(result.shed))


def _setup_build_report(tracer, result, args, kwargs):
    if tracer.in_request:
        return  # compaction rebuilds show up as live.compact / build spans
    for record in result.report.stages:
        if record.source == "computed" and record.stage == "sa":
            tracer.counters["setup.build.sa_s"] += record.seconds
        elif record.stage.startswith("index:"):
            tracer.counters["setup.build.index_s"] += record.seconds
    tracer.counters["setup.build.reuse_hits"] += result.report.reuse_hits


def _compaction(tracer, result, args, kwargs):
    tracer.counters["live.compactions"] += 1
    tracer.counters["live.verified_probes"] += result.verified_probes


def _user_bytes(tracer, result, args, kwargs):
    tracer.counters["live.user_bytes"] += len(args[2].encode("utf-8"))


def _wal_bytes(tracer, result, args, kwargs):
    tracer.counters["live.wal_bytes"] += len(args[1].encode())


def _published(tracer, result, args, kwargs):
    tracer.counters["parallel.publishes"] += 1
    tracer.counters["parallel.segment_bytes"] += len(args[2])


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (``Tracer.uninstall`` undoes it)."""
    from repro.baselines.fm import FMIndex
    from repro.baselines.pst import PrunedSuffixTree
    from repro.baselines.rlfm import RLFMIndex
    from repro.bits.bitvector import BitVector
    from repro.bits.eliasfano import EliasFano, SparseBitVector
    from repro.bits.rrr import RRRBitVector
    from repro.bits.wavelet import HuffmanWaveletTree, WaveletMatrix
    from repro.build import pipeline
    from repro.core.approx import ApproxIndex
    from repro.core.cpst import CompactPrunedSuffixTree
    from repro.daemon.generation import GenerationPublisher
    from repro.daemon.supervisor import Supervisor
    from repro.engine.planner import TrieBatchPlanner
    from repro.hot.rung import HotTierRung
    from repro.hot.tier import HotPatternTier
    from repro.live.compactor import Compactor
    from repro.live.corpus import LiveCorpus
    from repro.live.wal import WriteAheadLog
    from repro.parallel import segment
    from repro.parallel.pool import SegmentPool
    from repro.selectivity.base import CountOracle, SelectivityEstimator
    from repro.service.resilient import ResilientEstimator
    from repro.service.server import QueryServer
    from repro.service.tiers import Tier
    from repro.shard import merge
    from repro.shard.estimator import ShardedAutomaton, ShardedEstimator

    for cls in (BitVector, EliasFano, SparseBitVector, RRRBitVector,
                WaveletMatrix, HuffmanWaveletTree):
        for kernel in BULK_KERNELS:
            tracer.wrap_method(cls, kernel, f"bits.{cls.__name__}.{kernel}")

    for cls in (CompactPrunedSuffixTree, ApproxIndex, FMIndex,
                PrunedSuffixTree, RLFMIndex):
        tracer.wrap_method(cls, "step_many", "core.step_many", after=_count_states)
        tracer.wrap_method(cls, "step", "core.scalar_step")
        tracer.wrap_method(cls, "start", "core.scalar_step")
    for attr in ("step_many", "step", "start"):
        tracer.wrap_method(ShardedAutomaton, attr, "shard.product_step")

    for attr in ("count", "count_many", "count_or_none"):
        tracer.wrap_method(TrieBatchPlanner, attr, f"engine.{attr}",
                           before=_planner_first_sight)
    tracer.wrap_method(TrieBatchPlanner, "count_or_none_many",
                       "engine.count_or_none_many",
                       before=_planner_first_sight, after=_certified)

    tracer.wrap_method(SelectivityEstimator, "estimate", "selectivity.estimate")
    tracer.wrap_method(CountOracle, "prime", "selectivity.prime",
                       before=_materialize_fragments)

    for attr in ("lookup", "lookup_exact"):
        tracer.wrap_method(HotPatternTier, attr, f"hot.{attr}",
                           before=_hot_first_sight, after=_hot_lookup)
    tracer.wrap_method(HotPatternTier, "observe", "hot.observe")

    tracer.wrap_method(QueryServer, "query", "service.front", after=_shed)
    tracer.wrap_method(ResilientEstimator, "query", "service.ladder")
    tracer.wrap_method(Tier, "answer", "service.tier")
    tracer.wrap_method(HotTierRung, "answer", "service.tier")

    tracer.wrap_method(ShardedEstimator, "merged_count", "shard.fanout")
    tracer.wrap_function(merge, "merge_answers", "shard.merge")

    tracer.wrap_method(LiveCorpus, "append", "live.write", after=_user_bytes)
    tracer.wrap_method(LiveCorpus, "delete", "live.write")
    tracer.wrap_method(WriteAheadLog, "append", "live.wal_append", after=_wal_bytes)
    tracer.wrap_method(Compactor, "run", "live.compact", after=_compaction)

    tracer.wrap_method(Supervisor, "merged_count", "daemon.call")
    tracer.wrap_method(Supervisor, "merged_count_many", "daemon.call")
    tracer.wrap_method(Supervisor, "reload", "daemon.reload")
    tracer.wrap_method(GenerationPublisher, "publish", "daemon.publish")

    tracer.wrap_method(SegmentPool, "publish", "parallel.segment_publish",
                       after=_published)
    tracer.wrap_function(segment, "write_estimator_segment", "parallel.segment_write")

    tracer.wrap_function(pipeline, "build_all", "build.build_all",
                         after=_setup_build_report)


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is reported in (by naming rule)."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_share", "_ratio", "_frac", "_gap", "_amp")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fanout_children(tracer: Tracer) -> List[List[float]]:
    """Per fan-out span: its duration, then each per-shard call's."""
    fanouts: Dict[int, List[float]] = {}
    for i, name in enumerate(tracer.names):
        if name == "shard.fanout" and tracer.requests[i] >= 0:
            fanouts[i] = [tracer.ends[i] - tracer.starts[i]]
    for i, parent in enumerate(tracer.parents):
        if parent in fanouts and tracer.names[i].startswith("engine."):
            fanouts[parent].append(tracer.ends[i] - tracer.starts[i])
    return list(fanouts.values())


def layer_metrics(tracer: Tracer, analysis: Dict[str, object],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; layers the workload leaves idle read 0.

    ``extra`` carries what the workload measured itself (space, replay
    time, worker memory, ...), keyed by metric name.
    """
    from repro.engine import EngineStats

    n = max(1, int(analysis["requests"]))
    by_name = analysis["by_name"]
    counters = tracer.counters

    def spans(*prefixes: str) -> List[Dict[str, float]]:
        return [v for k, v in by_name.items() if k.startswith(prefixes)]

    def self_s(*prefixes: str) -> float:
        return sum(v["self_s"] for v in spans(*prefixes)) / n

    def total_s(*prefixes: str) -> float:
        return sum(v["total_s"] for v in spans(*prefixes)) / n

    def calls(*prefixes: str) -> int:
        return sum(int(v["count"]) for v in spans(*prefixes))

    engine = EngineStats()
    for planner, before in tracer.seen.get("planner", {}).values():
        engine.merge(planner.stats - before)
    demotions = sum(
        hot.stats.demotions - before.demotions
        for hot, before in tracer.seen.get("hot", {}).values()
    )
    fanouts = _fanout_children(tracer)
    lookups = counters["hot.hits"] + counters["hot.misses"]

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = analysis["by_layer"].get(layer, 0.0) / n
    m.update({
        "bits.bulk_calls": calls("bits.") / n,
        "bits.bulk_s": self_s("bits."),
        "core.step_many_s": self_s("core.step_many"),
        "core.step_many_states": counters["core.step_many_states"] / n,
        "core.scalar_step_s": self_s("core.scalar_step"),
        "core.scalar_steps": calls("core.scalar_step") / n,
        "engine.planner_self_s": self_s("engine."),
        "engine.steps_per_pattern": _ratio(engine.automaton_steps, engine.patterns),
        "engine.rank_calls_per_pattern": _ratio(engine.rank_calls, engine.patterns),
        "engine.state_cache_hit_ratio": _ratio(
            engine.state_cache_hits,
            engine.state_cache_hits + engine.state_cache_misses),
        "engine.bulk_width_mean": _ratio(engine.bulk_states, engine.bulk_calls),
        "engine.vectorized_share": _ratio(engine.bulk_states, engine.automaton_steps),
        "selectivity.fragments_per_estimate": _ratio(
            counters["selectivity.fragments"], calls("selectivity.estimate")),
        "selectivity.certified_share": _ratio(
            counters["engine.certified"], counters["engine.lower_sided_answers"]),
        "hot.lookup_s": self_s("hot.lookup"),
        "hot.observe_s": self_s("hot.observe"),
        "hot.hit_ratio": _ratio(counters["hot.hits"], lookups),
        "hot.sketch_share": _ratio(counters["hot.sketch_hits"], counters["hot.hits"]),
        "hot.demotions": demotions / n,
        "service.front_self_s": self_s("service.front"),
        "service.ladder_self_s": self_s("service.ladder", "service.tier"),
        "service.tiers_tried_per_query": _ratio(
            calls("service.tier"), calls("service.ladder")),
        "service.shed_share": _ratio(counters["service.shed"], calls("service.front")),
        "shard.fanout_self_s": self_s("shard.fanout"),
        "shard.per_shard_s": sum(sum(f[1:]) for f in fanouts) / n,
        "shard.merge_s": self_s("shard.merge"),
        "shard.slowest_share": _ratio(
            sum(_ratio(max(f[1:], default=0.0), f[0]) for f in fanouts),
            len(fanouts)),
        "live.wal_append_s": self_s("live.wal_append"),
        "live.compact_s": self_s("live.compact"),
        "live.verified_probes": _ratio(
            counters["live.verified_probes"], counters["live.compactions"]),
        "daemon.publish_s": self_s("daemon.publish"),
        "daemon.flip_self_s": self_s("daemon.reload"),
        "daemon.call_s": total_s("daemon.call"),
        "parallel.segment_bytes": _ratio(
            counters["parallel.segment_bytes"], counters["parallel.publishes"]),
        "build.sa_s": counters["setup.build.sa_s"],
        "build.index_s": counters["setup.build.index_s"],
        "build.reuse_hits": counters["setup.build.reuse_hits"],
        "trace.requests": n,
        "trace.attributed_share": 1.0 - _ratio(
            analysis["unattributed_s"], analysis["request_s"]),
        "unattributed_s": analysis["unattributed_s"] / n,
    })
    for key in ("live.delta_pending_mean", "live.write_amp", "daemon.transport_s",
                "parallel.worker_rss_mb", "space.payload_bits",
                "space.overhead_bits", "space.theorem3_gap", "trace.overhead_frac"):
        m[key] = float(extra.get(key, 0.0))
    return m
