"""Building a :class:`~repro.shard.estimator.ShardedEstimator` from a plan.

Every shard gets its own :class:`~repro.build.BuildContext` (so a rebuild
of one shard reuses that shard's memoised suffix array instead of
re-sorting) and runs through the standard :func:`~repro.build.build_all`
pipeline; shards build in parallel on a thread pool. An optional
:class:`~repro.build.ArtifactCache` is shared across shards — artifacts
are keyed by each shard text's content digest, so **re-sharding reuses
unchanged shards**: only shards whose document set changed pay a suffix
sort.

:func:`build_sharded` returns the estimator plus a
:class:`ShardBuildReport` aggregating per-shard
:class:`~repro.build.report.BuildReport` telemetry (wall clock, cache
hits, space). :func:`build_sharded_ladder` assembles the serving-layer
degradation ladder whose upper tiers are sharded (used by
``repro serve-check --shards N``); its CPST and APX tiers build from the
same per-shard contexts, so each shard's suffix array is sorted once.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..build import ArtifactCache, BuildContext, build_all, spec_for
from ..build.report import BuildReport
from ..core.interface import OccurrenceEstimator
from ..errors import InvalidParameterError
from ..space import SpaceReport
from .estimator import ShardedEstimator
from .merge import MergePolicy, merged_threshold, shard_threshold
from .plan import ShardPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.resilient import ResilientEstimator

#: Index kinds whose constructor takes the error threshold ``l`` (and
#: therefore participate in the merge policy's budget arithmetic).
_THRESHOLDED_KINDS = ("cpst", "apx", "apx-ef", "pst", "patricia")


@dataclass
class ShardBuildReport:
    """Telemetry of one sharded build: per-shard reports plus the algebra."""

    kind: str
    policy: str
    requested_threshold: int
    shard_threshold: int
    merged_threshold: int
    wall_seconds: float = 0.0
    #: Per-shard pipeline telemetry, keyed by shard name.
    reports: Dict[str, BuildReport] = field(default_factory=dict)
    space: Optional[SpaceReport] = None

    @property
    def reuse_hits(self) -> int:
        """Artifact stages served from a memo or the on-disk cache,
        summed across shards (nonzero on a re-shard with a warm cache)."""
        return sum(report.reuse_hits for report in self.reports.values())

    def format(self) -> str:
        lines = [
            f"sharded build — kind {self.kind}, {len(self.reports)} shard(s), "
            f"policy {self.policy}: l={self.requested_threshold} -> "
            f"l_shard={self.shard_threshold} "
            f"(merged uniform threshold {self.merged_threshold})",
            f"  wall: {self.wall_seconds * 1e3:.1f} ms, "
            f"artifact reuse hits: {self.reuse_hits}",
        ]
        for name, report in self.reports.items():
            lines.append(
                f"  {name:<10} {report.wall_seconds * 1e3:>8.1f} ms, "
                f"{report.reuse_hits} reuse hit(s), "
                f"{report.total_payload_bits} payload bits"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serialisable form (the shard benchmark artifact)."""
        return {
            "kind": self.kind,
            "policy": self.policy,
            "requested_threshold": self.requested_threshold,
            "shard_threshold": self.shard_threshold,
            "merged_threshold": self.merged_threshold,
            "wall_seconds": self.wall_seconds,
            "reuse_hits": self.reuse_hits,
            "shards": {
                name: report.as_dict() for name, report in self.reports.items()
            },
        }


def effective_shard_threshold(
    kind: str, l: int, k: int, policy: "MergePolicy | str"
) -> int:
    """The per-shard threshold a build uses (``1`` for exact kinds)."""
    if kind not in _THRESHOLDED_KINDS:
        return 1
    return shard_threshold(l, k, MergePolicy.parse(policy))


def build_sharded(
    plan: ShardPlan,
    kind: str = "cpst",
    l: int = 64,
    *,
    policy: "MergePolicy | str" = MergePolicy.SPLIT_BUDGET,
    cache: Optional[ArtifactCache] = None,
    max_workers: Optional[int] = None,
    keep_texts: bool = True,
) -> "tuple[ShardedEstimator, ShardBuildReport]":
    """Build one index ``kind`` per shard and merge behind one estimator.

    ``policy`` decides the per-shard threshold (see
    :func:`~repro.shard.merge.shard_threshold`); exact kinds (``fm``,
    ``rlfm``, ...) ignore it. ``keep_texts=False`` drops the per-shard
    source texts (saves memory, but disables the watchdog's per-shard
    differential localisation). Each shard keeps a rebuild factory bound
    to its own context, so :meth:`ShardedEstimator.rebuild_shard` reuses
    the memoised artifacts instead of re-sorting.
    """
    (built,) = _build_kinds(
        plan, (kind,), l, policy=policy, cache=cache,
        max_workers=max_workers, keep_texts=keep_texts,
    )
    return built


def _build_kinds(
    plan: ShardPlan,
    kinds: "tuple[str, ...]",
    l: int,
    *,
    policy: "MergePolicy | str",
    cache: Optional[ArtifactCache],
    max_workers: Optional[int],
    keep_texts: bool = True,
) -> "List[tuple[ShardedEstimator, ShardBuildReport]]":
    """One sharded estimator per kind, in order. Every kind of a shard
    builds from that shard's one :class:`~repro.build.BuildContext`, so
    the shard's suffix array is sorted once whatever the number of kinds,
    and every kind's rebuilder reuses the same memoised artifacts. Each
    report's wall clock is the joint build's."""
    policy = MergePolicy.parse(policy)
    thresholds = [effective_shard_threshold(kind, l, plan.k, policy) for kind in kinds]
    specs = [spec_for(kind, l_shard) for kind, l_shard in zip(kinds, thresholds)]
    started = time.perf_counter()

    contexts = {
        shard.name: BuildContext(shard.text, cache=cache, name=shard.name)
        for shard in plan.shards
    }

    def build_one(shard_name: str) -> "List[tuple[OccurrenceEstimator, BuildReport]]":
        built = []
        for spec in specs:
            result = build_all(contexts[shard_name], [spec])
            built.append((result[spec.label], result.report))
        return built

    names = plan.names
    if max_workers is None:
        max_workers = min(plan.k, 8)
    if max_workers < 1:
        raise InvalidParameterError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers == 1 or plan.k == 1:
        per_shard = [build_one(name) for name in names]
    else:
        with ThreadPoolExecutor(
            max_workers=min(max_workers, plan.k),
            thread_name_prefix="repro-shard-build",
        ) as pool:
            per_shard = list(pool.map(build_one, names))
    wall_seconds = time.perf_counter() - started

    results = []
    for position, (kind, l_shard, spec) in enumerate(zip(kinds, thresholds, specs)):
        estimator = ShardedEstimator(
            [(name, built[position][0]) for name, built in zip(names, per_shard)],
            texts=(
                {shard.name: shard.text for shard in plan.shards} if keep_texts else {}
            ),
            builders={
                shard.name: functools.partial(spec.build, contexts[shard.name])
                for shard in plan.shards
            },
        )
        report = ShardBuildReport(
            kind=kind,
            policy=policy.value,
            requested_threshold=l,
            shard_threshold=l_shard,
            merged_threshold=merged_threshold([l_shard] * plan.k)
            if kind in _THRESHOLDED_KINDS
            else 1,
            wall_seconds=wall_seconds,
            reports={
                name: built[position][1] for name, built in zip(names, per_shard)
            },
            space=estimator.space_report(),
        )
        results.append((estimator, report))
    return results


def build_process_sharded(
    plan: ShardPlan,
    kind: str = "cpst",
    l: int = 64,
    *,
    policy: "MergePolicy | str" = MergePolicy.SPLIT_BUDGET,
    cache: Optional[ArtifactCache] = None,
    max_workers: Optional[int] = None,
    segment_dir: "Optional[str]" = None,
    **executor_kwargs,
):
    """Build per-shard indexes, export them as segments and serve them
    from worker processes.

    The thread-pooled build (:func:`build_sharded`) runs first — same
    artifacts, same cache reuse — then each shard is exported through the
    segment stage (written under ``segment_dir`` when given, otherwise
    kept in memory) and handed to a
    :class:`~repro.parallel.executor.ProcessShardedEstimator`. Returns
    ``(process_estimator, report)`` with the export stage's wall clock
    added to the report. The in-process build products are released; only
    the shared segments (one copy per host) and the workers' private
    state remain resident.
    """
    from ..build.segments import export_sharded_segments, load_segments
    from ..parallel.executor import ProcessShardedEstimator
    from ..parallel.segment import write_estimator_segment

    estimator, report = build_sharded(
        plan, kind, l, policy=policy, cache=cache,
        max_workers=max_workers, keep_texts=False,
    )
    started = time.perf_counter()
    if segment_dir is not None:
        paths, _ = export_sharded_segments(estimator, segment_dir)
        segments = load_segments(paths)
    else:
        segments = [
            (name, write_estimator_segment(estimator.estimator_for(name), name))
            for name in estimator.shard_names
        ]
    process_estimator = ProcessShardedEstimator(segments, **executor_kwargs)
    report.wall_seconds += time.perf_counter() - started
    return process_estimator, report


def build_sharded_ladder(
    plan: ShardPlan,
    l: int = 64,
    *,
    policy: "MergePolicy | str" = MergePolicy.SPLIT_BUDGET,
    deadline_seconds: Optional[float] = 0.5,
    cache: Optional[ArtifactCache] = None,
    max_workers: Optional[int] = None,
    primary: Optional[OccurrenceEstimator] = None,
) -> "ResilientEstimator":
    """The default degradation ladder with sharded upper tiers.

    Mirrors :func:`repro.service.build_default_ladder`: a certified-only
    sharded CPST tier, a sharded APX tier, then a monolithic q-gram tier
    and the always-available statistics tier built over the full
    concatenation (last-resort tiers must not depend on shard health).
    ``primary`` substitutes the first tier's estimator — the hook chaos
    tests and fault injection use.
    """
    from ..service.resilient import ResilientEstimator
    from ..service.tiers import Tier
    from ..textutil import Text

    (cpst_sharded, _), (apx_sharded, _) = _build_kinds(
        plan, ("cpst", "apx"), l, policy=policy, cache=cache, max_workers=max_workers
    )
    whole = BuildContext(Text.from_rows(
        [
            body
            for shard in plan.shards
            for body in _shard_bodies(shard, plan.separator)
        ],
        separator=plan.separator,
    ))
    tiers = [
        Tier(
            primary if primary is not None else cpst_sharded,
            "cpst-sharded",
            certified_only=True,
        ),
        Tier(apx_sharded, "apx-sharded"),
        Tier(spec_for("qgram", l).build(whole), "qgram", certified_only=True),
        Tier(spec_for("stats", l).build(whole), "stats", always_available=True),
    ]
    return ResilientEstimator(tiers, deadline_seconds=deadline_seconds)


def _shard_bodies(shard, separator: str) -> List[str]:
    """Recover a shard's document bodies from its separator-joined text."""
    return [row for row in shard.text.raw.split(separator) if row]
