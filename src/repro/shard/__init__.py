"""Sharded corpus plane: partitioned indexes with error-budget-aware merge.

The ROADMAP's first scale lever: instead of one monolithic index over the
whole corpus, a :class:`ShardPlan` partitions the documents into ``k``
per-shard texts (document-aligned, so the split is exactness-preserving),
:func:`build_sharded` builds one index per shard through the standard
build pipeline (shared :class:`~repro.build.ArtifactCache`, parallel
builds), and :class:`ShardedEstimator` serves merged counts whose error
algebra is stated — and tested — explicitly in :mod:`repro.shard.merge`:

=================  ===========================================================
shards             merged answer
=================  ===========================================================
all exact          exact (the true counts sum)
uniform ``l_i``    uniform at threshold ``1 + sum (l_i - 1)``
lower-sided        exact when every shard certifies, else folded into
                   the uniform interval
any quarantined    ``UPPER_BOUND`` (the degraded shard contributes its
                   trivial ceiling; the other ``k - 1`` keep serving)
=================  ===========================================================

:class:`MergePolicy` decides how the requested corpus threshold ``l`` maps
onto shards: ``SPLIT_BUDGET`` preserves the global additive bound
``l - 1`` by building shards at ``l_shard = max(2, 1 + (l - 1) // k)``;
``WIDEN_INTERVAL`` keeps ``l_shard = l`` and reports the widened merged
threshold honestly.
"""

from .build import (
    ShardBuildReport,
    build_process_sharded,
    build_sharded,
    build_sharded_ladder,
    effective_shard_threshold,
)
from .estimator import ShardProbe, ShardedAutomaton, ShardedEstimator
from .fanout import BackoffPolicy
from .merge import (
    MergedCount,
    MergePolicy,
    ShardAnswer,
    merge_answers,
    merged_threshold,
    shard_threshold,
)
from .plan import Shard, ShardPlan

__all__ = [
    "BackoffPolicy",
    "MergePolicy",
    "MergedCount",
    "Shard",
    "ShardAnswer",
    "ShardBuildReport",
    "ShardPlan",
    "ShardProbe",
    "ShardedAutomaton",
    "ShardedEstimator",
    "build_process_sharded",
    "build_sharded",
    "build_sharded_ladder",
    "effective_shard_threshold",
    "merge_answers",
    "merged_threshold",
    "shard_threshold",
]
