"""repro — Space-efficient Substring Occurrence Estimation (PODS 2011).

A complete reproduction of Orlandi & Venturini's paper: approximate
substring counting indexes with guaranteed additive error in space far
below the text size.

Quick start::

    from repro import ApproxIndex, CompactPrunedSuffixTree, FMIndex

    text = open("corpus.txt").read()
    apx = ApproxIndex(text, l=64)               # uniform error < 64
    cpst = CompactPrunedSuffixTree(text, l=64)  # exact when count >= 64

    apx.count("pattern")           # in [true, true + 63]
    cpst.count_or_none("pattern")  # exact count, or None below threshold

Main entry points:

* :class:`ApproxIndex` — paper Section 4, uniform additive error.
* :class:`CompactPrunedSuffixTree` — paper Section 5, lower-sided error.
* :class:`FMIndex`, :class:`PrunedSuffixTree`, :class:`PrunedPatriciaTrie`
  — the baselines the paper compares against.
* :mod:`repro.build` — the unified build pipeline: one shared
  :class:`BuildContext` per text (suffix array, BWT, LCP, pruned
  structures computed once, memoised, optionally disk-cached), and
  :func:`build_all` to build many indexes from it, in parallel, with
  per-stage telemetry.
* :mod:`repro.engine` — the backward-search engine: the
  :class:`BackwardSearchAutomaton` protocol every index implements, the
  trie-planned batch executor, the :class:`IndexCounter` every caller
  counts through, and the work counters.
* :mod:`repro.selectivity` — KVI / MO / MOL LIKE-predicate estimators.
* :mod:`repro.shard` — the sharded corpus plane: document-aligned
  partitions (:class:`ShardPlan`), per-shard indexes fanned out and
  merged under an explicit error algebra (:class:`ShardedEstimator`),
  with shard-granular quarantine in the serving layer.
* :mod:`repro.service` — resilient serving: degradation ladder, deadlines,
  circuit breakers, fault injection.
* :mod:`repro.live` — the live corpus plane: crash-safe incremental
  ingest (WAL-backed delta shard, atomically committed manifests,
  fault-tolerant compaction; :class:`LiveCorpus`).
* :mod:`repro.datasets` — synthetic Pizza&Chili stand-in corpora.
* :mod:`repro.experiments` — regenerate every table/figure of the paper.
"""

from .build import (
    ArtifactCache,
    BuildContext,
    BuildReport,
    BuildResult,
    IndexSpec,
    build_all,
    default_tier_specs,
)
from .collections import DocumentCollection, Occurrence
from .engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    EngineStats,
    IndexCounter,
    TrieBatchPlanner,
    automaton_of,
    planner_for,
)
from .baselines import (
    FMIndex,
    PrunedPatriciaTrie,
    PrunedSuffixTree,
    QGramIndex,
    RLFMIndex,
)
from .core import (
    ApproxIndex,
    ApproxIndexEF,
    CombinedIndex,
    CompactPrunedSuffixTree,
    ErrorModel,
    MultiplicativeIndex,
    OccurrenceEstimator,
    RowSelectivityIndex,
    ThresholdLadder,
    fit_threshold,
)
from .selectivity import (
    KVIEstimator,
    MOCEstimator,
    MOEstimator,
    MOLCEstimator,
    MOLEstimator,
)
from .service import (
    CircuitBreaker,
    Deadline,
    FaultSpec,
    FaultyIndex,
    QueryOutcome,
    ResilientEstimator,
    RetryPolicy,
    TextStatsEstimator,
    Tier,
    build_default_ladder,
    run_health_probe,
)
from .live import CompactionReport, Compactor, DeltaShard, LiveCorpus
from .shard import (
    MergePolicy,
    MergedCount,
    ShardPlan,
    ShardedEstimator,
    build_sharded,
    build_sharded_ladder,
)
from .space import SpaceReport, text_bits
from .validation import ValidationReport, validate_all, validate_index
from .textutil import Alphabet, Text

__version__ = "1.0.0"

__all__ = [
    "ApproxIndex",
    "ApproxIndexEF",
    "CombinedIndex",
    "MultiplicativeIndex",
    "RowSelectivityIndex",
    "CompactPrunedSuffixTree",
    "FMIndex",
    "PrunedSuffixTree",
    "PrunedPatriciaTrie",
    "QGramIndex",
    "RLFMIndex",
    "ErrorModel",
    "OccurrenceEstimator",
    "KVIEstimator",
    "MOEstimator",
    "MOLEstimator",
    "MOCEstimator",
    "MOLCEstimator",
    "SpaceReport",
    "text_bits",
    "Alphabet",
    "Text",
    "ValidationReport",
    "validate_all",
    "validate_index",
    "ThresholdLadder",
    "fit_threshold",
    "ArtifactCache",
    "BuildContext",
    "BuildReport",
    "BuildResult",
    "IndexSpec",
    "build_all",
    "default_tier_specs",
    "AutomatonCapabilities",
    "BackwardSearchAutomaton",
    "EngineStats",
    "IndexCounter",
    "TrieBatchPlanner",
    "automaton_of",
    "planner_for",
    "DocumentCollection",
    "Occurrence",
    "CompactionReport",
    "Compactor",
    "DeltaShard",
    "LiveCorpus",
    "MergePolicy",
    "MergedCount",
    "ShardPlan",
    "ShardedEstimator",
    "build_sharded",
    "build_sharded_ladder",
    "CircuitBreaker",
    "Deadline",
    "FaultSpec",
    "FaultyIndex",
    "QueryOutcome",
    "ResilientEstimator",
    "RetryPolicy",
    "TextStatsEstimator",
    "Tier",
    "build_default_ladder",
    "run_health_probe",
    "__version__",
]
