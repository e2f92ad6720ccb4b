#!/usr/bin/env python3
"""The sharded corpus plane: partitioned indexes with a merged guarantee.

Operations question: "the corpus outgrew one index — can we split it
across k shards without giving up the paper's error guarantees, and what
happens when one shard rots?" This example walks the whole plane:

1. a document-aligned `ShardPlan` (size-balanced bin-packing) over a
   batch of log files;
2. `build_sharded` under both merge policies — SPLIT_BUDGET divides the
   error budget so the merged answer still honors the original `l - 1`,
   WIDEN_INTERVAL keeps `l` per shard and reports the widened bound;
3. fan-out counting with the explicit error algebra (`MergedCount`),
   including the product automaton driving batched engine queries —
   stepped as waves (one `step_many` per frontier symbol, fanned across
   every live shard column) and checked against the fan-out answers;
4. shard-granular failure: quarantine one shard, watch the other k-1
   keep serving a sound (upper-bound) answer, then let the corruption
   watchdog convict, rebuild and readmit a shard that silently lies.

Run:  python examples/sharded_corpus.py
"""

import random

from repro.datasets import generate_english
from repro.service import CorruptionWatchdog, probes_from_text
from repro.shard import (
    MergePolicy,
    ShardPlan,
    build_sharded,
    build_sharded_ladder,
)
from repro.textutil import ROW_SEPARATOR, Text

DOCUMENTS = 12
SHARDS = 4
L = 16


def main() -> None:
    rng = random.Random(42)
    docs = [
        (f"log{i:02d}", generate_english(rng.randint(1_200, 2_400), seed=i))
        for i in range(DOCUMENTS)
    ]
    mono = Text.from_rows([body for _, body in docs])

    # -- 1. the plan: documents never straddle shards ---------------------
    plan = ShardPlan.for_documents(docs, SHARDS)
    print(plan.format())
    print()

    # -- 2. both merge policies -------------------------------------------
    pattern = "the "
    truth = mono.count_naive(pattern)
    for policy in (MergePolicy.SPLIT_BUDGET, MergePolicy.WIDEN_INTERVAL):
        sharded, report = build_sharded(plan, "apx", L, policy=policy)
        merged = sharded.merged_count(pattern)
        print(f"policy {policy.value!r}: l={L} -> l_shard="
              f"{report.shard_threshold}, merged threshold "
              f"{report.merged_threshold}")
        print(f"  {pattern!r}: truth {truth}, merged {merged.count}, "
              f"sound interval [{merged.lo}, {merged.hi}]")
        assert merged.lo <= truth <= merged.hi
    print()

    # -- 3. the engine path: one product automaton over k shards ----------
    from repro.engine import planner_for

    sharded, _ = build_sharded(plan, "apx", L)
    workload = sorted({
        w
        for body in (body for _, body in docs)
        for w in (body[i : i + 4] for i in range(0, 600, 7))
        if ROW_SEPARATOR not in w
    })
    # Waves narrower than the planner's crossover step one state at a
    # time; wider ones go through step_many. Answers are the same.
    waves = planner_for(sharded)
    batched = waves.count_many(workload)
    assert batched == [sharded.count(w) for w in workload]  # == fan-out
    print(f"batched {len(workload)} patterns over the product automaton: "
          f"{waves.stats.bulk_calls} step_many waves covered "
          f"{waves.stats.bulk_states} of {waves.stats.automaton_steps} "
          f"extensions (widest wave: "
          f"{max(waves.bulk_widths, default=0)} states)")
    print("sample:", dict(list(zip(workload, batched))[:4]))
    print()

    # -- 4a. losing a shard degrades the bound, not the service -----------
    sharded.quarantine_shard(plan.names[0], "simulated corruption")
    merged = sharded.merged_count(pattern)
    print(f"with {plan.names[0]} quarantined: model "
          f"{merged.error_model.value}, count {merged.count}, "
          f"interval [{merged.lo}, {merged.hi}] (truth {truth})")
    assert merged.lo <= truth <= merged.hi
    sharded.readmit_shard(plan.names[0])

    # -- 4b. the watchdog convicts a single lying shard -------------------
    service = build_sharded_ladder(plan, L, deadline_seconds=None)
    apx_tier = next(t for t in service.tiers if t.name == "apx-sharded")
    victim = plan.names[2]

    class Lies:
        """A per-shard estimator whose counts drift silently upward."""

        def __init__(self, inner):
            self._inner = inner

        def count(self, pattern):
            return self._inner.count(pattern) + 500

        @property
        def error_model(self):
            return self._inner.error_model

        @property
        def threshold(self):
            return self._inner.threshold

        @property
        def text_length(self):
            return self._inner.text_length

        @property
        def alphabet(self):
            return self._inner.alphabet

        def space_report(self):
            return self._inner.space_report()

    apx_tier.estimator.replace_shard(
        victim, Lies(apx_tier.estimator.estimator_for(victim))
    )
    apx_tier.replace_estimator(apx_tier.estimator)

    probes = {p: c for p, c in probes_from_text(mono, seed=5).items()
              if ROW_SEPARATOR not in p}
    watchdog = CorruptionWatchdog(service, probes,
                                  probes_per_round=len(probes), seed=1)
    watchdog.run_probe_round()
    for event in watchdog.events:
        print(event.summary())
    report = watchdog.report()
    print(report.format())
    assert any(e.shard == victim and e.readmitted for e in watchdog.events)
    assert not apx_tier.quarantined  # the tier itself never left service
    print("\nshard quarantine history exported:",
          len(report.to_json()), "bytes of JSON")


if __name__ == "__main__":
    main()
