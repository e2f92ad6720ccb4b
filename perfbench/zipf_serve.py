"""``zipf-serve``: skewed online point lookups through the serving front.

dblp (n = 100 000) cut into 8 documents, sharded k = 4, served by the
sharded degradation ladder (l = 16, build pool of 2) with a hot rung
on top and a default ``QueryServer`` front (no rate limit, no
hedging). Queries follow Zipf(s = 1.1) over 4 000 distinct patterns of
length 3-12, 10% of them absent from the text. Most queries hit the
hot rung, so the median measures hot + service; misses fan out to the
shards, so the tail measures the fan-out and merge. The engine runs
scalar single walks; selectivity, live and daemon stay idle.
"""

from __future__ import annotations

import statistics
from typing import Dict

import numpy as np

from repro.analysis import evaluate_bounds, optimality_gap
from repro.core.interface import ErrorModel
from repro.datasets import generate
from repro.hot import HotPatternTier, with_hot_tier
from repro.service.server import QueryServer
from repro.shard import ShardPlan, build_sharded_ladder
from repro.textutil import Text

from .oracle import joined, naive_count, outcome_interval
from .workload import CORPUS_SEED, Pass, Workload

SIZE = 100_000
DOCUMENTS = 8
SHARDS = 4
THRESHOLD = 16
DISTINCT = 4_000
EXPONENT = 1.1
ABSENT_SHARE = 0.10
BUILD_WORKERS = 2


class ZipfServe(Workload):
    name = "zipf-serve"
    setup_repeats = 5
    warmup_ops = 2_000
    rate = 2_250.0

    def __init__(self, seed: int, workdir, seconds: float):
        super().__init__(seed, workdir, seconds)
        raw = generate("dblp", SIZE, CORPUS_SEED)
        self.text = raw
        self.documents = [
            (f"doc{i}", raw[i * SIZE // DOCUMENTS:(i + 1) * SIZE // DOCUMENTS])
            for i in range(DOCUMENTS)
        ]
        self.haystack = joined(body for _, body in self.documents)
        # The pattern universe and its popularity order are fixed, like the
        # corpus; ``--seed`` draws the request log from them. Popularity is
        # a random permutation, so whether a pattern is hot says nothing
        # about its count and absent patterns take ranks anywhere. Drawn per
        # seed instead, the few head patterns (rank 1 alone takes ~16% of
        # queries) would decide each seed's median on their own.
        population = np.random.default_rng(CORPUS_SEED)
        alphabet = np.array(sorted(set(raw)))
        universe, seen = [], set()
        absent = int(DISTINCT * ABSENT_SHARE)
        while len(universe) < DISTINCT:
            length = int(population.integers(3, 13))
            if len(universe) < absent:
                pattern = "".join(population.choice(alphabet, length))
                if pattern in raw:
                    continue
            else:
                start = int(population.integers(0, SIZE - length + 1))
                pattern = raw[start:start + length]
            if pattern not in seen:
                seen.add(pattern)
                universe.append(pattern)
        self.truths = {p: naive_count(self.haystack, p) for p in universe}
        self.universe = [universe[i] for i in population.permutation(DISTINCT)]
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, DISTINCT + 1) ** EXPONENT
        self.log = rng.choice(DISTINCT, size=self.window.stop, p=weights / weights.sum())

    def build(self):
        plan = ShardPlan.for_documents(self.documents, SHARDS)
        ladder = build_sharded_ladder(plan, THRESHOLD, max_workers=BUILD_WORKERS)
        service, _ = with_hot_tier(ladder, HotPatternTier.from_documents(self.documents))
        return {"service": service, "server": QueryServer(service)}

    def close(self, system) -> None:
        system["server"].close()

    def serve(self, system, index: int, run: Pass) -> None:
        with run.op(index, "query"):
            run.answers[index] = system["server"].query(self.universe[self.log[index]])

    def check(self, system, run: Pass, oracle) -> Dict[str, float]:
        widths, exact = [], 0
        for index, outcome in run.answers.items():
            oracle.outcome(outcome, self.truths[outcome.pattern])
            if index in self.window:
                lo, hi = outcome_interval(outcome)
                widths.append(hi - lo)
                exact += outcome.error_model is ErrorModel.EXACT
        return {
            "mean_width": statistics.fmean(widths),
            "exact_frac": exact / len(widths),
        }

    def space(self, system) -> Dict[str, float]:
        payload = overhead = cpst_payload = 0
        for tier in system["service"].tiers:
            report = tier.estimator.space_report()
            payload += report.payload_bits
            overhead += report.overhead_bits
            if tier.name == "cpst-sharded":
                cpst_payload = report.payload_bits
        sheet = evaluate_bounds(Text(self.text), THRESHOLD)
        return {
            "bits_per_symbol": (payload + overhead) / SIZE,
            "space.payload_bits": payload,
            "space.overhead_bits": overhead,
            "space.theorem3_gap": optimality_gap(cpst_payload, sheet),
        }
