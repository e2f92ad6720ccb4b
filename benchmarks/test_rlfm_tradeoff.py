"""RLFM vs FM: the run-length trade-off across corpus regimes.

RLFM stores O(R) entries for R BWT runs: it must beat the plain FM-index
on the repetitive corpora (dblp/sources) and lose on dna-like
near-incompressible data. Also times the run-length backward search.
"""

from __future__ import annotations

import pytest

from repro.baselines.fm import FMIndex
from repro.baselines.rlfm import RLFMIndex

from .conftest import sample_patterns


def test_rlfm_space_regimes(benchmark, contexts, save_report):
    def build_all():
        return {
            name: RLFMIndex.from_bwt(ctx.bwt, ctx.text.alphabet)
            for name, ctx in contexts.items()
        }

    indexes = benchmark.pedantic(build_all, rounds=1, iterations=1)
    lines = ["RLFM vs FM payload bits per corpus:"]
    ratios = {}
    for name, ctx in contexts.items():
        rlfm_bits = indexes[name].space_report().payload_bits
        fm_bits = FMIndex(ctx).space_report().payload_bits
        runs = indexes[name].num_runs
        ratios[name] = rlfm_bits / fm_bits
        lines.append(
            f"  {name:<8} runs={runs:>7,}  RLFM={rlfm_bits:>9,}  "
            f"FM={fm_bits:>9,}  ratio={ratios[name]:.2f}"
        )
    report = "\n".join(lines)
    save_report("rlfm_tradeoff", report)
    print("\n" + report)

    # Run structure tracks repetitiveness: fewer runs per symbol on the
    # template-heavy corpora than on dna.
    assert ratios["sources"] < ratios["dna"]
    assert ratios["dblp"] < ratios["dna"]


def test_rlfm_query_batch(benchmark, contexts):
    ctx = contexts["sources"]
    index = RLFMIndex.from_bwt(ctx.bwt, ctx.text.alphabet)
    fm = FMIndex(ctx)
    patterns = sample_patterns(ctx, 6, 40)

    def run() -> int:
        return sum(index.count(p) for p in patterns)

    total = benchmark(run)
    assert total == sum(fm.count(p) for p in patterns)
