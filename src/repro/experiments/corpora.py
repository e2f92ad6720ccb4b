"""Experiment X0: corpus characterisation ("Table 0").

The table every reproduction should lead with: for each synthetic stand-in
corpus, the statistics that determine how the paper's structures behave —
size, alphabet, the entropy profile H0..H3 (drives FM-index size), BWT run
count (drives RLFM and the repetitiveness regime), and the kept-node count
at a reference threshold (drives CPST vs APX). DESIGN.md's substitution
claims are auditable against this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..build import BuildContext
from ..datasets import dataset_names, generate
from ..textutil import kth_order_entropy, zeroth_order_entropy
from .tables import format_table


@dataclass(frozen=True)
class CorpusRow:
    """Characterisation of one corpus."""

    dataset: str
    size: int
    sigma: int
    h0: float
    h1: float
    h2: float
    h3: float
    bwt_runs: int
    runs_per_symbol: float
    m_at_64: int


def run(
    size: int = 50_000, seed: int = 0, datasets: Sequence[str] | None = None
) -> List[CorpusRow]:
    """Characterise every corpus."""
    rows: List[CorpusRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        raw = ctx.text.raw
        runs = 1 + int(np.count_nonzero(np.diff(ctx.bwt)))
        rows.append(
            CorpusRow(
                dataset=name,
                size=size,
                sigma=ctx.text.sigma,
                h0=zeroth_order_entropy(raw),
                h1=kth_order_entropy(raw, 1),
                h2=kth_order_entropy(raw, 2),
                h3=kth_order_entropy(raw, 3),
                bwt_runs=runs,
                runs_per_symbol=runs / size,
                m_at_64=ctx.structure(64).num_nodes,
            )
        )
    return rows


def format_results(rows: Sequence[CorpusRow]) -> str:
    return format_table(
        headers=["dataset", "size", "sigma", "H0", "H1", "H2", "H3",
                 "BWT runs", "runs/sym", "m(l=64)"],
        rows=[
            (r.dataset, r.size, r.sigma, r.h0, r.h1, r.h2, r.h3,
             r.bwt_runs, r.runs_per_symbol, r.m_at_64)
            for r in rows
        ],
        title="X0 — corpus characterisation (entropies in bits/symbol)",
    )


def headline_checks(rows: Sequence[CorpusRow]) -> dict:
    """The DESIGN.md substitution claims, as checks."""
    by_name = {row.dataset: row for row in rows}
    return {
        # dna: tiny alphabet, near-incompressible beyond order 0.
        "dna_small_sigma": by_name["dna"].sigma <= 20,
        "dna_weak_high_order_structure": by_name["dna"].h2 > 0.75 * by_name["dna"].h0,
        # dblp/sources: heavy structural repetition => H2 << H0, few runs.
        "structured_corpora_compress": all(
            by_name[n].h2 < 0.45 * by_name[n].h0 for n in ("dblp", "sources")
        ),
        "structured_corpora_few_runs": all(
            by_name[n].runs_per_symbol
            < 0.6 * by_name["dna"].runs_per_symbol
            for n in ("dblp", "sources")
        ),
        # english sits between.
        "english_intermediate": (
            by_name["dblp"].h2 < by_name["english"].h2 < by_name["dna"].h0 + 1
        ),
    }
