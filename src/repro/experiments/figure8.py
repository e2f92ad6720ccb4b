"""Figure 8 reproduction: index space as a function of the threshold.

The paper plots, per corpus, the sizes of FM-index, APPROX-l, PST-l and
CPST-l over a sweep of thresholds. We print the underlying series (payload
bits per index per threshold, plus the percentage of the plain-text size).

Headline shapes to reproduce:

* PST-l is far larger than CPST-l at every threshold (5–60x in the paper),
  dramatically so on `sources`;
* CPST-l edges out APPROX-l because ``m <= n/l`` on these corpora;
* both contributions drop well below the FM-index even for small ``l``;
* halving ``l`` grows both indexes by roughly 1.75–1.95x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..baselines.fm import FMIndex
from ..baselines.patricia import PrunedPatriciaTrie
from ..baselines.pst import PrunedSuffixTree
from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import dataset_names, generate
from ..space import text_bits
from .tables import format_table


@dataclass(frozen=True)
class Figure8Row:
    """Payload size of one index on one corpus at one threshold."""

    dataset: str
    index: str
    l: int  # 1 for the FM-index (exact)
    payload_bits: int
    percent_of_text: float


def run(
    size: int = 50_000,
    thresholds: Sequence[int] = (8, 16, 32, 64, 128, 256),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
    include_patricia: bool = False,
    include_extras: bool = False,
) -> List[Figure8Row]:
    """Compute the Figure 8 space series.

    ``include_patricia`` adds the Section 7.1 blind-search baseline;
    ``include_extras`` additionally adds the run-length FM-index and a
    q-gram table (q = 4) — structures beyond the paper's figure, for the
    extended comparison in the benches.
    """
    rows: List[Figure8Row] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        reference = text_bits(len(ctx.text), ctx.text.sigma)

        def add(index_name: str, l: int, bits: int) -> None:
            rows.append(
                Figure8Row(name, index_name, l, bits, 100.0 * bits / reference)
            )

        add("FM-index", 1, FMIndex(ctx).space_report().payload_bits)
        if include_extras:
            from ..baselines.qgram import QGramIndex
            from ..baselines.rlfm import RLFMIndex

            add(
                "RLFM", 1,
                RLFMIndex.from_bwt(ctx.bwt, ctx.text.alphabet)
                .space_report().payload_bits,
            )
            add("QGram4", 1, QGramIndex(ctx.text, 4).space_report().payload_bits)
        for l in thresholds:
            add("APPROX", l, ApproxIndex(ctx, l).space_report().payload_bits)
            add("PST", l, PrunedSuffixTree(ctx, l).space_report().payload_bits)
            add("CPST", l, CompactPrunedSuffixTree(ctx, l).space_report().payload_bits)
            if include_patricia:
                add("Patricia", l, PrunedPatriciaTrie(ctx, l).size_in_bits())
    return rows


def format_results(rows: Sequence[Figure8Row]) -> str:
    """Render the space series as a table."""
    return format_table(
        headers=["dataset", "index", "l", "payload_bits", "% of text"],
        rows=[
            (r.dataset, r.index, r.l, r.payload_bits, r.percent_of_text)
            for r in rows
        ],
        title="Figure 8 — index space vs threshold l (payload bits)",
    )


def headline_checks(rows: Sequence[Figure8Row]) -> Dict[str, bool]:
    """The qualitative claims of Figure 8, as boolean checks."""
    table: Dict[tuple, int] = {
        (r.dataset, r.index, r.l): r.payload_bits for r in rows
    }
    datasets = sorted({r.dataset for r in rows})
    thresholds = sorted({r.l for r in rows if r.index == "CPST"})
    fm = {d: table[(d, "FM-index", 1)] for d in datasets}

    pst_larger_than_cpst = all(
        table[(d, "PST", l)] > table[(d, "CPST", l)]
        for d in datasets
        for l in thresholds
    )
    below_fm_at_large_l = all(
        table[(d, "CPST", thresholds[-1])] < fm[d]
        and table[(d, "APPROX", thresholds[-1])] < fm[d]
        for d in datasets
    )
    halving_ratios = []
    for d in datasets:
        for smaller, larger in zip(thresholds, thresholds[1:]):
            if larger == 2 * smaller:
                for index in ("APPROX", "CPST"):
                    halving_ratios.append(
                        table[(d, index, smaller)] / table[(d, index, larger)]
                    )
    # The paper reports 1.75–1.95x per halving; at scaled-down corpus sizes
    # the constant sigma*log(n) term flattens the tail of the curve, so the
    # check targets the average ratio with a permissive floor per pair.
    mean_ratio = sum(halving_ratios) / len(halving_ratios) if halving_ratios else 0.0
    halving_in_band = 1.5 <= mean_ratio <= 2.1 and all(
        ratio >= 1.0 for ratio in halving_ratios
    )
    return {
        "pst_larger_than_cpst": pst_larger_than_cpst,
        "both_below_fm_at_large_l": below_fm_at_large_l,
        "halving_ratio_reasonable": halving_in_band,
    }
