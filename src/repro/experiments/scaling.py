"""Experiment X5: size scaling — space is Theta(n/l), queries are O(|P|).

The paper's space bounds are linear in ``n`` at fixed ``l``
(``O(n log(sigma*l)/l)`` for APX, ``O(m log(sigma*l))`` with ``m ~ n/l``
for CPST). This experiment sweeps the corpus size at a fixed threshold and
reports bits-per-symbol for each index — the series must flatten to a
constant (no super-linear drift), while the FM-index flattens to ~H0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..baselines.fm import FMIndex
from ..baselines.pst import PrunedSuffixTree
from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import generate
from .tables import format_table


@dataclass(frozen=True)
class ScalingRow:
    """Bits-per-symbol of every index at one corpus size."""

    dataset: str
    size: int
    l: int
    fm_bits_per_symbol: float
    apx_bits_per_symbol: float
    cpst_bits_per_symbol: float
    pst_bits_per_symbol: float


def run(
    sizes: Sequence[int] = (10_000, 20_000, 40_000),
    l: int = 32,
    seed: int = 0,
    dataset: str = "english",
) -> List[ScalingRow]:
    """Sweep corpus sizes at a fixed threshold."""
    rows: List[ScalingRow] = []
    for size in sizes:
        ctx = BuildContext(generate(dataset, size, seed), name=dataset)
        rows.append(
            ScalingRow(
                dataset=dataset,
                size=size,
                l=l,
                fm_bits_per_symbol=FMIndex(ctx).space_report().payload_bits / size,
                apx_bits_per_symbol=ApproxIndex(ctx, l).size_in_bits() / size,
                cpst_bits_per_symbol=CompactPrunedSuffixTree(ctx, l).size_in_bits() / size,
                pst_bits_per_symbol=PrunedSuffixTree(ctx, l).size_in_bits() / size,
            )
        )
    return rows


def format_results(rows: Sequence[ScalingRow]) -> str:
    return format_table(
        headers=["dataset", "size", "l", "FM b/sym", "APX b/sym", "CPST b/sym", "PST b/sym"],
        rows=[
            (
                r.dataset, r.size, r.l,
                r.fm_bits_per_symbol, r.apx_bits_per_symbol,
                r.cpst_bits_per_symbol, r.pst_bits_per_symbol,
            )
            for r in rows
        ],
        title="X5 — bits per text symbol as the corpus grows (fixed l)",
    )


def headline_checks(rows: Sequence[ScalingRow]) -> Dict[str, bool]:
    """Linearity: bits/symbol must not drift upward with n."""
    if len(rows) < 2:
        return {"linear_scaling": False}
    first, last = rows[0], rows[-1]
    tolerance = 1.35  # constant-factor band; directories amortise downward
    checks = {
        "apx_linear": last.apx_bits_per_symbol <= tolerance * first.apx_bits_per_symbol,
        "cpst_linear": last.cpst_bits_per_symbol <= tolerance * first.cpst_bits_per_symbol,
        "fm_linear": last.fm_bits_per_symbol <= tolerance * first.fm_bits_per_symbol,
    }
    checks["linear_scaling"] = all(checks.values())
    return checks
