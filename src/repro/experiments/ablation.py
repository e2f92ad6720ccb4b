"""Experiment X3: ablations of the design choices DESIGN.md calls out.

Five studies:

* **halving** — the paper's claim that halving the threshold grows both
  APX and CPST by a factor of 1.75–1.95;
* **nodes** — ``m`` (kept nodes) versus the ``n/l`` heuristic, the quantity
  that decides APPROX vs CPST (paper Section 1: CPST wins when
  ``m = O(n/l)``, which "many real data sets exhibit");
* **wavelet** — Huffman-shaped versus balanced wavelet tree for the
  FM-index baseline (the entropy-compression component of Theorem 6);
* **encoding** — the paper's B/V discriminant encoding (Lemma 2,
  ``O(n log(sigma*l)/l)`` bits) versus the naive per-symbol Elias–Fano
  position sets (``O((n/l) log l)``-to-``O((n/l) log n)`` bits);
* **bounds** — measured index payloads against the Theorem 3 floor
  (optimality gaps; Theorem 5 says the APX gap is O(1) when
  ``log l = O(log sigma)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..baselines.fm import FMIndex
from ..build import BuildContext
from ..core.approx import ApproxIndex
from ..core.cpst import CompactPrunedSuffixTree
from ..datasets import dataset_names, generate
from ..textutil import zeroth_order_entropy
from .tables import format_table


@dataclass(frozen=True)
class HalvingRow:
    dataset: str
    index: str
    l_small: int
    l_large: int
    ratio: float  # size(l_small) / size(l_large)


@dataclass(frozen=True)
class NodesRow:
    dataset: str
    l: int
    n_over_l: int
    m: int
    m_ratio: float  # m / (n/l)


@dataclass(frozen=True)
class WaveletRow:
    dataset: str
    h0_bits: int  # n * H0(T)
    h2_bits: int  # n * H2(T): the Theorem 6 entropy target for small k
    huffman_bits: int
    balanced_bits: int
    rrr_bits: int  # Huffman shape + RRR-compressed node bitvectors


def run_halving(
    size: int = 30_000,
    thresholds: Sequence[int] = (8, 16, 32, 64, 128),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[HalvingRow]:
    """Size ratios when halving the threshold."""
    rows: List[HalvingRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        apx = {l: ApproxIndex(ctx, l).size_in_bits() for l in thresholds}
        cpst = {l: CompactPrunedSuffixTree(ctx, l).size_in_bits() for l in thresholds}
        for small, large in zip(thresholds, thresholds[1:]):
            if large != 2 * small:
                continue
            rows.append(HalvingRow(name, "APPROX", small, large, apx[small] / apx[large]))
            rows.append(HalvingRow(name, "CPST", small, large, cpst[small] / cpst[large]))
    return rows


def run_nodes(
    size: int = 30_000,
    thresholds: Sequence[int] = (8, 32, 128),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[NodesRow]:
    """``m`` vs ``n/l`` across corpora and thresholds."""
    rows: List[NodesRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        for l in thresholds:
            m = ctx.structure(l).num_nodes
            expected = max(1, size // l)
            rows.append(NodesRow(name, l, expected, m, m / expected))
    return rows


def run_wavelet(
    size: int = 30_000, seed: int = 0, datasets: Sequence[str] | None = None
) -> List[WaveletRow]:
    """FM-index payload: Huffman-shaped vs balanced wavelet tree."""
    from ..textutil import kth_order_entropy

    rows: List[WaveletRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        h0 = zeroth_order_entropy(ctx.text.raw)
        h2 = kth_order_entropy(ctx.text.raw, 2)
        rows.append(
            WaveletRow(
                dataset=name,
                h0_bits=int(h0 * len(ctx.text)),
                h2_bits=int(h2 * len(ctx.text)),
                huffman_bits=FMIndex(ctx, "huffman").space_report().payload_bits,
                balanced_bits=FMIndex(ctx, "matrix").space_report().payload_bits,
                rrr_bits=FMIndex(ctx, "huffman-rrr").space_report().payload_bits,
            )
        )
    return rows


@dataclass(frozen=True)
class EncodingRow:
    dataset: str
    l: int
    bv_bits: int  # the paper's B/V machinery
    ef_bits: int  # naive per-symbol Elias-Fano positions
    ef_over_bv: float


@dataclass(frozen=True)
class BoundsRow:
    dataset: str
    index: str
    l: int
    floor_bits: float  # Theorem 3, constant 1
    measured_bits: int
    gap: float


def run_encoding(
    size: int = 30_000,
    thresholds: Sequence[int] = (8, 32, 128),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[EncodingRow]:
    """B/V (paper Lemma 2) vs per-symbol Elias–Fano discriminant storage."""
    from ..core.approx_ef import ApproxIndexEF

    rows: List[EncodingRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        for l in thresholds:
            bv = ApproxIndex(ctx, l).space_report().payload_bits
            ef = ApproxIndexEF.from_bwt(
                ctx.bwt, ctx.text.alphabet, l
            ).space_report().payload_bits
            rows.append(EncodingRow(name, l, bv, ef, ef / bv))
    return rows


def run_bounds(
    size: int = 30_000,
    thresholds: Sequence[int] = (8, 32, 128),
    seed: int = 0,
    datasets: Sequence[str] | None = None,
) -> List[BoundsRow]:
    """Measured payloads against the Theorem 3 information floor."""
    from ..analysis.spacebounds import evaluate_bounds, optimality_gap

    rows: List[BoundsRow] = []
    for name in datasets or dataset_names():
        ctx = BuildContext(generate(name, size, seed), name=name)
        for l in thresholds:
            sheet = evaluate_bounds(ctx.text, l, m=ctx.structure(l).num_nodes)
            for index_name, bits in (
                ("APPROX", ApproxIndex(ctx, l).space_report().payload_bits),
                ("CPST", CompactPrunedSuffixTree(ctx, l).space_report().payload_bits),
            ):
                rows.append(
                    BoundsRow(
                        name, index_name, l, sheet.theorem3_floor_bits,
                        bits, optimality_gap(bits, sheet),
                    )
                )
    return rows


def format_encoding(rows: Sequence[EncodingRow]) -> str:
    return format_table(
        headers=["dataset", "l", "B/V bits (paper)", "EF bits (naive)", "EF / B-V"],
        rows=[(r.dataset, r.l, r.bv_bits, r.ef_bits, r.ef_over_bv) for r in rows],
        title="X3d — discriminant-set encodings: paper Lemma 2 vs naive Elias-Fano",
    )


def format_bounds(rows: Sequence[BoundsRow]) -> str:
    return format_table(
        headers=["dataset", "index", "l", "Theorem3 floor", "measured", "gap"],
        rows=[
            (r.dataset, r.index, r.l, r.floor_bits, r.measured_bits, r.gap)
            for r in rows
        ],
        title="X3e — measured payloads vs the Theorem 3 information floor",
    )


def format_halving(rows: Sequence[HalvingRow]) -> str:
    return format_table(
        headers=["dataset", "index", "l", "2l", "size ratio"],
        rows=[(r.dataset, r.index, r.l_small, r.l_large, r.ratio) for r in rows],
        title="X3a — size growth when halving the threshold (paper: 1.75–1.95x)",
    )


def format_nodes(rows: Sequence[NodesRow]) -> str:
    return format_table(
        headers=["dataset", "l", "n/l", "m", "m/(n/l)"],
        rows=[(r.dataset, r.l, r.n_over_l, r.m, r.m_ratio) for r in rows],
        title="X3b — kept nodes m vs the n/l heuristic",
    )


def format_wavelet(rows: Sequence[WaveletRow]) -> str:
    return format_table(
        headers=["dataset", "n*H0", "n*H2", "huffman WT", "balanced WT", "huffman+RRR"],
        rows=[
            (r.dataset, r.h0_bits, r.h2_bits, r.huffman_bits, r.balanced_bits, r.rrr_bits)
            for r in rows
        ],
        title="X3c — FM-index wavelet shaping (payload bits)",
    )
