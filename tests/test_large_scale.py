"""Large-scale integration: the full pipeline at 100k symbols.

One corpus, every layer: suffix sorting (verified in O(n)), BWT
round-trip, all indexes built from shared intermediates, error contracts
sampled, and space ordering asserted. Keeps the suite honest about
behaviour beyond toy sizes without blowing up runtime (~10 s).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ApproxIndex,
    CompactPrunedSuffixTree,
    FMIndex,
    PrunedSuffixTree,
)
from repro.build import BuildContext
from repro.datasets import generate
from repro.sa import inverse_bwt, verify_suffix_array
from repro.space import text_bits
from repro.textutil import sample_from_text

SIZE = 100_000


@pytest.fixture(scope="module")
def ctx():
    return BuildContext(generate("english", SIZE, 13), name="english")


class TestLargeScalePipeline:
    def test_suffix_array_verified(self, ctx):
        assert verify_suffix_array(ctx.text.data, ctx.sa)

    def test_bwt_roundtrip(self, ctx):
        recovered = inverse_bwt(ctx.bwt, ctx.text.sigma)
        np.testing.assert_array_equal(recovered, ctx.text.data)

    def test_index_contracts_sampled(self, ctx):
        l = 64
        fm = FMIndex(ctx)
        apx = ApproxIndex(ctx, l)
        cpst = CompactPrunedSuffixTree(ctx, l)
        patterns = []
        for length in (2, 5, 9, 14):
            patterns.extend(
                sample_from_text(ctx.text, length, 15, seed=(13, 1, length))
            )
        for pattern in patterns:
            truth = fm.count(pattern)
            estimate = apx.count(pattern)
            assert truth <= estimate <= truth + l - 1, pattern
            certified = cpst.count_or_none(pattern)
            assert certified == (truth if truth >= l else None), pattern

    def test_space_ordering_holds_at_scale(self, ctx):
        l = 64
        reference = text_bits(len(ctx.text), ctx.text.sigma)
        fm_bits = FMIndex(ctx).space_report().payload_bits
        apx_bits = ApproxIndex(ctx, l).space_report().payload_bits
        cpst_bits = CompactPrunedSuffixTree(ctx, l).space_report().payload_bits
        pst_bits = PrunedSuffixTree(ctx, l).space_report().payload_bits
        assert cpst_bits < apx_bits < fm_bits
        assert cpst_bits < pst_bits
        assert cpst_bits < 0.08 * reference  # well under 8% of the text at l=64

    def test_structure_statistics(self, ctx):
        structure = ctx.structure(64)
        assert structure.num_nodes <= 2 * SIZE // 64
        assert int(structure.correction_factors().sum()) == SIZE + 1
