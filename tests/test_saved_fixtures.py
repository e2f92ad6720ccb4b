"""Indexes saved by an earlier build of the library still load.

``tests/fixtures/english5000_*.ridx`` were written with :func:`save_index`
before the bit structures kept derived state (memoryviews, the wavelet
matrix's bucket table). Their pickles carry the plain slotted state
``(None, {slot: value})``; loading must rebuild the derived state and
answer exactly like a fresh build over the same text.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ApproxIndex, CompactPrunedSuffixTree
from repro.datasets import generate
from repro.io import load_index

FIXTURES = Path(__file__).parent / "fixtures"
TEXT = generate("english", 5000)
PATTERNS = sorted(
    {TEXT[i : i + length] for length in (1, 2, 3, 5, 8) for i in range(0, 4900, 97)}
    | {"zzz", "the ", "and", "Q", "e"}
)


@pytest.mark.parametrize(
    "filename,build",
    [
        ("english5000_cpst8.ridx", lambda: CompactPrunedSuffixTree(TEXT, 8)),
        ("english5000_apx8.ridx", lambda: ApproxIndex(TEXT, 8)),
    ],
)
def test_saved_index_answers_like_a_fresh_build(filename, build):
    loaded = load_index(FIXTURES / filename, strict=True)
    fresh = build()
    assert type(loaded) is type(fresh)
    assert loaded.space_report().payload_bits == fresh.space_report().payload_bits
    for pattern in PATTERNS:
        assert loaded.count(pattern) == fresh.count(pattern), pattern
        if isinstance(fresh, CompactPrunedSuffixTree):
            assert loaded.count_or_none(pattern) == fresh.count_or_none(pattern), pattern
