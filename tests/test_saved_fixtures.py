"""Indexes saved by an earlier build of the library still load.

``tests/fixtures/english5000_*.ridx`` were written with :func:`save_index`
before the bit structures kept derived state (memoryviews, the wavelet
matrix's bucket table). Their pickles carry the plain slotted state
``(None, {slot: value})``; loading must rebuild the derived state and
answer exactly like a fresh build over the same text.

Both the ``.ridx`` pickles and ``tests/fixtures/english5000_*.seg``
(written with :func:`write_estimator_segment` as segment format 1) store
each bitvector's rank directory as one int64 count per word. Loading
splits it into the two-level directory, so the loaded index reports the
same overhead as a fresh build and exports the same segment bytes. A
two-level bundle whose arrays disagree with each other or with its
``ones`` is still refused as corrupt.

All of these, and ``tests/fixtures/english5000_*.v2.seg`` (segment
format 2, written by :func:`write_estimator_segment` before the split),
hold the CPST's link string and the APX's block string with their ``#``
delimiters inline. Loading splits each into the ``#``-free string and
its ``ends`` bitvector, again matching a fresh build bit for bit. A
bundle whose ``ends`` disagrees with its string is refused as corrupt.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import ApproxIndex, CompactPrunedSuffixTree
from repro.bits import BitVector, StorageBundle
from repro.datasets import generate
from repro.errors import InvalidParameterError
from repro.io import load_index
from repro.parallel import Segment, write_estimator_segment

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


BUILDS = {
    "cpst8": lambda: CompactPrunedSuffixTree(TEXT, 8),
    "apx8": lambda: ApproxIndex(TEXT, 8),
}


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_legacy_directories_load_as_a_fresh_build(kind):
    fresh = BUILDS[kind]()
    blob = (FIXTURES / f"english5000_{kind}.seg").read_bytes()
    assert int.from_bytes(blob[8:10], "big") == 1
    attached = Segment.parse(blob).attach("index")
    assert type(attached) is type(fresh)
    for pattern in PATTERNS:
        assert attached.count(pattern) == fresh.count(pattern), pattern
        if isinstance(fresh, CompactPrunedSuffixTree):
            assert attached.count_or_none(pattern) == fresh.count_or_none(pattern), pattern
    pickled = load_index(FIXTURES / f"english5000_{kind}.ridx", strict=True)
    for loaded in (attached, pickled):
        assert loaded.space_report().overhead_bits == fresh.space_report().overhead_bits
        assert write_estimator_segment(loaded, kind) == write_estimator_segment(
            fresh, kind
        )


def _tampered(bundle, **arrays):
    return StorageBundle(
        kind=bundle.kind, meta=dict(bundle.meta), arrays={**bundle.arrays, **arrays}
    )


def test_inconsistent_directory_bundles_are_refused():
    bundle = BitVector(np.random.default_rng(2).random(70_000) < 0.3).export_storage()
    counts, blocks = bundle.arrays["counts"], bundle.arrays["blocks"]
    last_off = counts.copy()
    last_off[-1] += 1
    block_off = blocks.copy()
    block_off[-1] += 1
    for bad in (
        _tampered(bundle, counts=counts[:-1]),
        _tampered(bundle, counts=last_off),
        _tampered(bundle, blocks=blocks[:-1]),
        _tampered(bundle, blocks=block_off),
    ):
        with pytest.raises(InvalidParameterError, match="corrupt"):
            BitVector.attach_storage(bad)
    assert BitVector.attach_storage(bundle).num_ones == bundle.meta["ones"]


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_format2_segments_split_their_delimiters_on_attach(kind):
    fresh = BUILDS[kind]()
    blob = (FIXTURES / f"english5000_{kind}.v2.seg").read_bytes()
    assert int.from_bytes(blob[8:10], "big") == 2
    segment = Segment.parse(blob)
    assert "ends" not in segment.bundle("index").children
    attached = segment.attach("index")
    assert type(attached) is type(fresh)
    for pattern in PATTERNS:
        assert attached.count(pattern) == fresh.count(pattern), pattern
        if isinstance(fresh, CompactPrunedSuffixTree):
            assert attached.count_or_none(pattern) == fresh.count_or_none(pattern), pattern
    assert attached.space_report().payload_bits == fresh.space_report().payload_bits
    assert attached.space_report().overhead_bits == fresh.space_report().overhead_bits
    assert write_estimator_segment(attached, kind) == write_estimator_segment(fresh, kind)


def _with_ends(bundle, bits):
    children = {**bundle.children, "ends": BitVector(bits).export_storage()}
    return StorageBundle(
        kind=bundle.kind, meta=dict(bundle.meta), arrays=dict(bundle.arrays),
        children=children,
    )


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_inconsistent_ends_are_refused(kind):
    index = BUILDS[kind]()
    bundle = index.export_storage()
    ends = index._ends.to_array()
    one_less = ends.copy()
    one_less[np.flatnonzero(ends)[0]] = 0  # a group end becomes a symbol
    for bad in (one_less, ends[:-1], np.concatenate([[0], ends])):
        with pytest.raises(InvalidParameterError, match="corrupt"):
            type(index).attach_storage(_with_ends(bundle, bad))
    attached = type(index).attach_storage(_with_ends(bundle, ends))
    assert [attached.count(p) for p in PATTERNS] == [index.count(p) for p in PATTERNS]
