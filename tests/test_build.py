"""Unified build pipeline tests.

The contract under test: one :class:`~repro.build.BuildContext` per text
means one suffix sort per text — no matter how many indexes, threads or
ladder tiers consume it — and every index built over a shared context is
*bit-identical* (same pickled bytes, same answers) to one built over the
bare text.

Suffix-sort accounting works by monkeypatching ``repro.sa.suffix_array``:
every construction site resolves the function through the module attribute
at call time, so the counting wrapper sees each sort.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.sa as sa_mod
from repro.baselines import (
    FMIndex,
    PrunedPatriciaTrie,
    PrunedSuffixTree,
    QGramIndex,
    RLFMIndex,
)
from repro.build import (
    ArtifactCache,
    BuildContext,
    IndexSpec,
    build_all,
    default_tier_specs,
)
from repro.core import ApproxIndex, CompactPrunedSuffixTree
from repro.errors import InvalidParameterError
from repro.service import build_default_ladder
from repro.textutil import Text, mixed_workload

TEXT = Text("abracadabra_the_quick_brown_fox_jumps_over_" * 25)
WORKLOAD = mixed_workload(TEXT, per_length=4, seed=3)


@pytest.fixture()
def sa_calls(monkeypatch):
    """Count every suffix-array construction during the test."""
    calls = []
    real = sa_mod.suffix_array

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(sa_mod, "suffix_array", counting)
    return calls


class TestDifferential:
    """A build over a shared context must be indistinguishable from one
    over the bare text."""

    CASES = [
        (CompactPrunedSuffixTree, (8,)),
        (ApproxIndex, (8,)),
        (PrunedSuffixTree, (8,)),
        (PrunedPatriciaTrie, (8,)),
        (FMIndex, ()),
        (RLFMIndex, ()),
        (QGramIndex, (4,)),
    ]

    @pytest.mark.parametrize(
        "cls,args", CASES, ids=[cls.__name__ for cls, _ in CASES]
    )
    def test_from_context_matches_legacy(self, cls, args):
        ctx = BuildContext(TEXT)
        legacy = cls(TEXT, *args)
        shared = cls(ctx, *args)
        # Same serialized bytes: the builds are bit-identical.
        assert pickle.dumps(legacy) == pickle.dumps(shared)
        # And (belt and braces) the same answers on a mixed workload.
        for pattern in WORKLOAD:
            assert legacy.count(pattern) == shared.count(pattern)

    def test_parallel_build_bit_identical_to_sequential(self):
        specs = default_tier_specs(8) + [IndexSpec("fm"), IndexSpec("rlfm")]
        sequential = build_all(BuildContext(TEXT), specs)
        parallel = build_all(BuildContext(TEXT), specs, max_workers=4)
        assert set(sequential.indexes) == set(parallel.indexes)
        for label in sequential.indexes:
            assert pickle.dumps(sequential[label]) == pickle.dumps(
                parallel[label]
            )
        assert parallel.report.max_workers == 4


class TestSingleSuffixSort:
    """The PR's headline acceptance: one text, one suffix sort."""

    def test_full_tier_set_costs_one_sort(self, sa_calls):
        specs = [
            IndexSpec("cpst", params={"l": 8}),
            IndexSpec("apx", params={"l": 8}),
            IndexSpec("qgram", params={"q": 4}),
            IndexSpec("fm"),
        ]
        result = build_all(BuildContext(TEXT), specs, max_workers=4)
        assert len(sa_calls) == 1
        assert result["fm"].count("abra") == TEXT.count_naive("abra")

    def test_validate_all_costs_one_sort(self, sa_calls):
        from repro.validation import validate_all

        reports = validate_all(TEXT, l=8)
        assert len(sa_calls) == 1
        assert len(reports) == 9 and all(report.ok for report in reports)

    def test_default_ladder_costs_at_most_one_sort(self, sa_calls):
        service = build_default_ladder(TEXT, 8, max_workers=4)
        assert len(sa_calls) <= 1
        outcome = service.query("abracadabra")
        assert outcome.count == TEXT.count_naive("abracadabra")

    def test_sixteen_threads_share_one_sort(self, sa_calls):
        ctx = BuildContext(TEXT)
        with ThreadPoolExecutor(max_workers=16) as pool:
            arrays = list(
                pool.map(lambda _: ctx.sa, range(16))
            ) + list(pool.map(lambda _: ctx.bwt, range(16)))
        assert len(sa_calls) == 1
        # All callers got the *same object*, not sixteen equal copies.
        assert all(a is arrays[0] for a in arrays[:16])

    def test_concurrent_mixed_artifact_access(self, sa_calls):
        ctx = BuildContext(TEXT)
        pulls = [
            (lambda: ctx.sa),
            (lambda: ctx.lcp),
            (lambda: ctx.bwt),
            (lambda: ctx.isa),
            (lambda: ctx.structure(8)),
            (lambda: ctx.structure(16)),
        ] * 4
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(pull) for pull in pulls]
            for future in futures:
                future.result()
        assert len(sa_calls) == 1


class TestBuildReport:
    def test_report_records_stages_and_reuse(self):
        result = build_all(
            BuildContext(TEXT, name="unit"), default_tier_specs(8)
        )
        report = result.report
        assert report.corpus == "unit"
        stage_names = [record.stage for record in report.stages]
        assert "sa" in stage_names and "index:cpst" in stage_names
        assert report.reuse_hits >= 1  # lcp's sa pull hits the memo
        assert report.wall_seconds > 0
        assert set(report.spaces) == {"cpst", "apx", "qgram", "stats"}
        formatted = report.format()
        assert "index:cpst" in formatted and "memo" in formatted
        payload = report.as_dict()
        assert payload["corpus"] == "unit"
        assert payload["stages"]

    def test_validation(self):
        ctx = BuildContext(TEXT)
        with pytest.raises(InvalidParameterError):
            build_all(ctx, [])
        with pytest.raises(InvalidParameterError):
            build_all(ctx, [IndexSpec("nonsense")])
        with pytest.raises(InvalidParameterError):
            build_all(ctx, [IndexSpec("fm"), IndexSpec("fm")])
        with pytest.raises(InvalidParameterError):
            build_all(ctx, [IndexSpec("fm")], max_workers=0)


class TestArtifactCache:
    def test_cold_then_warm(self, tmp_path, sa_calls):
        cache = ArtifactCache(tmp_path)
        first = BuildContext(TEXT, cache=cache)
        first.bwt  # pulls sa too
        assert len(sa_calls) == 1
        assert cache.stores >= 2  # sa + bwt persisted

        second = BuildContext(TEXT, cache=cache)
        np.testing.assert_array_equal(second.sa, first.sa)
        np.testing.assert_array_equal(second.bwt, first.bwt)
        # The warm context loaded from disk instead of re-sorting.
        assert len(sa_calls) == 1
        assert cache.hits >= 2
        sources = {record.stage: record.source for record in second.stages}
        assert sources["sa"] == "cache"

    def test_corrupt_entry_rejected_and_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = BuildContext(TEXT, cache=cache)
        expected = first.sa
        path = cache.path_for(first.digest, "sa")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        second = BuildContext(TEXT, cache=cache)
        np.testing.assert_array_equal(second.sa, expected)
        assert cache.rejected == 1
        assert not path.exists() or path.read_bytes() != bytes(blob)

    def test_different_texts_do_not_collide(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = BuildContext(Text("banana_band_" * 20), cache=cache)
        b = BuildContext(Text("cadabra_abra" * 20), cache=cache)
        assert a.digest != b.digest
        a.sa, b.sa
        fresh_a = BuildContext(Text("banana_band_" * 20), cache=cache)
        np.testing.assert_array_equal(fresh_a.sa, a.sa)

    def test_crash_mid_store_never_tears_the_entry(self, tmp_path, monkeypatch):
        """A crash between temp-write and rename leaves no cache entry at
        all (the store is atomic), and the retry completes cleanly."""
        import os as _os

        import repro.io as rio

        cache = ArtifactCache(tmp_path)
        array = np.arange(64, dtype=np.int64)

        real_replace = _os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated power cut before rename")

        monkeypatch.setattr(rio.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            cache.store("digest00", "sa", array)
        monkeypatch.setattr(rio.os, "replace", real_replace)

        # Nothing under the cache name: the torn write is invisible.
        assert cache.load("digest00", "sa") is None
        assert cache.rejected == 0  # a clean miss, not a rejected tear

        # The retry overwrites any orphaned temp and completes.
        path = cache.store("digest00", "sa", array)
        assert path.exists()
        np.testing.assert_array_equal(cache.load("digest00", "sa"), array)

    def test_truncated_entry_is_a_counted_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        array = np.arange(16, dtype=np.int64)
        path = cache.store("digest00", "sa", array)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load("digest00", "sa") is None
        assert cache.rejected == 1
        assert not path.exists()  # the tear was evicted, not kept
