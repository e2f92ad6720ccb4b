"""Tests for the live corpus plane: WAL, manifest, delta, LiveCorpus.

Crash-boundary and differential recovery properties live in
``test_live_recovery.py``; this module covers the components and the
happy-path lifecycle.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    IndexCorruptedError,
    InvalidParameterError,
    PatternError,
)
from repro.live import (
    DeltaShard,
    LiveConfig,
    LiveCorpus,
    Manifest,
    WalRecord,
    WriteAheadLog,
    commit_manifest,
    count_overlapping,
    latest_manifest,
    read_segment,
    scan_records,
    segment_name,
    verify_segments,
    write_segment,
)
from repro.live.manifest import ShardEntry

from conftest import naive_count

DOCS = {
    "alpha": "abracadabra",
    "beta": "banana bandana",
    "gamma": "the quick brown fox jumps over the lazy dog",
    "delta": "mississippi",
}


# -- WAL ----------------------------------------------------------------------


class TestWalFraming:
    def test_roundtrip_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.open()
        records = [
            WalRecord("append", 0, "a", "body a"),
            WalRecord("append", 1, "b", "çirç ünï"),
            WalRecord("delete", 2, "a"),
        ]
        for record in records:
            wal.append(record)
        wal.close()
        assert WriteAheadLog(tmp_path / "wal.log").open() == records

    def test_scan_stops_at_torn_frame(self):
        whole = WalRecord("append", 0, "a", "x").encode()
        torn = WalRecord("append", 1, "b", "y").encode()[:-3]
        records, valid = scan_records(whole + torn)
        assert [r.seq for r in records] == [0]
        assert valid == len(whole)

    def test_scan_stops_at_crc_mismatch(self):
        first = WalRecord("append", 0, "a", "x").encode()
        second = bytearray(WalRecord("append", 1, "b", "y").encode())
        second[-1] ^= 0xFF  # flip a payload bit; CRC no longer matches
        records, valid = scan_records(bytes(first) + bytes(second))
        assert [r.seq for r in records] == [0]
        assert valid == len(first)

    def test_scan_stops_at_bad_magic(self):
        first = WalRecord("append", 0, "a", "x").encode()
        records, valid = scan_records(first + b"JUNKJUNKJUNKJUNK")
        assert len(records) == 1
        assert valid == len(first)

    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append(WalRecord("append", 0, "a", "x"))
        wal.close()
        whole = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(WalRecord("append", 1, "b", "y").encode()[:7])
        healed = WriteAheadLog(path)
        records = healed.open()
        assert [r.seq for r in records] == [0]
        assert path.stat().st_size == whole
        # Appending after the heal lands on a clean boundary.
        healed.append(WalRecord("append", 1, "b", "y"))
        healed.close()
        assert [r.seq for r in WriteAheadLog(path).open()] == [0, 1]

    def test_rewrite_keeps_only_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.open()
        for seq in range(4):
            wal.append(WalRecord("append", seq, f"d{seq}", "x"))
        wal.rewrite([WalRecord("append", 3, "d3", "x")])
        wal.close()
        assert [r.seq for r in WriteAheadLog(path).open()] == [3]

    def test_record_validation(self):
        with pytest.raises(InvalidParameterError):
            WalRecord("rename", 0, "a")
        with pytest.raises(InvalidParameterError):
            WalRecord("append", -1, "a", "x")
        with pytest.raises(InvalidParameterError):
            WalRecord("append", 0, "a")  # append without a body

    def test_append_requires_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(InvalidParameterError):
            wal.append(WalRecord("delete", 0, "a"))


# -- manifest -----------------------------------------------------------------


class TestManifest:
    def _manifest(self, generation=1):
        return Manifest(
            generation=generation,
            wal_start_seq=7,
            config=LiveConfig(kind="cpst", l=32, shards=2),
            shards=(
                ShardEntry(
                    name="shard0",
                    documents=("alpha", "beta"),
                    segment="seg-1-shard0.rseg",
                    segment_digest="d" * 64,
                    index="idx-1-shard0.ridx",
                ),
            ),
        )

    def test_roundtrip(self):
        manifest = self._manifest()
        decoded = Manifest.decode(manifest.encode(), source="mem")
        assert decoded == manifest
        assert decoded.config.l == 32
        assert decoded.shards[0].documents == ("alpha", "beta")

    def test_decode_rejects_torn_and_corrupt(self):
        data = self._manifest().encode()
        with pytest.raises(IndexCorruptedError):
            Manifest.decode(data[: len(data) // 2], source="torn")
        flipped = bytearray(data)
        flipped[-1] ^= 0xFF
        with pytest.raises(IndexCorruptedError):
            Manifest.decode(bytes(flipped), source="flipped")
        with pytest.raises(IndexCorruptedError):
            Manifest.decode(b"NOTMAN", source="junk")

    def test_latest_manifest_falls_back_past_corruption(self, tmp_path):
        old = self._manifest(generation=1)
        new = self._manifest(generation=2)
        commit_manifest(tmp_path, old)
        commit_manifest(tmp_path, new)
        # Tear the newest on disk: recovery must fall back to gen 1.
        newest = tmp_path / new.filename
        newest.write_bytes(newest.read_bytes()[:20])
        manifest, rejected = latest_manifest(tmp_path)
        assert manifest is not None and manifest.generation == 1
        assert [p.name for p in rejected] == [new.filename]

    def test_latest_manifest_empty_directory(self, tmp_path):
        manifest, rejected = latest_manifest(tmp_path)
        assert manifest is None and rejected == []

    def test_segment_roundtrip_and_digest_check(self, tmp_path):
        path = tmp_path / segment_name(1, "shard0")
        digest = write_segment(path, "alpha\x1ebeta")
        assert read_segment(path) == "alpha\x1ebeta"
        torn = path.read_bytes()[:-2]
        path.write_bytes(torn)
        with pytest.raises(IndexCorruptedError):
            read_segment(path)
        # verify_segments cross-checks the manifest's recorded digest.
        write_segment(path, "alpha\x1ebeta")
        manifest = Manifest(
            generation=1,
            wal_start_seq=0,
            config=LiveConfig(),
            shards=(
                ShardEntry(
                    name="shard0",
                    documents=("alpha", "beta"),
                    segment=path.name,
                    segment_digest=digest,
                    index="idx-1-shard0.ridx",
                ),
            ),
        )
        assert verify_segments(tmp_path, manifest) == {
            "shard0": "alpha\x1ebeta"
        }
        wrong = Manifest(
            generation=1,
            wal_start_seq=0,
            config=LiveConfig(),
            shards=(
                ShardEntry(
                    name="shard0",
                    documents=("alpha", "beta"),
                    segment=path.name,
                    segment_digest="0" * 64,
                    index="idx-1-shard0.ridx",
                ),
            ),
        )
        with pytest.raises(IndexCorruptedError):
            verify_segments(tmp_path, wrong)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            LiveConfig(l=1)
        with pytest.raises(InvalidParameterError):
            LiveConfig(shards=0)
        with pytest.raises(InvalidParameterError):
            LiveConfig(separator="->")


# -- delta shard --------------------------------------------------------------


class TestDeltaShard:
    def test_exact_overlapping_counts(self):
        assert count_overlapping("banana", "ana") == 2
        assert count_overlapping("aaaa", "aa") == 3
        assert count_overlapping("abc", "zz") == 0
        delta = DeltaShard()
        delta.add("a", "banana")
        delta.add("b", "cabana")
        assert delta.count("ana") == naive_count("banana", "ana") + naive_count(
            "cabana", "ana"
        )

    def test_membership_and_pending(self):
        delta = DeltaShard()
        delta.add("a", "xx")
        delta.tombstone("gone", 10)
        assert "a" in delta
        assert delta.is_tombstoned("gone")
        assert delta.pending == 2
        delta.remove("a")
        assert delta.pending == 1

    def test_widening_sums_tombstoned_capacity(self):
        delta = DeltaShard()
        delta.tombstone("x", 10)
        delta.tombstone("y", 3)
        # len-1 patterns: 10 + 3; len-4: 7 + 0; longer than both: 7.
        assert delta.widening(1) == 13
        assert delta.widening(4) == 7
        assert delta.widening(10) == 1
        assert delta.widening(11) == 0

    def test_duplicate_and_missing_raise(self):
        delta = DeltaShard()
        delta.add("a", "xx")
        with pytest.raises(InvalidParameterError):
            delta.add("a", "yy")
        with pytest.raises(InvalidParameterError):
            delta.remove("nope")


# -- LiveCorpus lifecycle -----------------------------------------------------


class TestLiveCorpusLifecycle:
    def test_create_append_count_is_exact(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=16, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            assert corpus.error_model.name == "EXACT"
            whole = "\x1e".join(DOCS.values())
            for pattern in ("ana", "the", "a", "zzz"):
                assert corpus.count(pattern) == naive_count(whole, pattern)
                assert corpus.count_or_none(pattern) == corpus.count(pattern)

    def test_append_validation(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c") as corpus:
            corpus.append("a", "body")
            with pytest.raises(InvalidParameterError):
                corpus.append("a", "again")  # duplicate live name
            with pytest.raises(InvalidParameterError):
                corpus.append("b", "")  # empty body
            with pytest.raises(InvalidParameterError):
                corpus.append("c", "bad\x1ebody")  # separator in body
            with pytest.raises(InvalidParameterError):
                corpus.delete("nope")
            with pytest.raises(PatternError):
                corpus.count("")

    def test_compact_folds_delta_and_serves_soundly(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            report = corpus.compact()
            assert report.committed and report.documents == len(DOCS)
            assert report.delta_folded == len(DOCS)
            assert corpus.generation == 1
            assert corpus.delta_pending == 0
            assert sorted(corpus.names) == sorted(DOCS)
            whole = "\x1e".join(DOCS.values())
            for pattern in ("ana", "ss", "q", "nothere"):
                lo, hi = corpus.count_interval(pattern)
                assert lo <= naive_count(whole, pattern) <= hi

    def test_mixed_base_and_delta_counts(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            corpus.append("alpha", DOCS["alpha"])
            corpus.compact()
            corpus.append("beta", DOCS["beta"])
            truth = naive_count(DOCS["alpha"], "a") + naive_count(
                DOCS["beta"], "a"
            )
            lo, hi = corpus.count_interval("a")
            assert lo <= truth <= hi
            # The delta contribution is exact: a pattern only in the
            # delta pushes the lower bound up to its true delta count
            # (the shard tier may still widen the upper end).
            lo, hi = corpus.count_interval("bandana")
            assert lo >= 1 and lo <= 1 <= hi

    def test_tombstone_widens_soundly_then_compaction_restores(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            corpus.compact()
            corpus.delete("beta")
            assert corpus.error_model.name == "UNIFORM"
            assert corpus.count_or_none("ana") is None
            live = [b for n, b in DOCS.items() if n != "beta"]
            truth = sum(naive_count(b, "ana") for b in live)
            lo, hi = corpus.count_interval("ana")
            assert lo <= truth <= hi
            corpus.compact()
            assert "beta" not in corpus
            assert len(corpus) == len(DOCS) - 1
            lo, hi = corpus.count_interval("ana")
            assert lo <= truth <= hi

    def test_delete_of_uncompacted_doc_is_exact(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c") as corpus:
            corpus.append("a", "banana")
            corpus.delete("a")
            assert corpus.delta_pending == 0
            assert corpus.count("ana") == 0
            assert corpus.error_model.name == "EXACT"

    def test_reopen_rejects_non_corpus(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            LiveCorpus.open(tmp_path)

    def test_create_rejects_existing(self, tmp_path):
        LiveCorpus.create(tmp_path / "c").close()
        with pytest.raises(InvalidParameterError):
            LiveCorpus.create(tmp_path / "c")

    def test_attach_opens_or_creates(self, tmp_path):
        created = LiveCorpus.attach(tmp_path / "c", l=16)
        created.append("a", "xyz")
        created.close()
        reopened = LiveCorpus.attach(tmp_path / "c")
        try:
            assert reopened.config.l == 16
            assert reopened.names == ["a"]
        finally:
            reopened.close()

    def test_compaction_retry_converges_on_digests(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            first = corpus.compact()
        # A second process over the same live set (insertion order lost)
        # re-bins to the same canonical shard digests.
        with LiveCorpus.open(tmp_path / "c") as corpus:
            corpus.append("epsilon", "new doc body")
            corpus.delete("epsilon")
            second = corpus.compact()
        assert first.shard_digests == second.shard_digests
        assert second.reuse_hits > 0  # unchanged shards come from cache

    def test_status_and_repr(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c") as corpus:
            corpus.append("a", "abc")
            status = corpus.status()
            assert status["documents"] == 1
            assert status["delta_pending"] == 1
            assert status["next_seq"] == 1
            assert status["wal_bytes"] > 0
            assert "generation=0" in repr(corpus)


# -- estimator surface --------------------------------------------------------


class TestLiveCorpusEstimatorSurface:
    def test_threshold_and_alphabet_and_length(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            corpus.compact()
            base_threshold = corpus.threshold
            corpus.delete("alpha")
            assert corpus.threshold == base_threshold + len(DOCS["alpha"])
            assert set("abr").issubset(corpus.alphabet.characters)
            assert corpus.text_length >= sum(
                len(b) for n, b in DOCS.items() if n != "alpha"
            )

    def test_watchdog_delegation(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            with pytest.raises(InvalidParameterError):
                corpus.quarantine_shard("shard0")
            assert not corpus.can_localize()
            for name, body in DOCS.items():
                corpus.append(name, body)
            corpus.compact()
            assert corpus.can_localize()
            assert corpus.degraded_shards == ()
            corpus.quarantine_shard("shard0", "test")
            assert corpus.degraded_shards == ("shard0",)
            assert corpus.error_model.name == "UPPER_BOUND"
            corpus.rebuild_shard("shard0")
            probes = corpus.verify_shard("shard0", ["a", "an"])
            assert all(p.ok for p in probes)
            corpus.readmit_shard("shard0")
            assert corpus.degraded_shards == ()

    def test_space_report_rolls_up_durable_and_resident(self, tmp_path):
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            corpus.compact()
            corpus.append("tail", "still in the delta")
            report = corpus.space_report()
            assert "delta.text" in report.components
            assert report.components["delta.text"] == 8 * len(
                "still in the delta"
            )
            assert any(k.startswith("shards.") for k in report.components)
            durable = {
                k: v for k, v in report.overhead.items()
                if k.startswith("durable.")
            }
            assert set(durable) == {
                "durable.wal",
                "durable.manifest",
                "durable.segments",
                "durable.indexes",
            }
            sizes = corpus.durable_bytes()
            assert durable["durable.segments"] == sizes["segments"] * 8
            assert sizes["wal"] > 0 and sizes["segments"] > 0

    def test_serves_through_resilient_ladder(self, tmp_path):
        from repro.service import ResilientEstimator, Tier

        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            for name, body in DOCS.items():
                corpus.append(name, body)
            corpus.compact()
            corpus.append("tail", "fresh delta doc")
            service = ResilientEstimator([Tier(corpus, "live")])
            outcome = service.query("ana")
            assert outcome.tier == "live"
            assert outcome.delta_pending == 1
            whole = "\x1e".join(list(DOCS.values()) + ["fresh delta doc"])
            assert outcome.count >= naive_count(whole, "ana")

    def test_ladder_serves_appends_not_a_stale_count(self, tmp_path):
        # A tier keeps one counter for its whole life; nothing it caches
        # may outlive a mutation of the corpus underneath it.
        from repro.datasets import generate
        from repro.service import ResilientEstimator, Tier

        raw = generate("dna", 8_000, 0)
        pattern = "ACGTACGT"
        with LiveCorpus.create(tmp_path / "c", l=8, shards=2) as corpus:
            corpus.append("d0", raw[:4_000])
            corpus.append("d1", raw[4_000:])
            corpus.compact()
            service = ResilientEstimator([Tier(corpus, "live")])
            service.query(pattern)
            corpus.append("burst", pattern * 50)
            outcome = service.query(pattern)
            truth = sum(
                naive_count(body, pattern)
                for body in corpus.documents().values()
            )
            assert outcome.error_model.name == "UNIFORM"
            assert truth <= outcome.count <= truth + outcome.threshold - 1
