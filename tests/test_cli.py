"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestCount:
    def test_count_on_builtin_corpus(self, capsys):
        out = run_cli(
            capsys, "count", "english", "--size", "3000",
            "--index", "cpst", "--l", "8", "the",
        )
        assert "'the':" in out

    def test_count_multiple_patterns(self, capsys):
        out = run_cli(
            capsys, "count", "dna", "--size", "2000",
            "--index", "apx", "--l", "16", "AC", "GT",
        )
        assert out.count(":") == 2

    def test_count_on_file(self, capsys, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("banana banana banana")
        out = run_cli(capsys, "count", str(path), "--index", "fm", "banana")
        assert "'banana': 3" in out

    def test_missing_file_errors(self, capsys):
        assert main(["count", "/no/such/file", "x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_vectorize_rejected_without_automaton(self, capsys):
        # The planner has one walk, so there is no flag to choose another.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "count", "dna", "--size", "2000", "--index", "qgram",
                "--no-vectorize", "AC",
            ])
        assert exit_info.value.code == 2
        assert "--no-vectorize" in capsys.readouterr().err


class TestBuildAndQuery:
    def test_roundtrip(self, capsys, tmp_path):
        index_file = tmp_path / "index.pkl"
        out = run_cli(
            capsys, "build", "english", "--size", "3000",
            "--index", "cpst", "--l", "16", "-o", str(index_file),
        )
        assert "payload bits" in out
        assert index_file.exists()
        out = run_cli(capsys, "query", str(index_file), "the")
        assert "'the':" in out

    @pytest.mark.parametrize("index_kind", ["apx", "cpst", "pst", "patricia", "fm", "rlfm", "qgram"])
    def test_every_index_kind_builds(self, capsys, tmp_path, index_kind):
        index_file = tmp_path / f"{index_kind}.pkl"
        run_cli(
            capsys, "build", "dna", "--size", "1500",
            "--index", index_kind, "--l", "8", "-o", str(index_file),
        )
        out = run_cli(capsys, "query", str(index_file), "AC")
        assert "'AC':" in out


class TestProcessCli:
    @pytest.mark.slow
    def test_serve_check_with_processes_passes(self, capsys):
        out = run_cli(
            capsys, "serve-check", "dna", "--size", "3000",
            "--l", "8", "--processes", "2",
        )
        assert "2 worker processes over shared segments" in out
        assert "shared bytes (one copy per host)" in out
        assert "serve-check PASS" in out

    @pytest.mark.slow
    def test_serve_check_processes_with_async_front(self, capsys):
        out = run_cli(
            capsys, "serve-check", "dna", "--size", "3000",
            "--l", "8", "--processes", "2", "--concurrency", "4",
        )
        assert "asyncio server" in out
        assert "serve-check PASS" in out
        assert "server: served" in out

    def test_processes_reject_shards_combination(self, capsys):
        assert main([
            "serve-check", "dna", "--size", "2000",
            "--l", "8", "--processes", "2", "--shards", "2",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_processes_reject_fault_injection(self, capsys):
        assert main([
            "serve-check", "dna", "--size", "2000",
            "--l", "8", "--processes", "2", "--fault-rate", "0.5",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_processes_reject_no_vectorize(self, capsys):
        # serve-check has no scalar-walk flag, in process or across
        # worker processes.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve-check", "dna", "--size", "2000",
                "--l", "8", "--processes", "2", "--no-vectorize",
            ])
        assert exit_info.value.code == 2
        assert "--no-vectorize" in capsys.readouterr().err


class TestShardedCli:
    def test_build_with_shards_saves_one_index_per_shard(self, capsys, tmp_path):
        index_file = tmp_path / "sharded.pkl"
        out = run_cli(
            capsys, "build", "english", "--size", "3000",
            "--index", "apx", "--l", "8", "--shards", "3",
            "-o", str(index_file),
        )
        assert "shard plan: 3 shard(s)" in out
        for name in ("shard0", "shard1", "shard2"):
            assert f"saved apx shard {name}" in out
            saved = tmp_path / f"sharded.pkl.{name}"
            assert saved.exists()
        assert "payload bits" in out  # merged space rollup

    def test_serve_check_with_shards_passes(self, capsys):
        out = run_cli(
            capsys, "serve-check", "english", "--size", "3000",
            "--l", "8", "--shards", "3",
        )
        assert "sharded ladder: 3 shards" in out
        assert "serve-check PASS" in out

    def test_serve_check_shards_with_widen_policy(self, capsys):
        out = run_cli(
            capsys, "serve-check", "dna", "--size", "2000",
            "--l", "8", "--shards", "2", "--merge-policy", "widen",
            "--concurrency", "4",
        )
        assert "serve-check PASS" in out

    def test_shards_reject_fault_injection(self, capsys):
        assert main([
            "serve-check", "dna", "--size", "2000",
            "--l", "8", "--shards", "2", "--fault-rate", "0.5",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_stats(self, capsys):
        out = run_cli(capsys, "stats", "english", "--size", "2000", "--l", "8")
        assert "H0:" in out
        assert "|PST_l|" in out

    def test_dataset_generation(self, capsys, tmp_path):
        out_file = tmp_path / "corpus.txt"
        run_cli(capsys, "dataset", "sources", "--size", "1000", "-o", str(out_file))
        assert len(out_file.read_text()) == 1000

    def test_experiment_figure7(self, capsys):
        out = run_cli(capsys, "experiment", "figure7", "--size", "4000")
        assert "Figure 7" in out
        assert "PASS" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestSelectivityCommand:
    def test_selectivity_output(self, capsys):
        out = run_cli(
            capsys, "selectivity", "english", "--size", "3000",
            "--l", "16", "--estimator", "mol", "the",
        )
        assert "occurrences" in out and "selectivity" in out

    @pytest.mark.parametrize("estimator", ["kvi", "mo", "moc", "mol", "molc"])
    def test_every_estimator_kind(self, capsys, estimator):
        out = run_cli(
            capsys, "selectivity", "dna", "--size", "2000",
            "--l", "8", "--estimator", estimator, "ACG",
        )
        assert "'ACG':" in out


class TestValidateCommand:
    def test_all_contracts_hold(self, capsys):
        out = run_cli(capsys, "validate", "dna", "--size", "2000", "--l", "8")
        assert "all contracts hold" in out
        assert "FMIndex" in out


class TestOddThreshold:
    """APX and Patricia sample every (l/2)-th position: at an odd ``--l``
    every command builds them at ``l - 1``, the even threshold
    ``spec_for`` rounds down to."""

    @pytest.fixture()
    def built(self, monkeypatch):
        from repro.build import IndexSpec

        seen = []
        real = IndexSpec.build

        def recording(spec, context):
            index = real(spec, context)
            seen.append((spec.kind, index.threshold))
            return index

        monkeypatch.setattr(IndexSpec, "build", recording)
        return seen

    @pytest.mark.parametrize("kind", ["apx", "patricia"])
    def test_build_count_and_validate_agree(self, capsys, tmp_path, built, kind):
        from repro.io import load_index

        target = tmp_path / f"{kind}.ridx"
        run_cli(
            capsys, "build", "english", "--size", "3000",
            "--index", kind, "--l", "7", "-o", str(target),
        )
        assert load_index(target).threshold == 6
        run_cli(
            capsys, "count", "english", "--size", "3000",
            "--index", kind, "--l", "7", "the", "and",
        )
        assert built == [(kind, 6), (kind, 6)]
        out = run_cli(capsys, "validate", "english", "--size", "3000", "--l", "7")
        assert "all contracts hold" in out
        assert "ApproxIndex [uniform, l=6]" in out
        assert "ApproxIndexEF [uniform, l=6]" in out
        assert "PrunedPatriciaTrie(frequent-only) [uniform, l=6]" in out
        assert (kind, 6) in built[2:]


class TestJsonOutput:
    def test_count_json(self, capsys):
        import json

        out = run_cli(
            capsys, "count", "dna", "--size", "2000", "--index", "fm",
            "--json", "AC", "GT",
        )
        payload = json.loads(out)
        assert set(payload) == {"AC", "GT"}
        assert all(isinstance(v, int) for v in payload.values())


class TestIngest:
    def test_create_append_count(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        out = run_cli(
            capsys, "ingest", str(corpus),
            "--append", "a=abracadabra", "--append", "b=banana",
            "--count", "ana",
        )
        assert "append 'a' -> wal seq 0" in out
        assert "'ana': [2, 2] (exact)" in out
        assert "2 document(s)" in out

    def test_compact_then_delete_json(self, capsys, tmp_path):
        import json

        corpus = tmp_path / "corpus"
        run_cli(
            capsys, "ingest", str(corpus), "--l", "8",
            "--append", "a=abracadabra", "--append", "b=banana",
            "--compact",
        )
        out = run_cli(
            capsys, "ingest", str(corpus), "--delete", "b", "--json",
        )
        payload = json.loads(out)
        assert payload["actions"] == [
            {"op": "delete", "name": "b", "seq": 2}
        ]
        assert payload["status"]["generation"] == 1
        assert payload["status"]["tombstones"] == 1

    def test_append_file(self, capsys, tmp_path):
        source = tmp_path / "doc.txt"
        source.write_text("from a file")
        out = run_cli(
            capsys, "ingest", str(tmp_path / "corpus"),
            "--append-file", f"doc={source}",
            "--count", "file",
        )
        assert "'file': [1, 1] (exact)" in out

    def test_bad_specs_error(self, capsys, tmp_path):
        assert main(["ingest", str(tmp_path / "c"), "--append", "nobody"]) == 1
        assert "NAME=BODY" in capsys.readouterr().err
        assert main(
            ["ingest", str(tmp_path / "c2"), "--append-file", "a=/no/such"]
        ) == 1
        assert "no such file" in capsys.readouterr().err


class TestSpace:
    def test_live_corpus_rollup(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        run_cli(
            capsys, "ingest", str(corpus), "--l", "8",
            "--append", "a=abracadabra", "--append", "b=banana",
            "--compact",
        )
        out = run_cli(capsys, "space", str(corpus))
        assert "LiveCorpus" in out
        assert "durable bytes:" in out
        assert "segments=" in out

    def test_live_corpus_rollup_json(self, capsys, tmp_path):
        import json

        corpus = tmp_path / "corpus"
        run_cli(
            capsys, "ingest", str(corpus), "--append", "a=abracadabra",
        )
        payload = json.loads(run_cli(capsys, "space", str(corpus), "--json"))
        assert payload["durable_bytes"]["wal"] > 0
        assert payload["status"]["documents"] == 1

    def test_saved_index_file(self, capsys, tmp_path):
        target = tmp_path / "index.bin"
        run_cli(
            capsys, "build", "dna", "--size", "2000",
            "--index", "cpst", "--l", "16", "-o", str(target),
        )
        out = run_cli(capsys, "space", str(target))
        assert "payload bits" in out

    def test_non_corpus_directory_errors(self, capsys, tmp_path):
        assert main(["space", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err


class TestServeCheckLive:
    def test_probe_over_live_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        run_cli(
            capsys, "ingest", str(corpus), "--l", "8",
            "--append", "a=abracadabra abracadabra",
            "--append", "b=banana bandana banana",
            "--compact",
        )
        out = run_cli(capsys, "serve-check", "--live", str(corpus))
        assert "live ladder: generation 1" in out
        assert "serve-check PASS" in out

    def test_uncompacted_delta_is_served(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        run_cli(
            capsys, "ingest", str(corpus),
            "--append", "a=abracadabra abracadabra",
        )
        out = run_cli(capsys, "serve-check", "--live", str(corpus))
        assert "1 pending mutation(s)" in out
        assert "serve-check PASS" in out

    def test_live_excludes_other_modes(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        run_cli(capsys, "ingest", str(corpus), "--append", "a=xyz")
        assert main(["serve-check", "dna", "--live", str(corpus)]) == 1
        assert "drop the text" in capsys.readouterr().err
        assert main(
            ["serve-check", "--live", str(corpus), "--shards", "2"]
        ) == 1
        capsys.readouterr()
        assert main(["serve-check"]) == 1
        assert "needs a text source" in capsys.readouterr().err

    def test_empty_live_corpus_errors(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        run_cli(capsys, "ingest", str(corpus))
        assert main(["serve-check", "--live", str(corpus)]) == 1
        assert "no documents" in capsys.readouterr().err
