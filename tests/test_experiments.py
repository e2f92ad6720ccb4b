"""Integration tests for the experiment harness (tiny corpus sizes)."""

from __future__ import annotations

import pytest

from repro import ApproxIndex, FMIndex
from repro.build import BuildContext
from repro.datasets import generate
from repro.experiments import ablation, errorbounds, figure7, figure8, figure9, run
from repro.textutil import sample_from_text

SIZE = 4_000


@pytest.fixture(scope="module")
def english_ctx():
    return BuildContext(generate("english", SIZE, 0), name="english")


class TestCorpusBuild:
    """One corpus, one :class:`BuildContext`: the experiments' shared
    artifacts are memoised per text and per threshold."""

    def test_caching(self, english_ctx):
        assert english_ctx.sa is english_ctx.sa
        assert english_ctx.structure(8) is english_ctx.structure(8)
        assert english_ctx.structure(8) is not english_ctx.structure(16)


class TestFigure7:
    def test_rows_and_formatting(self):
        rows = figure7.run(size=SIZE, thresholds=(8, 64), datasets=["english", "dna"])
        assert len(rows) == 4
        table = figure7.format_results(rows)
        assert "english" in table and "dna" in table
        checks = figure7.headline_checks(rows)
        assert checks["m_close_to_n_over_l"]


class TestFigure8:
    def test_rows_and_checks(self):
        rows = figure8.run(size=SIZE, thresholds=(8, 16), datasets=["english"])
        indexes = {r.index for r in rows}
        assert indexes == {"FM-index", "APPROX", "PST", "CPST"}
        table = figure8.format_results(rows)
        assert "payload_bits" in table

    def test_patricia_opt_in(self):
        rows = figure8.run(
            size=SIZE, thresholds=(8,), datasets=["dna"], include_patricia=True
        )
        assert any(r.index == "Patricia" for r in rows)


class TestFigure9:
    def test_single_dataset(self):
        rows = figure9.run(
            size=SIZE,
            datasets=["english"],
            pattern_lengths=(6, 8),
            patterns_per_length=15,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.cpst_l <= row.pst_l
        assert set(row.pst_errors) == {6, 8}
        table = figure9.format_results(rows)
        assert "PST-" in table and "CPST-" in table

    def test_match_thresholds(self, english_ctx):
        pst_l, pst_bits, cpst_bits = figure9.match_thresholds(english_ctx, 16)
        assert pst_l >= 16
        assert pst_bits > 0 and cpst_bits > 0


class TestErrorBounds:
    def test_all_hold_on_tiny_corpora(self):
        rows = errorbounds.run(size=SIZE, thresholds=(4, 16), datasets=["dna", "sources"])
        assert errorbounds.all_bounds_hold(rows), errorbounds.format_results(rows)


class TestAblation:
    def test_halving(self):
        rows = ablation.run_halving(size=SIZE, thresholds=(8, 16, 32), datasets=["english"])
        assert all(r.ratio >= 1.0 for r in rows)

    def test_nodes(self):
        rows = ablation.run_nodes(size=SIZE, thresholds=(8,), datasets=["dblp"])
        assert rows[0].m >= 1

    def test_wavelet(self):
        rows = ablation.run_wavelet(size=SIZE, datasets=["dna"])
        assert rows[0].huffman_bits < rows[0].balanced_bits


class TestRunner:
    def test_run_by_name(self):
        report = run("figure7", size=SIZE)
        assert "Figure 7" in report

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run("figure99")


class TestNewAblations:
    def test_encoding_rows(self):
        rows = ablation.run_encoding(size=SIZE, thresholds=(8,), datasets=["dna"])
        assert rows[0].bv_bits > 0 and rows[0].ef_bits > 0
        assert 0.1 < rows[0].ef_over_bv < 10

    def test_bounds_rows(self):
        rows = ablation.run_bounds(size=SIZE, thresholds=(8,), datasets=["dna"])
        assert all(r.gap >= 1.0 for r in rows)
        assert {r.index for r in rows} == {"APPROX", "CPST"}

    def test_formatting(self):
        enc = ablation.format_encoding(
            ablation.run_encoding(size=SIZE, thresholds=(8,), datasets=["dna"])
        )
        assert "Lemma 2" in enc
        bounds = ablation.format_bounds(
            ablation.run_bounds(size=SIZE, thresholds=(8,), datasets=["dna"])
        )
        assert "Theorem3" in bounds


class TestBatchCounting:
    def test_count_many_matches_scalar(self, english_ctx):
        index = ApproxIndex(english_ctx, 16)
        patterns = sample_from_text(english_ctx.text, 4, 10, seed=1)
        assert index.count_many(patterns) == [index.count(p) for p in patterns]

    def test_count_many_empty(self, english_ctx):
        assert FMIndex(english_ctx).count_many([]) == []


class TestScalingExperiment:
    def test_rows_and_checks(self):
        from repro.experiments import scaling

        rows = scaling.run(sizes=(2000, 4000), l=16)
        assert len(rows) == 2
        assert rows[0].size < rows[1].size
        checks = scaling.headline_checks(rows)
        assert "linear_scaling" in checks


class TestErrorDistExperiment:
    def test_within_bound(self):
        from repro.experiments import errordist

        rows = errordist.run(size=SIZE, thresholds=(8,), per_length=20,
                             datasets=["dna"])
        assert errordist.all_within_bound(rows)
        assert sum(rows[0].histogram) == rows[0].patterns


class TestEstimatorComparison:
    def test_rows(self):
        from repro.experiments import estimators

        rows = estimators.run(size=SIZE, l=16, per_length=10, datasets=["english"])
        assert set(rows[0].mean_errors) == {"KVI", "MO", "MOC", "MOL", "MOLC"}
        assert rows[0].best() in rows[0].mean_errors


class TestBudgetExperiment:
    def test_rows_and_checks(self):
        from repro.experiments import budget

        rows = budget.run(
            size=SIZE, budgets_percent=(10.0, 30.0), patterns=15,
            datasets=["english"],
        )
        assert rows, "expected at least one feasible budget"
        checks = budget.headline_checks(rows)
        assert checks["cpst_affords_finer_threshold"]

    def test_infeasible_budgets_skipped(self):
        from repro.experiments import budget

        rows = budget.run(
            size=SIZE, budgets_percent=(0.0001,), patterns=5, datasets=["dna"]
        )
        assert rows == []


class TestReport:
    def test_generate_subset(self):
        from repro.experiments.report import generate

        doc = generate(size=SIZE, experiments=["figure7"])
        assert "# Reproduction report" in doc
        assert "Figure 7" in doc
        assert doc.rstrip().endswith("All headline checks PASS.") or "FAILED" in doc

    def test_unknown_experiment(self):
        from repro.experiments.report import generate

        with pytest.raises(KeyError):
            generate(size=SIZE, experiments=["figure99"])


class TestCustomCorpus:
    """A user-provided text runs through the same context as a builtin
    corpus."""

    def test_from_text(self):
        ctx = BuildContext("the quick brown fox " * 100, name="mine")
        assert ctx.name == "mine"
        assert FMIndex(ctx).count("quick") == 100
        assert ctx.structure(8).num_nodes > 1
        patterns = sample_from_text(ctx.text, 4, 5)
        assert all(p in ctx.text.raw for p in patterns)

    def test_from_text_accepts_text_objects(self):
        from repro.textutil import Text

        ctx = BuildContext(Text("abcabc" * 50))
        assert len(ctx.text) == 300


class TestFigure8Extras:
    def test_extra_baselines_included(self):
        rows = figure8.run(
            size=SIZE, thresholds=(8,), datasets=["dblp"],
            include_patricia=True, include_extras=True,
        )
        indexes = {r.index for r in rows}
        assert {"RLFM", "QGram4", "Patricia"} <= indexes


class TestCorporaExperiment:
    def test_rows_and_checks(self):
        from repro.experiments import corpora

        rows = corpora.run(size=SIZE, datasets=None)
        assert len(rows) == 4
        checks = corpora.headline_checks(rows)
        assert all(checks.values()), checks

    def test_entropy_profile_monotone(self):
        from repro.experiments import corpora

        for row in corpora.run(size=SIZE):
            assert row.h0 >= row.h1 >= row.h2 >= row.h3 >= 0
