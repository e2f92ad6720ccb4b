"""Tests for the KVI / MO / MOL selectivity estimators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fm import FMIndex
from repro.baselines.pst import PrunedSuffixTree
from repro.core.cpst import CompactPrunedSuffixTree
from repro.errors import InvalidParameterError, PatternError
from repro.baselines.qgram import QGramIndex
from repro.selectivity import CountOracle, KVIEstimator, MOEstimator, MOLEstimator
from repro.selectivity.constrained import MOLCEstimator
from repro.textutil import Text

ESTIMATORS = [KVIEstimator, MOEstimator, MOLEstimator]


@pytest.fixture(scope="module")
def english_like():
    words = ["the", "cat", "sat", "on", "a", "mat", "that", "rat", "chased"]
    text = " ".join(words[i % len(words)] for i in range(400))
    return Text(text)


class TestCountOracle:
    def test_wraps_lower_sided(self):
        oracle = CountOracle(CompactPrunedSuffixTree("abab", 2))
        assert oracle.known("ab") == 2
        assert oracle.known("ba") is None
        assert oracle.threshold == 2

    def test_wraps_exact(self):
        oracle = CountOracle(FMIndex("abab"))
        assert oracle.known("ba") == 1
        assert oracle.threshold == 1

    def test_rejects_non_index(self):
        with pytest.raises(InvalidParameterError):
            CountOracle(object())

    def test_refuses_uniform_error_index(self, english_like):
        """APX's counts overshoot by up to l - 1; none of them is certified,
        so neither the oracle nor an estimator over it may start."""
        from repro.core.approx import ApproxIndex

        apx = ApproxIndex(english_like, 16)
        with pytest.raises(InvalidParameterError, match="certifies"):
            CountOracle(apx)
        with pytest.raises(InvalidParameterError):
            MOLEstimator(apx)

    def test_accepts_lower_sided_and_exact_indexes(self, english_like):
        from repro.core.combined import CombinedIndex

        truth = english_like.count_naive("the")
        for index in (
            FMIndex(english_like),
            CompactPrunedSuffixTree(english_like, 8),
            PrunedSuffixTree(english_like, 8),
            QGramIndex(english_like, q=4),
            CombinedIndex(english_like, 8),
        ):
            oracle = CountOracle(index)
            assert oracle.known("the") == truth, type(index).__name__
            assert oracle.threshold == index.threshold

    def test_longest_known(self):
        t = Text("abcabcabc")
        oracle = CountOracle(CompactPrunedSuffixTree(t, 2))
        # 'abcabc' occurs 2x (>=2) but 'abcabca' occurs once.
        assert oracle.longest_known("abcabcabc", 0) == 6
        assert oracle.longest_known("zzz", 0) == 0

    def test_cache_consistency(self):
        oracle = CountOracle(CompactPrunedSuffixTree("abab", 2))
        assert oracle.known("ab") == oracle.known("ab")
        assert oracle.known("xx") is None and oracle.known("xx") is None


@pytest.mark.parametrize("estimator_cls", ESTIMATORS)
class TestEstimatorsCommon:
    def test_known_patterns_are_exact(self, estimator_cls, english_like):
        index = CompactPrunedSuffixTree(english_like, 8)
        est = estimator_cls(index)
        for pattern in ("the", "at", "cat", " "):
            true = english_like.count_naive(pattern)
            if true >= 8:
                assert est.estimate(pattern) == true, pattern

    def test_estimates_are_bounded(self, estimator_cls, english_like):
        index = CompactPrunedSuffixTree(english_like, 16)
        est = estimator_cls(index)
        n = len(english_like)
        for pattern in ("the cat", "zzzq", "mat that", "rat chased a"):
            value = est.estimate(pattern)
            assert 0.0 <= value <= n

    def test_exact_backend_gives_exact_results(self, estimator_cls, english_like):
        est = estimator_cls(FMIndex(english_like))
        for pattern in ("the cat", "sat on", "zzz"):
            assert est.estimate(pattern) == english_like.count_naive(pattern)

    def test_empty_pattern_rejected(self, estimator_cls):
        est = estimator_cls(CompactPrunedSuffixTree("abab", 2))
        with pytest.raises(PatternError):
            est.estimate("")

    def test_selectivity_normalised(self, estimator_cls, english_like):
        est = estimator_cls(CompactPrunedSuffixTree(english_like, 8))
        assert 0.0 <= est.selectivity("the cat") <= 1.0

    def test_works_with_pst_backend(self, estimator_cls, english_like):
        est = estimator_cls(PrunedSuffixTree(english_like, 8))
        value = est.estimate("the cat sat")
        assert 0.0 <= value <= len(english_like)

    def test_default_count_validation(self, estimator_cls):
        with pytest.raises(InvalidParameterError):
            estimator_cls(CompactPrunedSuffixTree("abab", 2), default_count=0)


class TestParsers:
    def test_kvi_parse_covers_pattern(self, english_like):
        est = KVIEstimator(CompactPrunedSuffixTree(english_like, 8))
        pieces = est.explain("the cat sat on a mat")
        assert "".join(fragment for fragment, _ in pieces) == "the cat sat on a mat"

    def test_mo_parse_is_increasing_and_covering(self, english_like):
        est = MOEstimator(CompactPrunedSuffixTree(english_like, 8))
        pattern = "the cat sat"
        fragments = est.explain(pattern)
        starts = [s for s, _ in fragments]
        assert starts == sorted(starts)
        covered_end = max(s + len(f) for s, f in fragments)
        assert covered_end == len(pattern)
        assert fragments[0][0] == 0

    def test_mol_lattice_contains_known_substrings(self, english_like):
        est = MOLEstimator(CompactPrunedSuffixTree(english_like, 8))
        probs = est.lattice_probabilities("the cat")
        assert "the" in probs
        assert all(0.0 <= p <= 1.0 for p in probs.values())


def _reference_estimate(estimator, pattern, clamp):
    """MOL/MOLC as a per-fragment ``oracle.known`` lattice fill (the loop
    before the lattice read its primed counts): ``(estimate, certified
    lattice probabilities)``."""
    oracle, normalizer = estimator.oracle, estimator.normalizer
    p = len(pattern)
    probability, certified = {}, {}
    for length in range(1, p + 1):
        for i in range(0, p - length + 1):
            j = i + length
            count = oracle.known(pattern[i:j])
            if count is not None:
                probability[(i, j)] = certified[pattern[i:j]] = count / normalizer
            elif length == 1:
                probability[(i, j)] = estimator._default_probability()
            else:
                r_parent, l_parent = probability[(i, j - 1)], probability[(i + 1, j)]
                overlap = probability[(i + 1, j - 1)] if length > 2 else 1.0
                inferred = 0.0 if overlap <= 0.0 else r_parent * l_parent / overlap
                probability[(i, j)] = (
                    min(inferred, r_parent, l_parent) if clamp else inferred
                )
    whole = oracle.known(pattern)
    if whole is not None:
        return float(whole), certified
    estimate = max(0.0, min(normalizer, probability[(0, p)] * normalizer))
    return estimate, certified


class TestPrimedLattice:
    """MOL and MOLC fill the lattice from the counts ``prime`` returns;
    estimates and lattice probabilities equal the per-fragment fill on
    every backend, with and without an automaton view."""

    BACKENDS = {
        "cpst": lambda t: CompactPrunedSuffixTree(t, 8),
        "pst": lambda t: PrunedSuffixTree(t, 8),
        "fm": lambda t: FMIndex(t),
        "qgram": lambda t: QGramIndex(t, q=3),
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("estimator_cls", [MOLEstimator, MOLCEstimator])
    def test_matches_per_fragment_fill(self, backend, estimator_cls, english_like, rng):
        index = self.BACKENDS[backend](english_like)
        primed = estimator_cls(index)
        reference = estimator_cls(index)  # its own oracle: never primed
        clamp = estimator_cls is MOLCEstimator
        text = english_like.raw
        patterns = ["zqzq the", "xyz", "the cat sat on a mat"]
        for _ in range(25):
            length = int(rng.integers(2, 13))
            start = int(rng.integers(0, len(text) - length))
            patterns.append(text[start : start + length])
        for pattern in patterns:
            expected, certified = _reference_estimate(reference, pattern, clamp)
            assert primed.estimate(pattern) == expected, (backend, pattern)
            assert primed.lattice_probabilities(pattern) == certified, (backend, pattern)

    def test_prime_returns_its_answers_on_every_branch(self, english_like):
        fragments = ["the", "cat sat on a mat that", "zq", "", "the"]
        for backend in ("fm", "cpst", "qgram"):  # exact, lower-sided, no automaton
            oracle = CountOracle(self.BACKENDS[backend](english_like))
            answers = oracle.prime(fragments)
            assert answers == {f: oracle.known(f) for f in fragments if f}, backend
            assert oracle.prime([]) == {}
        assert CountOracle(FMIndex(english_like)).prime(["zq"]) == {"zq": 0}
        assert CountOracle(CompactPrunedSuffixTree(english_like, 8)).prime(
            ["zq"]
        ) == {"zq": None}


class TestAccuracyOrdering:
    def test_mol_beats_kvi_on_average(self, english_like, rng):
        """MOL's conditioning should on average beat pure independence
        (the paper found MOL delivered the best estimates)."""
        index = CompactPrunedSuffixTree(english_like, 16)
        kvi = KVIEstimator(index)
        mol = MOLEstimator(index)
        text = english_like.raw
        kvi_err = mol_err = 0.0
        trials = 0
        for _ in range(80):
            length = int(rng.integers(6, 12))
            start = int(rng.integers(0, len(text) - length))
            pattern = text[start : start + length]
            true = english_like.count_naive(pattern)
            kvi_err += abs(kvi.estimate(pattern) - true)
            mol_err += abs(mol.estimate(pattern) - true)
            trials += 1
        assert mol_err <= kvi_err * 1.5  # MOL no worse; typically far better

    def test_smaller_l_gives_better_mol_estimates(self, english_like, rng):
        text = english_like.raw
        patterns = []
        for _ in range(60):
            length = int(rng.integers(6, 12))
            start = int(rng.integers(0, len(text) - length))
            patterns.append(text[start : start + length])

        def total_error(l):
            est = MOLEstimator(CompactPrunedSuffixTree(english_like, l))
            return sum(
                abs(est.estimate(p) - english_like.count_naive(p)) for p in patterns
            )

        assert total_error(4) <= total_error(64)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ab", min_size=1, max_size=8))
def test_property_estimates_nonnegative_and_bounded(pattern):
    t = Text("abba" * 30)
    index = CompactPrunedSuffixTree(t, 4)
    for cls in ESTIMATORS:
        value = cls(index).estimate(pattern)
        assert 0.0 <= value <= len(t)
