"""Tests for the q-gram table baseline and the MOC/MOLC estimators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MOCEstimator, MOEstimator, MOLCEstimator, MOLEstimator, QGramIndex
from repro.core.cpst import CompactPrunedSuffixTree
from repro.datasets import generate
from repro.errors import InvalidParameterError, PatternError
from repro.textutil import Text


class TestQGramIndex:
    @pytest.fixture(scope="class")
    def index(self):
        return QGramIndex(Text("abracadabra" * 5), q=3)

    def test_exact_short_patterns(self, index):
        t = Text("abracadabra" * 5)
        for pattern in ("a", "ab", "bra", "cad", "xyz", "aaa"):
            assert index.count_or_none(pattern) == t.count_naive(pattern), pattern

    def test_long_patterns_unknown(self, index):
        assert index.count_or_none("abra") is None
        assert index.count("abra") == 0
        assert not index.is_reliable("abra")
        assert index.is_reliable("bra")

    def test_absent_character_short_is_exact_zero(self, index):
        assert index.count_or_none("z") == 0

    def test_interval_contains_the_count_beyond_q(self):
        index = QGramIndex(Text("abcabcabc"), 2)
        assert index.count_interval("ab") == (3, 3)
        lo, hi = index.count_interval("abc")
        assert lo <= 3 <= hi
        assert (lo, hi) == (0, 9 - 3 + 1)
        assert index.count_interval("abcabcabcabc") == (0, 0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            QGramIndex("abc", q=0)
        with pytest.raises(PatternError):
            QGramIndex("abc", q=2).count("")

    def test_space_grows_with_q(self):
        text = "the quick brown fox jumps " * 20
        sizes = [QGramIndex(text, q).space_report().payload_bits for q in (1, 2, 4)]
        assert sizes == sorted(sizes)

    def test_space_report_components(self):
        report = QGramIndex("banana", q=2).space_report()
        assert set(report.components) == {"windows", "cumulative_counts"}
        # "banana" has 4 distinct 2-windows (an, ba, na and the padded
        # final "a"): 4 windows of 2 x 2 bits, 5 cumulative counts of 3 bits
        # (values up to n = 6).
        assert report.components == {"windows": 4 * 2 * 2, "cumulative_counts": 5 * 3}

    def test_space_counts_stored_bits(self):
        """Windows at ceil(log2(sigma + 1)) bits per symbol, one count of
        ceil(log2(n + 1)) bits per window plus one."""
        text = Text(generate("dblp", 4000, seed=2))
        index = QGramIndex(text, q=8)
        windows = {text.raw[i:i + 8] for i in range(len(text))}
        symbol_bits = (text.sigma - 1).bit_length()
        assert index.space_report().payload_bits == (
            len(windows) * 8 * symbol_bits
            + (len(windows) + 1) * len(text).bit_length()
        )

    def test_as_estimator_backend(self):
        # The classical pipeline: q-gram table + MO estimation.
        t = Text("the cat sat on the mat " * 30)
        estimator = MOEstimator(QGramIndex(t, q=4))
        assert estimator.estimate("the") == t.count_naive("the")
        value = estimator.estimate("the cat")
        assert 0.0 <= value <= len(t)


def _differential_patterns(raw: str, q: int, seed: int) -> list:
    """Every distinct substring of length <= q + 1, absent strings over the
    text's alphabet, and strings with a character outside it."""
    patterns = {
        raw[i:i + k] for k in range(1, q + 2) for i in range(len(raw) - k + 1)
    }
    rng = random.Random(seed)
    alphabet = sorted(set(raw))
    for _ in range(300):
        k = rng.randint(1, q + 1)
        patterns.add("".join(rng.choice(alphabet) for _ in range(k)))
    outside = "\x00" if "\x00" not in raw else "\uffff"
    for k in range(1, q + 2):
        start = rng.randrange(len(raw) - k + 1)
        body = list(raw[start:start + k])
        body[rng.randrange(k)] = outside
        patterns.add("".join(body))
    return sorted(patterns)


def _check_against_naive(text: Text, q: int, seed: int) -> None:
    index = QGramIndex(text, q)
    checked = 0
    for pattern in _differential_patterns(text.raw, q, seed):
        got = index.count_or_none(pattern)
        if len(pattern) > q:
            assert got is None, pattern
            assert index.count(pattern) == 0
        else:
            assert got == text.count_naive(pattern), (q, pattern)
            checked += got > 0
    assert checked > 0


@pytest.mark.parametrize("q", [1, 4, 8])
@pytest.mark.parametrize("corpus", ["dblp", "english", "dna"])
def test_qgram_matches_naive_counts(corpus, q):
    """The sorted-window table against direct scanning: exact at every
    length <= q (0 for absent patterns), None beyond."""
    _check_against_naive(Text(generate(corpus, 700, seed=11)), q, seed=q)


def test_qgram_windows_wider_than_a_word():
    """sigma > 256 at q = 8 packs 9-bit symbols into 72-bit windows; the
    same table answers exactly."""
    rng = random.Random(4)
    common = [chr(0x100 + c) for c in range(8)]
    raw = "".join(
        rng.choice(common) if rng.random() < 0.5 else chr(0x100 + rng.randrange(600))
        for _ in range(1500)
    )
    text = Text(raw)
    assert text.sigma > 257
    index = QGramIndex(text, 8)
    assert index.space_report().components["windows"] % (8 * 9) == 0
    _check_against_naive(text, 8, seed=5)


class TestConstrainedEstimators:
    @pytest.fixture(scope="class")
    def setup(self):
        words = ["lattice", "overlap", "estimate", "pattern", "suffix", "prune"]
        text = Text(" ".join(words[i % len(words)] for i in range(300)))
        return text, CompactPrunedSuffixTree(text, 16)

    def test_known_patterns_exact(self, setup):
        text, index = setup
        for cls in (MOCEstimator, MOLCEstimator):
            estimator = cls(index)
            assert estimator.estimate("lattice") == text.count_naive("lattice")

    def test_never_above_unconstrained(self, setup):
        text, index = setup
        moc, mo = MOCEstimator(index), MOEstimator(index)
        molc, mol = MOLCEstimator(index), MOLEstimator(index)
        patterns = ["lattice overlap", "prune suffix pat", "estimate pattern pr"]
        for pattern in patterns:
            assert moc.estimate(pattern) <= mo.estimate(pattern) + 1e-9
            assert molc.estimate(pattern) <= mol.estimate(pattern) + 1e-9

    def test_containment_constraint_enforced(self, setup):
        """The clamp: an estimate may not exceed the count of any certified
        substring of the pattern."""
        text, index = setup
        for cls in (MOCEstimator, MOLCEstimator):
            estimator = cls(index)
            for pattern in ("lattice overlap estimate", "suffix prune lattice"):
                estimate = estimator.estimate(pattern)
                for start in range(len(pattern)):
                    for end in range(start + 1, len(pattern) + 1):
                        certified = index.count_or_none(pattern[start:end])
                        if certified is not None:
                            assert estimate <= certified + 1e-6, (
                                pattern, pattern[start:end],
                            )

    def test_bounded(self, setup):
        text, index = setup
        for cls in (MOCEstimator, MOLCEstimator):
            value = cls(index).estimate("zzz qqq")
            assert 0.0 <= value <= len(text)


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=10))
def test_property_constrained_le_unconstrained(pattern):
    text = Text("abcabcbacbab" * 20)
    index = CompactPrunedSuffixTree(text, 8)
    assert MOLCEstimator(index).estimate(pattern) <= (
        MOLEstimator(index).estimate(pattern) + 1e-9
    )
