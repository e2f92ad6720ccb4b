"""Tests for the Compact Pruned Suffix Tree (paper Section 5).

Key properties (paper Theorems 8 and 10):
* exact counts whenever ``Count(P) >= l``;
* detection (``None``) whenever ``Count(P) < l``;
* space independent of edge-label mass.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pst import PrunedSuffixTree
from repro.core.cpst import CompactPrunedSuffixTree
from repro.core.interface import ErrorModel
from repro.errors import PatternError
from repro.parallel import Segment, write_estimator_segment
from repro.suffixtree.pruned import PrunedSuffixTreeStructure
from repro.textutil import Text


def all_substrings(text: str, max_len: int):
    seen = set()
    for length in range(1, max_len + 1):
        for start in range(len(text) - length + 1):
            seen.add(text[start : start + length])
    return sorted(seen)


def assert_lower_sided(index, t: Text, patterns):
    l = index.threshold
    for pattern in patterns:
        true = t.count_naive(pattern)
        got = index.count_or_none(pattern)
        if true >= l:
            assert got == true, (pattern, true, got)
        else:
            assert got is None, (pattern, true, got)


INDEX_CLASSES = [CompactPrunedSuffixTree, PrunedSuffixTree]


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestLowerSidedIndexes:
    def test_figure5_text(self, cls):
        # The paper's running example: banabananab with threshold 2.
        text = "banabananab"
        t = Text(text)
        index = cls(t, 2)
        assert_lower_sided(index, t, all_substrings(text, len(text)))

    @pytest.mark.parametrize("l", [2, 3, 4, 8])
    def test_exhaustive_abracadabra(self, cls, l):
        text = "abracadabra" * 3
        t = Text(text)
        assert_lower_sided(cls(t, l), t, all_substrings(text, 8))

    @pytest.mark.parametrize("l", [2, 4, 16])
    def test_unary_text(self, cls, l):
        n = 40
        t = Text("a" * n)
        index = cls(t, l)
        for k in range(1, n + 1):
            true = n - k + 1
            got = index.count_or_none("a" * k)
            assert got == (true if true >= l else None), k

    def test_random_text(self, cls, rng):
        chars = list("abcd")
        text = "".join(rng.choice(chars, size=600))
        t = Text(text)
        index = cls(t, 8)
        patterns = set(all_substrings(text[:80], 3))
        for length in (2, 4, 7):
            for _ in range(25):
                start = int(rng.integers(0, len(text) - length))
                patterns.add(text[start : start + length])
                patterns.add("".join(rng.choice(chars, size=length)))
        assert_lower_sided(index, t, sorted(patterns))

    def test_absent_symbols(self, cls):
        index = cls("aabbaabb", 2)
        assert index.count_or_none("z") is None
        assert index.count_or_none("az") is None
        assert index.count("z") == 0

    def test_empty_pattern_rejected(self, cls):
        with pytest.raises(PatternError):
            cls("abc", 2).count("")

    def test_count_wrapper(self, cls):
        t = Text("abab")
        index = cls(t, 2)
        assert index.count("ab") == 2
        assert index.count("ba") == 0  # occurs once: below threshold -> 0

    def test_is_reliable(self, cls):
        index = cls("abab", 2)
        assert index.is_reliable("ab")
        assert not index.is_reliable("ba")

    def test_tiny_text(self, cls):
        index = cls("ab", 8)
        assert index.count_or_none("a") is None
        assert index.count_or_none("ab") is None

    def test_error_model(self, cls):
        assert cls("abc", 2).error_model is ErrorModel.LOWER_SIDED


class TestCPSTInternals:
    def test_s_string_symbol_counts(self):
        # Invariant: #occurrences of c in S == number of nodes whose path
        # label starts with c (every such node is the image of one ISL).
        text = "mississippi" * 4
        t = Text(text)
        cpst = CompactPrunedSuffixTree(t, 3)
        for c in range(1, t.sigma):
            in_s = cpst._s.rank(c, len(cpst._s))
            assert in_s == int(cpst._c[c + 1] - cpst._c[c]), c

    def test_s_has_one_hash_per_node(self):
        # S is stored as S′ beside ends: ends holds one 1 per node (the
        # '#' that closed its links) and one 0 per symbol of S′, and S′
        # holds C[c+1] - C[c] copies of each c.
        t = Text("banabananab")
        cpst = CompactPrunedSuffixTree(t, 2)
        assert cpst._ends.num_ones == cpst.num_nodes
        assert cpst._ends.num_zeros == len(cpst._s)
        for c in range(t.sigma):
            assert cpst._s.count(c) == int(cpst._c[c + 1] - cpst._c[c]), c

    def test_root_only_tree_round_trips(self):
        # No substring of "banana" occurs 4 times: only the root is kept,
        # so S′ is empty and ends is the root's single 1.
        cpst = CompactPrunedSuffixTree("banana", 4)
        assert cpst.num_nodes == 1 and len(cpst._s) == 0
        assert cpst._ends.to_array().tolist() == [1]
        blob = write_estimator_segment(cpst, "root")
        attached = Segment.parse(blob).attach("index")
        assert write_estimator_segment(attached, "root") == blob
        for index in (cpst, attached):
            for pattern in ("a", "an", "banana", "x"):
                assert index.count_or_none(pattern) is None, pattern

    def test_cnt_matches_structure(self):
        text = "abracadabra" * 3
        structure = PrunedSuffixTreeStructure(text, 2)
        cpst = CompactPrunedSuffixTree.from_structure(structure)
        for node in structure.nodes:
            z = structure.subtree_last_id(node)
            assert cpst._cnt(node.preorder_id, z) == node.count

    def test_from_structure_equivalent(self):
        text = "banana" * 10
        structure = PrunedSuffixTreeStructure(text, 4)
        a = CompactPrunedSuffixTree.from_structure(structure)
        b = CompactPrunedSuffixTree(text, 4)
        t = Text(text)
        for pattern in all_substrings("banana", 6):
            assert a.count_or_none(pattern) == b.count_or_none(pattern)


class TestSpaceComparison:
    def test_cpst_has_no_label_term(self):
        # A text with long repeated substrings blows up PST labels but not
        # CPST (the paper's 'sources' phenomenon).
        block = "qwertyuiopasdfghjklzxcvbnm" * 4
        text = (block + "0") * 12
        structure = PrunedSuffixTreeStructure(text, 4)
        pst = PrunedSuffixTree.from_structure(structure)
        cpst = CompactPrunedSuffixTree.from_structure(structure)
        assert pst.space_report().payload_bits > 4 * cpst.space_report().payload_bits

    def test_space_shrinks_with_l(self):
        text = "the quick brown fox jumps over the lazy dog " * 30
        sizes = [
            CompactPrunedSuffixTree(text, l).space_report().payload_bits
            for l in (2, 8, 32, 128)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_reports_have_expected_components(self):
        rep = CompactPrunedSuffixTree("banana" * 5, 2).space_report()
        assert set(rep.components) == {"S_link_string", "G_corrections", "C_array"}
        rep = PrunedSuffixTree("banana" * 5, 2).space_report()
        assert set(rep.components) == {"nodes", "edge_labels"}


@settings(max_examples=50, deadline=None)
@given(
    st.text(alphabet="abc", min_size=1, max_size=120),
    st.text(alphabet="abc", min_size=1, max_size=5),
    st.sampled_from([2, 3, 4, 8]),
)
def test_property_cpst_lower_sided(text, pattern, l):
    t = Text(text)
    cpst = CompactPrunedSuffixTree(t, l)
    true = t.count_naive(pattern)
    got = cpst.count_or_none(pattern)
    if true >= l:
        assert got == true
    else:
        assert got is None


@settings(max_examples=50, deadline=None)
@given(
    st.text(alphabet="ab", min_size=1, max_size=100),
    st.text(alphabet="ab", min_size=1, max_size=5),
    st.sampled_from([2, 4, 6]),
)
def test_property_pst_cpst_agree(text, pattern, l):
    structure = PrunedSuffixTreeStructure(Text(text), l)
    pst = PrunedSuffixTree.from_structure(structure)
    cpst = CompactPrunedSuffixTree.from_structure(structure)
    assert pst.count_or_none(pattern) == cpst.count_or_none(pattern)


class TestFrequentMining:
    def test_iter_frequent_counts_are_exact(self):
        text = "banabananab"
        t = Text(text)
        pst = PrunedSuffixTree(t, 2)
        for substring, count in pst.iter_frequent():
            assert t.count_naive(substring) == count, substring
            assert count >= 2

    def test_all_right_maximal_frequent_substrings_enumerated(self):
        text = "abracadabra" * 2
        t = Text(text)
        l = 3
        pst = PrunedSuffixTree(t, l)
        enumerated = {s for s, _ in pst.iter_frequent()}
        # Every frequent substring must be a prefix of an enumerated one.
        for length in range(1, 8):
            for start in range(len(text) - length + 1):
                s = text[start : start + length]
                if t.count_naive(s) >= l:
                    assert any(e.startswith(s) for e in enumerated), s

    def test_most_frequent_ordering(self):
        pst = PrunedSuffixTree("abababab", 2)
        top = pst.most_frequent(3)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    def test_min_length_filter(self):
        pst = PrunedSuffixTree("abababab", 2)
        assert all(len(s) >= 2 for s, _ in pst.iter_frequent(min_length=2))
