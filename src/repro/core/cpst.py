"""The CPST_l index: a compact pruned suffix tree (paper Section 5).

Stores ``PST_l(T)`` in ``O(m log(sigma*l) + sigma*log n)`` bits — *without*
edge labels — and answers ``Count>=_l(P)`` exactly whenever
``Count(P) >= l``, detecting (not merely erring on) the below-threshold
case otherwise.

Three components survive from the construction-time tree (paper Theorem 8):

* ``C[c]`` — the number of kept nodes whose path label starts with a symbol
  smaller than ``c``. With the preorder numbering (root = 0, children in
  lexicographic order) the nodes whose path label starts with ``c`` are
  exactly the contiguous ids ``[C[c]+1, C[c+1]]``.
* ``S`` — the inverse-suffix-link string: for each node ``u`` in preorder,
  the symbols ``c`` for which ``ISL(u, c)`` exists, terminated by ``#``.
  Theorem 9 turns two rank/select queries on ``S`` into the *virtual*
  inverse suffix link evaluation that drives backward search (Figure 6).
  ``S`` is stored as the ``#``-free string ``S′`` plus a bitvector
  ``ends`` marking where each ``#`` stood (:mod:`repro.core.delimited`),
  so ``select_#`` is one bitvector select instead of one per level.
* ``G`` — the correction factors ``g(u)`` in preorder, conceptually the
  unary string ``0^g(0) 1 0^g(1) 1 …`` with binary select (paper Lemma 3/4).
  We store the equivalent Elias–Fano encoding of the prefix sums — the same
  Theorem 1 structure on the same bitvector — giving O(1) subtree counts
  ``CNT(u, z)``.

Navigation never touches the text: the search of Figure 6 walks virtual
inverse suffix links right-to-left through the pattern, maintaining the
highest node ``u`` whose path label is prefixed by the current suffix and
the rightmost pruned-tree leaf ``z`` of ``u``'s subtree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..bits import (
    EliasFano,
    StorageBundle,
    attach_structure,
    bits_needed,
    register_structure,
)
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..core.delimited import attach_delimited, split_delimited
from ..engine import (
    AutomatonCapabilities,
    BackwardSearchAutomaton,
    pack_interval_states,
    unpack_interval_states,
)
from ..errors import InvalidParameterError
from ..space import SpaceReport
from ..suffixtree.pruned import PrunedSuffixTreeStructure
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class CompactPrunedSuffixTree(OccurrenceEstimator, BackwardSearchAutomaton):
    """Lower-sided-error index (paper Theorem 8 / Figure 6)."""

    error_model = ErrorModel.LOWER_SIDED

    def __init__(self, text: "BuildContext | Text | str", l: int):
        """Build over a text, or over a shared
        :class:`~repro.build.BuildContext`, whose memoised pruned-tree
        structure for ``l`` (and hence suffix and LCP arrays) it consumes."""
        from ..build import BuildContext

        self._init_from_structure(BuildContext.of(text).structure(l))

    @classmethod
    def from_structure(cls, structure: PrunedSuffixTreeStructure) -> "CompactPrunedSuffixTree":
        """Build from an existing pruned-tree structure (shared with the
        PST baseline in experiments to amortise suffix sorting)."""
        instance = cls.__new__(cls)
        instance._init_from_structure(structure)
        return instance

    def _init_from_structure(self, structure: PrunedSuffixTreeStructure) -> None:
        text = structure.text
        self._l = structure.threshold
        self._alphabet = text.alphabet
        self._sigma = text.sigma
        self._text_length = len(text)
        self._m = structure.num_nodes
        self._c = structure.symbol_counts  # length sigma+1
        hash_sym = self._sigma  # '#' terminator, one past the alphabet
        s_symbols: list[int] = []
        for node in structure.nodes:
            s_symbols.extend(node.isl_symbols)
            s_symbols.append(hash_sym)
        self._s, self._ends = split_delimited(s_symbols, hash_sym)
        g = structure.correction_factors()
        cumulative = np.cumsum(g)
        self._g_prefix = EliasFano(cumulative, universe=int(cumulative[-1]) + 1)

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def threshold(self) -> int:
        return self._l

    @property
    def sigma(self) -> int:
        """Alphabet size including the sentinel."""
        return self._sigma

    @property
    def num_nodes(self) -> int:
        """``m``: kept nodes including the root."""
        return self._m

    def count(self, pattern: str) -> int:
        """``Count>=_l``: exact when the pattern occurs >= l times, else 0."""
        result = self.count_or_none(pattern)
        return 0 if result is None else result

    def count_or_none(self, pattern: str) -> Optional[int]:
        """Exact count when ``Count(P) >= l``; ``None`` below threshold.

        The CPST *detects* the below-threshold case (the property the KVI /
        MO selectivity estimators rely on), it never reports a wrong count.
        """
        node_range = self._search(pattern)
        if node_range is None:
            return None
        u, z = node_range
        return self._cnt(u, z)

    def is_reliable(self, pattern: str) -> bool:
        return self._search(pattern) is not None

    def _search(self, pattern: str) -> Optional[Tuple[int, int]]:
        """Figure 6: find ``(u, z)`` = highest node prefixed by the pattern
        and the rightmost leaf of its subtree, or ``None``."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return None
        state = self._start_state(int(encoded[-1]))
        for i in range(len(encoded) - 2, -1, -1):
            if state is None:
                return None
            state = self._step_state(state, int(encoded[i]))
        return state

    # Backward-search automaton over reversed patterns (node id ranges);
    # the engine interface consumed by repro.engine.TrieBatchPlanner.

    def _start_state(self, c: int) -> Optional[Tuple[int, int]]:
        u = self._c.item(c) + 1
        z = self._c.item(c + 1)
        return (u, z) if u <= z else None  # else: no kept node starts with c

    def _step_state(self, state: Tuple[int, int], c: int) -> Optional[Tuple[int, int]]:
        # Theorem 9 at both ends of the node range: c_u and c_z count the
        # inverse suffix links for c in nodes [0, u) and [0, z], i.e.
        # rank_c(S, select_#(S, k)) = rank_c(S′, ends.select1(k) - k + 1)
        # for k = u and k = z + 1 (u >= 1: the root is never a search
        # state). One select on ends per end, then both ranks walk down
        # c's bit-planes together.
        u, z = state
        ends = self._ends
        c_u, c_z = self._s.rank_pair(
            c, ends.select1(u) - u + 1, ends.select1(z + 1) - z
        )
        if c_u == c_z:
            return None  # VISL undefined: Count(P[i..]) < l
        base = self._c.item(c)
        return base + c_u + 1, base + c_z

    def start(self, ch: str) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._start_state(c)

    def step(
        self, state: Tuple[int, int], ch: str
    ) -> Optional[Tuple[int, int]]:
        c = self._alphabet.code(ch)
        return None if c is None else self._step_state(state, c)

    def count_state(self, state: Optional[Tuple[int, int]]) -> int:
        return 0 if state is None else self._cnt(state[0], state[1])

    def step_many(self, states, ch):
        """Bulk virtual-ISL step: both Theorem 9 boundaries of every
        interval ride one stacked select+rank pass over S."""
        c = self._alphabet.code(ch)
        if c is None:
            return [None] * len(states)
        arr = pack_interval_states(states)
        k = arr.shape[0]
        links = self._links_before_many(
            c, np.concatenate([arr[:, 0], arr[:, 1] + 1])
        )
        c_u, c_z = links[:k], links[k:]
        base = int(self._c[c])
        return unpack_interval_states(base + c_u + 1, base + c_z, c_u != c_z)

    def capabilities(self) -> AutomatonCapabilities:
        # One virtual-ISL step evaluates Theorem 9's rank_c(S, select_#(S, k))
        # at both ends of the node range: two selects plus two ranks on S,
        # 4 logical operations (a select is one op on ends, a rank one
        # bitvector op per level of S′).
        return AutomatonCapabilities(
            lower_sided=True, threshold=self._l, rank_ops_per_step=4
        )

    def _links_before_many(self, c: int, ks: np.ndarray) -> np.ndarray:
        """Number of inverse suffix links for ``c`` in nodes ``[0, k)`` for
        every ``k >= 1`` (Theorem 9's ``rank_c(S, select_#(S, k))``; the
        root is never a search state, so every bound is at least 1)."""
        return self._s.rank_many(c, self._ends.select1_many(ks) - ks + 1)

    def _cnt(self, u: int, z: int) -> int:
        """Paper Lemma 3: total correction factors over node ids [u, z]."""
        high = int(self._g_prefix[z])
        low = int(self._g_prefix[u - 1]) if u > 0 else 0
        return high - low

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        c_bits = (self._sigma + 1) * bits_needed(max(1, self._m))
        return SpaceReport(
            name=f"CPST-{self._l}",
            components={
                "S_link_string": self._s.size_in_bits() + self._ends.size_in_bits(),
                "G_corrections": self._g_prefix.size_in_bits(),
                "C_array": c_bits,
            },
            overhead={
                "S_directories": (
                    self._s.overhead_in_bits() + self._ends.overhead_in_bits()
                ),
                "G_directories": self._g_prefix.overhead_in_bits(),
            },
        )

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Describe the index as scalars + the S′/ends/G structures
        (zero-copy attachable; see :mod:`repro.bits.storage`)."""
        return StorageBundle(
            kind="CompactPrunedSuffixTree",
            meta={
                "l": self._l,
                "sigma": self._sigma,
                "text_length": self._text_length,
                "m": self._m,
                "characters": self._alphabet.characters,
            },
            arrays={"c": np.ascontiguousarray(self._c, dtype=np.int64)},
            children={
                "s": self._s.export_storage(),
                "ends": self._ends.export_storage(),
                "g_prefix": self._g_prefix.export_storage(),
            },
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "CompactPrunedSuffixTree":
        """Rebuild from a bundle without copying any packed array (a
        bundle written with ``#`` inline in ``S`` is split once)."""
        inst = cls.__new__(cls)
        meta = bundle.meta
        inst._l = int(meta["l"])
        inst._alphabet = Alphabet(meta["characters"])
        inst._sigma = int(meta["sigma"])
        inst._text_length = int(meta["text_length"])
        inst._m = int(meta["m"])
        inst._c = bundle.arrays["c"]
        inst._s, inst._ends = attach_delimited(bundle, "s", inst._sigma, inst._m)
        inst._g_prefix = attach_structure(bundle.children["g_prefix"])
        return inst

    def __setstate__(self, state: dict) -> None:
        # Pickled with '#' inline in S (``.ridx`` files, live-corpus
        # recovery files): split it once.
        hash_sym = state.pop("_hash_sym", None)
        self.__dict__.update(state)
        if hash_sym is not None:
            self._s, self._ends = split_delimited(self._s.to_array(), hash_sym)

    def __repr__(self) -> str:
        return (
            f"CompactPrunedSuffixTree(n={self._text_length}, "
            f"sigma={self._sigma}, l={self._l}, m={self._m})"
        )


register_structure("CompactPrunedSuffixTree", CompactPrunedSuffixTree.attach_storage)
