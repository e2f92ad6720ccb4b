"""Ablation variant of the APX index: plain Elias–Fano discriminant sets.

The paper encodes the discriminant sets ``D_c`` through the block string
``B`` and offset array ``V`` (Lemma 2), achieving ``O(n log(sigma*l)/l)``
bits. The *obvious* alternative a practitioner would try first is one
Elias–Fano sequence per symbol over the raw positions —
``|D_c| * log(N / |D_c|)`` bits each, i.e. ``O((n/l) * log l)`` for
well-spread symbols but up to ``O((n/l) * log n)`` for skewed ones, plus a
``sigma``-sized directory.

This class keeps the *search algorithm* of :class:`ApproxIndex` verbatim
(it inherits ``count_range`` and the Fact 1 LF computation) and swaps only
the ``D_c`` representation, so the space comparison in the ablation bench
isolates exactly the paper's encoding trick. Query results are identical
by construction — a property the tests assert.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..bits import EliasFano, StorageBundle, attach_structure, bits_needed, register_structure
from ..space import SpaceReport
from .approx import ApproxIndex


class ApproxIndexEF(ApproxIndex):
    """APX with per-symbol Elias–Fano position sets instead of B/V."""

    def _build_discriminant_encoding(self, bwt: np.ndarray) -> None:
        sets = self._discriminant_sets(bwt)
        universe = int(bwt.size)
        self._positions: Dict[int, EliasFano] = {
            c: EliasFano(np.asarray(positions, dtype=np.int64), universe=universe)
            for c, positions in sets.items()
        }
        self._num_discriminants = sum(len(ef) for ef in self._positions.values())

    # -- D_c machinery (same contract as the paper encoding) -----------------

    def _successor(self, c: int, x: int) -> Optional[Tuple[int, int]]:
        ef = self._positions.get(c)
        if ef is None:
            return None
        hit = ef.successor(x)
        if hit is None:
            return None
        index, value = hit
        return index + 1, value  # ranks are 1-based in the shared algorithm

    def _predecessor(self, c: int, x: int) -> Optional[Tuple[int, int]]:
        ef = self._positions.get(c)
        if ef is None:
            return None
        hit = ef.predecessor(x)
        if hit is None:
            return None
        index, value = hit
        return index + 1, value

    def _discriminant_position(self, c: int, p: int) -> int:
        return int(self._positions[c][p - 1])

    def _discriminant_count(self, c: int) -> int:
        ef = self._positions.get(c)
        return 0 if ef is None else len(ef)

    # -- bulk D_c machinery (the inherited ``step_many`` drives these) --------

    def _successor_many(self, c: int, xs: np.ndarray, total: int):
        """Vectorised :meth:`_successor`: ``(p, d, found)`` arrays."""
        ef = self._positions[c]
        below = ef.num_less_many(xs)
        found = below < total
        d = np.full(xs.shape, -1, dtype=np.int64)
        d[found] = ef.get_many(below[found])
        return below + 1, d, found

    def _predecessor_many(self, c: int, xs: np.ndarray):
        """Vectorised :meth:`_predecessor`: ``(p, d, found)`` arrays."""
        ef = self._positions[c]
        p = ef.num_less_or_equal_many(xs)
        found = p >= 1
        d = np.full(xs.shape, -1, dtype=np.int64)
        d[found] = ef.get_many(p[found] - 1)
        return p, d, found

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        position_bits = sum(ef.size_in_bits() for ef in self._positions.values())
        # Per-symbol directory: a pointer/offset per alphabet symbol.
        directory_bits = (self._sigma + 1) * bits_needed(max(1, position_bits))
        c_bits = (self._sigma + 1) * bits_needed(self._n_rows)
        return SpaceReport(
            name=f"APX-EF-{self._l}",
            components={
                "D_positions": position_bits,
                "D_directory": directory_bits,
                "C_array": c_bits,
            },
            overhead={
                "D_select_structures": sum(
                    ef.overhead_in_bits() for ef in self._positions.values()
                )
            },
        )

    # -- buffer-backed storage ---------------------------------------------

    def export_storage(self) -> StorageBundle:
        """Scalars plus one Elias–Fano child bundle per symbol's ``D_c``."""
        meta = self._storage_meta()
        meta["symbols"] = sorted(self._positions)
        return StorageBundle(
            kind="ApproxIndexEF",
            meta=meta,
            arrays={"c": np.ascontiguousarray(self._c, dtype=np.int64)},
            children={
                f"pos{c}": self._positions[c].export_storage()
                for c in sorted(self._positions)
            },
        )

    @classmethod
    def attach_storage(cls, bundle: StorageBundle) -> "ApproxIndexEF":
        """Rebuild from a bundle without copying any packed array."""
        inst = cls.__new__(cls)
        inst._attach_scalars(bundle)
        inst._positions = {
            int(c): attach_structure(bundle.children[f"pos{c}"])
            for c in bundle.meta["symbols"]
        }
        return inst

    def __repr__(self) -> str:
        return (
            f"ApproxIndexEF(n={self._text_length}, sigma={self._sigma}, "
            f"l={self._l}, discriminants={self._num_discriminants})"
        )


register_structure("ApproxIndexEF", ApproxIndexEF.attach_storage)
