"""Delimited strings as a delimiter-free sequence beside one bitvector.

The paper writes the CPST's link string ``S`` (the inverse-suffix-link
symbols of each node) and the APX's block string ``B`` (the discriminant
symbols of each block) as groups each terminated by ``#``. About half of
either string is ``#``; stored inline, every ``#`` costs a wavelet code on
each level, and every ``select_#`` or ``rank_#`` walks all the levels.

Both indexes instead keep the groups' symbols alone, ``S′``, as a
:class:`~repro.bits.WaveletMatrix` over the index's own alphabet, plus one
plain :class:`~repro.bits.BitVector` ``ends`` with a 1 wherever a ``#``
stood (the bitvector-beside-a-sequence layout of Grossi, Orlandi and
Raman). For the ``k``-th group and the ``j′``-th (0-based) symbol of
``S′``::

    select_#(S, k)                 = ends.select1(k)
    rank_c(S, select_#(S, k))      = rank_c(S′, ends.select1(k) - k + 1)
    rank_#(S, select_c(S, p))      = ends.select0(j′ + 1) - j′,
                                     with j′ = select_c(S′, p)

so a ``#`` query is one bitvector operation instead of one per level.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..bits import BitVector, StorageBundle, WaveletMatrix, attach_structure
from ..errors import InvalidParameterError


def split_delimited(
    symbols: Iterable[int] | np.ndarray, delimiter: int
) -> Tuple[WaveletMatrix, BitVector]:
    """``(S′, ends)`` from a sequence of ``delimiter``-terminated groups.

    ``S′`` is over the alphabet ``[0, delimiter)``. Fresh builds and the
    load paths of files written with the delimiter inline both come
    through here, so they store the same bits.
    """
    arr = np.asarray(symbols, dtype=np.int64)
    at_end = arr == delimiter
    return (
        WaveletMatrix(arr[~at_end], sigma=delimiter),
        BitVector(at_end.astype(np.uint8)),
    )


def attach_delimited(
    bundle: StorageBundle, key: str, delimiter: int, groups: int
) -> Tuple[WaveletMatrix, BitVector]:
    """Attach ``(S′, ends)`` from the children ``key`` and ``"ends"``.

    A bundle with no ``ends`` child (segment formats 1 and 2) still holds
    the delimiter inline under ``key``; it is split here once, the only
    attach that allocates O(|S|). Otherwise ``ends`` must hold one 1 per
    group and one bit per symbol of ``S′`` besides, or the bundle is
    refused as corrupt.
    """
    string = attach_structure(bundle.children[key])
    if "ends" not in bundle.children:
        return split_delimited(string.to_array(), delimiter)
    ends = attach_structure(bundle.children["ends"])
    if ends.num_ones != groups or len(ends) != len(string) + groups:
        raise InvalidParameterError(
            f"corrupt {bundle.kind} bundle: ends holds {ends.num_ones} ones "
            f"in {len(ends)} bits for {groups} groups over {len(string)} symbols"
        )
    return string, ends
