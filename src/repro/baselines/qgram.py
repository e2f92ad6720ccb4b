"""Q-gram count table: the classical selectivity-estimation backend.

Before pruned suffix trees, selectivity estimators kept a table of *all*
substrings up to a fixed length ``q`` with their exact counts. This module
provides that baseline so the estimator layer (KVI/MO/MOL) can be compared
across backends: the reliability boundary is *pattern length* (``<= q`` is
exact, longer is unknown) rather than the paper's *frequency* threshold.

The table is one sorted array of the text's ``m`` distinct ``q``-character
windows (one per text position; the last ``q - 1`` are shorter and padded
with code 0, which sorts below every symbol) beside the cumulative number
of positions before each window. A pattern of length ``k <= q`` occurs
exactly where a window starts with it, and those windows are contiguous in
sorted order, so ``count_or_none`` is two binary searches and one
subtraction; it answers exact 0 for absent patterns and ``None`` beyond
``q``. Space is the honest tabulation cost,
``m * q * ceil(log2(sigma + 1)) + (m + 1) * ceil(log2(n + 1))`` bits: ``m``
and the window width both grow with ``q``, which is precisely why the
pruned-tree line of work wins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..bits import IntVector, bits_needed
from ..core.interface import ErrorModel, OccurrenceEstimator
from ..errors import InvalidParameterError
from ..space import SpaceReport
from ..textutil import Alphabet, Text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build import BuildContext


class QGramIndex(OccurrenceEstimator):
    """Exact counts for patterns of length <= q; unknown beyond."""

    error_model = ErrorModel.LOWER_SIDED  # "reliable or detected", by length

    def __init__(self, text: "BuildContext | Text | str", q: int):
        """Build over a text (a :class:`~repro.build.BuildContext` gives
        its text: the table is a raw-text scan, no suffix sorting)."""
        from ..build import BuildContext

        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        text = BuildContext.of(text).text
        self._q = q
        self._alphabet = text.alphabet
        self._sigma = text.sigma
        self._text_length = len(text)
        self._symbol_bits = bits_needed(max(1, self._sigma - 1))
        rows, counts = _distinct_windows(text.data[: len(text)], q, self._sigma)
        # Each window's codes are stored last symbol first, so reading its
        # q codes as one integer puts the first symbol in the top bits and
        # integer order is the windows' lexicographic order.
        self._windows = IntVector.from_array(
            rows[:, ::-1].ravel(), self._symbol_bits
        )
        self._cumulative = IntVector.from_array(
            np.concatenate([[0], np.cumsum(counts)])
        )
        self._num_windows = int(counts.size)

    # -- interface ----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def text_length(self) -> int:
        return self._text_length

    @property
    def q(self) -> int:
        """Maximum pattern length answered exactly."""
        return self._q

    def count(self, pattern: str) -> int:
        """Exact for ``len(pattern) <= q``; 0 (unknown) beyond."""
        result = self.count_or_none(pattern)
        return 0 if result is None else result

    def count_or_none(self, pattern: str) -> Optional[int]:
        """Exact count for short patterns; ``None`` when ``len > q``."""
        encoded = self._encode_pattern(pattern)
        if len(pattern) > self._q:
            return None
        if encoded is None:
            return 0
        key = 0
        for code in encoded.tolist():
            key = (key << self._symbol_bits) | code
        # The windows starting with the pattern hold every key in
        # [key << shift, (key + 1) << shift).
        shift = (self._q - len(pattern)) * self._symbol_bits
        first, last = self._window_range(key << shift, (key + 1) << shift)
        return self._cumulative[last] - self._cumulative[first]

    def count_interval(self, pattern: str) -> Tuple[int, int]:
        """The exact count as a point for ``len(pattern) <= q``; beyond
        ``q`` only the trivial ``[0, n - |P| + 1]``, since the table
        knows nothing of longer patterns."""
        exact = self.count_or_none(pattern)
        if exact is not None:
            return (exact, exact)
        return (0, max(0, self._text_length - len(pattern) + 1))

    def is_reliable(self, pattern: str) -> bool:
        return len(pattern) <= self._q

    def _window_range(self, low: int, high: int) -> Tuple[int, int]:
        """Index range of the stored windows with keys in ``[low, high)``:
        one binary search until a window falls inside, then one on each
        side of it."""
        q = self._q
        window = self._windows.get_run
        lo, hi = 0, self._num_windows
        while lo < hi:
            mid = (lo + hi) >> 1
            key = window(mid * q, q)
            if key < low:
                lo = mid + 1
            elif key >= high:
                hi = mid
            else:
                return self._first_at_least(low, lo, mid), self._first_at_least(
                    high, mid + 1, hi
                )
        return lo, lo

    def _first_at_least(self, key: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose window is at least ``key``
        (``hi`` when none is)."""
        q = self._q
        window = self._windows.get_run
        while lo < hi:
            mid = (lo + hi) >> 1
            if window(mid * q, q) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- space ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            name=f"QGram-{self._q}",
            components={
                "windows": self._windows.size_in_bits(),
                "cumulative_counts": self._cumulative.size_in_bits(),
            },
        )

    def __repr__(self) -> str:
        return (
            f"QGramIndex(n={self._text_length}, q={self._q}, "
            f"windows={self._num_windows})"
        )


def _distinct_windows(
    ids: np.ndarray, q: int, sigma: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``q``-windows of ``ids`` (one row of codes each,
    code 0 past the end) and how many positions start each one.

    With big-endian codes each row's bytes compare like its codes, so one
    ``np.unique`` over the rows as opaque byte strings sorts the windows
    lexicographically whatever ``q`` and ``sigma`` are.
    """
    code = np.dtype(np.min_scalar_type(max(1, sigma - 1))).newbyteorder(">")
    padded = np.concatenate([ids, np.zeros(q - 1, dtype=ids.dtype)])
    rows = np.lib.stride_tricks.sliding_window_view(padded, q).astype(code, order="C")
    keys = rows.view(np.dtype((np.void, q * code.itemsize))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return rows[first], counts
