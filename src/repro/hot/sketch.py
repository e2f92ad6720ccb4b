"""Count–min sketch over Karp–Rabin fingerprints.

Two instances back the hot tier:

- the **answer sketch** counts corpus substring *occurrences*: every
  window of every document, lengths ``1..max_len``, is added once.
  Because increments are purely additive, ``estimate`` is a sound upper
  bound on the true occurrence count of *any* pattern of length
  ``<= max_len`` — including patterns never queried — and it stays a
  sound upper bound when documents are deleted without decrementing.
- the **frequency sketch** counts *query* arrivals and only gates
  admission; it carries no soundness obligation.

Rows hash independently: ``col = ((a * fp + b) mod MOD) mod width``
with per-row odd multipliers. ``a * fp`` is at most ``2^62`` so the
whole kernel stays in uint64.

The cells live in one ``depth x width`` numpy plane of uint32 cells.
Every cell is at most :attr:`~CountMinSketch.total`, so the plane widens
to uint64 (once, before the add that would need it) only when ``total``
could pass ``2**32 - 1``; no cell ever wraps, and the answer sketch stays
a sound upper bound. The bulk ingest (:meth:`CountMinSketch.add_many`)
works on the plane with numpy; the per-query :meth:`~CountMinSketch.add`
and :meth:`~CountMinSketch.estimate` hash in Python ints (the same
values, since no intermediate leaves uint64) and index each row through
a ``memoryview`` of the same plane, which costs a few hundred
nanoseconds where a numpy fancy-index round costs microseconds.
"""

from __future__ import annotations

import random

import numpy as np

from .fingerprint import MOD

#: The largest count a uint32 cell holds.
_NARROW_MAX = (1 << 32) - 1


class CountMinSketch:
    """Fixed-size ``depth x width`` counter plane, uint32 cells until the
    total weight could outgrow them."""

    __slots__ = (
        "_width", "_depth", "_a", "_b", "_cells", "_total", "_seed", "_rows",
        "_cell_max",
    )

    def __init__(self, width: int = 2048, depth: int = 4, *, seed: int = 0) -> None:
        if width < 8 or depth < 1:
            raise ValueError("count-min needs width >= 8 and depth >= 1")
        rng = random.Random(seed)
        self._width = int(width)
        self._depth = int(depth)
        self._seed = int(seed)
        self._a = np.array(
            [rng.randrange(1, MOD) | 1 for _ in range(depth)], dtype=np.uint64
        )
        self._b = np.array(
            [rng.randrange(0, MOD) for _ in range(depth)], dtype=np.uint64
        )
        self._cells = np.zeros((depth, width), dtype=np.uint32)
        self._cell_max = _NARROW_MAX
        self._total = 0
        self._rows = self._row_views()

    def _row_views(self) -> tuple:
        """``(a, b, row view)`` per row for the scalar paths: Python-int
        hash constants and a memoryview over the row's cells."""
        return tuple(
            (int(a), int(b), memoryview(self._cells[row]))
            for row, (a, b) in enumerate(zip(self._a, self._b))
        )

    def _widen(self) -> None:
        """Move the plane to uint64 cells (the row views follow it)."""
        self._cells = self._cells.astype(np.uint64)
        self._cell_max = (1 << 64) - 1
        self._rows = self._row_views()

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def total(self) -> int:
        """Total weight added (one per window for the answer sketch)."""
        return self._total

    def add(self, fp: int, amount: int = 1) -> None:
        total = self._total + int(amount)
        if total > self._cell_max:
            self._widen()
        fp %= MOD
        width = self._width
        for a, b, cells in self._rows:
            col = (a * fp + b) % MOD % width
            cells[col] += amount
        self._total = total

    def add_many(self, fps: np.ndarray, amount: int = 1) -> None:
        """Add ``amount`` for every fingerprint in ``fps`` (vectorized)."""
        if fps.size == 0:
            return
        total = self._total + int(amount) * int(fps.size)
        if total > self._cell_max:
            self._widen()
        fps = fps.astype(np.uint64, copy=False) % np.uint64(MOD)
        step = self._cells.dtype.type(amount)
        for row in range(self._depth):
            cols = ((self._a[row] * fps + self._b[row]) % np.uint64(MOD)) % np.uint64(
                self._width
            )
            np.add.at(self._cells[row], cols, step)
        self._total = total

    def estimate(self, fp: int) -> int:
        """Min over rows: >= the true added weight for ``fp``, always."""
        fp %= MOD
        width = self._width
        least = None
        for a, b, cells in self._rows:
            value = cells[(a * fp + b) % MOD % width]
            if least is None or value < least:
                least = value
        return least

    def space_bits(self) -> int:
        return int(
            self._cells.size * self._cells.itemsize * 8
            + self._a.size * 64
            + self._b.size * 64
        )

    def clone_empty(self) -> "CountMinSketch":
        """Fresh sketch with identical geometry and hash rows."""
        return CountMinSketch(self._width, self._depth, seed=self._seed)
