"""Alphabet mapping between user-facing strings/bytes and integer symbols.

Library convention (shared by every index):

* symbol ``0`` is the sentinel ``$`` — strictly smaller than every text
  symbol, appearing exactly once, at the end of the indexed sequence;
* the characters of the text are mapped to dense ids ``1 .. sigma_chars``
  in lexicographic order, so integer order equals character order;
* ``sigma`` (as reported by indexes) counts the sentinel too.

Patterns are encoded with the same mapping; a pattern containing a
character absent from the text trivially has zero occurrences, which
:meth:`Alphabet.encode_pattern` signals by returning ``None``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..errors import AlphabetError

SENTINEL = 0
"""Integer id reserved for the terminator symbol ``$``."""


class Alphabet:
    """A bijection between text characters and dense integer ids >= 1."""

    __slots__ = ("_char_to_id", "_id_to_char", "_decode_table")

    def __init__(self, characters: Iterable[str]):
        distinct = sorted(set(characters))
        if any(len(ch) != 1 for ch in distinct):
            raise AlphabetError("alphabet entries must be single characters")
        self._char_to_id: Dict[str, int] = {
            ch: i + 1 for i, ch in enumerate(distinct)
        }
        self._id_to_char: Dict[int, str] = {
            i + 1: ch for i, ch in enumerate(distinct)
        }
        # Dense decode table indexed by symbol id (entry 0 = sentinel).
        self._decode_table = np.array(["$"] + distinct, dtype="<U1")

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet of the distinct characters of ``text``."""
        return cls(set(text))

    # -- properties --------------------------------------------------------

    @property
    def sigma(self) -> int:
        """Alphabet size *including* the sentinel (ids ``0 .. sigma-1``)."""
        return len(self._char_to_id) + 1

    @property
    def characters(self) -> str:
        """The mapped characters in id order."""
        return "".join(self._id_to_char[i] for i in range(1, self.sigma))

    # -- encoding ------------------------------------------------------------

    def encode(self, text: str) -> np.ndarray:
        """Map a string to its symbol ids; raises on unmapped characters.

        >>> Alphabet("cab").encode("abc").tolist()
        [1, 2, 3]
        """
        try:
            return np.fromiter(
                (self._char_to_id[ch] for ch in text), dtype=np.int64, count=len(text)
            )
        except KeyError as exc:
            raise AlphabetError(f"character {exc.args[0]!r} not in alphabet") from exc

    def encode_pattern(self, pattern: str) -> Optional[np.ndarray]:
        """Map a pattern, or return ``None`` if any character is unmapped
        (such a pattern cannot occur in the text)."""
        ids = [self._char_to_id.get(ch) for ch in pattern]
        if any(i is None for i in ids):
            return None
        return np.asarray(ids, dtype=np.int64)

    def code(self, ch: str) -> Optional[int]:
        """Symbol id of one character, or ``None`` when ``ch`` is not a
        mapped single character (one dict lookup; the automaton steps'
        per-character path).

        >>> Alphabet("cab").code("b"), Alphabet("cab").code("z")
        (2, None)
        """
        return self._char_to_id.get(ch)

    def decode(self, symbols: np.ndarray | Iterable[int]) -> str:
        """Map symbol ids back to a string (sentinel renders as ``$``)."""
        arr = np.asarray(
            symbols if isinstance(symbols, np.ndarray) else list(symbols),
            dtype=np.int64,
        )
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.sigma):
            raise AlphabetError("symbol id outside alphabet")
        return "".join(self._decode_table[arr])

    def __contains__(self, ch: str) -> bool:
        return ch in self._char_to_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._char_to_id == other._char_to_id

    def __repr__(self) -> str:
        preview = self.characters[:16]
        suffix = "…" if self.sigma - 1 > 16 else ""
        return f"Alphabet(sigma={self.sigma}, chars={preview!r}{suffix})"
