"""Query-workload generators shared by experiments, benches and examples.

The paper's Figure 9 workload is "patterns of different lengths randomly
extracted from the text"; validation additionally needs *absent* patterns
(to exercise the empty-range paths) and adversarial shapes (unary runs,
whole-text patterns, single characters). This module centralises them so
every harness samples identically and deterministically.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .text import Text


def sample_from_text(
    text: Text | str, length: int, count: int, seed: int | Sequence[int] = 0
) -> List[str]:
    """``count`` substrings of the given length, uniform over positions.

    Mirrors the paper's Figure 9 workload (duplicates allowed, as there).
    ``seed`` is anything :func:`numpy.random.default_rng` accepts; the
    experiments pass ``(corpus seed, 1, length)``.
    """
    raw = text.raw if isinstance(text, Text) else text
    if length < 1:
        raise InvalidParameterError(f"pattern length must be >= 1, got {length}")
    if length > len(raw):
        raise InvalidParameterError(
            f"pattern length {length} exceeds text length {len(raw)}"
        )
    rng = np.random.default_rng(seed)
    limit = len(raw) - length + 1
    return [raw[s : s + length] for s in rng.integers(0, limit, size=count)]


def random_patterns(
    alphabet_chars: str, length: int, count: int, seed: int = 0
) -> List[str]:
    """Uniform random strings over the given characters (mostly absent
    from any specific text once the length exceeds a few symbols)."""
    if not alphabet_chars:
        raise InvalidParameterError("need a non-empty character set")
    rng = np.random.default_rng(seed)
    chars = list(alphabet_chars)
    picks = rng.integers(0, len(chars), size=(count, length))
    return ["".join(chars[i] for i in row) for row in picks]


def absent_patterns(
    text: Text | str, length: int, count: int, seed: int = 0, max_tries: int = 200
) -> List[str]:
    """Patterns of the given length verified to NOT occur in the text.

    Raises if the text is so saturated that absent strings of this length
    cannot be found (e.g. every bigram present and length = 2).
    """
    t = text if isinstance(text, Text) else Text(text)
    chars = t.alphabet.characters
    found: List[str] = []
    attempt = 0
    while len(found) < count:
        if attempt >= max_tries * count:
            raise InvalidParameterError(
                f"could not find {count} absent patterns of length {length}"
            )
        for candidate in random_patterns(chars, length, count, seed + attempt):
            if t.count_naive(candidate) == 0:
                found.append(candidate)
                if len(found) == count:
                    break
        attempt += 1
    return found


def adversarial_patterns(text: Text | str) -> List[str]:
    """Edge-case shapes every index must survive: single characters, the
    longest unary run, the full text, and one-past-the-end extensions."""
    raw = text.raw if isinstance(text, Text) else text
    patterns = [raw[0], raw[-1], raw, raw + raw[0]]
    best_char, best_run, run = raw[0], 1, 1
    for a, b in zip(raw, raw[1:]):
        run = run + 1 if a == b else 1
        if run > best_run:
            best_char, best_run = b, run
    patterns.append(best_char * best_run)
    patterns.append(best_char * (best_run + 1))
    return patterns


def zipf_workload(
    text: Text | str,
    num_queries: int = 500,
    distinct: int = 50,
    length_range: tuple[int, int] = (3, 12),
    exponent: float = 1.2,
    seed: int = 0,
) -> List[str]:
    """A query-log-like workload: ``num_queries`` draws over ``distinct``
    in-text patterns with Zipf(``exponent``) popularity.

    Mirrors how LIKE predicates arrive in production: a few hot patterns
    dominate, with a long tail — the regime batch counters and caches are
    evaluated on.
    """
    raw = text.raw if isinstance(text, Text) else text
    if distinct < 1 or num_queries < 1:
        raise InvalidParameterError("need distinct >= 1 and num_queries >= 1")
    lo, hi = length_range
    if not 1 <= lo <= hi <= len(raw):
        raise InvalidParameterError(f"bad length range {length_range}")
    rng = np.random.default_rng(seed)
    universe: List[str] = []
    for i in range(distinct):
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, len(raw) - length + 1))
        universe.append(raw[start : start + length])
    weights = 1.0 / np.arange(1, distinct + 1) ** exponent
    weights /= weights.sum()
    picks = rng.choice(distinct, size=num_queries, p=weights)
    return [universe[i] for i in picks]


def mixed_workload(
    text: Text | str,
    lengths: Sequence[int] = (1, 2, 4, 8, 16),
    per_length: int = 20,
    seed: int = 0,
    include_absent: bool = True,
) -> List[str]:
    """A deduplicated mixture of in-text, random and adversarial patterns."""
    t = text if isinstance(text, Text) else Text(text)
    patterns: set[str] = set(adversarial_patterns(t))
    for length in lengths:
        if length > len(t):
            continue
        patterns.update(sample_from_text(t, length, per_length, seed))
        if include_absent and length >= 2:
            patterns.update(
                random_patterns(t.alphabet.characters, length, per_length // 2, seed)
            )
    return sorted(patterns)
