"""The backward-search automaton: the engine's central abstraction.

Every counting structure in this library that answers ``count(P)`` with a
right-to-left scan — ``APX_l``'s sampled-BWT search (paper Section 4),
``CPST_l``'s virtual inverse suffix links (Section 5), the FM-index and
RLFM baselines, and the labelled PST's inverse-suffix-link view — is the
same *deterministic automaton over the reversed pattern*: the state after
consuming ``P[i:]`` depends only on that suffix. This module makes that
shared structure a typed protocol:

* :class:`BackwardSearchAutomaton` — the ABC indexes implement:
  ``start(ch)``, ``step(state, ch)``, ``count_state(state)``, the bulk
  ``step_many(states, ch)``, plus a
  :meth:`~BackwardSearchAutomaton.capabilities` descriptor stating what
  the final count means (exact / lower-sided / threshold) and the nominal
  rank cost per step.
* :func:`automaton_of` — the adapter lookup replacing every ``hasattr``
  feature probe: it resolves an index to its automaton via the
  ``__engine_automaton__`` hook (used by wrappers such as
  :class:`~repro.service.faults.FaultyIndex`) or ``isinstance``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

#: Hook name wrappers implement to supply (or veto) an automaton.
_HOOK = "__engine_automaton__"


@dataclass(frozen=True)
class AutomatonCapabilities:
    """What an automaton's final count means, and what a step costs.

    ``exact``
        ``count_state`` returns the true occurrence count for every
        pattern (FM / RLFM).
    ``lower_sided``
        A dead (``None``) state is exactly the below-threshold outcome,
        so the automaton supports certified ``count_or_none`` semantics
        (the CPST family).
    ``threshold``
        The error threshold ``l`` (1 for exact automata).
    ``rank_ops_per_step``
        Nominal rank/select operations one :meth:`step` performs on the
        underlying succinct structures — the unit
        :class:`~repro.engine.stats.EngineStats` uses to derive
        ``rank_calls`` from executed steps (0 for automata that navigate
        without rank structures, e.g. the pointer-based PST).
    """

    exact: bool = False
    lower_sided: bool = False
    threshold: int = 1
    rank_ops_per_step: int = 0


class BackwardSearchAutomaton(abc.ABC):
    """Deterministic automaton over the *reversed* pattern.

    A state summarises one pattern suffix; ``None`` is the dead state
    (and stays dead — callers never feed ``None`` back into
    :meth:`step`). States must be cheap values (tuples), hashable, and
    independent of how they were reached, so any two patterns sharing a
    suffix share a state — the invariant the batch planner exploits.
    """

    @abc.abstractmethod
    def start(self, ch: str) -> Optional[Hashable]:
        """State after consuming the single character ``ch`` (the
        pattern's *last* character), or ``None`` if no occurrence can
        end with it."""

    @abc.abstractmethod
    def step(self, state: Hashable, ch: str) -> Optional[Hashable]:
        """Extend a live state one character leftwards, or ``None``."""

    @abc.abstractmethod
    def count_state(self, state: Optional[Hashable]) -> int:
        """The (model-dependent) count of the pattern a state stands
        for; 0 for the dead state."""

    def capabilities(self) -> AutomatonCapabilities:
        """Semantics descriptor; override to declare exactness and cost."""
        return AutomatonCapabilities()

    def step_many(
        self, states: Sequence[Hashable], ch: str
    ) -> List[Optional[Hashable]]:
        """Extend a batch of *live* states one character leftwards.

        Position ``j`` of the result is ``step(states[j], ch)``; callers
        never pass the dead state in. The default is the scalar loop, so
        every automaton accepts bulk calls; the index families override
        this with one pass of bulk rank/select kernels (interval automata
        pack the batch into a ``(k, 2)`` int64 matrix via
        :func:`pack_interval_states`).
        """
        return [self.step(state, ch) for state in states]


def automaton_of(index) -> Optional[BackwardSearchAutomaton]:
    """Resolve an index to its backward-search automaton, or ``None``.

    The ``__engine_automaton__()`` hook wins when the object defines one
    (wrappers use it to instrument or veto the inner automaton);
    otherwise an index that *is* a :class:`BackwardSearchAutomaton` is its
    own automaton. ``None`` means the index has no automaton view, and
    :class:`~repro.engine.counter.IndexCounter` counts it whole-pattern.
    """
    hook = getattr(type(index), _HOOK, None)
    if hook is not None:
        return hook(index)
    if isinstance(index, BackwardSearchAutomaton):
        return index
    return None


def pack_interval_states(states: Sequence[Hashable]) -> np.ndarray:
    """Pack live 2-int interval states into a ``(k, 2)`` int64 matrix.

    The shared dtype convention for vectorized interval automata (FM,
    RLFM, APX, CPST, PST): column 0 holds the interval's first endpoint,
    column 1 its last. Dead states never appear here — they are encoded
    as ``None`` at the :meth:`BackwardSearchAutomaton.step_many` boundary,
    not as a sentinel row.
    """
    return np.asarray(states, dtype=np.int64).reshape(len(states), 2)


def unpack_interval_states(
    firsts: np.ndarray, lasts: np.ndarray, live: np.ndarray
) -> List[Optional[Tuple[int, int]]]:
    """Inverse of :func:`pack_interval_states`: ``(first, last)`` tuples
    where ``live`` is set, ``None`` (the dead state) elsewhere."""
    return [
        (f, l) if ok else None
        for f, l, ok in zip(firsts.tolist(), lasts.tolist(), live.tolist())
    ]
