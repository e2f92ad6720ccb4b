"""One shared, thread-safe construction context per text.

Every index in this library needs some subset of the same expensive
artifacts: the suffix array, the LCP array, the BWT, and the pruned
suffix-tree structure at a threshold ``l``. :class:`BuildContext` computes
each of them **at most once** per text — lazily, behind per-artifact
locks so concurrent builders block only on the artifact they actually
need — and remembers where every artifact came from (computed, memoised,
or read back from an on-disk :class:`~repro.build.cache.ArtifactCache`)
for the build report.

The dependency graph the context maintains::

    text ──> sa ──> lcp ──> structure(l)   (one per threshold)
              └──> bwt

When an :class:`~repro.build.cache.ArtifactCache` is attached, ``sa``,
``lcp`` and ``bwt`` are looked up on disk (keyed by the text's SHA-256
content digest, the same digest family :mod:`repro.io` checksums with)
before any computation happens — so a rebuild of a BWT-only index (FM,
RLFM, APX) after a process restart never sorts a suffix.

Thread-safety contract: all public accessors may be called from any
number of threads; each artifact is computed exactly once (double-checked
per-key locking), and returned arrays are shared — treat them as
read-only, as every index constructor in this library does.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from .. import sa as _sa  # module-attr access so tests can monkeypatch
from ..io import content_digest
from ..suffixtree.pruned import PrunedSuffixTreeStructure
from ..textutil import Text
from .report import SOURCE_CACHE, SOURCE_COMPUTED, SOURCE_MEMO, StageRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import ArtifactCache

#: Artifact names eligible for the on-disk cache (plain integer arrays).
_CACHEABLE = ("sa", "lcp", "bwt")


class BuildContext:
    """Lazily computed, memoised build artifacts for one text."""

    def __init__(
        self,
        text: Text | str,
        *,
        cache: Optional["ArtifactCache"] = None,
        name: str = "",
    ):
        self._text = text if isinstance(text, Text) else Text(text)
        self._cache = cache
        self._name = name
        self._digest: Optional[str] = None
        self._master_lock = threading.Lock()
        self._key_locks: Dict[Any, threading.Lock] = {}
        self._artifacts: Dict[Any, Any] = {}
        self._stages: List[StageRecord] = []

    @classmethod
    def of(cls, source: "BuildContext | Text | str") -> "BuildContext":
        """Coerce: pass an existing context through, wrap a text."""
        return source if isinstance(source, cls) else cls(source)

    # -- identity -------------------------------------------------------------

    @property
    def text(self) -> Text:
        """The text every artifact derives from."""
        return self._text

    @property
    def name(self) -> str:
        """Optional corpus label carried into build reports."""
        return self._name

    @property
    def digest(self) -> str:
        """SHA-256 content digest of the raw text (the cache key)."""
        if self._digest is None:
            self._digest = content_digest(self._text.raw.encode("utf-8"))
        return self._digest

    @property
    def cache(self) -> Optional["ArtifactCache"]:
        """The attached on-disk artifact cache, if any."""
        return self._cache

    # -- memo machinery -------------------------------------------------------

    def _lock_for(self, key: Any) -> threading.Lock:
        with self._master_lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _record(self, stage: str, seconds: float, source: str, size: int) -> None:
        with self._master_lock:
            self._stages.append(StageRecord(stage, seconds, source, size))

    def _memoised(
        self,
        key: Any,
        stage: str,
        compute: Callable[[], Any],
        *,
        cacheable: bool = False,
        sizeof: Callable[[Any], int] = lambda value: int(
            getattr(value, "nbytes", 0)
        ),
    ) -> Any:
        """Double-checked per-key memoisation with stage telemetry."""
        value = self._artifacts.get(key)
        if value is not None:
            self._record(stage, 0.0, SOURCE_MEMO, sizeof(value))
            return value
        with self._lock_for(key):
            value = self._artifacts.get(key)
            if value is not None:
                self._record(stage, 0.0, SOURCE_MEMO, sizeof(value))
                return value
            source = SOURCE_COMPUTED
            started = time.perf_counter()
            if cacheable and self._cache is not None:
                cached = self._cache.load(self.digest, stage)
                if cached is not None:
                    value = cached
                    source = SOURCE_CACHE
            if value is None:
                value = compute()
                if cacheable and self._cache is not None:
                    self._cache.store(self.digest, stage, value)
            elapsed = time.perf_counter() - started
            self._artifacts[key] = value
            self._record(stage, elapsed, source, sizeof(value))
            return value

    # -- shared artifacts -----------------------------------------------------

    @property
    def sa(self) -> np.ndarray:
        """Suffix array of the sentinel-terminated text (built once)."""
        return self._memoised(
            "sa",
            "sa",
            lambda: _sa.suffix_array(self._text.data),
            cacheable=True,
        )

    @property
    def lcp(self) -> np.ndarray:
        """LCP array aligned with :attr:`sa` (built once)."""
        return self._memoised(
            "lcp",
            "lcp",
            lambda: _sa.lcp_array(self._text.data, self.sa),
            cacheable=True,
        )

    @property
    def bwt(self) -> np.ndarray:
        """Burrows–Wheeler transform derived from :attr:`sa` (built once).

        With a warm on-disk cache this loads directly, skipping the
        suffix sort entirely — the fast path watchdog rebuilds of
        BWT-backed tiers (FM / RLFM / APX) ride on.
        """
        return self._memoised(
            "bwt",
            "bwt",
            lambda: _sa.bwt_from_sa(self._text.data, self.sa),
            cacheable=True,
        )

    @property
    def isa(self) -> np.ndarray:
        """Inverse suffix array (built once, derived from :attr:`sa`)."""
        return self._memoised(
            "isa", "isa", lambda: _sa.inverse_suffix_array(self.sa)
        )

    def structure(self, l: int) -> PrunedSuffixTreeStructure:
        """The pruned suffix-tree structure ``PST_l`` (memoised per ``l``)."""
        return self._memoised(
            ("structure", int(l)),
            f"structure(l={int(l)})",
            lambda: PrunedSuffixTreeStructure(
                self._text, int(l), sa=self.sa, lcp=self.lcp
            ),
            sizeof=lambda s: s.num_nodes * 96,  # rough per-node object cost
        )

    # -- accounting -----------------------------------------------------------

    @property
    def stages(self) -> List[StageRecord]:
        """Every artifact stage so far (computed, memo and cache hits)."""
        with self._master_lock:
            return list(self._stages)

    def drain_stages(self) -> List[StageRecord]:
        """Pop the accumulated stage records (one report per build run)."""
        with self._master_lock:
            stages, self._stages = self._stages, []
            return stages

    def __repr__(self) -> str:
        held = sorted(
            key if isinstance(key, str) else f"{key[0]}:{key[1]}"
            for key in self._artifacts
        )
        return (
            f"BuildContext(n={len(self._text)}, sigma={self._text.sigma}, "
            f"artifacts={held})"
        )
