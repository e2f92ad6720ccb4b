"""``build_all``: one context, many indexes, optional parallelism.

The constructors in this library are independent of one another once the
shared artifacts exist: the CPST consumes ``structure(l)``, the APX / FM /
RLFM consume the BWT, q-gram tables and text statistics scan the raw
text. :func:`build_all` exploits that: it pre-warms the shared artifacts
a spec set needs (each exactly once, via the context's memo), then builds
every index — sequentially or on a thread pool — and returns the built
indexes together with a :class:`~repro.build.report.BuildReport` of
per-stage wall times, artifact reuse hits, and space totals.

Builds are deterministic: ``max_workers=4`` produces bit-identical
indexes to the sequential path, because every builder is a pure function
of the (already materialised) shared artifacts.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.interface import OccurrenceEstimator
from ..errors import InvalidParameterError
from .context import BuildContext
from .report import SOURCE_COMPUTED, BuildReport, StageRecord


@dataclass(frozen=True)
class IndexSpec:
    """One index to build: a registry kind, a name, and parameters."""

    kind: str
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The name the built index is keyed by in the result."""
        return self.name or self.kind

    def build(self, context: "BuildContext | Any") -> OccurrenceEstimator:
        """Build this one index from ``context`` (a
        :class:`BuildContext`, a :class:`~repro.textutil.Text` or a
        string), with no pre-warm pass and no report."""
        return _kind(self.kind)(BuildContext.of(context), **dict(self.params))


# -- builder registry ---------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """One index kind: where its class lives, the parameters a spec may
    leave out, and the shared artifacts it consumes (pre-warmed by
    :func:`build_all`).

    Calling it builds the index through the class's one constructor,
    which takes the context and consumes only those artifacts. The class
    is imported on first use, so this module never imports the index
    classes at import time (they import the build package themselves).
    """

    module: str
    cls: str
    defaults: Mapping[str, Any]
    artifacts: Sequence[str]

    def __call__(self, ctx: BuildContext, **params: Any) -> OccurrenceEstimator:
        cls = getattr(import_module(self.module, __package__), self.cls)
        return cls(ctx, **{**self.defaults, **params})


BUILDERS: Dict[str, _Kind] = {
    "cpst": _Kind("..core.cpst", "CompactPrunedSuffixTree", {"l": 64}, ("sa", "lcp")),
    "apx": _Kind("..core.approx", "ApproxIndex", {"l": 64}, ("bwt",)),
    "apx-ef": _Kind("..core.approx_ef", "ApproxIndexEF", {"l": 64}, ("bwt",)),
    "fm": _Kind("..baselines.fm", "FMIndex", {}, ("sa", "bwt")),
    "rlfm": _Kind("..baselines.rlfm", "RLFMIndex", {}, ("bwt",)),
    "pst": _Kind("..baselines.pst", "PrunedSuffixTree", {"l": 64}, ("sa", "lcp")),
    "patricia": _Kind(
        "..baselines.patricia", "PrunedPatriciaTrie", {"l": 64}, ("sa", "lcp")
    ),
    "qgram": _Kind("..baselines.qgram", "QGramIndex", {"q": 8}, ()),
    "stats": _Kind("..service.tiers", "TextStatsEstimator", {}, ()),
}


def _kind(kind: str) -> _Kind:
    """The :data:`BUILDERS` entry for ``kind``, or a clear refusal."""
    if kind not in BUILDERS:
        raise InvalidParameterError(
            f"unknown index kind {kind!r} (known: {sorted(BUILDERS)})"
        )
    return BUILDERS[kind]


def spec_for(kind: str, l: int = 64) -> IndexSpec:
    """The canonical :class:`IndexSpec` for one index kind at threshold ``l``.

    The one place that owns each kind's parameter rules, shared by the
    CLI, the serving ladders, the shard and live-corpus builders, the
    watchdog's rebuilders and the validator:

    * ``apx``, ``apx-ef`` and ``patricia`` sample every ``(l/2)``-th
      position and need an even threshold: an odd ``l`` is rounded down
      (at least 2), so an index built for ``l`` never errs by more than
      ``l - 1``;
    * ``qgram`` tabulates windows up to the horizon ``q``: ``l`` clamped
      to ``[2, 8]``;
    * ``cpst`` and ``pst`` take ``l`` as it is; ``fm``, ``rlfm`` and
      ``stats`` take no parameter.
    """
    _kind(kind)
    if kind in ("cpst", "pst"):
        return IndexSpec(kind, params={"l": l})
    if kind in ("apx", "apx-ef", "patricia"):
        return IndexSpec(kind, params={"l": max(2, l - l % 2)})
    if kind == "qgram":
        return IndexSpec(kind, params={"q": max(2, min(l, 8))})
    return IndexSpec(kind)  # fm, rlfm, stats: parameter-free


def default_tier_specs(l: int = 64) -> List[IndexSpec]:
    """The spec set matching :func:`repro.service.build_default_ladder`."""
    return [spec_for(kind, l) for kind in ("cpst", "apx", "qgram", "stats")]


@dataclass
class BuildResult:
    """Built indexes keyed by spec label, plus the run's telemetry."""

    indexes: Dict[str, OccurrenceEstimator]
    report: BuildReport

    def __getitem__(self, name: str) -> OccurrenceEstimator:
        return self.indexes[name]

    def __iter__(self):
        return iter(self.indexes)

    def __len__(self) -> int:
        return len(self.indexes)


def build_all(
    context: BuildContext | Any,
    specs: Sequence[IndexSpec],
    *,
    max_workers: Optional[int] = None,
) -> BuildResult:
    """Build every spec from one shared context, optionally in parallel.

    ``context`` may be a :class:`BuildContext`, a :class:`~repro.textutil.Text`
    or a plain string. ``max_workers=None`` (or 1) builds sequentially;
    larger values build independent indexes concurrently on a thread pool
    — the shared artifacts are pre-warmed first, so workers never
    duplicate a suffix sort. Spec labels must be unique.
    """
    if not specs:
        raise InvalidParameterError("build_all needs at least one spec")
    labels = [spec.label for spec in specs]
    if len(set(labels)) != len(labels):
        raise InvalidParameterError(f"spec labels must be unique, got {labels}")
    for spec in specs:
        _kind(spec.kind)
    if max_workers is not None and max_workers < 1:
        raise InvalidParameterError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    ctx = BuildContext.of(context)
    started = time.perf_counter()
    ctx.drain_stages()  # this report covers exactly this run

    # Pre-warm the shared artifacts the spec set needs, each exactly once.
    needed: List[str] = []
    for spec in specs:
        for artifact in BUILDERS[spec.kind].artifacts:
            if artifact not in needed:
                needed.append(artifact)
    for artifact in needed:
        getattr(ctx, artifact)
    # Structures are keyed by threshold: pre-warm per distinct l.
    for spec in specs:
        if spec.kind in ("cpst", "pst"):
            ctx.structure(int(spec.params.get("l", 64)))

    def build_one(spec: IndexSpec) -> tuple:
        stage_started = time.perf_counter()
        index = spec.build(ctx)
        return spec.label, index, time.perf_counter() - stage_started

    if max_workers is None or max_workers <= 1 or len(specs) == 1:
        built = [build_one(spec) for spec in specs]
        workers = 1
    else:
        workers = min(max_workers, len(specs))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-build"
        ) as pool:
            built = list(pool.map(build_one, specs))

    indexes: Dict[str, OccurrenceEstimator] = {}
    report = BuildReport(
        corpus=ctx.name or ctx.digest[:12],
        max_workers=workers,
        stages=ctx.drain_stages(),
    )
    for label, index, seconds in built:
        indexes[label] = index
        report.stages.append(
            StageRecord(f"index:{label}", seconds, SOURCE_COMPUTED)
        )
        report.spaces[label] = index.space_report()
    report.wall_seconds = time.perf_counter() - started
    return BuildResult(indexes=indexes, report=report)
