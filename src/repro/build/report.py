"""Per-stage build telemetry: stage records and the aggregate report.

Every expensive artifact a :class:`~repro.build.context.BuildContext`
produces (suffix array, LCP, BWT, pruned structures) and every index a
:func:`~repro.build.pipeline.build_all` run constructs is logged as a
:class:`StageRecord`: what was built, how long it took, and where it came
from — freshly ``computed``, served from the in-memory ``memo``, or read
back from the on-disk ``cache``. :class:`BuildReport` aggregates the
records of one pipeline run into the operator-facing table the
``repro build --build-report`` CLI prints and the construction benchmark
serialises to ``benchmarks/results/build_report.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..space import SpaceReport

#: Where a stage's output came from.
SOURCE_COMPUTED = "computed"
SOURCE_MEMO = "memo"
SOURCE_CACHE = "cache"


@dataclass(frozen=True)
class StageRecord:
    """One build stage: an artifact or index produced (or reused)."""

    stage: str  #: e.g. ``"sa"``, ``"structure(l=32)"``, ``"index:cpst"``
    seconds: float  #: wall time spent producing it (0 for memo hits)
    source: str  #: ``computed`` | ``memo`` | ``cache``
    bytes: int = 0  #: approximate in-memory footprint of the artifact

    @property
    def reused(self) -> bool:
        """True when the stage was served without recomputation."""
        return self.source != SOURCE_COMPUTED

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "source": self.source,
            "bytes": self.bytes,
        }


@dataclass
class BuildReport:
    """Aggregate telemetry of one :func:`~repro.build.pipeline.build_all`.

    ``stages`` holds every artifact and index stage in completion order;
    ``spaces`` maps index name to its :class:`~repro.space.SpaceReport`;
    ``wall_seconds`` is the end-to-end wall time of the run (under
    ``max_workers > 1`` this is less than the sum of stage times).
    """

    corpus: str = ""
    max_workers: int = 1
    wall_seconds: float = 0.0
    stages: List[StageRecord] = field(default_factory=list)
    spaces: Dict[str, SpaceReport] = field(default_factory=dict)

    @property
    def reuse_hits(self) -> int:
        """Stages served from the memo or the on-disk cache."""
        return sum(1 for record in self.stages if record.reused)

    @property
    def computed_seconds(self) -> float:
        """Total wall time spent actually computing (memo hits are free)."""
        return sum(r.seconds for r in self.stages if r.source == SOURCE_COMPUTED)

    @property
    def total_payload_bits(self) -> int:
        """Summed payload bits across every built index."""
        return sum(report.payload_bits for report in self.spaces.values())

    def format(self) -> str:
        """The per-stage table ``repro build --build-report`` prints."""
        lines = [
            f"build report — corpus {self.corpus or '<unnamed>'}, "
            f"workers {self.max_workers}, wall {self.wall_seconds:.3f}s, "
            f"{self.reuse_hits} artifact reuse hit(s)",
            f"{'stage':<24} {'source':<10} {'seconds':>9} {'bytes':>12}",
        ]
        for record in self.stages:
            lines.append(
                f"{record.stage:<24} {record.source:<10} "
                f"{record.seconds:>9.4f} {record.bytes:>12d}"
            )
        for name, report in self.spaces.items():
            lines.append(
                f"{'space:' + name:<24} {'':<10} {'':>9} "
                f"{report.payload_bits:>12d}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serialisable form (the bench-smoke artifact payload)."""
        return {
            "corpus": self.corpus,
            "max_workers": self.max_workers,
            "wall_seconds": self.wall_seconds,
            "reuse_hits": self.reuse_hits,
            "computed_seconds": self.computed_seconds,
            "stages": [record.as_dict() for record in self.stages],
            "spaces": {
                name: {
                    "payload_bits": report.payload_bits,
                    "overhead_bits": report.overhead_bits,
                }
                for name, report in self.spaces.items()
            },
        }
