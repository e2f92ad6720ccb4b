"""Space accounting for indexes and experiments.

Every index exposes ``space_report() -> SpaceReport`` listing its components
in bits. Reports distinguish *payload* (the succinct encoding itself, the
quantity the paper's space bounds talk about) from *overhead* (rank/select
directories of our particular implementation), so the Figure 8 reproduction
can present both an apples-to-apples payload comparison and the raw totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping


@dataclass(frozen=True)
class SpaceReport:
    """Bit-level size breakdown of one data structure.

    ``shared`` names the subset of the total that lives in process-shared
    segments (:mod:`repro.parallel`): those bits exist **once per host**
    no matter how many worker processes map them, so multi-process
    deployments must not multiply them by ``workers``. The remainder
    (``total_bits - shared_bits``) is private state duplicated in every
    worker — :attr:`resident_per_worker_bits`.
    """

    name: str
    components: Dict[str, int] = field(default_factory=dict)
    overhead: Dict[str, int] = field(default_factory=dict)
    shared: Dict[str, int] = field(default_factory=dict)
    workers: int = 1

    @property
    def payload_bits(self) -> int:
        """Total payload bits across components."""
        return sum(self.components.values())

    @property
    def overhead_bits(self) -> int:
        """Total implementation overhead bits (rank/select directories)."""
        return sum(self.overhead.values())

    @property
    def total_bits(self) -> int:
        """Payload plus overhead — one host-resident copy."""
        return self.payload_bits + self.overhead_bits

    @property
    def shared_bits(self) -> int:
        """Bits mapped from shared segments: one physical copy per host."""
        return sum(self.shared.values())

    @property
    def resident_per_worker_bits(self) -> int:
        """Bits each worker process holds privately (not in shared maps)."""
        return max(0, self.total_bits - self.shared_bits)

    @property
    def payload_bytes(self) -> float:
        return self.payload_bits / 8

    def ratio_to(self, reference_bits: int) -> float:
        """Payload size as a fraction of ``reference_bits`` (e.g. the text)."""
        if reference_bits <= 0:
            raise ValueError("reference_bits must be positive")
        return self.payload_bits / reference_bits

    def merged_with(self, other: "SpaceReport", name: str | None = None) -> "SpaceReport":
        """Combine two reports, prefixing component names to avoid clashes."""
        components = {f"{self.name}.{k}": v for k, v in self.components.items()}
        components.update({f"{other.name}.{k}": v for k, v in other.components.items()})
        overhead = {f"{self.name}.{k}": v for k, v in self.overhead.items()}
        overhead.update({f"{other.name}.{k}": v for k, v in other.overhead.items()})
        shared = {f"{self.name}.{k}": v for k, v in self.shared.items()}
        shared.update({f"{other.name}.{k}": v for k, v in other.shared.items()})
        return SpaceReport(
            name or f"{self.name}+{other.name}", components, overhead,
            shared, max(self.workers, other.workers),
        )

    def __add__(self, other: "SpaceReport") -> "SpaceReport":
        """Roll two reports into one (see :meth:`merge` for many)."""
        if not isinstance(other, SpaceReport):
            return NotImplemented
        return SpaceReport.merge((self, other))

    @classmethod
    def merge(
        cls, reports: Iterable["SpaceReport"], name: str = "merged"
    ) -> "SpaceReport":
        """One corpus-level report from many part reports (e.g. per shard).

        Component keys are prefixed with each part's name; parts sharing
        a name have their same-keyed components summed, so ``merge`` is
        total regardless of naming discipline.
        """
        components: Dict[str, int] = {}
        overhead: Dict[str, int] = {}
        shared: Dict[str, int] = {}
        workers = 1
        seen = 0
        for index, report in enumerate(reports):
            seen += 1
            prefix = report.name or f"part{index}"
            for key, bits in report.components.items():
                full = f"{prefix}.{key}"
                components[full] = components.get(full, 0) + bits
            for key, bits in report.overhead.items():
                full = f"{prefix}.{key}"
                overhead[full] = overhead.get(full, 0) + bits
            for key, bits in report.shared.items():
                full = f"{prefix}.{key}"
                shared[full] = shared.get(full, 0) + bits
            workers = max(workers, report.workers)
        if seen == 0:
            raise ValueError("SpaceReport.merge needs at least one report")
        return cls(name, components, overhead, shared, workers)

    def format(self, reference_bits: int | None = None) -> str:
        """Human-readable multi-line breakdown."""
        lines = [f"{self.name}: {self.payload_bits} payload bits "
                 f"({self.payload_bits / 8 / 1024:.2f} KiB)"]
        for key, bits in sorted(self.components.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {key:<28} {bits:>12} bits")
        if self.overhead_bits:
            lines.append(f"  {'[rank/select overhead]':<28} {self.overhead_bits:>12} bits")
        if self.shared:
            lines.append(
                f"  {'[shared segments]':<28} {self.shared_bits:>12} bits "
                f"(one copy per host, {self.workers} worker"
                f"{'s' if self.workers != 1 else ''})"
            )
            lines.append(
                f"  {'resident_per_worker':<28} "
                f"{self.resident_per_worker_bits:>12} bits"
            )
        if reference_bits:
            lines.append(
                f"  payload = {100 * self.payload_bits / reference_bits:.3f}% of reference"
            )
        return "\n".join(lines)


def text_bits(n: int, sigma: int) -> int:
    """Bits of the plain text at ``ceil(log2 sigma)`` bits per symbol.

    This is the reference size experiments compare indexes against
    (the paper quotes corpus sizes in bytes of the raw file; for integer
    alphabets the packed size is the fair analogue).
    """
    if n < 0 or sigma < 1:
        raise ValueError("need n >= 0 and sigma >= 1")
    return n * max(1, (sigma - 1).bit_length())


def total_payload(reports: Iterable[SpaceReport]) -> int:
    """Sum of payload bits across reports."""
    return sum(r.payload_bits for r in reports)


def make_report(
    name: str,
    components: Mapping[str, int],
    overhead: Mapping[str, int] | None = None,
) -> SpaceReport:
    """Convenience constructor with defensive copies."""
    return SpaceReport(name, dict(components), dict(overhead or {}))
