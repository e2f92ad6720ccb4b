"""Timing, percentile and host bookkeeping shared by every workload."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: Percentiles tried, highest first, when a tail is reported. The rule:
#: report the highest percentile, at most p99, that still has at least
#: ``MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """The highest percentile of ``TAIL_LADDER`` with ``MIN_BEYOND``
    samples beyond it among ``n`` samples (50 when even the median has
    fewer)."""
    for pct in TAIL_LADDER:
        # Rounded: 100 - pct is not exact in binary.
        if round(n * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND:
            return pct
    return 50.0


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the rule-abiding tail (at most p99) of one latency
    sample set."""
    n = len(samples)
    if n == 0:
        return {"samples": 0}
    tail = tail_percentile(n)
    return {
        "samples": n,
        "p50": statistics.median(samples),
        "tail_pct": tail,
        "tail": percentile(samples, tail),
        "p95": percentile(samples, 95.0),
        "mean": statistics.fmean(samples),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, in MiB (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_steal_s() -> float:
    """Host CPU time stolen from this machine's CPUs so far (Linux
    ``/proc/stat``; 0 where unavailable). A window during which it grows
    ran on a contended host, and its timings read slow."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (``"unknown"`` outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path) -> Dict[str, object]:
    """What a result needs to be compared with another host's."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "argv": sys.argv[1:],
    }


def stop_child_processes() -> None:
    """Wait for every process this run started to end.

    The systems' own ``close`` stops their workers; what is left is the
    multiprocessing resource tracker, which shared-memory segments start
    and which would otherwise outlive this process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


def median_setup(build: Callable[[], object], close: Callable[[object], None],
                 repeats: int) -> Tuple[List[float], object]:
    """Build the system ``repeats`` times; close all but the last.

    Returns every set-up wall time and the last (still open) system. The
    median is reported, so one slow build (a page-cache miss, a noisy
    neighbour) does not move ``setup_s``.
    """
    times: List[float] = []
    system = None
    for i in range(repeats):
        started = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - started)
        if i < repeats - 1:
            close(system)
    return times, system
