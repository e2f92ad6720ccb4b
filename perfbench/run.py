"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/``;
inputs are generated from ``--seed``. The full report (every metric,
sample counts, the host fingerprint, oracle findings) is printed as
JSON and kept under ``.perfbench/``; the last line of standard output
is the one-line result: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced pass with ``--trace 1``. A run whose
answers break the oracle's contract prints ``"correct": false`` and
exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "patterns_per_s": "1/s",
    "bits_per_symbol": "bits",
    "peak_rss_mb": "MB",
}


#: Workload name -> (module, class).
WORKLOADS = {
    "mol-selectivity": ("perfbench.mol_selectivity", "MolSelectivity"),
    "zipf-serve": ("perfbench.zipf_serve", "ZipfServe"),
    "ingest-serve": ("perfbench.ingest_serve", "IngestServe"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    # Temp directories (the live corpus, spawned workers' scratch) stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)

    from perfbench.harness import host_fingerprint, peak_rss_mb, stop_child_processes
    from perfbench.instrument import unit_of
    from perfbench.workload import measure

    module, cls = WORKLOADS[args.workload]
    try:
        workload = getattr(importlib.import_module(module), cls)(
            args.seed, workdir, args.seconds
        )
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    result["peak_rss_mb"] = peak_rss_mb()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(ROOT),
        "result": result,
    }
    text = json.dumps(report, indent=1, sort_keys=True, default=str)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workdir / name).write_text(text + "\n", encoding="utf-8")
    print(text)

    if args.trace:
        values = result["layers"]["metrics"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
