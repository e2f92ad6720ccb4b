"""Shared fixtures for the benchmark suite.

Corpus size is tunable via ``REPRO_BENCH_SIZE`` (default 20 000 symbols —
large enough for every paper shape to show, small enough that the whole
suite runs in a few minutes of pure Python). Every figure bench writes its
regenerated table to ``benchmarks/results/`` so the artefacts survive the
run even without ``-s``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.build import BuildContext
from repro.datasets import dataset_names, generate
from repro.textutil import sample_from_text

BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "20000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_size() -> int:
    return BENCH_SIZE


@pytest.fixture(scope="session")
def contexts() -> dict[str, BuildContext]:
    """One BuildContext per paper corpus, shared across the session."""
    return {
        name: BuildContext(generate(name, BENCH_SIZE, BENCH_SEED), name=name)
        for name in dataset_names()
    }


def sample_patterns(ctx: BuildContext, length: int, count: int) -> list[str]:
    """The Figure 9 workload: ``count`` substrings of ``ctx``'s text,
    seeded by the corpus seed and the length, as the experiments draw it."""
    return sample_from_text(ctx.text, length, count, seed=(BENCH_SEED, 1, length))


@pytest.fixture(scope="session")
def save_report():
    """Persist a regenerated table under benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, content: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(content + "\n", encoding="utf-8")
        return path

    return _save
