"""Experiment harness: regenerate every table and figure of the paper.

* ``figure7``  — dataset statistics (|T|/l, |PST_l|, label mass)
* ``figure8``  — index space vs threshold, all four indexes (+ASCII charts)
* ``figure9``  — MOL estimation error at matched space, PST vs CPST
* ``errorbounds`` — empirical validation of Theorems 7/10 (X1)
* ``ablation`` — halving / m vs n/l / wavelet / encodings / bounds (X3)
* ``scaling`` — bits per symbol flat in n at fixed l (X5)
* ``errordist`` — distribution of the APX additive error (X6)
* ``estimators`` — KVI vs MO vs MOC vs MOL vs MOLC (X7)
* ``budget`` — space budget -> affordable threshold -> MOL error (X8)

``repro.experiments.report.generate`` runs everything into one markdown
document (CLI: ``repro report``). Every experiment builds its indexes
from one :class:`~repro.build.BuildContext` per corpus and samples its
workload with :func:`~repro.textutil.sample_from_text`.
"""

from . import (
    ablation,
    budget,
    corpora,
    errorbounds,
    errordist,
    estimators,
    figure7,
    figure8,
    figure9,
    runner,
    scaling,
)
from .runner import EXPERIMENTS, run

__all__ = [
    "ablation",
    "budget",
    "corpora",
    "errorbounds",
    "figure7",
    "figure8",
    "figure9",
    "runner",
    "scaling",
    "errordist",
    "estimators",
    "EXPERIMENTS",
    "run",
]
