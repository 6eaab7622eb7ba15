"""Replicate fitted models and summarize the spread of each metric.

For every fit, R graphs are generated with derived seeds and measured;
the per-metric distribution is reported as mean/std plus a five-number
summary (quartiles by linear interpolation). This is the data behind
model-stability boxplots.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import seeds
from .dataset import csv_text
from .generators import generate
from .graph import ItemFailure
from .metrics import METRIC_FIELDS, feature_vector

SUMMARY_FIELDS = ("size",) + METRIC_FIELDS


class StabilityError(ItemFailure, RuntimeError):
    """Raised when more than half of a model's replicates fail."""


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass(frozen=True)
class StabilitySummary:
    """Per (model, metric) distribution statistics over R replicates."""

    models: tuple
    replicates: int
    cells: dict  # (model, metric) -> MetricSummary
    failures: dict  # model -> failure count

    def get(self, model, metric):
        return self.cells[(model, metric)]

    def to_csv_text(self):
        return csv_text(
            ["model", "metric", "mean", "std", "min", "q1", "median", "q3", "max",
             "failures", "replicates"],
            ([model, metric]
             + [repr(v) for v in astuple(self.cells[(model, metric)])]
             + [self.failures[model], self.replicates]
             for model in self.models for metric in SUMMARY_FIELDS),
        )


def _summarize(values):
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        # point mass: report exactly zero spread (np.mean of n identical
        # floats can differ from them in the last bit, leaking ~1e-17 std)
        return MetricSummary(mean=lo, std=0.0, min=lo, q1=lo, median=lo, q3=lo, max=hi)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])  # linear (type 7)
    return MetricSummary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        min=lo,
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        max=hi,
    )


def stability_run(g, fits, replicates=30, seed=0):
    """Generate ``replicates`` graphs per fit and summarize every metric.

    Replicate seeds are the model's derived master seed XOR the replicate
    index, so the summary is independent of evaluation order. Failed
    replicates (an ItemFailure in generation or measurement) are excluded
    and counted; a model failing more than half its replicates is an error.
    """
    if replicates < 2:
        raise ValueError("stability needs at least 2 replicates")
    cells = {}
    failures = {}
    models = tuple(fit.model for fit in fits)
    for fit in fits:
        master = seeds.derive(seed, fit.model)
        rows = []
        failed = 0
        for index in range(replicates):
            try:
                h = generate(fit.params, seeds.xor_index(master, index))
                rows.append(feature_vector(h))
            except ItemFailure:
                failed += 1
        if failed * 2 > replicates:
            raise StabilityError(
                f"{fit.model}: {failed} of {replicates} replicates failed"
            )
        failures[fit.model] = failed
        for metric in SUMMARY_FIELDS:
            cells[(fit.model, metric)] = _summarize([getattr(fv, metric) for fv in rows])
    return StabilitySummary(models=models, replicates=replicates, cells=cells, failures=failures)
