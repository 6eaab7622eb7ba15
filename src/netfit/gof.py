"""Goodness-of-fit scoring and exploratory structure of the dataset table.

Three views: mean Canberra distances between same-name feature vectors
of different subcategories (how close each model's counterpart is to the
original), Pearson correlation matrices of the metrics per domain, and a
two-component PCA projection. All of them work on the seven topological
metrics; size is excluded because a counterpart always shares it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetError, csv_text
from .metrics import METRIC_FIELDS


def canberra_distance(p, q):
    """Sum over coordinates of |p_i - q_i| / (|p_i| + |q_i|); 0/0 terms are 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size < 1:
        raise ValueError(f"vectors must share one dimension >= 1, got {p.shape} vs {q.shape}")
    total = 0.0
    for a, b in zip(p, q):
        denom = abs(a) + abs(b)
        if denom == 0.0:
            continue
        total += abs(a - b) / denom
    return total


@dataclass(frozen=True)
class DistanceMatrix:
    """Mean Canberra distances per domain between subcategory pairs.

    ``entries[domain][(sub_a, sub_b)]`` is (mean distance, matched pair
    count) or None when no same-name pair exists. ``unmatched`` lists
    (domain, name, missing subcategories) for incomplete name groups.
    """

    subcategories: tuple
    entries: dict
    unmatched: tuple

    def get(self, domain, sub_a, sub_b):
        return self.entries[domain].get((sub_a, sub_b))

    def to_csv_text(self, domain):
        rows = []
        for sub_a in self.subcategories:
            cells = [self.entries[domain].get((sub_a, sub_b)) for sub_b in self.subcategories]
            rows.append([sub_a] + ["" if entry is None else repr(entry[0]) for entry in cells])
        return csv_text(["", *self.subcategories], rows)


def mean_distance_matrix(table):
    """Mean Canberra distance between same-name rows of each subcategory pair."""
    subs = table.subcategories_present()
    by_domain_name = {}
    for row in table.rows:
        by_domain_name.setdefault(row.domain, {}).setdefault(row.name, {})[row.subcategory] = (
            row.features.metric_values()
        )
    entries = {}
    unmatched = []
    for domain in table.domains_present():
        domain_subs = tuple(
            s for s in subs if any(s in vecs for vecs in by_domain_name[domain].values())
        )
        for name in sorted(by_domain_name[domain]):
            missing = tuple(s for s in domain_subs if s not in by_domain_name[domain][name])
            if missing:
                unmatched.append((domain, name, missing))
        cell = {}
        for sub_a in subs:
            for sub_b in subs:
                dists = []
                for name in sorted(by_domain_name[domain]):
                    vecs = by_domain_name[domain][name]
                    if sub_a in vecs and sub_b in vecs:
                        dists.append(canberra_distance(vecs[sub_a], vecs[sub_b]))
                cell[(sub_a, sub_b)] = (float(np.mean(dists)), len(dists)) if dists else None
        entries[domain] = cell
    return DistanceMatrix(subcategories=subs, entries=entries, unmatched=tuple(unmatched))


@dataclass(frozen=True)
class CorrelationMatrix:
    """7x7 Pearson correlations between metrics, with degenerate columns flagged."""

    matrix: tuple
    degenerate: tuple  # names of flat metric columns (entries forced to 0)

    def to_csv_text(self):
        rows = [[name] + [repr(float(v)) for v in row]
                for name, row in zip(METRIC_FIELDS, self.matrix)]
        return csv_text(["", *METRIC_FIELDS], rows)


def correlation_matrix(table):
    """Pearson correlations between the metric columns of the table."""
    if len(table) < 3:
        raise ValueError(f"need at least 3 rows for correlations, have {len(table)}")
    data = table.metric_matrix()
    flat = _flat_columns(data)
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    varied = np.flatnonzero(~flat)
    out = np.eye(len(METRIC_FIELDS))
    for i in varied:
        for j in varied:
            if i != j:
                out[i, j] = float(centered[:, i] @ centered[:, j] / (norms[i] * norms[j]))
    return CorrelationMatrix(
        matrix=tuple(tuple(row) for row in out),
        degenerate=tuple(name for name, is_flat in zip(METRIC_FIELDS, flat) if is_flat),
    )


@dataclass(frozen=True)
class PcaProjection:
    """Rows projected on the two leading principal components."""

    rows: tuple  # (name, domain, subcategory, pc1, pc2)
    components: tuple  # 2 x 7 loadings

    def to_csv_text(self):
        return csv_text(["name", "domain", "pc1", "pc2"],
                        ([name, domain, repr(pc1), repr(pc2)]
                         for name, domain, _sub, pc1, pc2 in self.rows))


def _flat_columns(data):
    """Mask of the columns whose values are all equal (their std can still be ~1e-16)."""
    return data.max(axis=0) == data.min(axis=0)


def standardized_metrics(table):
    """Metric matrix with zero-mean, unit-variance columns (flat columns -> 0)."""
    data = table.metric_matrix()
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    out = np.zeros_like(data)
    varied = ~_flat_columns(data)
    out[:, varied] = (data[:, varied] - mean[varied]) / std[varied]
    return out


def pca_project(table):
    """Project standardized metric rows onto the two leading eigenvectors.

    Signs follow the convention that each component's largest-magnitude
    loading is positive. Raises ValueError on fewer than 3 rows and
    DatasetError on rank-0 data (every metric column flat).
    """
    if len(table) < 3:
        raise ValueError(f"need at least 3 rows for PCA, have {len(table)}")
    data = standardized_metrics(table)
    if not np.any(data):
        raise DatasetError("rank-0 data: all metric columns are constant")
    cov = (data.T @ data) / data.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    comps = []
    for idx in order[:2]:
        vec = eigvecs[:, idx]
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        comps.append(vec)
    projected = data @ np.stack(comps, axis=1)
    rows = tuple(
        (r.name, r.domain, r.subcategory, float(projected[i, 0]), float(projected[i, 1]))
        for i, r in enumerate(table.rows)
    )
    return PcaProjection(
        rows=rows,
        components=tuple(tuple(map(float, c)) for c in comps),
    )
