"""The dataset table: one feature row per (graph name, subcategory).

Real networks carry subcategory "Real"; their generated counterparts
carry the model name and share the original's ``name`` column, which is
how goodness-of-fit pairs them up.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .fitting import MODELS
from .graph import InputError, utf8_text
from .metrics import CSV_HEADER, METRIC_FIELDS, FeatureVector

DOMAINS = ("social", "food", "brain", "chems")
CATEGORIES = ("real", "model")
# Report order, the columns of distance_<domain>.csv: the real graphs,
# then 2K and CBA, then the other models in pipeline order.
SUBCATEGORIES = ("Real", "2K", "CBA") + tuple(
    spec.name for spec in MODELS if spec.name not in ("2K", "CBA")
)


class DatasetError(InputError):
    """Malformed dataset table or CSV."""


@dataclass(frozen=True)
class DatasetRow:
    name: str
    features: FeatureVector
    domain: str
    category: str
    subcategory: str


def _check_row(row, seen):
    """DatasetError if ``row`` is malformed or its key is in ``seen``; adds the key."""
    if row.domain not in DOMAINS:
        raise DatasetError(f"unknown domain {row.domain!r} for {row.name!r}")
    if row.category not in CATEGORIES:
        raise DatasetError(f"unknown category {row.category!r} for {row.name!r}")
    if row.subcategory not in SUBCATEGORIES:
        raise DatasetError(f"unknown subcategory {row.subcategory!r} for {row.name!r}")
    if (row.category == "real") != (row.subcategory == "Real"):
        raise DatasetError(f"category/subcategory mismatch for {row.name!r}")
    key = (row.name, row.subcategory)
    if key in seen:
        raise DatasetError(f"duplicate row {key}")
    seen.add(key)
    for field_name in METRIC_FIELDS:
        if not math.isfinite(getattr(row.features, field_name)):
            raise DatasetError(f"non-finite {field_name} for {row.name!r}")


def _cell(record, i, kind):
    """Column i of a CSV record as ``kind`` (int or float)."""
    try:
        return kind(record[i])
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise DatasetError(f"{CSV_HEADER[i]} must be {expected}, got {record[i]!r}") from None


def _feature_cells(name, fv):
    """The name and feature columns of one CSV row, floats written exactly."""
    return [name, fv.size] + [repr(getattr(fv, f)) for f in METRIC_FIELDS]


def csv_text(header, rows):
    """CSV text of ``header`` and then ``rows``; every line ends in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class DatasetTable:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for row in self.rows:
            _check_row(row, seen)

    def __len__(self):
        return len(self.rows)

    @classmethod
    def _checked(cls, rows):
        """Table of ``rows`` that were already checked together, without checking again."""
        table = object.__new__(cls)
        object.__setattr__(table, "rows", tuple(rows))
        return table

    def filter(self, domain=None, category=None, exclude_subcategories=()):
        kept = [
            r
            for r in self.rows
            if (domain is None or r.domain == domain)
            and (category is None or r.category == category)
            and r.subcategory not in exclude_subcategories
        ]
        return self._checked(kept)

    def domains_present(self):
        return tuple(d for d in DOMAINS if any(r.domain == d for r in self.rows))

    def subcategories_present(self):
        return tuple(s for s in SUBCATEGORIES if any(r.subcategory == s for r in self.rows))

    def metric_matrix(self):
        """len(rows) x 7 array of the topological metrics, row order preserved."""
        return np.array([r.features.metric_values() for r in self.rows], dtype=float)

    def to_csv_text(self):
        return csv_text(
            CSV_HEADER,
            (_feature_cells(r.name, r.features) + [r.domain, r.category, r.subcategory]
             for r in self.rows),
        )

    @classmethod
    def from_csv_text(cls, text):
        return cls._read(io.StringIO(text), "dataset <text>")

    @classmethod
    def from_csv(cls, path):
        source = f"dataset {path}"
        text = utf8_text(path, lambda line: DatasetError(f"{source}:{line}: not UTF-8 text"))
        return cls._read(io.StringIO(text, newline=None), source)

    @classmethod
    def _read(cls, lines, source):
        """Table from CSV lines; a DatasetError reads ``<source>:<line>: ...``."""
        reader = csv.reader(lines)
        rows = []
        seen = set()
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError("empty file")
            if tuple(header) != CSV_HEADER:
                missing = [c for c in CSV_HEADER if c not in header]
                raise DatasetError(f"header mismatch; missing columns: {missing}")
            for record in reader:
                if not record:
                    continue
                if len(record) != len(CSV_HEADER):
                    raise DatasetError(
                        f"row has {len(record)} fields, expected {len(CSV_HEADER)}"
                    )
                fv = FeatureVector(
                    size=_cell(record, 1, int),
                    **{f: _cell(record, 2 + i, float) for i, f in enumerate(METRIC_FIELDS)},
                )
                row = DatasetRow(record[0], fv, *record[9:])
                _check_row(row, seen)
                rows.append(row)
        except (DatasetError, csv.Error) as exc:
            raise DatasetError(f"{source}:{max(reader.line_num, 1)}: {exc}") from None
        return cls._checked(rows)


def write_feature_csv(named_features):
    """Feature-only CSV text (no domain/category/subcategory columns).

    ``named_features`` is a sequence of (name, FeatureVector).
    """
    return csv_text(CSV_HEADER[:9], (_feature_cells(name, fv) for name, fv in named_features))
