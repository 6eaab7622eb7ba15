"""Output checks made apart from netfit.

Every value netfit writes is compared with a recomputation from the
files it read or wrote, made with networkx, scipy and numpy only
(never with netfit), or with a property the method must have. No check
compares against a stored copy of an earlier output.

Each ``check_*`` function adds to a :class:`Report`; a check that finds
a wrong value records one line naming the file and the value.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import canberra
from scipy.stats import skew

from inputs import read_csv_rows, read_manifest

METRICS = ("density", "assort", "avg_clust", "avg_deg", "max_eigenv_c", "avg_path_length",
           "skew_deg_dist")
FEATURES = ("size",) + METRICS
# Largest differences seen: 2.4e-14 on the corpus (float summation order);
# for the eigenvector 6.4e-11 on the corpus and 2.3e-10 on a near-lattice
# WS at n = 10^4 (power iteration stops at a residual of 1e-10, so its
# vector error is about residual / spectral gap).
TOLERANCE = 1e-9
EIGEN_TOLERANCE = 1e-7
BFS_WORDS = 8  # 64 * BFS_WORDS sources per multi-source BFS sweep


class Report:
    """Passed checks, failure lines, checks that could not apply, and
    operations that fail every time through a known fault in netfit."""

    def __init__(self):
        self.passed = 0
        self.failures = []
        self.skipped = Counter()
        self.faults = Counter()

    def expect(self, ok, message):
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)
        return ok

    def close(self, what, got, want, tol=TOLERANCE):
        ok = math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))
        return self.expect(ok, f"{what}: netfit {got!r}, recomputed {want!r}")

    @property
    def ok(self):
        return not self.failures


# ---------------------------------------------------------------------------
# independent graph measurements


class EdgeFile:
    """An edge-list file as undirected simple graph arrays.

    Tokens get ids in order of first appearance, as an edge-list reader
    must; with ``size`` the tokens are taken as node ids 0..size-1
    instead, which keeps isolated nodes that the file cannot show.
    """

    def __init__(self, path, size=None):
        pairs = [line.split()[:2] for line in Path(path).read_text(encoding="utf-8").splitlines()
                 if line.strip() and not line.lstrip().startswith(("#", "%"))]
        if size is None:
            ids = {}
            flat = [ids.setdefault(tok, len(ids)) for pair in pairs for tok in pair]
            self.n = len(ids)
        else:
            flat = [int(tok) for pair in pairs for tok in pair]
            self.n = size
        arr = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
        arr = arr[arr[:, 0] != arr[:, 1]]
        arr = np.unique(np.sort(arr, axis=1), axis=0)
        self.edges = arr
        self.m = len(arr)
        self.in_range = bool(arr.size == 0 or (arr.min() >= 0 and arr.max() < self.n))

    def adjacency(self):
        u, v = self.edges[:, 0], self.edges[:, 1]
        a = sp.coo_matrix((np.ones(2 * self.m), (np.r_[u, v], np.r_[v, u])),
                          shape=(self.n, self.n)).tocsr()
        a.sort_indices()
        return a

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def joint_degree_matrix(self):
        deg = self.degrees()
        a, b = deg[self.edges[:, 0]], deg[self.edges[:, 1]]
        return Counter(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def distance_totals(adj):
    """(sum of distances, pair count) over ordered reachable pairs u != v.

    Multi-source BFS: each sweep carries 64 * BFS_WORDS sources as bits
    of uint64 words and expands only the nodes reached in the last step.
    """
    n = adj.shape[0]
    indptr = adj.indptr.astype(np.int64)
    indices = adj.indices.astype(np.int64)
    deg = np.diff(indptr)
    width = 64 * BFS_WORDS
    total = 0
    pairs = 0
    for base in range(0, n, width):
        bits = np.arange(min(width, n - base))
        seen = np.zeros((n, BFS_WORDS), dtype=np.uint64)
        seen[base + bits, bits // 64] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
        active = base + bits
        front = seen[active]
        dist = 0
        while active.size:
            dist += 1
            cnt = deg[active]
            offsets = np.repeat(indptr[active] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
            targets = indices[offsets]
            values = np.repeat(front, cnt, axis=0)
            order = np.argsort(targets, kind="stable")
            targets, values = targets[order], values[order]
            first = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
            reached = targets[first]
            new = np.bitwise_or.reduceat(values, first, axis=0) & ~seen[reached]
            keep = new.any(axis=1)
            active, front = reached[keep], new[keep]
            found = int(np.bitwise_count(front).sum())
            total += dist * found
            pairs += found
            seen[active] |= front
    return total, pairs


def _networkx(graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(graph.edges.tolist())
    return nxg


def degree_features(graph, nxg=None):
    """size, density, avg_deg, assort and skew_deg_dist: what a JDM fixes."""
    n, m = graph.n, graph.m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assort = nx.degree_assortativity_coefficient(nxg or _networkx(graph))
        skewness = float(skew(graph.degrees().astype(float), bias=True))
    return {
        "size": n,
        "density": m / (n * (n - 1) / 2),
        "avg_deg": 2 * m / n,
        "assort": 0.0 if math.isnan(assort) else float(assort),
        "skew_deg_dist": 0.0 if math.isnan(skewness) else skewness,
    }


def measure(graph):
    """The eight features of an :class:`EdgeFile`, plus whether it is connected."""
    n = graph.n
    adj = graph.adjacency()
    nxg = _networkx(graph)
    features = degree_features(graph, nxg)
    connected = connected_components(adj, directed=False)[0] == 1
    if connected and n > 2:
        _, vec = eigsh(adj.astype(float), k=1, which="LA", tol=0.0)
        eigen = float(np.abs(vec[:, 0]).max())
    else:
        eigen = math.nan
    total, pairs = distance_totals(adj)
    features.update(avg_clust=float(nx.average_clustering(nxg)), max_eigenv_c=eigen,
                    avg_path_length=(total / pairs) / (n - 1))
    return features, connected


def compare_row(report, label, row, graph):
    """Compare one netfit feature row with a recomputation from ``graph``."""
    if not report.expect(graph.in_range, f"{label}: node id outside 0..{graph.n - 1}"):
        return
    want, connected = measure(graph)
    report.expect(int(row["size"]) == want["size"],
                  f"{label} size: netfit {row['size']}, recomputed {want['size']}")
    for metric in METRICS:
        if metric == "max_eigenv_c" and not connected:
            report.skipped["eigenvector on a disconnected graph"] += 1
            continue
        tol = EIGEN_TOLERANCE if metric == "max_eigenv_c" else TOLERANCE
        report.close(f"{label} {metric}", float(row[metric]), want[metric], tol)


def _fit_params(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))["params"]


def check_edge_count(report, label, model, params, edges):
    """WS keeps n*K/2 edges; CBA has C(m,2) + (n-m)*m."""
    if model in ("WS", "WS_STD"):
        want = params["n"] * params["K"] // 2
    elif model == "CBA":
        want = params["m"] * (params["m"] - 1) // 2 + (params["n"] - params["m"]) * params["m"]
    else:
        return
    report.expect(edges == want, f"{label}: {edges} edges, the {model} model gives {want}")


def check_2k_copy(report, label, row, real):
    """A 2K counterpart reproduces density, avg_deg, assort and skewness exactly."""
    for metric in ("size", "density", "avg_deg", "assort", "skew_deg_dist"):
        report.expect(float(row[metric]) == float(real[metric]),
                      f"{label} {metric}: 2K {row[metric]} != original {real[metric]}")


# ---------------------------------------------------------------------------
# corpus_pipeline


def check_dataset(report, run_dir, manifest, models):
    """Every dataset.csv row recomputed from the edge lists, plus model laws."""
    run_dir = Path(run_dir)
    rows = read_csv_rows(run_dir / "dataset.csv")
    by_key = {(r["name"], r["subcategory"]): r for r in rows}
    entries = read_manifest(manifest)
    report.expect(len(rows) == len(entries) * (1 + len(models)) and len(by_key) == len(rows),
                  f"dataset.csv: {len(rows)} rows for {len(entries)} graphs")
    for name, path, domain in entries:
        real = by_key.get((name, "Real"))
        if not report.expect(real is not None, f"dataset.csv: no Real row for {name}"):
            continue
        report.expect(real["domain"] == domain, f"dataset.csv {name}: domain {real['domain']}")
        original = EdgeFile(path)
        compare_row(report, f"dataset.csv {name}/Real", real, original)
        for model in models:
            row = by_key.get((name, model))
            label = f"dataset.csv {name}/{model}"
            if not report.expect(row is not None, f"{label}: missing"):
                continue
            report.expect(row["size"] == real["size"],
                          f"{label} size {row['size']} != original {real['size']}")
            graph = EdgeFile(run_dir / "graphs" / f"{name}_{model}.txt", size=int(row["size"]))
            compare_row(report, label, row, graph)
            params = _fit_params(run_dir / "fits" / f"{name}_{model}.json")
            check_edge_count(report, label, model, params, graph.m)
            if model == "2K":
                check_2k_copy(report, label, row, real)
                report.expect(graph.joint_degree_matrix() == original.joint_degree_matrix(),
                              f"{label}: joint degree matrix differs from the original's")
    return rows


def _matrix_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    header = lines[0][1:]
    return header, {r[0]: dict(zip(header, r[1:])) for r in lines[1:]}


# gof writes correlation cells with repr() of numpy scalars, which numpy 2
# prints as "np.float64(0.5)": not a number a CSV reader can parse.
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _correlation_cell(report, path, text):
    """The number in one correlation cell; a numpy repr counts as a faulty file."""
    found = NUMPY_REPR.fullmatch(text)
    if found:
        report.faults[f"{path.name} written with numpy reprs"] = 1
        return float(found.group(1))
    return float(text)


def check_gof(report, run_dir, rows):
    """Mean Canberra distances and metric correlations recomputed from dataset.csv."""
    gof = Path(run_dir) / "gof"
    vectors = {}
    for r in rows:
        vectors.setdefault(r["domain"], {}).setdefault(r["name"], {})[r["subcategory"]] = \
            np.array([float(r[m]) for m in METRICS])
    for domain, names in vectors.items():
        subs, table = _matrix_csv(gof / f"distance_{domain}.csv")
        for a in subs:
            for b in subs:
                dists = [canberra(v[a], v[b]) for v in names.values() if a in v and b in v]
                cell = table[a][b]
                if not dists:
                    report.expect(cell == "", f"distance_{domain}.csv {a},{b}: {cell!r}")
                    continue
                report.close(f"distance_{domain}.csv {a},{b}", float(cell), float(np.mean(dists)),
                             1e-12)
        real = np.array([v["Real"] for v in names.values() if "Real" in v])
        if len(real) < 3:
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.nan_to_num(np.corrcoef(real, rowvar=False))
        np.fill_diagonal(want, 1.0)
        path = gof / f"correlation_{domain}.csv"
        _, corr = _matrix_csv(path)
        for i, a in enumerate(METRICS):
            for j, b in enumerate(METRICS):
                report.close(f"{path.name} {a},{b}", _correlation_cell(report, path, corr[a][b]),
                             want[i, j], 1e-12)
    real_rows = sum(1 for r in rows if r["subcategory"] == "Real")
    pca = read_csv_rows(gof / "pca.csv")
    report.expect(len(pca) == real_rows, f"pca.csv: {len(pca)} rows for {real_rows} real graphs")


def check_classify(report, clf_dir, rows, excluded=("WS_STD",)):
    """Confusion matrices sum to the task's rows; accuracy is trace / total."""
    reports = sorted(Path(clf_dir).glob("eval_*.json"))
    report.expect(bool(reports), f"{clf_dir}: no classification reports")
    for path in reports:
        obj = json.loads(path.read_text(encoding="utf-8"))
        conf = np.array(obj["confusion_matrix"])
        if obj["task"] == "domain":
            want = sum(1 for r in rows if r["category"] == "real")
        else:
            want = sum(1 for r in rows
                       if r["domain"] == obj["domain"] and r["subcategory"] not in excluded)
        report.expect(int(conf.sum()) == want,
                      f"{path.name}: confusion matrix sums to {int(conf.sum())}, task has {want}")
        report.expect(obj["pooled_accuracy"] == float(np.trace(conf)) / conf.sum(),
                      f"{path.name}: accuracy {obj['pooled_accuracy']} != trace / total")
        header, table = _matrix_csv(path.with_name(path.stem + "_confusion.csv"))
        csv_conf = np.array([[int(table[a][b]) for b in header] for a in header])
        report.expect(np.array_equal(csv_conf, conf), f"{path.name}: confusion CSV differs")


# ---------------------------------------------------------------------------
# stability_n1000

# (model, metric) cells whose spread over replicates must be exactly zero
ZERO_SPREAD = {("2K", "density"), ("2K", "assort"), ("2K", "skew_deg_dist"),
               ("WS", "density"), ("WS", "avg_deg")}


def check_stability(report, path, graph_path, models, replicates):
    """Envelope laws of stability.csv and exact 2K reproduction of the input."""
    rows = read_csv_rows(path)
    report.expect(len(rows) == len(models) * len(FEATURES),
                  f"stability.csv: {len(rows)} rows, expected {len(models) * len(FEATURES)}")
    original = EdgeFile(graph_path)
    want = degree_features(original)
    for r in rows:
        label = f"stability.csv {r['model']}/{r['metric']}"
        v = {k: float(r[k]) for k in ("mean", "std", "min", "q1", "median", "q3", "max")}
        report.expect(v["min"] <= v["q1"] <= v["median"] <= v["q3"] <= v["max"],
                      f"{label}: quartiles out of order {v}")
        report.expect(v["min"] <= v["mean"] <= v["max"], f"{label}: mean outside [min, max]")
        report.expect(int(r["failures"]) == 0, f"{label}: {r['failures']} failed replicates")
        report.expect(int(r["replicates"]) == replicates,
                      f"{label}: {r['replicates']} replicates, expected {replicates}")
        if r["metric"] == "size" or (r["model"], r["metric"]) in ZERO_SPREAD:
            report.expect(v["std"] == 0.0, f"{label}: std {v['std']!r}, must be 0")
        if r["metric"] == "size":
            report.expect(v["mean"] == original.n, f"{label}: {v['mean']} nodes, input has "
                                                   f"{original.n}")
        if r["model"] == "2K" and r["metric"] in ("density", "avg_deg", "assort",
                                                  "skew_deg_dist"):
            report.close(f"{label} against the input graph", v["mean"], want[r["metric"]])
    return rows


# ---------------------------------------------------------------------------
# large_graphs


def check_large(report, measure_csv, outputs, reports, jdm_entries, jdm_source):
    """Each measure row recomputed from its file; model laws; 2K keeps the JDM.

    ``jdm_source`` is the edge list the 2K report's JDM was taken from:
    the 2K output must match its density, degree, assortativity and skew.
    """
    rows = {r["name"]: r for r in read_csv_rows(measure_csv)}
    report.expect(len(rows) == len(outputs), f"{measure_csv}: {len(rows)} rows")
    for model, path in outputs.items():
        row = rows.get(Path(path).stem)
        label = f"measure {Path(path).name}"
        if not report.expect(row is not None, f"{label}: missing row"):
            continue
        graph = EdgeFile(path)
        compare_row(report, label, row, graph)
        params = _fit_params(reports[model])
        check_edge_count(report, label, model, params, graph.m)
        if model == "2K":
            want = Counter({(k, l): c for k, l, c in jdm_entries})
            report.expect(graph.joint_degree_matrix() == want,
                          f"{label}: joint degree matrix differs from the input one")
            source = degree_features(EdgeFile(jdm_source))
            for metric in ("size", "density", "avg_deg", "assort", "skew_deg_dist"):
                report.close(f"{label} {metric} against the JDM source graph",
                             float(row[metric]), source[metric])
