"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports netfit, so a change to the program never changes
the inputs it is measured on. The two small CSV readers that the other
modules share live here too, because this module loads nothing heavy. Every function takes a
``numpy.random.Generator`` made from the run's ``--seed`` and draws in a
fixed order, so one seed always gives the same files.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np

# stability_n1000: a planted-partition core with hub overlays, the recipe
# of tools/make_corpus.py scaled up. Sizes and probabilities are fixed;
# the seed draws only the edges, so run time hardly depends on the seed.
STABILITY_N = 1000
STABILITY_GROUPS = 8
STABILITY_P_IN = 0.06
STABILITY_P_OUT = 0.0015
STABILITY_HUB_FRACTION = 0.03
STABILITY_HUB_EDGES = 20

# large_graphs: one fit report per model at n = 10^4. The near-lattice WS
# (K = 10, p = 0.01) is held back: netfit's power iteration stops at its
# 10 000-step cap on that graph for some generate seeds, `netfit measure`
# then fails, and an operation that fails on some seeds only cannot be counted
# the same way in every run. It belongs here once power iteration converges.
LARGE_N = 10_000
LARGE_CBA = {"n": LARGE_N, "m": 4, "p": 0.5}
LARGE_DD = {"n": LARGE_N, "p": 0.45}
LARGE_COM_GROUPS = 10
LARGE_COM = {"sizes": [LARGE_N // LARGE_COM_GROUPS] * LARGE_COM_GROUPS,
             "p_in": 0.008, "p_out": 0.0002}
LARGE_2K_GROUPS = 20
LARGE_2K_P_IN = 0.012
LARGE_2K_P_OUT = 0.0001
LARGE_2K_HUB_FRACTION = 0.01
LARGE_2K_HUB_EDGES = 30
LARGE_MODELS = ("CBA", "DD", "Com", "2K")
LARGE_2K_SOURCE_SEED = 0


def _block_edges(rng, offsets, sizes, p_in, p_out):
    """Planted-partition edge set: (u, v) pairs with u < v, no duplicates."""
    n = int(sum(sizes))
    keys = []
    for base, s in zip(offsets, sizes):
        iu, iv = np.triu_indices(s, 1)
        count = int(rng.binomial(iu.size, p_in))
        cells = rng.choice(iu.size, size=count, replace=False)
        keys.append((base + iu[cells]) * n + (base + iv[cells]))
    block = np.repeat(np.arange(len(sizes)), sizes)
    cross_pairs = (n * (n - 1) - sum(s * (s - 1) for s in sizes)) // 2
    count = int(rng.binomial(cross_pairs, p_out))
    u = rng.integers(n, size=2 * count + 16)
    v = rng.integers(n, size=2 * count + 16)
    keep = block[u] != block[v]
    u, v = u[keep][:count], v[keep][:count]
    keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    return set(int(k) for k in np.concatenate(keys))


def _add_hubs(rng, n, keys, hub_fraction, hub_edges):
    """Degree-proportional extra links from a few hub nodes."""
    deg = np.zeros(n, dtype=np.int64)
    arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
    np.add.at(deg, arr // n, 1)
    np.add.at(deg, arr % n, 1)
    weights = (deg + 1) / float((deg + 1).sum())
    hubs = rng.choice(n, size=max(1, int(hub_fraction * n)), replace=False)
    for hub in np.sort(hubs):
        for target in rng.choice(n, size=hub_edges, p=weights):
            a, b = int(min(hub, target)), int(max(hub, target))
            if a != b:
                keys.add(a * n + b)


def _connect(rng, n, keys):
    """Join every component to the first one, so the graph is connected."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key in keys:
        a, b = find(key // n), find(key % n)
        if a != b:
            parent[max(a, b)] = min(a, b)
    root = find(0)
    giant = [u for u in range(n) if find(u) == root]
    for u in range(n):
        r = find(u)
        if r != find(0):
            w = giant[int(rng.integers(len(giant)))]
            keys.add(min(u, w) * n + max(u, w))
            parent[r] = find(0)


def pseudo_real_edges(rng, n, groups, p_in, p_out, hub_fraction, hub_edges):
    """Sorted (u, v) edges of a connected pseudo-real graph on nodes 0..n-1."""
    sizes = [n // groups + (1 if i < n % groups else 0) for i in range(groups)]
    offsets = np.cumsum([0] + sizes[:-1])
    keys = _block_edges(rng, offsets, sizes, p_in, p_out)
    _add_hubs(rng, n, keys, hub_fraction, hub_edges)
    _connect(rng, n, keys)
    return [divmod(k, n) for k in sorted(keys)]


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    """(name, edge-list path, domain) per row of a `name,path,domain` manifest."""
    base = Path(path).parent
    with open(path, encoding="utf-8", newline="") as fh:
        return [(r["name"], base / r["path"], r["domain"]) for r in csv.DictReader(fh)]


def write_edge_list(edges, path):
    Path(path).write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")


def joint_degree_entries(edges):
    """Sorted [k, l, count] rows (k <= l) of the graph's joint degree matrix."""
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    jdm = Counter()
    for u, v in edges:
        a, b = deg[u], deg[v]
        jdm[(min(a, b), max(a, b))] += 1
    return [[k, l, c] for (k, l), c in sorted(jdm.items())]


def _fit_report(model, params, seed):
    return {
        "model": model,
        "params": params,
        "objective_value": 0.0,
        "evaluations": 0,
        "replicates_per_eval": 0,
        "master_seed": seed,
        "notes": [],
    }


def make_stability_graph(seed, path):
    """Edge list of the ~1000-node graph for stability_n1000; returns its edges."""
    rng = np.random.default_rng([seed, 1])
    edges = pseudo_real_edges(rng, STABILITY_N, STABILITY_GROUPS, STABILITY_P_IN,
                              STABILITY_P_OUT, STABILITY_HUB_FRACTION, STABILITY_HUB_EDGES)
    write_edge_list(edges, path)
    return edges


def make_large_reports(seed, out_dir):
    """One fit-report JSON per model at n = 10^4.

    Returns ({model: report path}, the 2K JDM entries, the path of the
    edge list that JDM was taken from). The 2K source graph comes from a
    fixed seed: the mean distance of the 2K output ranged from 63 to 126
    hops over ten run seeds, and the path-length time with it, which
    would hide any change in the program. The run's seed draws the
    ``generate`` seeds.
    """
    rng = np.random.default_rng([LARGE_2K_SOURCE_SEED, 2])
    edges = pseudo_real_edges(rng, LARGE_N, LARGE_2K_GROUPS, LARGE_2K_P_IN, LARGE_2K_P_OUT,
                              LARGE_2K_HUB_FRACTION, LARGE_2K_HUB_EDGES)
    jdm = joint_degree_entries(edges)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = out_dir / "large_2K_source.txt"
    write_edge_list(edges, source)
    params = {
        "CBA": LARGE_CBA,
        "DD": LARGE_DD,
        "Com": LARGE_COM,
        "2K": {"jdm": {"entries": jdm}},
    }
    paths = {}
    for model in LARGE_MODELS:
        path = out_dir / f"large_{model}.json"
        path.write_text(json.dumps(_fit_report(model, params[model], seed), indent=2) + "\n",
                        encoding="utf-8")
        paths[model] = path
    return paths, jdm, source


def generate_seed(seed, model):
    """The --seed passed to `netfit generate` for one model's report."""
    return int(np.random.default_rng([seed, 3, LARGE_MODELS.index(model)]).integers(2**48))
