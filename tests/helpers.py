"""Shared test utilities: independent oracles and graph construction.

The oracles deliberately take different computational routes than the
library (dense Floyd-Warshall vs bitset BFS, numpy eigendecomposition vs
power iteration, explicit pair enumeration vs degree-class aggregation)
so agreement is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np

from netfit.graph import Graph, GraphBuilder


def graph_from_edges(n, edges):
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def dense_adjacency(g):
    a = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


# ---------------------------------------------------------------------------
# Brute-force metric oracles


def oracle_density(g):
    n = g.node_count
    return g.edge_count / (n * (n - 1) / 2)


def oracle_average_degree(g):
    return 2 * g.edge_count / g.node_count


def oracle_assortativity(g):
    """Direct Pearson over both orientations of every edge."""
    deg = [g.degree(u) for u in range(g.node_count)]
    xs, ys = [], []
    for u, v in g.edges():
        xs.extend([deg[u] - 1, deg[v] - 1])
        ys.extend([deg[v] - 1, deg[u] - 1])
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    if np.var(xs) == 0.0 or np.var(ys) == 0.0:
        return 0.0  # degenerate convention
    return float(np.corrcoef(xs, ys)[0, 1])


def oracle_average_clustering(g):
    """Neighbor-pair enumeration per node."""
    total = 0.0
    for u in range(g.node_count):
        nbrs = g.adjacency[u]
        if len(nbrs) < 2:
            continue
        linked = sum(
            1 for s, t in itertools.combinations(nbrs, 2) if t in g.neighbor_sets[s]
        )
        total += linked / (len(nbrs) * (len(nbrs) - 1) / 2)
    return total / g.node_count


def oracle_max_eigenvector_centrality(g):
    """Dense symmetric eigendecomposition; principal vector, unit norm."""
    a = dense_adjacency(g)
    eigvals, eigvecs = np.linalg.eigh(a)
    vec = eigvecs[:, int(np.argmax(eigvals))]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return float(np.max(vec))


def oracle_avg_path_length_normalized(g):
    """Floyd-Warshall all-pairs distances, pooled over components."""
    n = g.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges():
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    mask = np.isfinite(dist) & ~np.eye(n, dtype=bool)
    if not mask.any():
        raise ValueError("no reachable pairs")
    return float(dist[mask].mean()) / (n - 1)


def oracle_degree_skewness(g):
    deg = np.array([g.degree(u) for u in range(g.node_count)], dtype=float)
    m2 = float(np.mean((deg - deg.mean()) ** 2))
    m3 = float(np.mean((deg - deg.mean()) ** 3))
    return 0.0 if m2 == 0.0 else m3 / m2**1.5


ORACLES = {
    "density": oracle_density,
    "assort": oracle_assortativity,
    "avg_clust": oracle_average_clustering,
    "avg_deg": oracle_average_degree,
    "max_eigenv_c": oracle_max_eigenvector_centrality,
    "avg_path_length": oracle_avg_path_length_normalized,
    "skew_deg_dist": oracle_degree_skewness,
}


def oracle_jdm_entries(g):
    deg = [g.degree(u) for u in range(g.node_count)]
    out = {}
    for u, v in g.edges():
        key = tuple(sorted((deg[u], deg[v])))
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Reference generators: the per-edge builder versions the library replaced


def reference_generate_dd(params, seed):
    """Duplication-divergence through a set-based builder, one coin per call."""
    n, p = params.n, params.p
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(2)
    builder.add_edge(0, 1)
    while builder.node_count < n:
        v = int(rng.integers(builder.node_count))
        kept = [u for u in sorted(builder.neighbors(v)) if rng.random() < p]
        if not kept:
            continue
        replica = builder.add_node()
        for u in kept:
            builder.add_edge(replica, u)
    return builder.build()


def reference_triangular_unrank(cell, s):
    """One cell index in [0, C(s,2)) -> (u, v), u < v, by walking the rows."""
    u = 0
    row = s - 1
    while cell >= row:
        cell -= row
        u += 1
        row -= 1
    return u, u + 1 + cell


def reference_generate_community(params, seed):
    """Planted partition placing one sampled cell at a time into a builder."""
    from netfit.generators import _sample_distinct

    sizes = params.sizes
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(params.n)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    for gi, s in enumerate(sizes):
        pairs_total = s * (s - 1) // 2
        if pairs_total == 0 or params.p_in == 0.0:
            continue
        count = int(rng.binomial(pairs_total, params.p_in))
        for cell in _sample_distinct(rng, pairs_total, count):
            u, v = reference_triangular_unrank(int(cell), s)
            builder.add_edge(offsets[gi] + u, offsets[gi] + v)
    for gi in range(len(sizes)):
        for gj in range(gi + 1, len(sizes)):
            if params.p_out == 0.0:
                continue
            cells_total = sizes[gi] * sizes[gj]
            count = int(rng.binomial(cells_total, params.p_out))
            for cell in _sample_distinct(rng, cells_total, count):
                u, v = divmod(int(cell), sizes[gj])
                builder.add_edge(offsets[gi] + u, offsets[gj] + v)
    return builder.build()


# ---------------------------------------------------------------------------
# Reference CART: the numpy-array tree growth the library replaced


def reference_gini_split_score(col, labels, n_classes):
    """Best (weighted Gini, threshold) by a row-by-row scan with count-vector dot products."""
    order = np.argsort(col, kind="stable")
    values = col[order]
    classes = labels[order]
    n = len(values)
    left = np.zeros(n_classes)
    right = np.bincount(classes, minlength=n_classes).astype(float)
    best = None
    for i in range(n - 1):
        c = classes[i]
        left[c] += 1
        right[c] -= 1
        if values[i + 1] <= values[i]:
            continue
        nl = i + 1
        nr = n - nl
        gini_l = 1.0 - float(left @ left) / (nl * nl)
        gini_r = 1.0 - float(right @ right) / (nr * nr)
        score = (nl * gini_l + nr * gini_r) / n
        if best is None or score < best[0] - 1e-12:
            best = (score, (values[i] + values[i + 1]) / 2.0)
    return best


def reference_grow_tree(feats, labels, n_classes, config, depth, rng):
    """CART subtree over the rows of ``feats``, splitting by boolean masks."""
    from netfit.classify import TreeNode

    counts = np.bincount(labels, minlength=n_classes)
    node_counts = tuple(int(c) for c in counts)
    n = len(labels)
    pure = int(np.max(counts)) == n
    if (
        pure
        or n < config.min_samples_split
        or (config.max_depth is not None and depth >= config.max_depth)
    ):
        return TreeNode(counts=node_counts)
    d = feats.shape[1]
    if config.features_per_split is not None and config.features_per_split < d:
        candidates = np.sort(rng.choice(d, size=config.features_per_split, replace=False))
    else:
        candidates = np.arange(d)
    best = None
    for f in candidates:
        scored = reference_gini_split_score(feats[:, f], labels, n_classes)
        if scored is None:
            continue
        score, threshold = scored
        if best is None or score < best[0] - 1e-12:
            best = (score, int(f), threshold)
    if best is None:
        return TreeNode(counts=node_counts)
    _, f, threshold = best
    mask = feats[:, f] <= threshold
    left = reference_grow_tree(feats[mask], labels[mask], n_classes, config, depth + 1, rng)
    right = reference_grow_tree(feats[~mask], labels[~mask], n_classes, config, depth + 1, rng)
    return TreeNode(counts=node_counts, feature=f, threshold=threshold, left=left, right=right)


def reference_forest_roots(dataset, tree_config, trees, bootstrap, seed):
    """Root of every tree ``train_forest`` grows, by the same draws in the same order."""
    from netfit import seeds

    n = len(dataset)
    roots = []
    for i in range(trees):
        rng = np.random.default_rng(seeds.xor_index(seed, i))
        sample = rng.integers(n, size=n) if bootstrap else np.arange(n)
        roots.append(reference_grow_tree(dataset.features[sample], dataset.labels[sample],
                                         len(dataset.class_names), tree_config, 0, rng))
    return roots


# ---------------------------------------------------------------------------
# Partition / modularity brute force


def set_partitions(items):
    """All partitions of a sequence (Bell-number many; keep inputs tiny)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1 :]
        yield [[first]] + smaller


def best_partition_bruteforce(g, modularity_fn):
    best_q = -np.inf
    best = None
    for blocks in set_partitions(range(g.node_count)):
        community = [0] * g.node_count
        for cid, block in enumerate(blocks):
            for u in block:
                community[u] = cid
        q = modularity_fn(g, community)
        if q > best_q + 1e-12:
            best_q = q
            best = [frozenset(b) for b in blocks]
    return best_q, set(best)


# ---------------------------------------------------------------------------
# Graph samplers and enumeration


def random_connected_graph(rng, n_max=40, n_min=4):
    """Connected ER graph with random size/density (retries until connected)."""
    from netfit.graph import connected_components

    while True:
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.1, 0.5))
        builder = GraphBuilder(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    builder.add_edge(u, v)
        g = builder.build()
        if g.edge_count >= 1 and connected_components(g).count == 1:
            return g


def _edge_mask_graphs(n):
    """All labeled graphs on n nodes as frozensets of edges."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)


def _canonical(n, edges):
    best = None
    nodes = list(range(n))
    for perm in itertools.permutations(nodes):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_graph_edge_sets(n_max=7):
    """Every connected graph with 2..n_max nodes, one labeling per iso class.

    Levels up to 6 nodes are deduplicated by canonical form; the 7-node
    level is produced by vertex augmentation without dedup (every iso
    class appears at least once), trading duplicates for enumeration
    speed. Yields (n, edge_tuple).
    """
    level = {2: [((0, 1),)]}
    yield 2, ((0, 1),)
    for n in range(3, n_max + 1):
        parents = level[n - 1]
        produced = []
        seen = set()
        new = n - 1
        for parent in parents:
            for subset_bits in range(1, 1 << new):
                attach = [u for u in range(new) if subset_bits >> u & 1]
                edges = tuple(sorted(parent + tuple((u, new) for u in attach)))
                if n <= 6:
                    canon = _canonical(n, edges)
                    if canon in seen:
                        continue
                    seen.add(canon)
                produced.append(edges)
                yield n, edges
        level[n] = produced
        del level[n - 1]


# ---------------------------------------------------------------------------
# Synthetic "real-like" graphs for acceptance corpora


def pseudo_real_graph(rng, size, flavor="mixed"):
    """Clustered, hub-skewed graph no single model family reproduces.

    A planted-partition core supplies communities and clustering; a hub
    overlay of degree-proportional edges adds skew. Densities are set by
    target degrees (not fixed probabilities) so the recipe scales from
    corpus-sized graphs to the thousands-of-nodes stability targets.
    Flavors shift the mixture so domain proxies differ structurally.
    """
    from netfit.generators import CommunityParams, generate_community

    # groups, within-group degree, cross-group degree, hub share
    profiles = {
        "social": (4, 7.0, 1.2, 0.030),
        "food": (2, 10.0, 2.0, 0.020),
        "brain": (5, 8.0, 1.0, 0.025),
        "chems": (3, 6.0, 0.8, 0.012),
        "mixed": (3, 7.0, 1.5, 0.020),
    }
    groups, deg_in, deg_out, hub_fraction = profiles[flavor]
    sizes = []
    remaining = size
    for i in range(groups - 1):
        share = max(3, int(remaining * float(rng.uniform(0.5, 1.5)) / (groups - i)))
        share = min(share, remaining - 3 * (groups - i - 1))
        sizes.append(share)
        remaining -= share
    sizes.append(remaining)
    mean_group = size / groups
    p_in = min(0.9, deg_in * float(rng.uniform(0.8, 1.2)) / max(2.0, mean_group - 1))
    p_out = min(0.3, deg_out * float(rng.uniform(0.6, 1.4)) / max(2.0, size - mean_group))
    core = generate_community(
        CommunityParams(tuple(sizes), p_in, p_out), int(rng.integers(2**48))
    )
    builder = GraphBuilder(size)
    for u, v in core.edges():
        builder.add_edge(u, v)
    # hub overlay: a few nodes attract extra degree-proportional edges
    hubs = rng.choice(size, size=max(1, round(hub_fraction * size)), replace=False)
    for hub in sorted(int(h) for h in hubs):
        extra = int(rng.integers(4, 16))
        weights = np.array([builder.degree(u) + 1 for u in range(size)], dtype=float)
        weights[hub] = 0.0
        for _ in range(extra):
            target = int(rng.choice(size, p=weights / weights.sum()))
            if builder.add_edge(hub, target):
                weights[target] += 1.0
    # ensure no isolated nodes so metrics stay defined
    for u in range(size):
        if builder.degree(u) == 0:
            other = int(rng.integers(size - 1))
            builder.add_edge(u, other if other < u else other + 1)
    return builder.build()
