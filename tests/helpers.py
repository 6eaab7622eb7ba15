"""Shared test utilities: independent oracles and graph construction.

The oracles deliberately take different computational routes than the
library (dense Floyd-Warshall vs bitset BFS, numpy eigendecomposition vs
Lanczos, explicit pair enumeration vs degree-class aggregation)
so agreement is meaningful.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, deque

import numpy as np

from netfit.graph import COMMENT_PREFIXES, EdgeListError, Graph


class GraphBuilder:
    """Mutable accumulator of undirected edges; ``build()`` freezes a Graph.

    Single-owner: not safe to share across threads. Self-loops and
    duplicate edges are silently ignored so callers can feed raw pairs.
    """

    def __init__(self, node_count=0):
        self._adj = [set() for _ in range(node_count)]

    @property
    def node_count(self):
        return len(self._adj)

    def add_node(self):
        self._adj.append(set())
        return len(self._adj) - 1

    def ensure_node(self, u):
        while u >= len(self._adj):
            self.add_node()

    def add_edge(self, u, v):
        """Add undirected edge u-v; ignores self-loops and duplicates."""
        if u == v:
            return False
        self.ensure_node(max(u, v))
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        return True

    def remove_edge(self, u, v):
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u, v):
        return u < len(self._adj) and v in self._adj[u]

    def degree(self, u):
        return len(self._adj[u])

    def neighbors(self, u):
        return self._adj[u]

    def build(self):
        return graph_of_rows([sorted(nbrs) for nbrs in self._adj])


def graph_of_rows(rows):
    """``Graph(degrees, targets)`` whose node u links to the sorted row ``rows[u]``.

    The rows are flattened as given, not sorted, so rows that break an
    invariant reach the constructor's check as they are.
    """
    deg = np.array([len(row) for row in rows], dtype=np.int64)
    dst = np.array([v for row in rows for v in row], dtype=np.int64)
    return Graph(deg, dst)


def rows_of(g):
    """Sorted neighbour tuple per node, read through ``Graph.neighbors``."""
    return [g.neighbors(u) for u in range(g.node_count)]


def graph_from_edges(n, edges):
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def reference_parse_edge_list(text):
    """The per-node set parse that ``graph.parse_edge_list`` replaced."""
    ids = {}
    adj = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIXES):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise EdgeListError(f"line {lineno}: expected two node tokens, got {len(tokens)}")
        a, b = tokens[0], tokens[1]
        if a == b:
            continue
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(ids)
                adj.append(set())
        u, v = ids[a], ids[b]
        adj[u].add(v)
        adj[v].add(u)
    if not ids:
        raise EdgeListError("no usable edges in input")
    return graph_of_rows([sorted(nbrs) for nbrs in adj])


@dataclasses.dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component labels (dense, by discovery order) and sizes."""

    label: tuple
    component_sizes: tuple

    @property
    def count(self):
        return len(self.component_sizes)


def connected_components(g):
    """Label connected components by BFS; sizes sum to node_count."""
    n = g.node_count
    label = [-1] * n
    sizes = []
    for start in range(n):
        if label[start] >= 0:
            continue
        comp = len(sizes)
        label[start] = comp
        size = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if label[v] < 0:
                    label[v] = comp
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return ComponentLabeling(label=tuple(label), component_sizes=tuple(sizes))


def degree_sequence(g):
    """Degrees in node-id order; sums to 2*edge_count."""
    return tuple(g.degree_array.tolist())


def relabel(g, permutation):
    """Graph with node i renamed to permutation[i]."""
    n = g.node_count
    perm = tuple(permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    adj = [[] for _ in range(n)]
    for u in range(n):
        adj[perm[u]] = sorted(perm[v] for v in g.neighbors(u))
    return graph_of_rows(adj)


def jdm_edge_total(jdm):
    """Edges counted by a joint degree matrix."""
    return sum(jdm.entries.values())


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
    deg = g.degree_array.tolist()
    xs, ys = [], []
    for u, v in g.edges():
        xs.extend([deg[u] - 1, deg[v] - 1])
        ys.extend([deg[v] - 1, deg[u] - 1])
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    if np.var(xs) == 0.0 or np.var(ys) == 0.0:
        return 0.0  # degenerate convention
    return float(np.corrcoef(xs, ys)[0, 1])


def reference_average_clustering(g):
    """Node-wise mean of local clustering, summed by ``sum()`` in node order."""
    rows = rows_of(g)
    sets = [set(nbrs) for nbrs in rows]

    def local(u):
        d = len(rows[u])
        if d < 2:
            return 0.0
        return sum(len(sets[u] & sets[v]) for v in rows[u]) / (d * (d - 1))

    return sum(local(u) for u in range(g.node_count)) / g.node_count


def reference_clustering_of_rows(rows):
    """The set loop: each undirected edge u-v intersected once.

    Its count of shared neighbours is one link among the neighbours of u
    and one among those of v, so ``links`` counts every neighbour-neighbour
    edge twice; the local values are added in node order with ``+=``.
    """
    n = len(rows)
    links = [0] * n
    for u, mine in enumerate(rows):
        for v in mine:
            if v > u:
                shared = len(mine & rows[v])
                links[u] += shared
                links[v] += shared
    total = 0.0
    for mine, count in zip(rows, links):
        d = len(mine)
        if d > 1:
            total += count / (d * (d - 1))
    return total / n


def reference_max_eigenvector_centrality(g, tol=1e-10, max_iter=10_000):
    """Power iteration on A + I from the uniform vector, to residual ``tol``.

    A + I has A's eigenvectors and a strictly dominant top eigenvalue, so
    bipartite graphs converge too. Returns None at the step cap.
    """
    n = g.node_count
    src, dst = g.edge_endpoints
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        ax = np.bincount(dst, weights=x[src], minlength=n)
        diff = ax - float(x @ ax) * x
        if float(np.sqrt(diff @ diff)) <= tol:
            return float(x.max())
        y = ax + x
        x = y / np.sqrt(y @ y)
    return None


def oracle_average_clustering(g):
    """Neighbor-pair enumeration per node."""
    rows = rows_of(g)
    total = 0.0
    for nbrs in rows:
        if len(nbrs) < 2:
            continue
        linked = sum(
            1 for s, t in itertools.combinations(nbrs, 2) if t in rows[s]
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
    deg = g.degree_array.astype(float)
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
    deg = g.degree_array.tolist()
    out = {}
    for u, v in g.edges():
        key = tuple(sorted((deg[u], deg[v])))
        out[key] = out.get(key, 0) + 1
    return out


def reference_distance_totals(g):
    """The big-int BFS that ``metrics._distance_totals`` replaced.

    (sum of distances, count) over ordered reachable pairs u != v. Each
    node carries an n-bit integer of the sources that have reached it,
    and one synchronous round advances every frontier by one hop.
    """
    n = g.node_count
    adj = rows_of(g)
    reach = [1 << u for u in range(n)]
    alive = range(n)
    total = 0
    pairs = 0
    dist = 0
    while alive:
        dist += 1
        nxt = {}
        for u in alive:
            acc = reach[u]
            for v in adj[u]:
                acc |= reach[v]
            if acc != reach[u]:
                nxt[u] = acc
        if not nxt:
            break
        touched = set()
        for u, acc in nxt.items():
            new = (acc ^ reach[u]).bit_count()
            total += dist * new
            pairs += new
            reach[u] = acc
            touched.update(adj[u])
        # only nodes adjacent to a change can change next round
        alive = sorted(touched)
    return total, pairs


def reference_edge_degree_pair_counts(g):
    """The per-edge loop ``metrics._edge_degree_pair_counts`` replaced."""
    deg = g.degree_array
    pairs = Counter()
    for u, v in g.edges():
        a, b = int(deg[u]), int(deg[v])
        if a > b:
            a, b = b, a
        pairs[(a, b)] += 1
    return pairs


# ---------------------------------------------------------------------------
# Reference generators: the per-edge builder versions the library replaced


def reference_generate_ws(params, seed, paths=None):
    """Watts-Strogatz through a set-based builder, one numpy call per draw.

    ``paths``, when given, is a list that receives "full_row" each time a
    rewiring is skipped because the node already links to every other.
    """
    n, K, p = params.n, params.K, params.p
    k = K // 2
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(n)
    for j in range(1, k + 1):
        for i in range(n):
            builder.add_edge(i, (i + j) % n)
    for j in range(1, k + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            blocked = len(builder.neighbors(i)) + 1  # neighbors plus i itself
            if n - blocked == 0:
                if paths is not None:
                    paths.append("full_row")
                continue
            while True:
                cand = int(rng.integers(n))
                if cand != i and not builder.has_edge(i, cand):
                    break
            builder.remove_edge(i, old)
            builder.add_edge(i, cand)
    return builder.build()


def _reference_weighted_pick(rng, repeated, builder, v, paths):
    if repeated:
        for _ in range(64):
            cand = repeated[int(rng.integers(len(repeated)))]
            if cand != v and not builder.has_edge(v, cand):
                paths.append("repeated")
                return cand
        paths.append("fallback")
        weights = []
        for u in range(v):
            if not builder.has_edge(v, u):
                weights.extend([u] * len(builder.neighbors(u)))
        if weights:
            return weights[int(rng.integers(len(weights)))]
    else:
        paths.append("uniform")
    candidates = [u for u in range(v) if not builder.has_edge(v, u)]
    return candidates[int(rng.integers(len(candidates)))]


def reference_generate_cba(params, seed, paths=None):
    """Clustered BA through a set-based builder, one numpy call per draw.

    Rebuilds the triad candidates from every PA target's neighbours on
    each link after the first, where the library builds them at a step's
    first coin below p and keeps them from then on.

    ``paths``, when given, is a list that receives the branch each
    preferential-attachment pick took: "repeated" (rejection sampling
    succeeded), "fallback" (64 rejections, then the candidate scan) or
    "uniform" (no edges yet); and "no-triad" for a link after the first
    whose candidates are all linked already, so that no coin is drawn.
    """
    n, m, p = params.n, params.m, params.p
    paths = [] if paths is None else paths
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(m)
    repeated = []
    for u in range(m):
        for w in range(u + 1, m):
            builder.add_edge(u, w)
            repeated.extend((u, w))
    for v in range(m, n):
        builder.add_node()
        pa_targets = []
        for link in range(m):
            target = None
            if link > 0:
                triad_set = set()
                for u in pa_targets:
                    triad_set.update(builder.neighbors(u))
                triad_set.discard(v)
                triad_set.difference_update(builder.neighbors(v))
                if not triad_set:
                    paths.append("no-triad")
                elif rng.random() < p:
                    ordered = sorted(triad_set)
                    target = ordered[int(rng.integers(len(ordered)))]
            if target is None:
                target = _reference_weighted_pick(rng, repeated, builder, v, paths)
                pa_targets.append(target)
            builder.add_edge(v, target)
            repeated.extend((v, target))
    return builder.build()


def reference_cba_rows(params, seed):
    """The eager form of ``cba_rows``: the same (rows, interval).

    Each PA pick adds its target's unlinked neighbours to the step's
    triad set at once, and a coin is drawn whenever that set is not
    empty.
    """
    from netfit.generators import _weighted_pick
    from netfit.seeds import Draws, coin_limit

    n, m = params.n, params.m
    draws = Draws(seed)
    word, limit = draws.word, coin_limit(params.p)
    below, above = -1, 1 << 64
    adj = [set() for _ in range(n)]
    repeated = []
    for u in range(m):
        for w in range(u + 1, m):
            adj[u].add(w)
            adj[w].add(u)
            repeated.extend((u, w))
    for v in range(m, n):
        mine = adj[v]
        triad_set = set()
        for _ in range(m):
            target = None
            if triad_set:
                coin = word()
                if coin < limit:
                    if coin > below:
                        below = coin
                    ordered = sorted(triad_set)
                    target = ordered[draws.integers(len(ordered))]
                elif coin < above:
                    above = coin
            if target is None:
                target = _weighted_pick(draws, repeated, adj, v)
                triad_set.update(adj[target] - mine)
            triad_set.discard(target)
            mine.add(target)
            adj[target].add(v)
            repeated.extend((v, target))
    return adj, (below, above)


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


def reference_simulate(model, params):
    """A fit's simulation as it was before the row builders: the model's
    metric on the ``Graph`` from the public generator.

    ``params`` fixes everything but p; returns ``simulate(q, seed)``.
    """
    from netfit.generators import generate_cba, generate_dd, generate_ws
    from netfit.metrics import average_clustering, density

    generate, measure = {
        "WS": (generate_ws, average_clustering),
        "WS_STD": (generate_ws, lambda g: float(np.std(g.degree_array))),
        "CBA": (generate_cba, average_clustering),
        "DD": (generate_dd, density),
    }[model]

    def simulate(q, s):
        return measure(generate(dataclasses.replace(params, p=q), s))

    return simulate


def reference_fit_searched(model, params_at, build, measure, target, rises, lo, hi, budget,
                           replicates, seed, notes=(), log_space=False):
    """``fitting._fit_searched`` without replays: every replicate runs the row builder.

    Takes the same arguments; the report's ``builds`` is therefore
    evaluations * replicates. The gap is the mean less the target,
    negated when the metric falls with p.
    """
    from netfit.fitting import FitReport, _search
    from netfit.seeds import derive

    def gap_at(q):
        acc = 0.0
        for r in range(replicates):
            rows, _ = build(params_at(q), derive(seed, r))
            acc += measure(rows)
        gap = acc / replicates - target
        return gap if rises else -gap

    q, objective, evaluations, bound_notes = _search(gap_at, lo, hi, budget, log_space)
    return FitReport(model, params_at(q), objective, evaluations, replicates, seed,
                     notes + bound_notes, builds=evaluations * replicates)


def reference_triangular_unrank(cell, s):
    """One cell index in [0, C(s,2)) -> (u, v), u < v, by walking the rows."""
    u = 0
    row = s - 1
    while cell >= row:
        cell -= row
        u += 1
        row -= 1
    return u, u + 1 + cell


def reference_sample_distinct(rng, total, count):
    """count distinct cells of range(total): one scalar draw at a time when sparse."""
    if count * 8 >= total:
        return rng.choice(total, size=count, replace=False)
    chosen = set()
    out = []
    while len(out) < count:
        cand = int(rng.integers(total))
        if cand not in chosen:
            chosen.add(cand)
            out.append(cand)
    return out


def reference_generate_community(params, seed):
    """Planted partition placing one sampled cell at a time into a builder."""
    sizes = params.sizes
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(params.n)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    for gi, s in enumerate(sizes):
        pairs_total = s * (s - 1) // 2
        if pairs_total == 0 or params.p_in == 0.0:
            continue
        count = int(rng.binomial(pairs_total, params.p_in))
        for cell in reference_sample_distinct(rng, pairs_total, count):
            u, v = reference_triangular_unrank(int(cell), s)
            builder.add_edge(offsets[gi] + u, offsets[gi] + v)
    for gi in range(len(sizes)):
        for gj in range(gi + 1, len(sizes)):
            if params.p_out == 0.0:
                continue
            cells_total = sizes[gi] * sizes[gj]
            count = int(rng.binomial(cells_total, params.p_out))
            for cell in reference_sample_distinct(rng, cells_total, count):
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


def reference_grow_tree(feats, labels, n_classes, per_split, rng):
    """CART subtree over the rows of ``feats``, splitting by boolean masks.

    Each split tries ``per_split`` features drawn from ``rng``, or all of
    them when ``per_split`` is not below their count.
    """
    from netfit.classify import TreeNode

    counts = np.bincount(labels, minlength=n_classes)
    node_counts = tuple(int(c) for c in counts)
    if int(np.max(counts)) == len(labels):
        return TreeNode(counts=node_counts)
    d = feats.shape[1]
    if per_split < d:
        candidates = np.sort(rng.choice(d, size=per_split, replace=False))
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
    left = reference_grow_tree(feats[mask], labels[mask], n_classes, per_split, rng)
    right = reference_grow_tree(feats[~mask], labels[~mask], n_classes, per_split, rng)
    return TreeNode(counts=node_counts, feature=f, threshold=threshold, left=left, right=right)


def reference_forest_roots(dataset, trees, per_split, seed):
    """Root of every tree ``train_forest`` grows, by the same draws in the same order."""
    from netfit import seeds

    n = len(dataset)
    roots = []
    for i in range(trees):
        rng = np.random.default_rng(seeds.xor_index(seed, i))
        sample = rng.integers(n, size=n)
        roots.append(reference_grow_tree(dataset.features[sample], dataset.labels[sample],
                                         len(dataset.class_names), per_split, rng))
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
