"""Non-redundant graph metric suite and feature-vector assembly.

Seven topological measures (density, assortativity, average local
clustering, average degree, maximum eigenvector centrality, normalized
average path length, degree-distribution skewness) plus the node count
form the feature vector used throughout the pipeline. All functions are
pure; results do not depend on node labeling. They work on the arrays a
:class:`~netfit.graph.Graph` keeps. Clustering counts triangles exactly
over degree-ordered edges in chunks of ``_CLUSTER_WEDGES`` wedges;
eigenvector centrality is restarted Lanczos with a basis of at most
``_EIGEN_BASIS`` vectors; path length sums exact integer distances from
a word-parallel multi-source BFS whose memory is bounded by
``_PATH_WORDS`` words per bit plane.

Conventions, chosen so every feature row is finite:
  - local clustering of a node with degree < 2 is 0;
  - assortativity of a graph with zero remaining-degree variance
    (regular graphs) is 0, flagged degenerate;
  - skewness of a constant degree sequence is 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .generators import TwoKParams
from .graph import ItemFailure, edge_sources, row_arrays

#: Metric fields entering distance / correlation / PCA computations
#: (size is excluded: generated counterparts share it by construction).
METRIC_FIELDS = (
    "density",
    "assort",
    "avg_clust",
    "avg_deg",
    "max_eigenv_c",
    "avg_path_length",
    "skew_deg_dist",
)

#: CSV column order for feature rows; the last three are optional.
CSV_HEADER = ("name", "size") + METRIC_FIELDS + ("domain", "category", "subcategory")


class MetricDomainError(ItemFailure, ValueError):
    """Raised when a metric's precondition (n or m too small) fails."""


class EigenvectorError(ItemFailure, RuntimeError):
    """The Lanczos eigenvector solver did not converge within its step cap.

    ``args`` holds the residual and the step count, so the error pickles.
    """

    def __init__(self, residual, steps):
        super().__init__(residual, steps)
        self.residual = residual
        self.steps = steps

    def __str__(self):
        return (f"Lanczos did not converge after {self.steps} steps "
                f"(residual {self.residual:.3e})")


@dataclass(frozen=True)
class FeatureVector:
    """The eight numeric attributes of one graph."""

    size: int
    density: float
    assort: float
    avg_clust: float
    avg_deg: float
    max_eigenv_c: float
    avg_path_length: float
    skew_deg_dist: float

    def metric_values(self):
        """The seven topological metrics (size excluded) in field order."""
        return tuple(getattr(self, f) for f in METRIC_FIELDS)


def density(g):
    """Edges over the edge count of the complete graph on the same nodes."""
    return edge_density(g.node_count, g.edge_count)


def edge_density(n, m):
    """Density of a simple graph with n nodes and m edges."""
    if n < 2:
        raise MetricDomainError("density requires at least 2 nodes")
    return m / (n * (n - 1) / 2)


def average_degree(g):
    n = g.node_count
    if n < 1:
        raise MetricDomainError("average degree requires at least 1 node")
    return 2 * g.edge_count / n


def _edge_degree_pair_counts(g):
    """Counter of (deg(u), deg(v)) over undirected edges, canonical order.

    Aggregating by degree class before summing makes the downstream
    moments independent of edge order, so two graphs with equal joint
    degree matrices produce bitwise-identical assortativity values. Each
    edge is counted once, from its src < dst orientation, under the key
    low * base + high of its endpoint degrees.
    """
    deg = g.degree_array
    src, dst = g.edge_endpoints
    once = src < dst
    a, b = deg[src[once]], deg[dst[once]]
    base = int(deg.max(initial=0)) + 1
    keys, counts = np.unique(np.minimum(a, b) * base + np.maximum(a, b), return_counts=True)
    return Counter({divmod(key, base): c for key, c in zip(keys.tolist(), counts.tolist())})


def assortativity(g):
    """Pearson correlation of remaining degrees across linked node pairs.

    Each undirected edge contributes both orientations, matching the
    e_{j,k}/q_k formulation. Returns 0.0 for degenerate (zero variance)
    remaining-degree distributions; see :func:`assortativity_is_degenerate`.
    """
    value, _ = _assortativity_flagged(g)
    return value


def assortativity_is_degenerate(g):
    """True when the remaining-degree variance is zero (e.g. regular graphs)."""
    _, degenerate = _assortativity_flagged(g)
    return degenerate


def _assortativity_flagged(g):
    if g.edge_count < 1:
        raise MetricDomainError("assortativity requires at least 1 edge")
    pairs = _edge_degree_pair_counts(g)
    total = 2 * g.edge_count  # directed edge instances
    # Remaining degrees j = deg-1; marginals are symmetric by construction.
    s1 = 0.0  # sum of j over instances
    s2 = 0.0  # sum of j^2
    sp = 0.0  # sum of j*k products
    for (a, b), c in sorted(pairs.items()):
        j, k = a - 1, b - 1
        s1 += c * (j + k)
        s2 += c * (j * j + k * k)
        sp += c * (2 * j * k)
    mean = s1 / total
    var = s2 / total - mean * mean
    if var <= 0.0:
        return 0.0, True
    cov = sp / total - mean * mean
    return cov / var, False


#: Wedges checked per chunk of the clustering kernel (plus at most one
#: out-row's worth). Of 2^12 to 2^16, 2^14 was fastest on K_300 and the
#: n = 10^4 CBA, DD, Com and 2K outputs; its tracemalloc peak on K_300
#: (4.5 M wedges) is 4 MiB, against 313 MiB in one chunk.
_CLUSTER_WEDGES = 1 << 14


def average_clustering(g):
    """Mean local clustering coefficient over all nodes (0 for degree < 2)."""
    src, dst = g.edge_endpoints
    return _clustering(g.degree_array, src, dst, src * g.node_count + dst)


def clustering_of_rows(rows):
    """Mean local clustering of the graph whose node u links to the set rows[u].

    The rows become the arrays a :class:`Graph` keeps (degrees, and both
    orientations of every edge grouped by row) for the same kernel as
    :func:`average_clustering`, so the two agree bit for bit.
    """
    deg, dst = row_arrays(rows)
    src = edge_sources(deg)
    keys = src * len(rows) + dst
    keys.sort()
    return _clustering(deg, src, dst, keys)


def _clustering(deg, src, dst, keys):
    """Mean local clustering from degrees and both orientations of each edge.

    ``src``/``dst`` list every edge both ways, grouped by ``src`` in
    ascending order, and ``keys`` is ``src * n + dst`` sorted. Each edge
    is oriented from its lower (degree, id) end to its higher one, so
    every triangle is found once, from its lowest node, as a wedge of two
    out-neighbours whose link is looked up in ``keys`` (Schank & Wagner,
    WEA 2005). Out-rows hold at most sqrt(2m) edges, and wedges go in
    chunks of ``_CLUSTER_WEDGES`` plus at most one out-row, so scratch
    memory stays bounded on dense graphs.

    Per node, ``links`` = 2 * triangles counts every neighbor-neighbor
    edge twice, as an integer. The local values ``links / (d(d-1))`` are
    added in node order, one at a time, so the float result does not
    depend on edge order or on how ``sum()`` rounds.
    """
    n = len(deg)
    if n < 1:
        raise MetricDomainError("average clustering requires at least 1 node")
    rank = deg * n + np.arange(n)
    up = rank[src] < rank[dst]
    osrc, odst = src[up], dst[up]
    # out-edge e pairs with the out-edges after it, up to its row's end
    nxt = np.arange(1, len(osrc) + 1)
    after = np.cumsum(np.bincount(osrc, minlength=n))[osrc] - nxt
    ends = np.cumsum(after)
    # wedge j of edge e pairs it with out-edge j + shift[e]
    shift = nxt - ends + after
    wedges = int(ends[-1]) if len(ends) else 0
    triangles = np.zeros(n, dtype=np.int64)
    e0 = done = 0
    while done < wedges:
        e1 = e0 + max(1, int(np.searchsorted(ends[e0:], done + _CLUSTER_WEDGES, side="right")))
        lens = after[e0:e1]
        size = int(ends[e1 - 1]) - done
        v = np.repeat(odst[e0:e1], lens)
        w = odst[np.repeat(shift[e0:e1], lens) + np.arange(done, done + size)]
        q = v * n + w
        hit = keys.take(np.searchsorted(keys, q), mode="clip") == q
        corners = (np.repeat(osrc[e0:e1], lens)[hit], v[hit], w[hit])
        triangles += np.bincount(np.concatenate(corners), minlength=n)
        e0, done = e1, done + size
    counted = np.flatnonzero(triangles)
    d = deg[counted]
    total = 0.0
    for value in (2 * triangles[counted] / (d * (d - 1))).tolist():
        total += value
    return total / n


#: Lanczos vectors kept before a restart from the Ritz vector: an
#: (_EIGEN_BASIS, n) float64 basis, 1.9 MB at n = 10^4. On WS(10^4, 10,
#: 0.01) at seeds 3-12, 16, 24 and 32 vectors needed 377-617, 297-441
#: and 265-361 steps; measuring the n = 10^4 CBA, DD, Com and 2K outputs
#: in one process, 32 raised its peak RSS by 0.5-1.3 MB over power
#: iteration, 24 by about 0.2 MB.
_EIGEN_BASIS = 24
#: Lanczos steps between two solves of the small tridiagonal problem. On
#: the 150 replicate graphs of one n = 1000 stability run, 6 and 8 were
#: fastest of 3, 4, 6 and 8 (0.28 against 0.29-0.30 s); 8 divides the
#: basis size, so the last check falls on the full basis.
_EIGEN_CHECK = 8


def max_eigenvector_centrality(g, tol=1e-10, max_iter=10_000):
    """Largest entry of the unit-norm principal eigenvector of the adjacency.

    Lanczos (Lanczos 1950) from the uniform vector, with every new vector
    reorthogonalised against the whole basis. Every ``_EIGEN_CHECK``
    steps the top eigenpair of the small tridiagonal matrix gives the
    Ritz vector and its residual estimate; when the estimate is at most
    ``tol``, or the basis of ``_EIGEN_BASIS`` vectors is full, Lanczos
    restarts from the Ritz vector. The first step of each start computes
    the explicit residual ||Ax - λx|| with λ = x·Ax and stops once it is
    at most ``tol``. The Krylov space of the uniform vector meets each
    eigenspace in one direction, so on a graph whose top eigenvalue is
    repeated (a disconnected one) the result is the uniform vector's
    projection onto it. The vector's sign makes its sum positive.
    Raises :class:`EigenvectorError` after ``max_iter`` steps
    (matrix-vector products).
    """
    n = g.node_count
    if g.edge_count < 1:
        raise MetricDomainError("eigenvector centrality requires at least 1 edge")
    src, dst = g.edge_endpoints
    basis = np.empty((min(_EIGEN_BASIS, n), n))
    x = np.full(n, 1.0 / math.sqrt(n))
    steps = 0
    residual = math.inf
    while True:
        basis[0] = x
        alpha, beta = [], []
        for k in range(len(basis)):
            if steps == max_iter:
                raise EigenvectorError(residual, steps)
            v = basis[k]
            w = np.bincount(dst, weights=v[src], minlength=n)
            steps += 1
            a = float(v @ w)
            w -= a * v
            if k == 0:
                residual = math.sqrt(float(w @ w))
                if residual <= tol:
                    if x.sum() < 0:
                        x = -x
                    return float(x.max())
            else:
                w -= beta[-1] * basis[k - 1]
            head = basis[: k + 1]
            w -= np.einsum("ij,i->j", head, np.einsum("ij,j->i", head, w))
            b = math.sqrt(float(w @ w))
            alpha.append(a)
            full = k + 1 == len(basis)
            if full or b <= tol or (k + 1) % _EIGEN_CHECK == 0:
                y = _top_eigenvector(alpha, beta)
                if full or abs(b * y[-1]) <= tol:
                    break
            beta.append(b)
            basis[k + 1] = w / b
        x = np.einsum("ij,i->j", basis[: len(y)], y)
        x /= math.sqrt(float(x @ x))


def _top_eigenvector(alpha, beta):
    """Unit eigenvector for the largest eigenvalue of a symmetric tridiagonal.

    ``alpha`` is the diagonal and ``beta`` the off-diagonal (one shorter).
    Sturm bisection finds the smallest float sigma above every
    eigenvalue, where the pivots of T - sigma*I are all negative; two
    solves of (T - sigma*I) y = b, the first from e_1, are inverse
    iteration at that shift. Pure Python: k <= ``_EIGEN_BASIS`` is small,
    and a LAPACK call would wake a BLAS thread.
    """
    k = len(alpha)
    if k == 1:
        return [1.0]
    squares = [b * b for b in beta]
    lo = max(alpha)  # the top eigenvalue is at least every diagonal entry
    # Gershgorin's bound, plus 1 to be strictly above every eigenvalue
    hi = max(a + abs(l) + abs(r)
             for a, l, r in zip(alpha, [0.0] + beta, beta + [0.0])) + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        d = alpha[0] - mid
        for a, b2 in zip(alpha[1:], squares):
            if d >= 0.0:
                break
            d = a - mid - b2 / d
        if d < 0.0:
            hi = mid
        else:
            lo = mid
    pivots = [alpha[0] - hi]
    for a, b2 in zip(alpha[1:], squares):
        pivots.append(a - hi - b2 / pivots[-1])
    y = [1.0] + [0.0] * (k - 1)
    for _ in range(2):
        for i in range(1, k):
            y[i] -= beta[i - 1] / pivots[i - 1] * y[i - 1]
        y[-1] /= pivots[-1]
        for i in range(k - 2, -1, -1):
            y[i] = (y[i] - beta[i] * y[i + 1]) / pivots[i]
        scale = 1.0 / math.sqrt(math.fsum(c * c for c in y))
        y = [c * scale for c in y]
    return y


#: Words per bit plane of the path-length BFS: a (rows, w) uint64 plane
#: holds at most this many (512 KiB), or one word per row past 2^16 rows.
#: Of 2^15 to 2^19, 2^16 was fastest on graphs of 10^3 to 3*10^4 nodes.
_PATH_WORDS = 1 << 16
#: Neighbour slots gathered one degree-ordered prefix at a time; the
#: rest of a hub's row goes through one reduceat.
_PATH_SLOTS = 32
#: A round pushes from its active rows when they hold at most
#: 1/_PATH_PUSH of all adjacency entries (and no more entries than rows).
_PATH_PUSH = 8


def _distance_totals(g):
    """(sum of distances, count) over ordered reachable pairs u != v.

    Multi-source BFS with one bit per source (Then et al., "The More the
    Merrier", VLDB 2014). Sources run in blocks of 64 * w, and each
    (rows, w) uint64 plane holds at most max(n, ``_PATH_WORDS``) words
    and serves every block, so memory is O(n * w) plus the O(m) index
    arrays, not O(n^2). Each round ORs the neighbours' frontier words,
    keeps the bits not yet seen and adds dist * their count to Python
    integers, so the totals are exact.

    Rows are ordered by degree, descending, so the k-th neighbour slot of
    every row is a prefix: a round pulls slot k with one ``take`` and an
    in-place OR over the first c_k rows, for the first ``_PATH_SLOTS``
    slots, and ORs the hub tails with ``reduceat`` in chunks of at most
    one plane. A round whose active rows hold few entries pushes from
    those rows only. Isolated nodes take no part.
    """
    deg = g.degree_array
    order = np.argsort(-deg, kind="stable")
    n = int(np.count_nonzero(deg))
    if n == 0:
        return 0, 0
    order = order[:n]
    sdeg = deg[order]
    rank = np.zeros(g.node_count, dtype=np.int64)
    rank[order] = np.arange(n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sdeg, out=indptr[1:])
    nnz = int(indptr[-1])
    _, dst = g.edge_endpoints
    old_start = np.cumsum(deg) - deg
    indices = rank[dst[_row_positions(old_start[order], sdeg, nnz)]]

    # slot k: the k-th neighbour of each of the c_k rows of degree > k
    ks = np.arange(min(_PATH_SLOTS, int(sdeg[0])))
    slots = [indices[indptr[:c] + k]
             for k, c in enumerate(np.searchsorted(-sdeg, -ks).tolist())]
    # hub tails: rows of degree > _PATH_SLOTS from that slot on, in row
    # chunks of at most n entries, so one gather fits one plane
    tails = []
    c = int(np.count_nonzero(sdeg > _PATH_SLOTS))
    r0 = 0
    while r0 < c:
        ends = np.cumsum(sdeg[r0:c] - _PATH_SLOTS)
        r1 = r0 + max(1, int(np.searchsorted(ends, n, side="right")))
        lens = sdeg[r0:r1] - _PATH_SLOTS
        size = int(ends[r1 - r0 - 1])
        tails.append((r0, r1, indices[_row_positions(indptr[r0:r1] + _PATH_SLOTS, lens, size)],
                      np.cumsum(lens) - lens))
        r0 = r1

    # w is a power of two unless one block takes every source: numpy's
    # take copies 8-, 16- and 32-byte rows fastest
    w = min(-(-n // 64), 1 << max(0, (_PATH_WORDS // n).bit_length() - 1))
    front = np.zeros((n, w), dtype=np.uint64)
    nxt = np.empty_like(front)
    unseen = np.empty_like(front)
    tmp = np.empty_like(front)
    counts = np.empty(front.shape, dtype=np.uint8)
    total = 0
    pairs = 0
    for s0 in range(0, n, 64 * w):
        # a block ends with no active row, so front is all zero here
        active = np.arange(s0, min(n, s0 + 64 * w))
        bit = active - s0
        front[active, bit >> 6] = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
        np.invert(front, out=unseen)
        dist = 0
        while len(active):
            dist += 1
            lens = sdeg[active]
            e = int(lens.sum())
            if e <= n and e * _PATH_PUSH <= nnz:
                # push: OR each active row into its neighbours, grouped by target
                tgt = indices[_row_positions(indptr[active], lens, e)]
                by_tgt = np.argsort(tgt)
                tgt = tgt[by_tgt]
                heads = np.flatnonzero(np.concatenate(([True], tgt[1:] != tgt[:-1])))
                rows = tgt[heads]
                new = np.bitwise_or.reduceat(front[np.repeat(active, lens)[by_tgt]], heads, axis=0)
                new &= unseen[rows]
                live = new.any(axis=1)
                rows, new = rows[live], new[live]
                front[active] = 0
                front[rows] = new
                unseen[rows] ^= new
                found = int(np.bitwise_count(new).sum())
                active = rows
            else:
                front.take(slots[0], axis=0, out=nxt)
                for slot in slots[1:]:
                    c = len(slot)
                    front.take(slot, axis=0, out=tmp[:c])
                    np.bitwise_or(nxt[:c], tmp[:c], out=nxt[:c])
                for r0, r1, idx, heads in tails:
                    front.take(idx, axis=0, out=tmp[: len(idx)])
                    nxt[r0:r1] |= np.bitwise_or.reduceat(tmp[: len(idx)], heads, axis=0)
                np.bitwise_and(nxt, unseen, out=nxt)
                np.bitwise_xor(unseen, nxt, out=unseen)
                found = int(np.bitwise_count(nxt, out=counts).sum())
                live = nxt[:, 0] != 0
                for j in range(1, w):
                    live |= nxt[:, j] != 0
                active = np.flatnonzero(live)
                front, nxt = nxt, front
            total += dist * found
            pairs += found
    return total, pairs


def _row_positions(starts, lens, size):
    """Concatenated ranges starts[i] .. starts[i] + lens[i] - 1 (size = lens.sum())."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(size)


def average_path_length_normalized(g):
    """Mean distance over ordered same-component pairs, divided by n-1.

    Distances are pooled across components (pairs in different components
    are simply not counted), per the normalized path-length attribute.
    """
    n = g.node_count
    if g.edge_count < 1:
        raise MetricDomainError("average path length requires at least 1 edge")
    total, pairs = _distance_totals(g)
    if pairs == 0:
        raise MetricDomainError("no reachable pair of distinct nodes")
    return (total / pairs) / (n - 1)


def degree_skewness(g):
    """Population skewness g1 = m3 / m2^(3/2) of the degree sequence."""
    n = g.node_count
    if n < 1:
        raise MetricDomainError("degree skewness requires at least 1 node")
    counts = Counter(int(d) for d in g.degree_array)
    mean = sum(k * c for k, c in sorted(counts.items())) / n
    m2 = 0.0
    m3 = 0.0
    for k, c in sorted(counts.items()):
        d = k - mean
        m2 += c * d * d
        m3 += c * d * d * d
    m2 /= n
    m3 /= n
    if m2 <= 0.0:
        return 0.0
    return m3 / m2**1.5


def feature_vector(g):
    """All eight attributes of g as a :class:`FeatureVector`."""
    if g.node_count < 2 or g.edge_count < 1:
        raise MetricDomainError("feature vector requires n >= 2 and m >= 1")
    return FeatureVector(
        size=g.node_count,
        density=density(g),
        assort=assortativity(g),
        avg_clust=average_clustering(g),
        avg_deg=average_degree(g),
        max_eigenv_c=max_eigenvector_centrality(g),
        avg_path_length=average_path_length_normalized(g),
        skew_deg_dist=degree_skewness(g),
    )


def joint_degree_matrix(g):
    """JDM of g as 2K params: per (k, l) degree pair, the number of joining edges."""
    if g.edge_count < 1:
        raise MetricDomainError("joint degree matrix requires at least 1 edge")
    return TwoKParams(_edge_degree_pair_counts(g))
