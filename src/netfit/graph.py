"""Simple undirected graph type, edge-list ingestion and traversal primitives.

Every other module works on the :class:`Graph` defined here: a simple
(no self-loops, no parallel edges), undirected, unweighted graph with
nodes densely numbered ``0..n-1``. Graphs are immutable once built.
Code that adds edges in arbitrary order goes through :class:`GraphBuilder`;
generators that can emit sorted rows directly pass them to :class:`Graph`,
which checks every row either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

COMMENT_PREFIXES = ("#", "%")


class EdgeListError(ValueError):
    """Raised for malformed or empty edge-list input."""


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

    def build(self, labels=None):
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in self._adj)
        return Graph(adjacency, labels=labels)


class Graph:
    """Immutable simple undirected graph over nodes ``0..n-1``.

    ``adjacency`` is a tuple of sorted neighbor tuples; symmetry and
    simplicity are enforced at construction by numpy checks over the
    concatenated rows, O(m log m) for m edges. ``labels`` keeps the
    original node tokens for round-trip serialization (defaults to the
    decimal ids). Instances are safe to share across threads.
    """

    __slots__ = ("adjacency", "node_count", "edge_count", "labels", "_cache")

    def __init__(self, adjacency, labels=None):
        adjacency = tuple(tuple(nbrs) for nbrs in adjacency)
        n = len(adjacency)
        total = _check_adjacency(adjacency)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length mismatch")
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edge_count", total // 2)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"

    def degree(self, u):
        return len(self.adjacency[u])

    def neighbors(self, u):
        return self.adjacency[u]

    def has_edge(self, u, v):
        return v in self.neighbor_sets[u]

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v, in id order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    @property
    def neighbor_sets(self):
        """Per-node frozensets of neighbors, built lazily for membership tests."""
        sets = self._cache.get("sets")
        if sets is None:
            sets = tuple(frozenset(nbrs) for nbrs in self.adjacency)
            self._cache["sets"] = sets
        return sets

    @property
    def degree_array(self):
        arr = self._cache.get("deg")
        if arr is None:
            arr = np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.int64)
            arr.setflags(write=False)
            self._cache["deg"] = arr
        return arr

    @property
    def edge_endpoints(self):
        """Directed endpoint arrays (src, dst) covering both orientations."""
        pair = self._cache.get("ends")
        if pair is None:
            deg = self.degree_array
            src = np.repeat(np.arange(self.node_count, dtype=np.int64), deg)
            dst = np.concatenate([np.asarray(nbrs, dtype=np.int64) for nbrs in self.adjacency]) \
                if self.node_count else np.zeros(0, dtype=np.int64)
            src.setflags(write=False)
            dst.setflags(write=False)
            pair = (src, dst)
            self._cache["ends"] = pair
        return pair


def _check_adjacency(adjacency):
    """Total degree of a valid adjacency; ValueError naming the first fault.

    Each row must be strictly increasing, in range and free of its own
    node, and every u-v entry needs its v-u partner. Rows are scanned in
    node order, so the error names the same node or edge a per-entry
    loop would meet first.
    """
    n = len(adjacency)
    deg = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    total = int(deg.sum())
    dst = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=total)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    # prev: the entry before in the same row, -1 at a row start
    prev = np.empty_like(dst)
    prev[1:] = dst[:-1]
    prev[(np.cumsum(deg) - deg)[deg > 0]] = -1
    self_loop = dst == src
    out_of_range = (dst < 0) | (dst >= n)
    bad = self_loop | out_of_range | (dst <= prev)
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(src[i]), int(dst[i])
        if self_loop[i]:
            raise ValueError(f"self-loop at node {u}")
        if out_of_range[i]:
            raise ValueError(f"neighbor {v} of node {u} out of range")
        raise ValueError(f"adjacency of node {u} not sorted/unique")
    del prev, self_loop, out_of_range, bad
    # rows sorted and in range: key is strictly increasing, and the graph
    # is symmetric iff the reversed keys are a permutation of it
    key = src * n + dst
    rev = dst * n + src
    rev.sort()
    if not np.array_equal(key, rev):
        rev = dst * n + src
        pos = np.minimum(np.searchsorted(key, rev), total - 1)
        i = int(np.argmax(key[pos] != rev))
        raise ValueError(f"edge {int(src[i])}-{int(dst[i])} not symmetric")
    if total % 2:
        raise ValueError("odd total degree")
    return total


def parse_edge_list(text):
    """Parse edge-list text into a simplified :class:`Graph`.

    Each data line holds two whitespace-separated node tokens; extra
    columns (weights etc.) are ignored. Lines whose first non-blank
    character is ``#`` or ``%`` are comments. Self-loops are dropped and
    duplicate/reversed edges collapsed. Tokens are mapped to dense ids in
    order of first appearance on a kept edge; nodes mentioned only in
    self-loops do not survive.

    Raises EdgeListError on a one-token line (with its line number) or
    when no usable edge remains.
    """
    ids = {}
    labels = []
    builder = GraphBuilder()
    saw_edge = False
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
                ids[tok] = len(labels)
                labels.append(tok)
                builder.add_node()
        builder.add_edge(ids[a], ids[b])
        saw_edge = True
    if not saw_edge:
        raise EdgeListError("no usable edges in input")
    return builder.build(labels=labels)


def serialize_edge_list(g):
    """Edge-list text for g: one "u v" line per edge, original labels."""
    lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def load_edge_list(path):
    """Parse the edge-list file at ``path``; an EdgeListError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except (EdgeListError, UnicodeDecodeError) as exc:
        raise EdgeListError(f"{path}: {exc}") from None


def save_edge_list(g, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_edge_list(g))


@dataclass(frozen=True)
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
            for v in g.adjacency[u]:
                if label[v] < 0:
                    label[v] = comp
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return ComponentLabeling(label=tuple(label), component_sizes=tuple(sizes))


def degree_sequence(g):
    """Degrees in node-id order; sums to 2*edge_count."""
    return tuple(len(nbrs) for nbrs in g.adjacency)


def relabel(g, permutation):
    """Graph with node i renamed to permutation[i] (test/analysis helper)."""
    n = g.node_count
    perm = tuple(permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    adj = [[] for _ in range(n)]
    labels = [""] * n
    for u in range(n):
        labels[perm[u]] = g.labels[u]
        adj[perm[u]] = sorted(perm[v] for v in g.adjacency[u])
    return Graph(tuple(tuple(a) for a in adj), labels=tuple(labels))
