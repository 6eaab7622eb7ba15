"""Simple undirected graph type and edge-list ingestion.

Every other module works on the :class:`Graph` defined here: a simple
(no self-loops, no parallel edges), undirected, unweighted graph with
nodes densely numbered ``0..n-1``. Graphs are immutable once built.
Code that adds edges in arbitrary order collects them in per-node sets
and passes the sorted rows to :class:`Graph`, which checks every row.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

COMMENT_PREFIXES = ("#", "%")


class EdgeListError(ValueError):
    """Raised for malformed or empty edge-list input."""


class Graph:
    """Immutable simple undirected graph over nodes ``0..n-1``.

    ``adjacency`` is a tuple of sorted neighbor tuples; symmetry and
    simplicity are enforced at construction by numpy checks over the
    concatenated rows, O(m log m) for m edges. The check's arrays are
    kept read-only: ``degree_array`` (row lengths) and ``edge_endpoints``
    (src, dst), both orientations of every edge in row order. ``labels``
    keeps the original node tokens for round-trip serialization
    (defaults to the decimal ids). Instances are safe to share across
    threads.
    """

    __slots__ = ("adjacency", "node_count", "edge_count", "labels", "degree_array",
                 "edge_endpoints")

    def __init__(self, adjacency, labels=None):
        adjacency = tuple(tuple(nbrs) for nbrs in adjacency)
        n = len(adjacency)
        deg, src, dst = _check_adjacency(adjacency)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length mismatch")
        for arr in (deg, src, dst):
            arr.setflags(write=False)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edge_count", len(dst) // 2)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degree_array", deg)
        object.__setattr__(self, "edge_endpoints", (src, dst))

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

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v, in id order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)


def _check_adjacency(adjacency):
    """(deg, src, dst) arrays of a valid adjacency; ValueError naming the first fault.

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
    return deg, src, dst


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
                ids[tok] = len(labels)
                labels.append(tok)
                adj.append(set())
        u, v = ids[a], ids[b]
        adj[u].add(v)
        adj[v].add(u)
    if not labels:
        raise EdgeListError("no usable edges in input")
    return Graph([sorted(nbrs) for nbrs in adj], labels=labels)


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
