"""Simple undirected graph type and edge-list ingestion.

Every other module works on the :class:`Graph` defined here: a simple
(no self-loops, no parallel edges), undirected, unweighted graph with
nodes densely numbered ``0..n-1``. Graphs are immutable once built.
A graph is its degree array and its concatenated sorted rows. Code that
adds edges in arbitrary order collects them in a list of per-node sets
and hands that list over to :meth:`Graph.from_rows`, which sorts each
row into the arrays and releases it; code that has the arrays passes
them to :meth:`Graph.from_arrays`. Both end in the same check.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

COMMENT_PREFIXES = ("#", "%")


# Every netfit exception derives from exactly one of these two bases;
# anything else that escapes a command is a bug and ends in a traceback.
class InputError(ValueError):
    """A fault in the user's file or flag: one line naming it, exit 2."""


class ItemFailure(Exception):
    """One graph or model could not be done: reported, the rest go on, exit 1."""


class EdgeListError(InputError):
    """Raised for malformed or empty edge-list input."""


class ParameterError(InputError):
    """Model parameters, or the fit JSON that holds them, violate the model's preconditions."""


class Graph:
    """Immutable simple undirected graph over nodes ``0..n-1``.

    A graph is two read-only int64 arrays: ``degree_array`` (the row
    lengths) and ``edge_endpoints``, the pair (src, dst) that lists both
    orientations of every edge, grouped by src in ascending order with
    each row sorted. Symmetry and simplicity are enforced at
    construction by numpy checks over the arrays, O(m log m) for m
    edges. Instances are safe to share across threads.
    """

    __slots__ = ("node_count", "edge_count", "degree_array", "edge_endpoints")

    def __init__(self, rows):
        """Graph whose node u links to the sorted row ``rows[u]``."""
        self._adopt(*row_arrays(rows))

    @classmethod
    def from_rows(cls, rows):
        """Graph whose node u links to the nodes of ``rows[u]``, a list handed over.

        A row may list its nodes in any order. One row at a time is
        sorted into the target array and its slot in ``rows`` set to
        None, so the rows never exist twice and are all gone before the
        check runs; the caller must hold no other reference to them.
        """
        deg = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        dst = np.fromiter(chain.from_iterable(_released_sorted(rows)), dtype=np.int64,
                          count=int(deg.sum()))
        return cls.from_arrays(deg, dst)

    @classmethod
    def from_arrays(cls, degrees, targets):
        """Graph from its degrees and its concatenated sorted rows.

        The int64 arrays are taken over, not copied, and made read-only;
        they pass the same check as rows given to the constructor.
        """
        deg, dst = np.asarray(degrees), np.asarray(targets)
        if deg.ndim != 1 or dst.ndim != 1 or deg.dtype != np.int64 or dst.dtype != np.int64:
            raise ValueError("degrees and rows must be 1-D int64 arrays")
        if deg.min(initial=0) < 0 or int(deg.sum()) != len(dst):
            raise ValueError("degrees do not match the rows")
        g = object.__new__(cls)
        g._adopt(deg, _sources(deg), dst)
        return g

    def _adopt(self, deg, src, dst):
        _check_rows(deg, src, dst)
        for arr in (deg, src, dst):
            arr.setflags(write=False)
        object.__setattr__(self, "node_count", len(deg))
        object.__setattr__(self, "edge_count", len(dst) // 2)
        object.__setattr__(self, "degree_array", deg)
        object.__setattr__(self, "edge_endpoints", (src, dst))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        """Same nodes and edges."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.degree_array, other.degree_array)
                and np.array_equal(self.edge_endpoints[1], other.edge_endpoints[1]))

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"

    def neighbors(self, u):
        """Sorted tuple of the neighbours of node u."""
        if not 0 <= u < self.node_count:
            raise IndexError(f"node {u} out of range")
        src, dst = self.edge_endpoints
        start = int(np.searchsorted(src, u))
        return tuple(dst[start:start + int(self.degree_array[u])].tolist())

    def edges(self):
        """Each undirected edge once as (u, v) with u < v, in id order."""
        src, dst = self.edge_endpoints
        once = src < dst
        return zip(src[once].tolist(), dst[once].tolist())


def row_arrays(rows):
    """(degrees, sources, targets): per-node rows flattened to int64 arrays.

    ``rows[u]`` is a sized iterable of node u's neighbours. ``targets``
    concatenates the rows in node order, each in its own order, and
    ``sources`` repeats each node id once per entry of its row.
    """
    deg = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    dst = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(deg.sum()))
    return deg, _sources(deg), dst


def _released_sorted(rows):
    """Each row of the list ``rows`` sorted, in node order; its slot is cleared first."""
    for u, row in enumerate(rows):
        rows[u] = None
        yield sorted(row)


def _sources(deg):
    return np.repeat(np.arange(len(deg), dtype=np.int64), deg)


def _check_rows(deg, src, dst):
    """ValueError naming the first fault of the rows that ``dst`` concatenates.

    Each row must be strictly increasing, in range and free of its own
    node, and every u-v entry needs its v-u partner. Rows are scanned in
    node order, so the error names the same node or edge a per-entry
    loop would meet first.
    """
    n = len(deg)
    total = len(dst)
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


PARSE_BLOCK = 1 << 16  # characters of text split into lines at a time


def _lines(text):
    """The lines of ``text`` as ``text.splitlines()`` gives them, a block at a time.

    Each block ends just after the first ``"\n"`` at least PARSE_BLOCK
    characters on, or at the end of the text. A cut after ``"\n"`` is a
    line end for every ``str.splitlines`` boundary, ``"\r\n"`` included,
    so only one block's line strings are alive at once.
    """
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + PARSE_BLOCK - 1) + 1 or len(text)
        yield from text[pos:end].splitlines()
        pos = end


def parse_edge_list(text):
    """Parse edge-list text into a simplified :class:`Graph`.

    Each data line holds two whitespace-separated node tokens; extra
    columns (weights etc.) are ignored. Lines end at every boundary
    ``str.splitlines`` honours. Lines whose first non-blank character
    is ``#`` or ``%`` are comments. Self-loops are dropped and
    duplicate/reversed edges collapsed. Tokens are mapped to dense ids in
    order of first appearance on a kept edge; nodes mentioned only in
    self-loops do not survive.

    Raises EdgeListError on a one-token line (with its line number) or
    when no usable edge remains.
    """
    ids = {}  # token -> dense id, in first-appearance order
    heads, tails = [], []
    for lineno, line in enumerate(_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIXES):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise EdgeListError(f"line {lineno}: expected two node tokens, got {len(tokens)}")
        a, b = tokens[0], tokens[1]
        if a == b:
            continue
        heads.append(ids.setdefault(a, len(ids)))
        tails.append(ids.setdefault(b, len(ids)))
    if not ids:
        raise EdgeListError("no usable edges in input")
    # both orientations as keys u*n + v, sorted, each distinct key once; each
    # intermediate goes as soon as the next is made
    n = len(ids)
    u, v = np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)
    del ids, heads, tails
    keys = np.concatenate((u * n + v, v * n + u))
    del u, v
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    src, dst = np.divmod(keys[first], n)
    del keys, first
    deg = np.bincount(src, minlength=n)
    del src
    return Graph.from_arrays(deg, dst)


SERIALIZE_CHUNK = 4096  # edges formatted into one string at a time


def serialize_edge_list(g):
    """Edge-list text for g: one "u v" line per edge, in node ids.

    Lines are joined SERIALIZE_CHUNK edges at a time, so no string or
    int per edge is held beside the text; an edgeless graph gives one
    lone newline.
    """
    src, dst = g.edge_endpoints
    once = src < dst
    heads, tails = src[once], dst[once]
    chunks = []
    for start in range(0, len(heads), SERIALIZE_CHUNK):
        stop = start + SERIALIZE_CHUNK
        chunks.append("".join(f"{u} {v}\n" for u, v in
                              zip(heads[start:stop].tolist(), tails[start:stop].tolist())))
    return "".join(chunks) or "\n"


def utf8_text(path, error):
    """The text of the file at ``path``, decoded as UTF-8.

    A byte that is not UTF-8 raises ``error(line)``, where ``line`` is
    the 1-based line that holds it, counting ``\n``, ``\r\n`` and ``\r``
    as line ends. Line ends are left as they are in the text.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the slice ends in the bad byte, which is no line end
        raise error(len(data[: exc.start + 1].splitlines())) from None


def load_edge_list(path):
    """Parse the edge-list file at ``path``; an EdgeListError names the file."""
    try:
        return parse_edge_list(
            utf8_text(path, lambda line: EdgeListError(f"line {line}: not UTF-8 text")))
    except EdgeListError as exc:
        raise EdgeListError(f"{path}: {exc}") from None
