"""The five random-graph models, with explicit seeded randomness.

Watts-Strogatz (WS), clustering Barabasi-Albert (CBA), duplication-
divergence (DD), community structure / planted partition (Com) and the
random 2K construction that realizes a target joint degree matrix
exactly.

Every generator returns a simple :class:`~netfit.graph.Graph` and is
deterministic for a given (params, seed) pair. WS, CBA and DD build
their per-node rows in a row builder (:func:`ws_rows`, :func:`cba_rows`,
:func:`dd_rows`). The public generator checks the sorted rows into a
``Graph``; the fit simulations measure the rows and build none, so
every graph the library returns is still checked. A row builder also
returns the interval ``(below, above)`` of coin limits
(:func:`~netfit.seeds.coin_limit`) over which its coins fall the same
way: at any p whose limit L has ``below < L <= above`` it builds the
same rows from the same seed. Each builder tracks the compared words
nearest its limit on each side. CBA builds a step's triad candidates
only once one of its coins falls below the limit, so at small p a link
costs little beyond its coin and its attachment pick. Randomness comes
from ``numpy.random.default_rng(seed)`` only: WS, CBA, DD and 2K take its
scalar draws through :class:`~netfit.seeds.Draws`, which owns the bit
generator and gives numpy's values without numpy's per-call cost; Com
draws from the numpy generator itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .graph import Graph, ItemFailure, ParameterError
from .seeds import Draws, coin_limit


class GenerationError(ItemFailure, RuntimeError):
    """A generator exhausted its retry budget."""


# ---------------------------------------------------------------------------
# Parameter types and their JSON codecs


def json_key(raw, key):
    """raw[key]; ParameterError when raw is not an object holding key."""
    if not isinstance(raw, dict) or key not in raw:
        raise ParameterError(f"missing key {key!r}")
    return raw[key]


def _json_number(raw, key, kind):
    """raw[key] as ``kind`` (int or float); refuses bools, strings and, for int, floats."""
    value = json_key(raw, key)
    if type(value) not in ((int,) if kind is int else (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ParameterError(f"{key} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ParameterError(f"{key} is out of the float range") from None


class _FieldwiseJson:
    """JSON codec of a params type whose fields are all plain numbers."""

    def to_json_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_obj(cls, raw):
        # field types are strings here (from __future__ import annotations)
        return cls(**{
            f.name: _json_number(raw, f.name, int if f.type in ("int", int) else float)
            for f in fields(cls)
        })


@dataclass(frozen=True)
class WSParams(_FieldwiseJson):
    n: int
    K: int
    p: float

    def __post_init__(self):
        if self.K % 2 != 0 or not (2 <= self.K < self.n):
            raise ParameterError(f"WS requires even K with 2 <= K < n, got n={self.n} K={self.K}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"WS rewiring probability out of [0,1]: {self.p}")


@dataclass(frozen=True)
class CBAParams(_FieldwiseJson):
    n: int
    m: int
    p: float

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise ParameterError(f"CBA requires 1 <= m < n, got n={self.n} m={self.m}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"CBA triad probability out of [0,1]: {self.p}")


@dataclass(frozen=True)
class DDParams(_FieldwiseJson):
    n: int
    p: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"DD requires n >= 2, got {self.n}")
        if not 0.0 < self.p <= 1.0:
            raise ParameterError(f"DD activation probability must be in (0,1], got {self.p}")


@dataclass(frozen=True)
class CommunityParams:
    sizes: tuple
    p_in: float
    p_out: float

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ParameterError(f"community sizes must all be >= 1, got {self.sizes}")
        for name, value in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} out of [0,1]: {value}")

    @property
    def n(self):
        return sum(self.sizes)

    def to_json_obj(self):
        return {"sizes": list(self.sizes), "p_in": self.p_in, "p_out": self.p_out}

    @classmethod
    def from_json_obj(cls, raw):
        sizes = json_key(raw, "sizes")
        if not isinstance(sizes, list) or any(type(s) is not int for s in sizes):
            raise ParameterError("sizes must be a list of integers")
        return cls(sizes, _json_number(raw, "p_in", float), _json_number(raw, "p_out", float))


@dataclass(frozen=True)
class TwoKParams:
    """Joint degree matrix (JDM): ``entries[(k, l)] -> edge count``, k <= l.

    The JDM of a graph records, for each degree pair (k, l), how many
    edges join a degree-k node to a degree-l node. It pins down the
    degree sequence, density and degree correlations of a graph exactly,
    which is what makes it a universal fitting target. ``entries`` may
    also be given as ``((k, l), count)`` pairs. Keys are made canonical
    (k <= l) and the counts of keys that coincide are summed. The class
    sizes ``{k: n_k}`` that :func:`validate_jdm` computes are kept as
    ``class_sizes``, which is not a field.
    """

    entries: dict

    def __post_init__(self):
        norm = {}
        pairs = self.entries.items() if isinstance(self.entries, dict) else self.entries
        for (k, l), c in pairs:
            k, l = int(k), int(l)
            key = (k, l) if k <= l else (l, k)
            norm[key] = norm.get(key, 0) + int(c)
        object.__setattr__(self, "entries", norm)
        object.__setattr__(self, "class_sizes", validate_jdm(self))

    def to_json_obj(self):
        return {"jdm": {"entries": [[k, l, c] for (k, l), c in sorted(self.entries.items())]}}

    @classmethod
    def from_json_obj(cls, raw):
        jdm = json_key(raw, "jdm")
        entries = jdm.get("entries") if isinstance(jdm, dict) else None
        if not isinstance(entries, list) or any(
            not isinstance(e, list) or len(e) != 3 or any(type(x) is not int for x in e)
            for e in entries
        ):
            raise ParameterError("jdm entries must be a list of [k, l, count] integer triples")
        return cls([((k, l), c) for k, l, c in entries])


# ---------------------------------------------------------------------------
# Watts-Strogatz


def generate_ws(params, seed):
    """Small-world graph: circulant ring lattice with random rewiring (see :func:`ws_rows`)."""
    return Graph([sorted(nbrs) for nbrs in ws_rows(params, seed)[0]])


def ws_rows(params, seed):
    """Neighbour set per node of a small-world graph.

    Start from the ring where every node links its K/2 nearest neighbors
    on each side. Lattice edges are visited in (lane, position) order and
    each is independently rewired with probability p by replacing its
    second endpoint with a uniform choice among nodes that create neither
    a self-loop nor a duplicate edge (edge left in place if none exists).
    Edge count is exactly n*K/2 for every p.

    Returns (rows, interval): see the module docstring.
    """
    n, K = params.n, params.K
    k = K // 2
    draws = Draws(seed)
    word, limit = draws.word, coin_limit(params.p)
    below, above = -1, 1 << 64  # the compared words nearest the limit, under and over it
    adj = [set() for _ in range(n)]
    for j in range(1, k + 1):
        for i in range(n):
            adj[i].add((i + j) % n)
            adj[(i + j) % n].add(i)
    for j in range(1, k + 1):
        for i in range(n):
            coin = word()
            if coin >= limit:
                if coin < above:
                    above = coin
                continue
            if coin > below:
                below = coin
            mine = adj[i]
            if len(mine) + 1 == n:  # every other node is already a neighbor
                continue
            while True:
                cand = draws.integers(n)
                if cand != i and cand not in mine:
                    break
            old = (i + j) % n
            mine.discard(old)
            adj[old].discard(i)
            mine.add(cand)
            adj[cand].add(i)
    return adj, (below, above)


# ---------------------------------------------------------------------------
# Clustering Barabasi-Albert


def _weighted_pick(draws, repeated, adj, v):
    """Degree-proportional pick of an attachment target for newcomer v.

    Rejection-samples the degree-repeated node list; falls back to an
    explicit candidate scan over the nodes before v if rejections pile
    up, and to a uniform pick while the graph still has no edges.
    """
    mine = adj[v]
    if repeated:
        for _ in range(64):
            cand = repeated[draws.integers(len(repeated))]
            if cand != v and cand not in mine:
                return cand
        weights = []
        for u in range(v):
            if u not in mine:
                weights.extend([u] * len(adj[u]))
        if weights:
            return weights[draws.integers(len(weights))]
    candidates = [u for u in range(v) if u not in mine]
    if not candidates:
        raise GenerationError("no attachment target available")
    return candidates[draws.integers(len(candidates))]


def generate_cba(params, seed):
    """Preferential attachment with triad formation (see :func:`cba_rows`)."""
    return Graph([sorted(nbrs) for nbrs in cba_rows(params, seed)[0]])


def cba_rows(params, seed):
    """Neighbour set per node of a clustered Barabasi-Albert graph.

    Starts from a complete graph on m nodes. Each newcomer adds exactly m
    edges: the first by preferential attachment; each later edge closes a
    triangle with probability p (uniform choice among eligible neighbors
    of this step's attachment targets), otherwise falls back to
    preferential attachment.

    Every link after the first draws a coin: the step's first target had
    at least m - 1 links before v, more than v's other links, so an
    eligible neighbour always exists. The eligible set is built only at
    the step's first coin below the limit and kept from then on, so a
    link whose step has taken no triad yet costs its coin and its pick,
    not a set update of O(degree).

    Returns (rows, interval): see the module docstring.
    """
    n, m = params.n, params.m
    draws = Draws(seed)
    word, limit = draws.word, coin_limit(params.p)
    below, above = -1, 1 << 64  # the compared words nearest the limit, under and over it
    adj = [set() for _ in range(n)]
    repeated = []  # node id repeated once per incident edge endpoint
    for u in range(m):
        for w in range(u + 1, m):
            adj[u].add(w)
            adj[w].add(u)
            repeated.extend((u, w))
    for v in range(m, n):
        mine = adj[v]
        # neighbours of this step's PA targets that v does not link to yet; it
        # is built at the step's first coin below the limit, when v's row holds
        # only PA targets
        triad_set = None
        for link in range(m):
            target = None
            if link:
                coin = word()
                if coin < limit:
                    if coin > below:
                        below = coin
                    if triad_set is None:
                        triad_set = set()
                        for t in mine:
                            triad_set |= adj[t]
                        triad_set -= mine
                        triad_set.discard(v)
                    ordered = sorted(triad_set)
                    target = ordered[draws.integers(len(ordered))]
                    triad_set.remove(target)
                elif coin < above:
                    above = coin
            if target is None:
                target = _weighted_pick(draws, repeated, adj, v)
                if triad_set is not None:
                    triad_set.update(adj[target] - mine)
                    triad_set.discard(target)
            mine.add(target)
            adj[target].add(v)
            repeated.extend((v, target))
    return adj, (below, above)


# ---------------------------------------------------------------------------
# Duplication-divergence

DD_FAILURE_BUDGET_PER_NODE = 10_000


def generate_dd(params, seed):
    """Duplication-divergence growth from a single edge (see :func:`dd_rows`)."""
    return Graph(dd_rows(params, seed)[0])


def dd_rows(params, seed):
    """Sorted neighbour list per node of a duplication-divergence graph.

    Repeatedly duplicates a uniformly chosen node, keeping each copied
    link independently with probability p; a replica that keeps no link
    is discarded and the attempt counts as a failure. Errors out after
    10000*n failed attempts (p > 0 makes success almost sure long before).

    Rows stay sorted as they grow: a replica's id exceeds every earlier
    id, so appending it to each kept neighbor's row keeps that row in
    order, and the replica's own row is a subsequence of a sorted row.

    Returns (rows, interval): see the module docstring.
    """
    n, p = params.n, params.p
    draws = Draws(seed)
    word, limit = draws.word, coin_limit(p)
    below, above = -1, 1 << 64  # the compared words nearest the limit, under and over it
    adj = [[1], [0]]
    failures = 0
    budget = DD_FAILURE_BUDGET_PER_NODE * n
    while len(adj) < n:
        kept = []
        for u in adj[draws.integers(len(adj))]:  # one coin per neighbor, in row order
            coin = word()
            if coin < limit:
                kept.append(u)
                if coin > below:
                    below = coin
            elif coin < above:
                above = coin
        if not kept:
            failures += 1
            if failures > budget:
                raise GenerationError(
                    f"duplication-divergence exceeded {budget} failed attempts (p={p})"
                )
            continue
        replica = len(adj)
        for u in kept:
            adj[u].append(replica)
        adj.append(kept)
    return adj, (below, above)


# ---------------------------------------------------------------------------
# Community structure (planted partition)


def _sample_distinct(rng, total, count):
    """count distinct integers from range(total), uniform without replacement."""
    if count > total:
        raise ValueError("cannot sample more cells than exist")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if count * 8 >= total:
        return rng.choice(total, size=count, replace=False)
    # first occurrences in draw order; a batch of the still-missing count
    # never draws past where one-at-a-time rng.integers(total) calls would
    # stop, and numpy's size= draws equal that many scalar calls
    chosen = {}
    while len(chosen) < count:
        chosen.update(dict.fromkeys(rng.integers(total, size=count - len(chosen)).tolist()))
    return np.fromiter(chosen, dtype=np.int64, count=count)


def generate_community(params, seed):
    """Planted-partition graph: ER blocks joined by sparser random edges.

    Within-group pairs are linked independently with p_in, cross-group
    pairs with p_out. Per block, the edge count is drawn binomially and
    that many distinct pairs are placed uniformly, which reproduces the
    independent-pair distribution exactly.
    """
    sizes = params.sizes
    n = params.n
    rng = np.random.default_rng(seed)
    offsets = list(accumulate(sizes, initial=0))
    empty = np.zeros(0, dtype=np.int64)
    lows, highs = [empty], [empty]  # edge endpoints, low id < high id
    for gi, s in enumerate(sizes):
        pairs_total = s * (s - 1) // 2
        if pairs_total == 0 or params.p_in == 0.0:
            continue
        count = int(rng.binomial(pairs_total, params.p_in))
        u, v = _triangular_unrank(_sample_distinct(rng, pairs_total, count), s)
        lows.append(offsets[gi] + u)
        highs.append(offsets[gi] + v)
    for gi in range(len(sizes)):
        for gj in range(gi + 1, len(sizes)):
            cells_total = sizes[gi] * sizes[gj]
            if params.p_out == 0.0:
                continue
            count = int(rng.binomial(cells_total, params.p_out))
            u, v = np.divmod(_sample_distinct(rng, cells_total, count), sizes[gj])
            lows.append(offsets[gi] + u)
            highs.append(offsets[gj] + v)
    # the cells are distinct, so each edge appears once; sorting both
    # orientations by (src, dst) yields every row sorted
    src = np.concatenate(lows + highs)
    dst = np.concatenate(highs + lows)
    return Graph.from_arrays(np.bincount(src, minlength=n), dst[np.lexsort((dst, src))])


def _triangular_unrank(cells, s):
    """cell indices in [0, C(s,2)) -> arrays (u, v) with u < v, row-major.

    Row u starts at cell u*(2s-u-1)/2. The float root of that quadratic
    gives u to within one; exact integer comparisons then correct it.
    """
    cells = np.asarray(cells, dtype=np.int64)
    b = 2 * s - 1
    u = ((b - np.sqrt(b * b - 8.0 * cells)) // 2).astype(np.int64)
    u -= _row_start(u, s) > cells
    u += _row_start(u + 1, s) <= cells
    return u, u + 1 + cells - _row_start(u, s)


def _row_start(u, s):
    """First cell index of row u in the row-major upper triangle of size s."""
    return u * (2 * s - u - 1) // 2


# ---------------------------------------------------------------------------
# 2K construction


def validate_jdm(params):
    """Class sizes ``{k: n_k}`` of a realizable joint degree matrix.

    A JDM is realizable as a simple graph iff every implied class size
    n_k = (endpoint total of degree k) / k is a positive integer and no
    class pair demands more edges than distinct node pairs exist:
    entries[k,l] <= n_k*n_l for k != l and entries[k,k] <= n_k(n_k-1)/2.
    Otherwise a ParameterError lists every violation.
    """
    entries = params.entries
    violations = []
    totals = {}  # edge endpoints per degree; an entry (k, k) counts twice
    for (k, l), c in sorted(entries.items()):
        if c < 0:
            violations.append(f"negative count for ({k},{l})")
        if k < 1:
            violations.append(f"degree {k} < 1 in entry ({k},{l})")
        totals[k] = totals.get(k, 0) + c
        totals[l] = totals.get(l, 0) + c
    counts = {}
    for k, total in sorted(totals.items()):
        if k < 1:
            continue
        if total % k != 0:
            violations.append(f"degree-{k} endpoint total {total} not divisible by {k}")
        else:
            counts[k] = total // k
    if not violations:
        for (k, l), c in sorted(entries.items()):
            nk, nl = counts[k], counts[l]
            if k == l:
                cap = nk * (nk - 1) // 2
                if c > cap:
                    violations.append(f"entry ({k},{k})={c} exceeds n_k(n_k-1)/2={cap}")
            elif c > nk * nl:
                violations.append(f"entry ({k},{l})={c} exceeds n_k*n_l={nk * nl}")
    if violations:
        raise ParameterError("invalid joint degree matrix: " + "; ".join(violations))
    return counts


def generate_2k(params, seed):
    """Random simple graph realizing the given joint degree matrix exactly.

    Nodes are numbered class by class in ascending degree. Class pairs
    are wired in sorted (k, l) order, one edge at a time: a uniform node
    of class k and one of class l are drawn, and the draw is rejected if
    they are the same node or already linked. A drawn node with no free
    stub first gets one by a Neighbour Switch, which hands one of its
    edges to a random same-class node that has a free stub; that keeps
    every class pair's edge count (Stanton & Pinar 2012; Gjoka, Tillman
    & Markopoulou 2015). Once fewer than half the draws of a class pair
    would be accepted, its remaining edges are drawn from the list of
    its open node pairs instead, so no entry near its cap costs more
    than O(n_k * n_l) per class pair.
    """
    counts = params.class_sizes
    start = {}  # first node id of each degree class
    target = []
    for k in sorted(counts):
        start[k] = len(target)
        target.extend([k] * counts[k])
    n = len(target)
    free = list(target)
    adj = [set() for _ in range(n)]
    # per class, the nodes with a free stub; slot[v] is v's index there
    unsat = {k: list(range(start[k], start[k] + counts[k])) for k in counts}
    slot = [v - start[k] for v, k in enumerate(target)]
    draws = Draws(seed)

    def take_stub(v):
        free[v] -= 1
        if free[v] == 0:
            members = unsat[target[v]]
            last = members.pop()
            if last != v:
                members[slot[v]] = last
                slot[last] = slot[v]

    def neighbour_switch(v, keep):
        """Free one stub on saturated v; returns the neighbour it let go.

        ``keep`` is not chosen as the new endpoint when it is in v's
        class and has only the one free stub its next edge needs.
        """
        members = unsat[target[v]]
        if target[keep] == target[v] and free[keep] == 1:
            donor = members[draws.integers(len(members) - 1)]
            if donor == keep:
                donor = members[-1]
        else:
            donor = members[draws.integers(len(members))]
        theirs = adj[donor]
        movable = adj[v] - theirs
        movable.discard(donor)
        if not movable:  # the switch lemma says this cannot happen
            raise RuntimeError(f"no switch partner for node {v}")
        movable = sorted(movable)
        t = movable[draws.integers(len(movable))]
        adj[v].remove(t)
        adj[t].remove(v)
        theirs.add(t)
        adj[t].add(donor)
        slot[v] = len(members)
        members.append(v)
        free[v] += 1
        take_stub(donor)
        return t

    for (k, l), count in sorted(params.entries.items()):
        if count == 0:
            continue
        nk, nl, sk, sl = counts[k], counts[l], start[k], start[l]
        # cap node pairs, each hit by `hits` of the nk * nl possible draws
        cap = nk * (nk - 1) // 2 if k == l else nk * nl
        hits = 2 if k == l else 1
        open_pairs = None
        placed = 0
        while placed < count:
            if open_pairs is None and 2 * hits * (cap - placed) < nk * nl:
                open_pairs = [(v, w) for v in range(sk, sk + nk)
                              for w in range(v + 1 if k == l else sl, sl + nl)
                              if w not in adj[v]]
            if open_pairs is None:
                v = sk + draws.integers(nk)
                w = sl + draws.integers(nl)
                if v == w or w in adj[v]:
                    continue
            else:
                i = draws.integers(len(open_pairs))
                v, w = open_pairs[i]
                open_pairs[i] = open_pairs[-1]
                open_pairs.pop()
                if w in adj[v]:  # linked by a switch since it was listed
                    continue
            for a, b in ((v, w), (w, v)):
                if free[a] == 0:
                    t = neighbour_switch(a, b)
                    if open_pairs is not None and target[t] == (l if target[a] == k else k):
                        open_pairs.append((a, t) if target[a] == k else (t, a))
            adj[v].add(w)
            adj[w].add(v)
            take_stub(v)
            take_stub(w)
            placed += 1
    return Graph([sorted(nbrs) for nbrs in adj])


_GENERATORS = {
    WSParams: generate_ws,
    CBAParams: generate_cba,
    DDParams: generate_dd,
    CommunityParams: generate_community,
    TwoKParams: generate_2k,
}


def generate(params, seed):
    """Dispatch to the generator matching the params type (KeyError for any other)."""
    return _GENERATORS[type(params)](params, seed)
