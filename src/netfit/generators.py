"""The five random-graph models, with explicit seeded randomness.

Watts-Strogatz (WS), clustering Barabasi-Albert (CBA), duplication-
divergence (DD), community structure / planted partition (Com) and the
2K construction that realizes a target joint degree matrix exactly.

Every generator returns a simple :class:`~netfit.graph.Graph` and is
deterministic for a given (params, seed) pair. Randomness comes from
``numpy.random.default_rng(seed)`` only: WS, CBA and DD take its scalar
draws through :class:`~netfit.seeds.Draws`, which owns the bit generator
and gives numpy's values without numpy's per-call cost; Com draws from
the numpy generator itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .graph import Graph
from .jdm import JointDegreeMatrix, canonical_key
from .seeds import Draws


class ParameterError(ValueError):
    """Model parameters violate the model's preconditions."""


class ConstructionError(RuntimeError):
    """2K wiring could not proceed (bug or non-graphical input)."""


class GenerationError(RuntimeError):
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
    return kind(value)


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

    def validate(self):
        if self.K % 2 != 0 or not (2 <= self.K < self.n):
            raise ParameterError(f"WS requires even K with 2 <= K < n, got n={self.n} K={self.K}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"WS rewiring probability out of [0,1]: {self.p}")


@dataclass(frozen=True)
class CBAParams(_FieldwiseJson):
    n: int
    m: int
    p: float

    def validate(self):
        if not 1 <= self.m < self.n:
            raise ParameterError(f"CBA requires 1 <= m < n, got n={self.n} m={self.m}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"CBA triad probability out of [0,1]: {self.p}")


@dataclass(frozen=True)
class DDParams(_FieldwiseJson):
    n: int
    p: float

    def validate(self):
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

    @property
    def n(self):
        return sum(self.sizes)

    def validate(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ParameterError(f"community sizes must all be >= 1, got {self.sizes}")
        for name, value in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} out of [0,1]: {value}")

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
    jdm: JointDegreeMatrix

    def validate(self):
        report = validate_jdm(self.jdm)
        if not report.valid:
            raise ParameterError("invalid joint degree matrix: " + "; ".join(report.violations))

    def to_json_obj(self):
        return {"jdm": self.jdm.to_json_obj()}

    @classmethod
    def from_json_obj(cls, raw):
        return cls(jdm=JointDegreeMatrix.from_json_obj(json_key(raw, "jdm")))


# ---------------------------------------------------------------------------
# Watts-Strogatz


def generate_ws(params, seed):
    """Small-world graph: circulant ring lattice with random rewiring.

    Start from the ring where every node links its K/2 nearest neighbors
    on each side. Lattice edges are visited in (lane, position) order and
    each is independently rewired with probability p by replacing its
    second endpoint with a uniform choice among nodes that create neither
    a self-loop nor a duplicate edge (edge left in place if none exists).
    Edge count is exactly n*K/2 for every p.
    """
    params.validate()
    n, K, p = params.n, params.K, params.p
    k = K // 2
    draws = Draws(seed)
    adj = [set() for _ in range(n)]
    for j in range(1, k + 1):
        for i in range(n):
            adj[i].add((i + j) % n)
            adj[(i + j) % n].add(i)
    for j in range(1, k + 1):
        for i in range(n):
            if draws.random() >= p:
                continue
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
    return Graph([sorted(nbrs) for nbrs in adj])


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
    """Preferential attachment with triad formation (clustered BA).

    Starts from a complete graph on m nodes. Each newcomer adds exactly m
    edges: the first by preferential attachment; each later edge closes a
    triangle with probability p (uniform choice among eligible neighbors
    of this step's attachment targets), otherwise falls back to
    preferential attachment.
    """
    params.validate()
    n, m, p = params.n, params.m, params.p
    draws = Draws(seed)
    adj = [set() for _ in range(n)]
    repeated = []  # node id repeated once per incident edge endpoint
    for u in range(m):
        for w in range(u + 1, m):
            adj[u].add(w)
            adj[w].add(u)
            repeated.extend((u, w))
    for v in range(m, n):
        mine = adj[v]
        pa_targets = []
        for link in range(m):
            target = None
            if link > 0:
                triad_set = set()
                for u in pa_targets:
                    triad_set.update(adj[u])
                triad_set.discard(v)
                triad_set.difference_update(mine)
                if triad_set and draws.random() < p:
                    ordered = sorted(triad_set)
                    target = ordered[draws.integers(len(ordered))]
            if target is None:
                target = _weighted_pick(draws, repeated, adj, v)
                pa_targets.append(target)
            mine.add(target)
            adj[target].add(v)
            repeated.extend((v, target))
    return Graph([sorted(nbrs) for nbrs in adj])


# ---------------------------------------------------------------------------
# Duplication-divergence

DD_FAILURE_BUDGET_PER_NODE = 10_000


def generate_dd(params, seed):
    """Duplication-divergence growth from a single edge.

    Repeatedly duplicates a uniformly chosen node, keeping each copied
    link independently with probability p; a replica that keeps no link
    is discarded and the attempt counts as a failure. Errors out after
    10000*n failed attempts (p > 0 makes success almost sure long before).

    Rows stay sorted as they grow: a replica's id exceeds every earlier
    id, so appending it to each kept neighbor's row keeps that row in
    order, and the replica's own row is a subsequence of a sorted row.
    """
    params.validate()
    n, p = params.n, params.p
    draws = Draws(seed)
    adj = [[1], [0]]
    failures = 0
    budget = DD_FAILURE_BUDGET_PER_NODE * n
    while len(adj) < n:
        nbrs = adj[draws.integers(len(adj))]
        kept = draws.thin(nbrs, p)  # one coin per neighbor, in row order
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
    return Graph(adj)


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
    params.validate()
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
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return Graph([flat[a:b] for a, b in zip([0] + ends[:-1], ends)])


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


@dataclass(frozen=True)
class JdmValidation:
    valid: bool
    violations: tuple
    degree_counts: dict


def validate_jdm(jdm):
    """Check the graphicality conditions of a joint degree matrix.

    A JDM is realizable as a simple graph iff every implied class size
    n_k = (endpoint total of degree k) / k is a positive integer and no
    class pair demands more edges than distinct node pairs exist:
    entries[k,l] <= n_k*n_l for k != l and entries[k,k] <= n_k(n_k-1)/2.
    """
    violations = []
    for (k, l), c in sorted(jdm.entries.items()):
        if c < 0:
            violations.append(f"negative count for ({k},{l})")
        if k < 1:
            violations.append(f"degree {k} < 1 in entry ({k},{l})")
    counts = {}
    for k, total in sorted(jdm.endpoint_totals().items()):
        if k < 1:
            continue
        if total % k != 0:
            violations.append(f"degree-{k} endpoint total {total} not divisible by {k}")
        else:
            counts[k] = total // k
    if not violations:
        for (k, l), c in sorted(jdm.entries.items()):
            nk, nl = counts[k], counts[l]
            if k == l:
                cap = nk * (nk - 1) // 2
                if c > cap:
                    violations.append(f"entry ({k},{k})={c} exceeds n_k(n_k-1)/2={cap}")
            elif c > nk * nl:
                violations.append(f"entry ({k},{l})={c} exceeds n_k*n_l={nk * nl}")
    return JdmValidation(valid=not violations, violations=tuple(violations), degree_counts=counts)


class _StubPool:
    """Free-stub bookkeeping for one degree class: lowest-id-first access."""

    def __init__(self, members, free):
        self.members = members  # ascending node ids of this class
        self.free = free  # shared free-stub array
        self.heap = list(members)
        heapq.heapify(self.heap)

    def push(self, v):
        heapq.heappush(self.heap, v)

    def iter_free(self):
        """Yield nodes with free stubs in ascending id order."""
        seen = set()
        kept = []
        try:
            while self.heap:
                v = heapq.heappop(self.heap)
                if self.free[v] <= 0 or v in seen:
                    continue
                seen.add(v)
                kept.append(v)
                yield v
        finally:
            for v in kept:
                heapq.heappush(self.heap, v)

    def saturated(self):
        return [v for v in self.members if self.free[v] <= 0]


def generate_2k(jdm, seed=None):
    """Simple graph realizing the given joint degree matrix exactly.

    Wires free stubs class pair by class pair (decreasing k+l), always
    pairing the lowest-id nodes that still have free stubs. When a wanted
    endpoint is saturated, a Neighbour Switch hands one of its edges to a
    same-class node with a free stub, which changes neither the degree
    demands nor the class edge counts. The construction itself is
    deterministic; ``seed`` is accepted for generator-interface
    uniformity only.
    """
    report = validate_jdm(jdm)
    if not report.valid:
        raise ParameterError("invalid joint degree matrix: " + "; ".join(report.violations))
    counts = report.degree_counts
    degrees_sorted = sorted(counts)
    members = {k: [] for k in degrees_sorted}
    target = []
    for k in degrees_sorted:
        for _ in range(counts[k]):
            v = len(target)
            target.append(k)
            members[k].append(v)
    n = len(target)
    free = list(target)
    adj = [set() for _ in range(n)]
    pools = {k: _StubPool(members[k], free) for k in degrees_sorted}

    def neighbour_switch(v, klass, protected):
        """Free one stub on saturated v by re-homing one of its edges."""
        for donor in pools[klass].iter_free():
            if donor == v:
                continue
            if donor in protected and free[donor] < 2:
                continue
            for t in sorted(adj[v]):
                if t != donor and t not in adj[donor]:
                    adj[v].discard(t)
                    adj[t].discard(v)
                    adj[donor].add(t)
                    adj[t].add(donor)
                    free[v] += 1
                    free[donor] -= 1
                    pools[klass].push(v)
                    return
            # theory says a transferable neighbor always exists; keep
            # scanning donors defensively rather than trusting it
        raise ConstructionError(f"no switch partner for node {v} in degree class {klass}")

    def find_pair(k, l):
        for v in pools[k].iter_free():
            for w in pools[l].iter_free():
                if v != w and w not in adj[v]:
                    return v, w
        free_k = list(pools[k].iter_free())
        free_l = list(pools[l].iter_free())
        for v in free_k:
            for w in pools[l].saturated():
                if v != w and w not in adj[v]:
                    return v, w
        for w in free_l:
            for v in pools[k].saturated():
                if v != w and w not in adj[v]:
                    return v, w
        for v in pools[k].saturated():
            for w in pools[l].saturated():
                if v != w and w not in adj[v]:
                    return v, w
        raise ConstructionError(f"no unconnected node pair left for class ({k},{l})")

    order = sorted(jdm.entries, key=lambda kl: (-(kl[0] + kl[1]), -kl[1], -kl[0]))
    for k, l in order:
        for _ in range(jdm.entries[canonical_key(k, l)]):
            v, w = find_pair(k, l)
            if free[v] <= 0:
                neighbour_switch(v, k, (w,))
            if free[w] <= 0:
                neighbour_switch(w, l, (v,))
            adj[v].add(w)
            adj[w].add(v)
            free[v] -= 1
            free[w] -= 1
    if any(free):
        raise ConstructionError("free stubs remain after wiring all classes")
    return Graph(tuple(tuple(sorted(s)) for s in adj))


_GENERATORS = {
    WSParams: generate_ws,
    CBAParams: generate_cba,
    DDParams: generate_dd,
    CommunityParams: generate_community,
    TwoKParams: lambda params, seed: generate_2k(params.jdm, seed),
}


def generate(params, seed):
    """Dispatch to the generator matching the params type."""
    generator = _GENERATORS.get(type(params))
    if generator is None:
        raise ParameterError(f"unknown params type {type(params).__name__}")
    return generator(params, seed)
