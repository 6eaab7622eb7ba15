"""Per-model parameter fitting against a target graph.

Closed-form parameters (sizes, degree-derived integers, community edge
densities, the joint degree matrix) are computed directly. The remaining
free probability p of WS, CBA and DD is the root of the gap between the
model's designated metric (clustering, degree std for WS_STD,
clustering, density) and the target's, signed to rise with p: each
metric is monotone in p. The metric is smoothed by averaging a fixed
number of generation replicates whose seeds are the same at every
candidate (common random numbers), so the gap moves smoothly with p.
The search asks only for the gap at a candidate. It grows a bracket
upward from the lower bound of p's range in doubling steps until the
gap changes sign, then bisects it until it is at most 1e-4 wide (in
log10 p for WS). A zero gap counts as past the root. When no sign
change occurs in the range, the fit is the bound reached, with a note.
The budget caps the number of distinct candidates; the report gives the
evaluated candidate with the smallest gap, ties toward the smaller p.

A simulation measures the per-node rows that the model's row builder
(``generators.ws_rows``, ``cba_rows``, ``dd_rows``) returns and builds
no ``Graph``: the value is bit for bit what the metric gives on the
generated graph. Every graph the library returns is still checked.

A replicate's rows depend on p only through its coins, each of which
compares a raw word with the limit ``seeds.coin_limit(p)``. A row
builder also returns the interval ``(below, above)`` of limits over
which every coin it compared falls the same way, so at a candidate
whose limit L has ``below < L <= above`` that replicate would draw the
same words and build the same rows. A fit keeps each build's interval
and measured value per replicate and replays the value there instead of
building again. The candidates, the gaps and every report field but
``builds`` (the row builds actually run) are what building every
replicate would give.

Community detection for the community-structure model is the built-in
multi-level modularity optimizer (:func:`louvain`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    TwoKParams,
    WSParams,
    cba_rows,
    dd_rows,
    json_key,
    ws_rows,
)
from .graph import ItemFailure, ParameterError
from .metrics import (
    average_clustering,
    clustering_of_rows,
    density,
    edge_density,
    joint_degree_matrix,
)

DEFAULT_BUDGET = 60
DEFAULT_REPLICATES = 5


class UnfittableError(ItemFailure, ValueError):
    """The target graph cannot supply valid parameters for the model."""


@dataclass(frozen=True)
class FitReport:
    """Outcome of fitting one model to one graph."""

    model: str
    params: object
    objective_value: float
    evaluations: int
    replicates_per_eval: int
    seed: int = 0
    notes: tuple = ()
    builds: int = 0  # row builds run; the others of evaluations * replicates were replayed

    def to_json_obj(self):
        return {
            "model": self.model,
            "params": self.params.to_json_obj(),
            "objective_value": self.objective_value,
            "evaluations": self.evaluations,
            "replicates_per_eval": self.replicates_per_eval,
            "master_seed": self.seed,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Root search over a rising gap

# The first bracket step, as a share of the search range; each later step doubles.
FIRST_STEP = 1.0 / 4
# Bisection stops once the bracket is this narrow in the search space.
TOLERANCE = 1e-4


def _search(gap_at, lo, hi, budget, log_space=False):
    """Root of ``gap_at(q)``, which rises with q, for q in [lo, hi].

    Returns (q, |gap| at q, evaluations, notes). At most ``budget``
    distinct candidates are evaluated, each once.
    """
    to_q = (lambda x: 10.0**x) if log_space else (lambda x: x)
    a, b = (math.log10(lo), math.log10(hi)) if log_space else (lo, hi)
    gaps = {}  # candidate q -> gap_at(q), in evaluation order

    def past_root(x):
        """Whether x is at or past the root (a zero gap counts); None once over budget."""
        q = to_q(x)
        if q not in gaps:
            if len(gaps) >= budget:
                return None
            gaps[q] = gap_at(q)
        return bool(gaps[q] >= 0)

    # grow a bracket upward from the lower bound
    below, x, step = None, a, (b - a) * FIRST_STEP
    side = past_root(x)
    while side is False and x < b:
        below, x, step = x, min(x + step, b), 2 * step
        side = past_root(x)
    if side is not None and (below is None or not side):
        # no sign change inside the range: the fit is the bound reached
        q = to_q(x)
        notes = (f"target beyond model range: p at bound {q}",) if gaps[q] else ()
        return q, abs(gaps[q]), len(gaps), notes
    while side is not None and x - below > TOLERANCE:
        mid = (below + x) / 2
        side = past_root(mid)
        if side:
            x = mid
        elif side is False:
            below = mid
    q, gap = min(gaps.items(), key=lambda item: (abs(item[1]), item[0]))
    return q, abs(gap), len(gaps), ()


def _round_half_up(x):
    return math.floor(x + 0.5)


def _nearest_even(x):
    """Even integer closest to x; exact ties round up."""
    return 2 * _round_half_up(x / 2.0)


def _degree_std(rows):
    """Population std of the row lengths, over the same int64 array as ``Graph.degree_array``."""
    return float(np.std(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))))


# ---------------------------------------------------------------------------
# Model fits


def ws_base_params(g):
    """(n, K) for a WS fit: K is the average degree coerced to even >= 2."""
    n = g.node_count
    avg_deg = 2 * g.edge_count / n
    if avg_deg < 1:
        raise UnfittableError(f"average degree {avg_deg:.3f} < 1, WS not fittable")
    K = max(2, _nearest_even(avg_deg))
    notes = []
    if K >= n:
        K = n - 2 if n % 2 == 0 else n - 1
        notes.append(f"K clamped to {K} (rounded average degree reached n)")
    if K < 2:
        raise UnfittableError(f"graph too small for a WS lattice (n={n})")
    return n, K, tuple(notes)


def _fit_searched(model, params_at, build, measure, target, rises, lo, hi, budget,
                  replicates, seed, notes=(), log_space=False):
    """FitReport of the p in [lo, hi] whose generated ``measure`` matches ``target``.

    ``params_at(q)`` is the model's params at candidate q and ``build``
    its row builder, which returns (rows, interval); the metric rises
    with p when ``rises`` is true. Replicate r has seed
    ``seeds.derive(seed, r)`` at every candidate.
    """
    replicate_seeds = [seeds.derive(seed, r) for r in range(replicates)]
    built = [[] for _ in replicate_seeds]  # per replicate: [(below, above, value)], one per build

    def gap_at(q):
        limit = seeds.coin_limit(q)
        acc = 0.0
        for s, runs in zip(replicate_seeds, built):
            for below, above, value in runs:
                if below < limit <= above:  # every coin falls as in that build
                    break
            else:
                rows, (below, above) = build(params_at(q), s)
                value = measure(rows)
                del rows  # so the next replicate's build does not hold two row sets at once
                runs.append((below, above, value))
            acc += value
        mean = acc / replicates
        return mean - target if rises else target - mean

    q, objective, evaluations, bound_notes = _search(gap_at, lo, hi, budget, log_space)
    return FitReport(
        model=model,
        params=params_at(q),
        objective_value=objective,
        evaluations=evaluations,
        replicates_per_eval=replicates,
        seed=seed,
        notes=notes + bound_notes,
        builds=sum(map(len, built)),
    )


def _fit_ws(g, model, measure, target, rises, budget, replicates, seed):
    """WS fit: (n, K) from :func:`ws_base_params`, p searched in log space
    over [0.001, 1]; the lower bound avoids the degenerate lattice."""
    n, K, notes = ws_base_params(g)
    return _fit_searched(model, lambda q: WSParams(n=n, K=K, p=q), ws_rows, measure, target,
                         rises, 0.001, 1.0, budget, replicates, seed, notes, log_space=True)


def fit_ws(g, budget=DEFAULT_BUDGET, replicates=DEFAULT_REPLICATES, seed=0):
    """Fit WS by matching clustering, which falls with p."""
    return _fit_ws(g, "WS", clustering_of_rows, average_clustering(g), False,
                   budget, replicates, seed)


def fit_ws_std(g, budget=DEFAULT_BUDGET, replicates=DEFAULT_REPLICATES, seed=0):
    """Fit WS_STD: WS by matching degree std, which rises with p."""
    return _fit_ws(g, "WS_STD", _degree_std, float(np.std(g.degree_array)), True,
                   budget, replicates, seed)


def fit_cba(g, budget=DEFAULT_BUDGET, replicates=DEFAULT_REPLICATES, seed=0):
    """Fit CBA: m from the edge/node ratio, p in [0, 1] by matching clustering,
    which rises with p."""
    n = g.node_count
    if n < 2:
        raise UnfittableError("CBA needs at least 2 nodes")
    m = max(1, _round_half_up(g.edge_count / n))
    notes = ()
    if m >= n:
        m = n - 1
        notes = (f"m clamped to {m} (n={n})",)
    return _fit_searched("CBA", lambda q: CBAParams(n=n, m=m, p=q), cba_rows,
                         clustering_of_rows, average_clustering(g), True, 0.0, 1.0,
                         budget, replicates, seed, notes)


def fit_dd(g, budget=DEFAULT_BUDGET, replicates=DEFAULT_REPLICATES, seed=0):
    """Fit DD: p in [0.02, 1] by matching graph density, which rises with p."""
    n = g.node_count
    if n < 2:
        raise UnfittableError("DD needs at least 2 nodes")
    return _fit_searched("DD", lambda q: DDParams(n=n, p=q), dd_rows,
                         lambda rows: edge_density(n, sum(map(len, rows)) // 2), density(g),
                         True, 0.02, 1.0, budget, replicates, seed)


# ---------------------------------------------------------------------------
# Louvain community detection


def modularity(g, community):
    """Q = sum_c [e_c/m - (d_c/2m)^2] for the given node->community map."""
    m = g.edge_count
    if m < 1:
        raise ValueError("modularity needs at least one edge")
    internal, degree_sum = _community_counts(g, community)
    return sum(e / m - (d / (2 * m)) ** 2 for e, d in zip(internal, degree_sum))


def _community_counts(g, community):
    """(edges inside, degree sum) per community id as int lists, from the edge arrays."""
    src, dst = g.edge_endpoints
    label = np.asarray(community, dtype=np.int64)
    n_comm = int(label.max()) + 1
    a, b = label[src], label[dst]
    internal = np.bincount(a[a == b], minlength=n_comm) // 2  # both orientations
    return internal.tolist(), np.bincount(a, minlength=n_comm).tolist()


def _local_moves(n, weights, degrees, total_weight, order):
    """One Louvain level: move nodes between communities until no gain.

    Self-loop weights shift every candidate's gain equally, so they do
    not appear in the comparison.
    """
    comm = list(range(n))
    tot = degrees[:]  # degree sum per community
    improved_any = False
    moved = True
    while moved:
        moved = False
        for u in order:
            cu = comm[u]
            ku = degrees[u]
            # detach u
            tot[cu] -= ku
            comm[u] = -1
            link = {}
            for v, w in weights[u].items():
                c = comm[v]
                if c >= 0:
                    link[c] = link.get(c, 0.0) + w
            best_c = cu
            best_gain = link.get(cu, 0.0) - tot[cu] * ku / (2.0 * total_weight)
            for c in sorted(link):
                if c == cu:
                    continue
                gain = link[c] - tot[c] * ku / (2.0 * total_weight)
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            comm[u] = best_c
            tot[best_c] += ku
            if best_c != cu:
                moved = True
                improved_any = True
    return comm, improved_any


def louvain(g, seed=0):
    """Multi-level modularity optimization (local moves + aggregation).

    Returns the tuple of dense community ids (0..c-1, numbered by first
    appearance) per node. Sweep order is shuffled once per level from
    the seed; everything else is deterministic, so the partition is
    reproducible.
    """
    if g.edge_count < 1:
        raise ValueError("louvain needs at least one edge")
    rng = np.random.default_rng(seed)
    n = g.node_count
    total_weight = float(g.edge_count)
    # level graph state
    weights = [dict.fromkeys(g.neighbors(u), 1.0) for u in range(n)]
    loops = [0.0] * n
    membership = list(range(n))  # original node -> current level community

    while True:
        level_n = len(weights)
        degrees = [sum(weights[u].values()) + 2.0 * loops[u] for u in range(level_n)]
        order = [int(i) for i in rng.permutation(level_n)]
        comm, improved = _local_moves(level_n, weights, degrees, total_weight, order)
        # renumber communities densely by first appearance in node order
        remap = {}
        for u in range(level_n):
            if comm[u] not in remap:
                remap[comm[u]] = len(remap)
            comm[u] = remap[comm[u]]
        membership = [comm[membership[orig]] for orig in range(n)]
        if not improved or len(remap) == level_n:
            break
        # aggregate level graph
        new_n = len(remap)
        new_weights = [dict() for _ in range(new_n)]
        new_loops = [0.0] * new_n
        for u in range(level_n):
            cu = comm[u]
            new_loops[cu] += loops[u]
            for v, w in weights[u].items():
                cv = comm[v]
                if cu == cv:
                    if u < v:
                        new_loops[cu] += w
                else:
                    new_weights[cu][cv] = new_weights[cu].get(cv, 0.0) + w
        weights = new_weights
        loops = new_loops

    return tuple(membership)


def fit_community(g, seed=0, community=None):
    """Fit the planted-partition model from a community split.

    ``community`` gives each node's dense community id (0..c-1) and
    defaults to :func:`louvain`'s split at ``seed``. p_in is the pooled
    density inside communities, p_out the pooled density across them;
    an impossible denominator (e.g. all singleton communities) yields
    probability 0 with an explanatory note.
    """
    if g.edge_count < 1:
        raise UnfittableError("community fit needs at least one edge")
    if community is None:
        community = louvain(g, seed=seed)
    sizes = tuple(np.bincount(community).tolist())
    intra = sum(_community_counts(g, community)[0])
    possible_in = sum(s * (s - 1) // 2 for s in sizes)
    n = g.node_count
    possible_out = n * (n - 1) // 2 - possible_in
    notes = []
    if possible_in > 0:
        p_in = intra / possible_in
    else:
        p_in = 0.0
        notes.append("p_in denominator is zero (all communities are singletons)")
    if possible_out > 0:
        p_out = (g.edge_count - intra) / possible_out
    else:
        p_out = 0.0
        notes.append("p_out denominator is zero (a single community spans the graph)")
    return FitReport(
        model="Com",
        params=CommunityParams(sizes=sizes, p_in=p_in, p_out=p_out),
        objective_value=0.0,
        evaluations=0,
        replicates_per_eval=0,
        seed=seed,
        notes=tuple(notes),
    )


def fit_2k(g):
    """Fit the 2K model: the joint degree matrix itself is the parameter."""
    return FitReport(
        model="2K",
        params=joint_degree_matrix(g),
        objective_value=0.0,
        evaluations=0,
        replicates_per_eval=0,
    )


# ---------------------------------------------------------------------------
# Model registry


@dataclass(frozen=True)
class ModelSpec:
    """A model: name, params type, ``fit(g, budget, replicates, seed)``, and
    whether it competes in stability and the category/subcategory tasks."""

    name: str
    params_type: type
    fit: object
    competes: bool = True


# Every model, in pipeline order (the row order of dataset.csv).
MODELS = (
    ModelSpec("WS", WSParams, fit_ws),
    ModelSpec("WS_STD", WSParams, fit_ws_std, competes=False),
    ModelSpec("CBA", CBAParams, fit_cba),
    ModelSpec("DD", DDParams, fit_dd),
    ModelSpec("Com", CommunityParams, lambda g, b, r, s: fit_community(g, seed=s)),
    ModelSpec("2K", TwoKParams, lambda g, b, r, s: fit_2k(g)),
)
_MODEL_BY_NAME = {spec.name: spec for spec in MODELS}


def model_spec(name):
    """The :data:`MODELS` entry called ``name``; ParameterError if there is none."""
    spec = _MODEL_BY_NAME.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ParameterError(f"unknown model {name!r}")
    return spec


def fit_model(g, model, budget=DEFAULT_BUDGET, replicates=DEFAULT_REPLICATES, seed=0):
    """Fit one model by name; see :data:`MODELS` for valid names."""
    return model_spec(model).fit(g, budget, replicates, seed)


def params_from_json_obj(obj):
    """(model, params, seed or None) from a fit report's JSON object.

    Any malformed part, and any value the params type refuses, raises a
    ParameterError that says what is wrong.
    """
    spec = model_spec(json_key(obj, "model"))
    params = spec.params_type.from_json_obj(json_key(obj, "params"))
    seed = obj.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return spec.name, params, seed
