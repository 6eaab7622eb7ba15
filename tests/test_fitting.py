import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netfit.fitting as fitting_module
from netfit.fitting import (
    DEFAULT_BUDGET,
    DEFAULT_REPLICATES,
    MODELS,
    TOLERANCE,
    UnfittableError,
    _fit_searched,
    _search,
    fit_2k,
    fit_cba,
    fit_community,
    fit_dd,
    fit_model,
    fit_ws,
    fit_ws_std,
    louvain,
    model_spec,
    modularity,
    params_from_json_obj,
    ws_base_params,
)
from netfit.dataset import SUBCATEGORIES
from netfit.generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    GenerationError,
    TwoKParams,
    WSParams,
    cba_rows,
    dd_rows,
    generate_cba,
    generate_community,
    generate_dd,
    generate_ws,
    ws_rows,
)
from netfit.graph import Graph, load_edge_list
from netfit.metrics import average_clustering, clustering_of_rows, density
from netfit.seeds import coin_limit, derive

from helpers import (
    best_partition_bruteforce,
    graph_from_edges,
    reference_fit_searched,
    reference_simulate,
)

TRIANGLE = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
TWO_TRIANGLES_BRIDGE = graph_from_edges(
    6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
)
K4 = graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K44 = graph_from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])


class TestModularity:
    def test_whole_graph_is_zero(self):
        assert modularity(TRIANGLE, (0, 0, 0)) == pytest.approx(0.0)
        assert modularity(K44, (0,) * 8) == pytest.approx(0.0)

    def test_triangle_singletons(self):
        assert modularity(TRIANGLE, (0, 1, 2)) == pytest.approx(-1 / 3)

    def test_in_range(self):
        q = modularity(TWO_TRIANGLES_BRIDGE, (0, 0, 0, 1, 1, 1))
        assert -1.0 <= q <= 1.0


class TestLouvain:
    def test_two_triangles_with_bridge(self):
        part = louvain(TWO_TRIANGLES_BRIDGE, seed=3)
        groups = {frozenset(i for i, c in enumerate(part) if c == cid)
                  for cid in range(max(part) + 1)}
        assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_matches_bruteforce_optimum(self):
        best_q, best_blocks = best_partition_bruteforce(TWO_TRIANGLES_BRIDGE, modularity)
        part = louvain(TWO_TRIANGLES_BRIDGE, seed=1)
        assert modularity(TWO_TRIANGLES_BRIDGE, part) == pytest.approx(best_q)

    def test_deterministic_given_seed(self):
        g = generate_community(CommunityParams((20, 20, 20), 0.3, 0.02), 7)
        assert louvain(g, seed=5) == louvain(g, seed=5)

    def test_community_ids_are_dense(self):
        g = generate_community(CommunityParams((15, 15), 0.4, 0.02), 2)
        part = louvain(g, seed=9)
        assert set(part) == set(range(max(part) + 1))


class TestFitWS:
    def test_base_params_rounding(self):
        # C10(1,2): average degree exactly 4
        g = generate_ws(WSParams(10, 4, 0.0), 0)
        n, K, _ = ws_base_params(g)
        assert (n, K) == (10, 4)

    def test_k4_K_clamped_below_n(self):
        n, K, notes = ws_base_params(K4)  # avg degree 3 rounds to 4 = n
        assert K < 4 and K % 2 == 0
        assert notes

    def test_unfittable_sparse(self):
        g = graph_from_edges(6, [(0, 1)])
        with pytest.raises(UnfittableError):
            fit_ws(g)

    def test_lattice_boundary_recovery(self):
        g = generate_ws(WSParams(10, 4, 0.0), 0)
        fit = fit_ws(g, budget=25, replicates=2, seed=3)
        assert fit.params.p == pytest.approx(0.001)

    def test_never_below_lower_bound(self):
        g = generate_ws(WSParams(30, 4, 0.1), 1)
        fit = fit_ws(g, budget=30, replicates=2, seed=2)
        assert fit.params.p >= 0.001
        assert fit.model == "WS"
        assert fit.evaluations <= 30

    def test_search_never_evaluates_below_bound(self, draws):
        g = generate_ws(WSParams(20, 4, 0.2), 3)
        fit_ws(g, budget=25, replicates=1, seed=1)
        assert draws
        assert min(draws) >= 0.001

    def test_degree_std_mode(self):
        g = generate_ws(WSParams(40, 4, 0.3), 5)
        fit = fit_ws_std(g, budget=20, replicates=2, seed=2)
        assert fit.model == "WS_STD"
        assert 0.001 <= fit.params.p <= 1.0

    def test_objective_replayable(self):
        g = generate_ws(WSParams(40, 4, 0.2), 11)
        fit = fit_ws(g, budget=20, replicates=3, seed=4)
        target = average_clustering(g)

        def simulate(q, s):
            return average_clustering(generate_ws(WSParams(fit.params.n, fit.params.K, q), s))

        mean = np.mean([simulate(fit.params.p, derive(4, r)) for r in range(3)])
        replay = abs(target - mean)
        assert replay == pytest.approx(fit.objective_value, abs=1e-12)


class TestFitCBA:
    def test_m_rounding_k4(self):
        fit = fit_cba(K4, budget=12, replicates=2, seed=1)
        assert fit.params.n == 4
        assert fit.params.m == 2

    def test_zero_clustering_target_hits_boundary(self):
        tree = generate_cba(CBAParams(60, 1, 0.0), 3)
        fit = fit_cba(tree, budget=15, replicates=2, seed=1)
        assert fit.params.p == 0.0
        assert fit.params.m == 1

    def test_report_fields(self):
        g = generate_cba(CBAParams(40, 2, 0.5), 9)
        fit = fit_cba(g, budget=15, replicates=2, seed=6)
        assert fit.model == "CBA"
        assert fit.replicates_per_eval == 2
        assert 0 <= fit.objective_value
        assert fit.evaluations <= 15


@pytest.fixture
def draws(monkeypatch):
    """Every candidate p that the WS, CBA and DD searches ask the gap at, in order."""
    seen = []
    real = fitting_module._search

    def spy(gap_at, *args, **kwargs):
        def spied(q):
            seen.append(q)
            return gap_at(q)

        return real(spied, *args, **kwargs)

    monkeypatch.setattr(fitting_module, "_search", spy)
    return seen


@pytest.fixture
def builds(monkeypatch):
    """Every (p, seed) that the WS, CBA and DD fits run their row builders with."""
    seen = []
    for name in ("ws_rows", "cba_rows", "dd_rows"):
        def spy(params, seed, real=getattr(fitting_module, name)):
            seen.append((params.p, seed))
            return real(params, seed)

        monkeypatch.setattr(fitting_module, name, spy)
    return seen


STAR = graph_from_edges(12, [(0, v) for v in range(1, 12)])


def _degree_std(g):
    return float(np.std(g.degree_array))


class TestSearch:
    def test_candidates_share_replicate_seeds(self, draws, builds):
        # the values replayed from these builds are checked against building every
        # replicate at every candidate by test_fit_equals_the_uncached_search_on_the_corpus
        fit_cba(generate_cba(CBAParams(40, 2, 0.5), 9), budget=15, replicates=3, seed=6)
        replicate_seeds = [derive(6, r) for r in range(3)]
        assert len(draws) > 2
        assert builds[:3] == [(draws[0], s) for s in replicate_seeds]
        assert {s for _, s in builds} == set(replicate_seeds)
        assert {p for p, _ in builds} <= set(draws)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    @pytest.mark.parametrize("model", ["WS", "WS_STD", "CBA", "DD"])
    def test_budget_caps_distinct_candidates(self, draws, builds, model, budget):
        g = generate_community(CommunityParams((15, 15), 0.5, 0.1), 4)
        fit = fit_model(g, model, budget=budget, replicates=2, seed=1)
        evaluated = set(draws)
        assert fit.evaluations == len(evaluated) == len(draws) <= budget
        assert fit.params.p in evaluated
        assert fit.builds == len(builds) <= fit.evaluations * fit.replicates_per_eval

    @pytest.mark.parametrize(
        "fit, graph, bound, notes",
        [
            (lambda g: fit_ws(g, budget=25, replicates=2, seed=3),
             generate_ws(WSParams(10, 4, 0.0), 0), 0.001, ()),
            (lambda g: fit_cba(g, budget=15, replicates=2, seed=1),
             generate_cba(CBAParams(60, 1, 0.0), 3), 0.0, ()),
            (lambda g: fit_dd(g, budget=60, replicates=5, seed=2),
             K4, 1.0, ("target beyond model range: p at bound 1.0",)),
            (lambda g: fit_cba(g, budget=15, replicates=2, seed=1),
             K44, 0.0, ("target beyond model range: p at bound 0.0",)),
            (lambda g: fit_ws_std(g, budget=25, replicates=2, seed=1),
             STAR, 1.0, ("target beyond model range: p at bound 1.0",)),
        ],
        ids=["WS-lattice", "CBA-tree", "DD-K4", "CBA-bipartite", "WS_STD-star"],
    )
    def test_no_sign_change_fits_the_bound(self, fit, graph, bound, notes):
        report = fit(graph)
        assert report.params.p == bound
        assert report.notes == notes
        assert (report.objective_value > 0) == bool(notes)

    def test_brackets_the_root_of_an_exact_gap(self):
        q, gap, evaluations, notes = _search(lambda q: q - 0.3, 0.0, 1.0, budget=60)
        assert q == pytest.approx(0.3, abs=TOLERANCE)
        assert gap == pytest.approx(0.0, abs=TOLERANCE)
        assert evaluations < 60
        assert notes == ()

    @pytest.mark.parametrize("rises, root", [(True, 0.3), (False, 0.7)],
                             ids=["rising-metric", "falling-metric"])
    def test_fit_orients_the_gap_by_the_metrics_direction(self, rises, root):
        # rows are the candidate itself; the empty interval never replays
        measure = (lambda q: q) if rises else (lambda q: 1.0 - q)
        fit = _fit_searched("X", lambda q: q, lambda q, s: (q, (0, 0)), measure, 0.3, rises,
                            0.0, 1.0, 60, 1, 0)
        assert fit.params == pytest.approx(root, abs=TOLERANCE)
        assert fit.objective_value == pytest.approx(0.0, abs=TOLERANCE)
        assert fit.evaluations < 60
        assert fit.notes == ()

    def test_tied_gaps_report_the_smaller_p(self):
        # every candidate of a step gap is 0.5 from zero
        assert _search(lambda q: float(q >= 0.5) - 0.5, 0.0, 1.0, budget=60) == (0.0, 0.5, 16, ())

    def test_sparse_dd_target_never_evaluates_p_1(self, draws):
        fit = fit_dd(generate_dd(DDParams(150, 0.45), 8), budget=60, replicates=4, seed=3)
        assert max(draws) < 1.0
        assert fit.notes == ()

    # The directions the search brackets with; at n = 10 WS clustering is
    # not monotone (rewiring near p = 0.03 raises it), so these use n >= 54.
    @pytest.mark.parametrize(
        "make, measure, ps, rises",
        [
            (lambda p, s: generate_ws(WSParams(60, 6, p), s), average_clustering,
             (0.001, 0.01, 0.05, 0.2, 0.5, 1.0), False),
            (lambda p, s: generate_ws(WSParams(60, 6, p), s), _degree_std,
             (0.3, 0.5, 0.7, 0.85, 1.0), True),
            (lambda p, s: generate_cba(CBAParams(54, 2, p), s), average_clustering,
             (0.0, 0.05, 0.1, 0.2, 0.5), True),
        ],
        ids=["WS-clustering-falls", "WS-degree-std-rises", "CBA-clustering-rises"],
    )
    def test_search_metric_monotone_in_p(self, make, measure, ps, rises):
        means = [np.mean([measure(make(p, s)) for s in range(100)]) for p in ps]
        steps = np.diff(means)
        assert np.all(steps > 0 if rises else steps < 0), means


class TestFitDD:
    def test_density_monotone_in_p_at_n4(self):
        # the boundary-fit rationale: expected density increases with p
        means = []
        for q in (0.2, 0.5, 0.8, 1.0):
            means.append(
                np.mean([density(generate_dd(DDParams(4, q), s)) for s in range(1500)])
            )
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_complete_graph_pushes_p_to_boundary_region(self):
        # true mean-density differences near p=1 are ~1e-3, below any
        # practical smoothing noise, so assert the boundary region rather
        # than the exact noiseless argmin p=1.0
        fit = fit_dd(K4, budget=60, replicates=150, seed=2)
        assert fit.params.p >= 0.8

    def test_single_edge_exact(self):
        g = graph_from_edges(2, [(0, 1)])
        fit = fit_dd(g, budget=10, replicates=2, seed=2)
        assert fit.params.n == 2
        assert fit.objective_value == 0.0

    def test_density_recovery(self):
        target = generate_dd(DDParams(150, 0.45), 8)
        fit = fit_dd(target, budget=60, replicates=4, seed=3)
        gap = fit.objective_value
        assert gap < 0.25 * density(target)


class TestFitCommunity:
    def test_two_disjoint_triangles_exact_partition(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        fit = fit_community(g, community=(0, 0, 0, 1, 1, 1))
        assert fit.params.p_in == 1.0
        assert fit.params.p_out == 0.0

    def test_two_triangles_with_bridge(self):
        fit = fit_community(TWO_TRIANGLES_BRIDGE, seed=2)
        assert fit.params.p_in == pytest.approx(1.0)
        assert fit.params.p_out == pytest.approx(1 / 9)

    def test_k44_singleton_fallback_formula(self):
        fit = fit_community(K44, community=tuple(range(8)))
        assert fit.params.p_in == 0.0
        assert any("p_in" in note for note in fit.notes)
        assert fit.params.p_out == pytest.approx(16 / 28)

    def test_labels_give_the_params_of_louvains_split(self):
        g = generate_community(CommunityParams((20, 20, 20), 0.3, 0.02), 7)
        labels = louvain(g, seed=4)
        fit = fit_community(g, community=labels)
        assert fit.params == fit_community(g, seed=4).params
        assert fit.params.sizes == tuple(labels.count(c) for c in range(max(labels) + 1))

    def test_probabilities_always_valid(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            g = generate_community(CommunityParams((12, 12, 6), 0.4, 0.05), seed)
            fit = fit_community(g, seed=seed)
            assert 0.0 <= fit.params.p_in <= 1.0
            assert 0.0 <= fit.params.p_out <= 1.0
            assert sum(fit.params.sizes) == g.node_count


class TestFit2K:
    def test_triangle(self):
        fit = fit_2k(TRIANGLE)
        assert fit.params.entries == {(2, 2): 3}
        assert fit.objective_value == 0.0

    def test_path3(self):
        fit = fit_2k(graph_from_edges(3, [(0, 1), (1, 2)]))
        assert fit.params.entries == {(1, 2): 2}

    def test_density_preserved_through_generation(self):
        from netfit.generators import generate_2k

        g = generate_cba(CBAParams(60, 2, 0.4), 5)
        fit = fit_2k(g)
        h = generate_2k(fit.params, 0)
        assert density(h) == pytest.approx(density(g), abs=1e-12)


class TestFitModelDispatch:
    def test_all_models(self):
        g = generate_community(CommunityParams((15, 15), 0.5, 0.1), 4)
        for spec in MODELS:
            fit = fit_model(g, spec.name, budget=8, replicates=2, seed=1)
            assert fit.model == spec.name
            assert type(fit.params) is spec.params_type

    def test_registry_order_and_competes(self):
        assert [(s.name, s.params_type, s.competes) for s in MODELS] == [
            ("WS", WSParams, True),
            ("WS_STD", WSParams, False),
            ("CBA", CBAParams, True),
            ("DD", DDParams, True),
            ("Com", CommunityParams, True),
            ("2K", TwoKParams, True),
        ]
        # the column order of the goodness-of-fit reports
        assert SUBCATEGORIES == ("Real", "2K", "CBA", "WS", "WS_STD", "DD", "Com")
        assert model_spec("CBA") is MODELS[2]

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_model(TRIANGLE, "ER")
        with pytest.raises(ValueError, match="unknown model 'ER'"):
            params_from_json_obj({"model": "ER", "params": {}})

    def test_report_json_round_trip(self):
        import json

        g = generate_cba(CBAParams(30, 2, 0.3), 2)
        fit = fit_model(g, "CBA", budget=8, replicates=2, seed=3)
        payload = json.loads(json.dumps(fit.to_json_obj()))
        model, params, _ = params_from_json_obj(payload)
        assert model == "CBA"
        assert params == fit.params


class TestSmoothing:
    def test_more_replicates_do_not_hurt_on_average(self):
        # statistical: 20 trials; smoothing should not increase expected objective
        target = generate_cba(CBAParams(40, 2, 0.5), 123)
        obj1, obj5 = [], []
        for trial in range(20):
            obj1.append(fit_cba(target, budget=8, replicates=1, seed=trial).objective_value)
            obj5.append(fit_cba(target, budget=8, replicates=5, seed=trial).objective_value)
        assert np.mean(obj5) <= np.mean(obj1) + 0.01


CORPUS = Path(__file__).resolve().parents[1] / "src" / "netfit" / "data" / "corpus"
SEARCHED = ("WS", "WS_STD", "CBA", "DD")
# candidate p values per model, the ends of each search range included
EDGE_PS = {
    "WS": (0.001, 0.01, 0.1, 0.5, 1.0),
    "WS_STD": (0.001, 0.01, 0.1, 0.5, 1.0),
    "CBA": (0.0, 0.3, 1.0),
    "DD": (0.02, 0.3, 1.0),
}


class _Captured(Exception):
    """Carries a fit's arguments out of the call that would run them."""


def _fit_simulate(monkeypatch, g, model):
    """(simulate, params): one replicate's value ``simulate(q, seed)`` as
    ``fit_model(g, model)`` builds and measures it, and the fit's params."""
    params = fit_model(g, model, budget=1, replicates=1).params

    def stop(model, params_at, build, measure, *args, **kwargs):
        raise _Captured(params_at, build, measure)

    with monkeypatch.context() as patch:
        patch.setattr(fitting_module, "_fit_searched", stop)
        with pytest.raises(_Captured) as caught:
            fit_model(g, model)
    params_at, build, measure = caught.value.args
    return (lambda q, s: measure(build(params_at(q), s)[0])), params


def _assert_bitwise_equal(simulate, reference, ps, seeds):
    for q in ps:
        for s in seeds:
            assert simulate(q, s).hex() == reference(q, s).hex(), (q, s)


class TestSimulationFromRows:
    """A fit's simulation gives bit for bit what the metric gives on the generated Graph."""

    @pytest.mark.parametrize("model", SEARCHED)
    @pytest.mark.parametrize("name", ["chems_04", "brain_02", "brain_04", "social_04"])
    def test_corpus_graphs(self, monkeypatch, name, model):
        g = load_edge_list(CORPUS / f"{name}.txt")
        simulate, params = _fit_simulate(monkeypatch, g, model)
        _assert_bitwise_equal(simulate, reference_simulate(model, params), EDGE_PS[model],
                              range(4))

    @pytest.mark.parametrize("model", SEARCHED)
    def test_n_1000(self, monkeypatch, model):
        g = generate_cba(CBAParams(1000, 3, 0.3), 5)
        simulate, params = _fit_simulate(monkeypatch, g, model)
        assert params.n == 1000
        _assert_bitwise_equal(simulate, reference_simulate(model, params), EDGE_PS[model],
                              range(2))

    @pytest.mark.parametrize("model", ["WS", "WS_STD"])
    def test_ws_lattice_of_degree_n_minus_2(self, monkeypatch, model):
        complete = graph_from_edges(30, [(u, v) for u in range(30) for v in range(u + 1, 30)])
        simulate, params = _fit_simulate(monkeypatch, complete, model)
        assert params.K == 28
        _assert_bitwise_equal(simulate, reference_simulate(model, params), EDGE_PS[model],
                              range(4))

    def test_cba_m_n_minus_1(self, monkeypatch):
        # a fit reaches m = n - 1 only at n = 2; larger n go through the same pieces
        simulate, params = _fit_simulate(monkeypatch, graph_from_edges(2, [(0, 1)]), "CBA")
        assert params.m == 1
        _assert_bitwise_equal(simulate, reference_simulate("CBA", params), (0.0, 1.0), range(4))
        params = CBAParams(30, 29, 0.5)
        _assert_bitwise_equal(
            lambda q, s: clustering_of_rows(cba_rows(CBAParams(30, 29, q), s)[0]),
            reference_simulate("CBA", params), (0.0, 0.5, 1.0), range(4))

    @pytest.mark.parametrize("model", SEARCHED)
    def test_fit_builds_no_graph(self, monkeypatch, model):
        g = load_edge_list(CORPUS / "chems_04.txt")
        built = []
        real = Graph.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting)
        report = fit_model(g, model)
        assert report.evaluations > 0
        assert built == []


@st.composite
def tracked_builds(draw):
    """(row builder, params, seed) of a WS, CBA or DD graph at any p of its fit range."""
    n = draw(st.integers(3, 40))
    build = draw(st.sampled_from((ws_rows, cba_rows, dd_rows)))
    if build is ws_rows:
        params = WSParams(n, 2 * draw(st.integers(1, (n - 1) // 2)), draw(st.floats(0.0, 1.0)))
    elif build is cba_rows:
        params = CBAParams(n, draw(st.integers(1, n - 1)), draw(st.floats(0.0, 1.0)))
    else:
        params = DDParams(n, draw(st.floats(0.02, 1.0)))
    return build, params, draw(st.integers(0, 2**63 - 1))


def _corpus_graphs():
    """(name, graph) of every bundled corpus graph, in manifest order."""
    with open(CORPUS / "manifest.csv", newline="", encoding="utf-8") as fh:
        return [(row["name"], load_edge_list(CORPUS / row["path"]))
                for row in csv.DictReader(fh)]


# (row builds, evaluations * replicates) per model over the corpus at pipeline seed 61
CORPUS_BUILDS_AT_61 = {"WS": (982, 1700), "WS_STD": (366, 400), "CBA": (447, 900),
                       "DD": (936, 1600)}


class TestReplay:
    """A fit reuses a replicate's value where every coin falls as in an earlier build."""

    @given(tracked_builds())
    @settings(max_examples=200, deadline=None)
    def test_interval_is_where_every_coin_falls_the_same_way(self, case):
        build, params, seed = case

        def at(c):
            """The rows and interval at the candidate whose coin limit is c << 11."""
            return build(dataclasses.replace(params, p=c * 2.0**-53), seed)

        rows, interval = build(params, seed)
        below, above = interval
        lo, hi = (below >> 11) + 1, above >> 11
        assert lo <= coin_limit(params.p) >> 11 <= hi
        assert at(lo) == (rows, interval)
        assert at(hi) == (rows, interval)
        if lo > (build is dd_rows):  # DDParams refuses p = 0
            try:
                assert at(lo - 1)[1] != interval
            except GenerationError:  # DD gives up at that p, so a coin fell otherwise
                pass
        if hi < 2**53:
            assert at(hi + 1)[1] != interval

    def test_lookup_replays_exactly_the_half_open_interval(self, monkeypatch):
        # a builder whose two coin words sit exactly on the limits of c = 3 and 5;
        # its value is the number of coins below the limit
        words = (3 << 11, 5 << 11)
        built = []

        def build(q, s):
            limit = coin_limit(q)
            built.append((limit >> 11, s))
            under = [w for w in words if w < limit]
            over = [w for w in words if w >= limit]
            return len(under), (max(under, default=-1), min(over, default=1 << 64))

        def stop(gap_at, *args, **kwargs):
            raise _Captured(gap_at)

        monkeypatch.setattr(fitting_module, "_search", stop)
        with pytest.raises(_Captured) as caught:
            _fit_searched("X", lambda q: q, build, float, 0.0, True, 0.0, 1.0, 60, 2, 0)
        gap_at = caught.value.args[0]
        for c, value in ((4, 1.0), (3, 0.0), (5, 1.0), (6, 2.0), (2, 0.0), (7, 2.0)):
            assert gap_at(c * 2.0**-53) == value, c
        # the second replicate seed builds its own wherever the first one builds
        assert built == [(c, derive(0, r)) for c in (4, 3, 6) for r in range(2)]

    @pytest.mark.parametrize("model", SEARCHED)
    def test_builds_counts_the_builder_calls_and_repeats(self, builds, model):
        g = load_edge_list(CORPUS / "chems_04.txt")
        first = fit_model(g, model, seed=5)
        assert first.builds == len(builds) <= first.evaluations * first.replicates_per_eval
        assert fit_model(g, model, seed=5) == first
        assert "builds" not in first.to_json_obj()

    @pytest.mark.parametrize("seed", [7, 61])
    @pytest.mark.parametrize("model", SEARCHED)
    def test_fit_equals_the_uncached_search_on_the_corpus(self, monkeypatch, model, seed):
        totals = [0, 0]
        for name, g in _corpus_graphs():
            fit_seed = derive(seed, name, model, "fit")  # as pipeline --seed derives it
            report = fit_model(g, model, DEFAULT_BUDGET, DEFAULT_REPLICATES, fit_seed)
            with monkeypatch.context() as patch:
                patch.setattr(fitting_module, "_fit_searched", reference_fit_searched)
                expected = fit_model(g, model, DEFAULT_BUDGET, DEFAULT_REPLICATES, fit_seed)
            assert report.to_json_obj() == expected.to_json_obj(), name
            assert report.objective_value.hex() == expected.objective_value.hex(), name
            totals[0] += report.builds
            totals[1] += expected.builds
        if seed == 61:
            assert tuple(totals) == CORPUS_BUILDS_AT_61[model]
