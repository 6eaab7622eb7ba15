import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit import metrics
from netfit.graph import load_edge_list
from netfit.metrics import (
    METRIC_FIELDS,
    EigenvectorError,
    MetricDomainError,
    _distance_totals,
    _edge_degree_pair_counts,
    assortativity,
    assortativity_is_degenerate,
    average_clustering,
    average_degree,
    average_path_length_normalized,
    clustering_of_rows,
    degree_skewness,
    density,
    feature_vector,
    joint_degree_matrix,
    max_eigenvector_centrality,
)

from netfit.generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    WSParams,
    cba_rows,
    generate,
    generate_2k,
    generate_cba,
    generate_community,
    generate_dd,
    generate_ws,
    validate_jdm,
    ws_rows,
)

from helpers import (
    ORACLES,
    connected_components,
    graph_from_edges,
    graph_of_rows,
    jdm_edge_total,
    oracle_jdm_entries,
    oracle_max_eigenvector_centrality,
    pseudo_real_graph,
    random_connected_graph,
    reference_average_clustering,
    reference_clustering_of_rows,
    reference_distance_totals,
    reference_edge_degree_pair_counts,
    reference_max_eigenvector_centrality,
    relabel,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "netfit" / "data" / "corpus"

TRIANGLE = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = graph_from_edges(3, [(0, 1), (1, 2)])
STAR4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
K4 = graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
K4_MINUS_EDGE = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
TWO_EDGES = graph_from_edges(4, [(0, 1), (2, 3)])


class TestDensity:
    def test_complete(self):
        assert density(K4) == 1.0

    def test_path(self):
        assert density(PATH3) == pytest.approx(2 / 3)

    def test_star(self):
        assert density(STAR4) == pytest.approx(0.5)

    def test_too_small(self):
        with pytest.raises(MetricDomainError):
            density(graph_from_edges(1, []))


class TestAverageDegree:
    def test_regular(self):
        assert average_degree(TRIANGLE) == 2.0

    def test_path(self):
        assert average_degree(PATH3) == pytest.approx(4 / 3)

    def test_edgeless(self):
        assert average_degree(graph_from_edges(5, [])) == 0.0


class TestAssortativity:
    def test_path_perfectly_anticorrelated(self):
        assert assortativity(PATH3) == pytest.approx(-1.0)

    def test_star(self):
        assert assortativity(STAR4) == pytest.approx(-1.0)

    def test_regular_graph_degenerate(self):
        assert assortativity(C5) == 0.0
        assert assortativity_is_degenerate(C5)
        assert not assortativity_is_degenerate(PATH3)

    def test_requires_edge(self):
        with pytest.raises(MetricDomainError):
            assortativity(graph_from_edges(3, []))

    def test_within_bounds_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=20)
            assert -1.0 - 1e-12 <= assortativity(g) <= 1.0 + 1e-12


class TestClustering:
    def test_triangle(self):
        assert average_clustering(TRIANGLE) == 1.0

    def test_star_no_triangles(self):
        assert average_clustering(STAR4) == 0.0

    def test_k4_minus_edge(self):
        # degree-3 nodes see 2 of 3 neighbor pairs linked, degree-2 nodes 1 of 1
        assert average_clustering(K4_MINUS_EDGE) == pytest.approx(5 / 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_edgewise_counts_equal_nodewise_sum_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            generate_ws(WSParams(60, 6, 0.2), seed),
            generate_ws(WSParams(500, 10, 0.05), seed),
            generate_cba(CBAParams(80, 3, 0.6), seed),
            generate_cba(CBAParams(400, 4, 0.9), seed),
            generate_dd(DDParams(90, 0.4), seed),
            generate_dd(DDParams(300, 0.9), seed),
            generate_community(CommunityParams((30, 30, 5), 0.3, 0.05), seed),
            pseudo_real_graph(rng, 120),
        ]
        sources.append(generate_2k(joint_degree_matrix(sources[-1]), seed))
        sources.append(random_connected_graph(rng))
        for g in sources:
            assert average_clustering(g).hex() == reference_average_clustering(g).hex()


def _rows(g):
    return [set(g.neighbors(u)) for u in range(g.node_count)]


def _same_clustering(g):
    """The kernel, through both entry points, gives the set loop's bits."""
    expected = reference_clustering_of_rows(_rows(g)).hex()
    assert average_clustering(g).hex() == expected
    assert clustering_of_rows(_rows(g)).hex() == expected


def _complete(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# each generator over its parameter range, ends included
CLUSTERING_GRID = (
    [WSParams(n, K, p) for n, K in ((12, 10), (60, 6), (300, 10))
     for p in (0.0, 0.001, 0.1, 0.5, 1.0)]
    + [CBAParams(n, m, p) for n, m in ((40, 1), (80, 3), (300, 5), (31, 30))
       for p in (0.0, 0.5, 1.0)]
    + [DDParams(n, p) for n in (50, 300) for p in (0.05, 0.4, 0.9, 1.0)]
    + [CommunityParams(sizes, p_in, p_out)
       for sizes in ((30, 30, 5), (100, 50, 1))
       for p_in, p_out in ((0.0, 0.0), (0.3, 0.05), (1.0, 0.0), (1.0, 1.0))]
)


class TestClusteringKernel:
    """The degree-ordered triangle kernel against the set loop it replaced."""

    @pytest.mark.parametrize("params", CLUSTERING_GRID, ids=repr)
    @pytest.mark.parametrize("seed", range(2))
    def test_every_generator_matches_the_set_loop(self, params, seed):
        from netfit.generators import generate

        g = generate(params, seed)
        _same_clustering(g)
        if g.edge_count:
            _same_clustering(generate_2k(joint_degree_matrix(g), seed))

    def test_corpus_matches_the_set_loop(self):
        for path in sorted(CORPUS.glob("*.txt")):
            _same_clustering(load_edge_list(path))

    @pytest.mark.parametrize("make", [
        lambda: _complete(300),
        lambda: generate_ws(WSParams(60, 58, 0.0), 0),
        lambda: generate_ws(WSParams(60, 58, 0.3), 1),
        lambda: generate_ws(WSParams(300, 298, 0.1), 2),
    ], ids=["K300", "WS60-K58-p0", "WS60-K58-p0.3", "WS300-K298-p0.1"])
    def test_dense_graphs(self, make):
        _same_clustering(make())

    def test_complete_graph_is_one(self):
        assert average_clustering(_complete(300)) == 1.0

    def test_edgeless_and_isolated_nodes(self):
        assert average_clustering(graph_from_edges(5, [])) == 0.0
        assert clustering_of_rows([set() for _ in range(5)]) == 0.0
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
        assert average_clustering(g) == 3 / 7
        _same_clustering(g)

    def test_requires_a_node(self):
        with pytest.raises(MetricDomainError):
            clustering_of_rows([])

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_and_graph_paths_agree(self, seed):
        for rows, g in (
            (ws_rows(WSParams(200, 8, 0.1), seed)[0], generate_ws(WSParams(200, 8, 0.1), seed)),
            (cba_rows(CBAParams(200, 4, 0.7), seed)[0], generate_cba(CBAParams(200, 4, 0.7), seed)),
        ):
            assert clustering_of_rows(rows).hex() == average_clustering(g).hex()

    def test_wedges_are_chunked_on_k300(self):
        # 4.5 M wedges: one int64 array of them alone is 36 MB
        g = _complete(300)
        tracemalloc.start()
        try:
            value = average_clustering(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_low_id_hub_is_oriented_by_degree(self):
        # Orienting edges by id alone puts all n - 1 edges of a star whose
        # hub has id 0 in one out-row: (n - 1)^2 / 2 wedges, about 4.5 s
        # here against about 1.5 ms when the hub's degree orients them.
        n = 20_000
        star = graph_of_rows([range(1, n)] + [[0]] * (n - 1))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert average_clustering(star) == 0.0
            times.append(time.perf_counter() - start)
        assert min(times) < 0.25, f"{min(times):.3f} s"


class TestEigenvectorCentrality:
    def test_triangle_uniform(self):
        assert max_eigenvector_centrality(TRIANGLE) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_path3(self):
        assert max_eigenvector_centrality(PATH3) == pytest.approx(math.sqrt(2) / 2, abs=1e-8)

    def test_k4(self):
        assert max_eigenvector_centrality(K4) == pytest.approx(0.5, abs=1e-9)

    def test_bipartite_converges(self):
        # even cycles are bipartite; the shifted iteration must still converge
        c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert max_eigenvector_centrality(c6) == pytest.approx(1 / math.sqrt(6), abs=1e-8)

    def test_requires_edge(self):
        with pytest.raises(MetricDomainError):
            max_eigenvector_centrality(graph_from_edges(2, []))

    def test_step_cap_keeps_the_message(self):
        g = load_edge_list(CORPUS / "food_00.txt")
        with pytest.raises(EigenvectorError) as caught:
            max_eigenvector_centrality(g, max_iter=5)
        assert caught.value.steps == 5
        assert str(caught.value).startswith("Lanczos did not converge after 5 steps")

    def test_regular_graph_takes_one_step(self):
        c12 = graph_from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
        assert max_eigenvector_centrality(c12, max_iter=1) == pytest.approx(12 ** -0.5, abs=1e-15)


def _disconnected_graphs():
    """Graphs whose components share or split the top eigenvalue."""
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    twice = graph_from_edges(8, k4 + [(u + 4, v + 4) for u, v in k4])
    path_and_edge = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
    split = generate_community(CommunityParams((40, 60, 30), 0.2, 0.0), 3)
    return [twice, path_and_edge, split, TWO_EDGES]


class TestLanczos:
    """Lanczos against the dense oracle, power iteration and scipy."""

    def test_dense_oracle(self):
        rng = np.random.default_rng(17)
        graphs = [random_connected_graph(rng, n_max=60) for _ in range(20)]
        graphs += [pseudo_real_graph(rng, 200), generate_ws(WSParams(200, 6, 0.05), 2),
                   generate_cba(CBAParams(150, 3, 0.5), 4)]
        for g in graphs:
            assert connected_components(g).count == 1
            expected = oracle_max_eigenvector_centrality(g)
            assert max_eigenvector_centrality(g) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [40, 300, 1000])
    def test_power_iteration_on_every_generator(self, n, seed):
        rng = np.random.default_rng(seed)
        graphs = _generator_outputs(n, seed) + [
            generate_ws(WSParams(n, 10, 0.05), seed),
            generate_dd(DDParams(n, 0.9 if n < 1000 else 0.3), seed),
            pseudo_real_graph(rng, n),
        ]
        for g in graphs:
            expected = reference_max_eigenvector_centrality(g)
            assert max_eigenvector_centrality(g) == pytest.approx(expected, abs=1e-9)

    def test_power_iteration_on_the_corpus(self):
        paths = sorted(CORPUS.glob("*.txt"))
        assert len(paths) == 20
        for path in paths:
            g = load_edge_list(path)
            expected = reference_max_eigenvector_centrality(g)
            assert max_eigenvector_centrality(g) == pytest.approx(expected, abs=1e-9), path.name

    def test_disconnected_graphs_follow_the_uniform_start(self):
        for g in _disconnected_graphs():
            assert connected_components(g).count > 1
            expected = reference_max_eigenvector_centrality(g)
            assert max_eigenvector_centrality(g) == pytest.approx(expected, abs=1e-9)

    def test_scipy_eigsh_near_n_2000(self):
        linalg = pytest.importorskip("scipy.sparse.linalg")
        sparse = pytest.importorskip("scipy.sparse")
        graphs = _generator_outputs(2000, 3) + [
            generate_ws(WSParams(2000, 10, 0.02), 3), generate_dd(DDParams(2000, 0.3), 3)]
        for g in graphs:
            assert connected_components(g).count == 1
            src, dst = g.edge_endpoints
            a = sparse.csr_matrix((np.ones(len(src)), (src, dst)), shape=(g.node_count,) * 2)
            _, vecs = linalg.eigsh(a, k=1, which="LA", tol=1e-14,
                                   v0=np.ones(g.node_count))
            vec = vecs[:, 0] * np.sign(vecs[:, 0].sum())
            assert max_eigenvector_centrality(g) == pytest.approx(vec.max(), abs=1e-8)


class TestLanczosBits:
    """Bit-for-bit values: dataset.csv writes max_eigenv_c with repr."""

    # Without the reorthogonalisation against the whole basis, each of
    # these moves in its last bits.
    CORPUS_BITS = {
        "brain_00.txt": "0.22367023859880977",
        "chems_00.txt": "0.27777711968605034",
        "food_00.txt": "0.21512218008386141",
        "social_02.txt": "0.3152673695888206",
    }
    GENERATED_BITS = [
        (WSParams(300, 6, 0.05), 2, "0.11276614993129877"),
        (CBAParams(500, 3, 0.4), 4, "0.41946832784319826"),
        (CommunityParams((100, 100, 100), 0.1, 0.01), 6, "0.11887707440057671"),
    ]

    @pytest.mark.parametrize("name", sorted(CORPUS_BITS))
    def test_corpus(self, name):
        value = max_eigenvector_centrality(load_edge_list(CORPUS / name))
        assert repr(value) == self.CORPUS_BITS[name]

    @pytest.mark.parametrize("params, seed, bits", GENERATED_BITS, ids=["WS", "CBA", "Com"])
    def test_generated(self, params, seed, bits):
        assert repr(max_eigenvector_centrality(generate(params, seed))) == bits

    def test_a_negated_ritz_vector_gives_the_same_bits(self, monkeypatch):
        # The sign rule, not the sign the tridiagonal solve happens to give,
        # decides the sign of the result.
        graphs = [load_edge_list(path) for path in sorted(CORPUS.glob("*.txt"))[:5]]
        want = [repr(max_eigenvector_centrality(g)) for g in graphs]
        top = metrics._top_eigenvector
        monkeypatch.setattr(metrics, "_top_eigenvector",
                            lambda alpha, beta: [-c for c in top(alpha, beta)])
        assert [repr(max_eigenvector_centrality(g)) for g in graphs] == want


class TestNearLatticeWS:
    """WS(10^4, 10, 0.01): a localised top eigenvector and a small gap."""

    def test_converges_at_every_seed_from_3_to_12(self):
        values = {}
        for seed in range(3, 13):
            values[seed] = max_eigenvector_centrality(generate_ws(WSParams(10_000, 10, 0.01), seed))
        # scipy's eigsh at generate seeds 3 and 7
        assert values[3] == pytest.approx(0.027879, abs=1e-6)
        assert values[7] == pytest.approx(0.048031, abs=1e-6)


class TestPathLength:
    def test_k4(self):
        assert average_path_length_normalized(K4) == pytest.approx(1 / 3)

    def test_path3(self):
        assert average_path_length_normalized(PATH3) == pytest.approx(2 / 3)

    def test_components_pooled(self):
        assert average_path_length_normalized(TWO_EDGES) == pytest.approx(1 / 3)

    def test_no_edges(self):
        with pytest.raises(MetricDomainError):
            average_path_length_normalized(graph_from_edges(3, []))


def _generator_outputs(n, seed):
    """Every generator's output at n nodes; 2K takes its JDM from the CBA one."""
    third = n // 3
    sizes = (third, third, n - 2 * third)
    outputs = [
        generate_ws(WSParams(n, 4, 0.2), seed),
        generate_cba(CBAParams(n, 4, 0.3), seed),
        generate_dd(DDParams(n, 0.4), seed),
        generate_community(CommunityParams(sizes, min(0.5, 8 / third), 0.5 / n), seed),
    ]
    outputs.append(generate_2k(joint_degree_matrix(outputs[1]), seed))
    return outputs


STAR = graph_from_edges(100, [(0, v) for v in range(1, 100)])
LONG_PATH = graph_from_edges(300, [(u, u + 1) for u in range(299)])
K70 = graph_from_edges(70, [(u, v) for u in range(70) for v in range(u + 1, 70)])
SCATTERED = graph_from_edges(12, [(1, 2), (2, 3), (5, 6), (9, 11), (11, 10), (10, 9)])


class TestDistanceTotals:
    """The word-parallel BFS gives the big-int reference's integers exactly."""

    @pytest.mark.parametrize("n", [10, 63, 64, 65, 3000])
    def test_every_generator(self, n):
        if n == 3000:  # a block holds at most 64 * _PATH_WORDS / n sources
            assert n * n > 64 * metrics._PATH_WORDS
        for seed in (0, 1) if n < 3000 else (0,):
            for g in _generator_outputs(n, seed):
                assert _distance_totals(g) == reference_distance_totals(g)

    @pytest.mark.parametrize("words", [None, 64])
    def test_fixed_shapes(self, words, monkeypatch):
        if words is not None:  # one word per row: many blocks and tail chunks
            monkeypatch.setattr(metrics, "_PATH_WORDS", words)
        graphs = [STAR, LONG_PATH, K70, SCATTERED, graph_from_edges(5, [(3, 4)]),
                  generate_community(CommunityParams((30, 40, 50), 0.2, 0.0), 3),
                  generate_cba(CBAParams(1500, 40, 0.2), 1)]
        for g in graphs:
            total, pairs = _distance_totals(g)
            assert (total, pairs) == reference_distance_totals(g)
            assert type(total) is int and type(pairs) is int
        assert _distance_totals(LONG_PATH) == (2 * sum(d * (300 - d) for d in range(300)),
                                               300 * 299)
        assert _distance_totals(graph_from_edges(4, [])) == (0, 0)

    def test_corpus(self):
        paths = sorted(CORPUS.glob("*.txt"))
        assert len(paths) == 20
        for path in paths:
            g = load_edge_list(path)
            assert _distance_totals(g) == reference_distance_totals(g)

    @pytest.mark.acceptance
    def test_matches_networkx_at_n_2000(self):
        nx = pytest.importorskip("networkx")
        for g in _generator_outputs(2000, 4):
            h = nx.Graph()
            h.add_nodes_from(range(g.node_count))
            h.add_edges_from(g.edges())
            total = pairs = 0
            for _, lengths in nx.all_pairs_shortest_path_length(h):
                total += sum(lengths.values())
                pairs += len(lengths) - 1
            assert _distance_totals(g) == (total, pairs)

    @pytest.mark.acceptance
    def test_memory_is_bounded_at_n_30000(self):
        g = generate_cba(CBAParams(30000, 4, 0.3), 5)
        tracemalloc.start()
        try:
            totals = _distance_totals(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert totals == (3876132292, 899970000)  # the big-int BFS's totals
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNetworkxOracle:
    def test_five_metrics_match_networkx_at_n_2000(self):
        """Density, average degree, assortativity, average clustering and degree
        skewness agree with networkx and numpy on every generator's output."""
        nx = pytest.importorskip("networkx")
        for g in _generator_outputs(2000, 3):
            h = nx.Graph()
            h.add_nodes_from(range(g.node_count))
            h.add_edges_from(g.edges())
            degrees = np.array([d for _, d in h.degree()], dtype=float)
            centred = degrees - degrees.mean()
            expected = (nx.density(h), degrees.mean(), nx.degree_assortativity_coefficient(h),
                        nx.average_clustering(h),
                        np.mean(centred**3) / np.mean(centred**2) ** 1.5)
            got = (density(g), average_degree(g), assortativity(g), average_clustering(g),
                   degree_skewness(g))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestSkewness:
    def test_regular_zero(self):
        assert degree_skewness(TRIANGLE) == 0.0
        assert degree_skewness(C5) == 0.0

    def test_path3(self):
        assert degree_skewness(PATH3) == pytest.approx(1 / math.sqrt(2))

    def test_star4(self):
        assert degree_skewness(STAR4) == pytest.approx(2 / math.sqrt(3))


class TestFeatureVector:
    def test_triangle_row(self):
        fv = feature_vector(TRIANGLE)
        assert (fv.size, fv.density, fv.assort, fv.avg_clust, fv.avg_deg) == (3, 1.0, 0.0, 1.0, 2.0)
        assert fv.max_eigenv_c == pytest.approx(0.57735, abs=1e-5)
        assert fv.avg_path_length == pytest.approx(0.5)
        assert fv.skew_deg_dist == 0.0

    def test_k4_row(self):
        fv = feature_vector(K4)
        assert fv.avg_deg == 3.0
        assert fv.max_eigenv_c == pytest.approx(0.5, abs=1e-9)
        assert fv.avg_path_length == pytest.approx(1 / 3)

    def test_path3_row(self):
        fv = feature_vector(PATH3)
        assert fv.assort == pytest.approx(-1.0)
        assert fv.max_eigenv_c == pytest.approx(0.70711, abs=1e-5)
        assert fv.skew_deg_dist == pytest.approx(0.70711, abs=1e-5)

    def test_preconditions(self):
        with pytest.raises(MetricDomainError):
            feature_vector(graph_from_edges(3, []))

    def test_invariant_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            g = random_connected_graph(rng, n_max=25)
            fv = feature_vector(g)
            assert 0.0 < fv.density <= 1.0
            assert 0.0 <= fv.avg_clust <= 1.0
            assert fv.max_eigenv_c >= 1.0 / math.sqrt(g.node_count) - 1e-12
            assert 0.0 < fv.avg_path_length <= 1.0
            assert all(math.isfinite(v) for v in fv.metric_values())


class TestJointDegreeMatrix:
    def test_triangle(self):
        jdm = joint_degree_matrix(TRIANGLE)
        assert jdm.entries == {(2, 2): 3}
        assert validate_jdm(jdm) == {2: 3}

    def test_path3(self):
        jdm = joint_degree_matrix(PATH3)
        assert jdm.entries == {(1, 2): 2}
        assert validate_jdm(jdm) == {1: 2, 2: 1}

    def test_star4(self):
        jdm = joint_degree_matrix(STAR4)
        assert jdm.entries == {(1, 3): 3}
        assert validate_jdm(jdm) == {1: 3, 3: 1}

    def test_edge_total_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=20)
            jdm = joint_degree_matrix(g)
            assert jdm_edge_total(jdm) == g.edge_count
            assert jdm.entries == oracle_jdm_entries(g)


def _same_pair_counts(g):
    counts = _edge_degree_pair_counts(g)
    assert counts == reference_edge_degree_pair_counts(g)
    assert all(type(x) is int for key, c in counts.items() for x in (*key, c))


class TestEdgeDegreePairCounts:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_generator_matches_the_edge_loop(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            generate_ws(WSParams(200, 6, 0.2), seed),
            generate_cba(CBAParams(300, 4, 0.5), seed),
            generate_dd(DDParams(300, 0.5), seed),
            generate_community(CommunityParams((40, 40, 5), 0.3, 0.02), seed),
            pseudo_real_graph(rng, 150),
        ]
        sources.append(generate_2k(joint_degree_matrix(sources[-1]), seed))
        for g in sources:
            _same_pair_counts(g)

    def test_corpus_matches_the_edge_loop(self):
        paths = sorted(CORPUS.glob("*.txt"))
        assert paths
        for path in paths:
            _same_pair_counts(load_edge_list(path))


class TestOracleAgreement:
    """Spot equivalence with the brute-force oracles (full sweep in acceptance).

    Connected graphs only: a disconnected graph can have a degenerate top
    eigenvalue, where the principal eigenvector (hence max_eigenv_c) is
    not unique and oracle comparison is meaningless.
    """

    @pytest.mark.parametrize("graph", [TRIANGLE, PATH3, STAR4, K4, C5, K4_MINUS_EDGE])
    def test_fixed_graphs(self, graph):
        fv = feature_vector(graph)
        for name in METRIC_FIELDS:
            assert getattr(fv, name) == pytest.approx(ORACLES[name](graph), abs=1e-8), name

    def test_disconnected_non_eigen_metrics(self):
        fv = feature_vector(TWO_EDGES)
        for name in METRIC_FIELDS:
            if name != "max_eigenv_c":
                assert getattr(fv, name) == pytest.approx(ORACLES[name](TWO_EDGES), abs=1e-8)

    def test_random_graphs(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            g = random_connected_graph(rng, n_max=30)
            fv = feature_vector(g)
            for name in METRIC_FIELDS:
                assert getattr(fv, name) == pytest.approx(ORACLES[name](g), abs=1e-8), name


class TestRelabelInvariance:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_features_invariant_under_relabeling(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        g = random_connected_graph(rng, n_max=15)
        perm = list(range(g.node_count))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        fa, fb = feature_vector(g), feature_vector(h)
        for name in METRIC_FIELDS:
            assert getattr(fa, name) == pytest.approx(getattr(fb, name), abs=1e-9), name
        assert joint_degree_matrix(g).entries == joint_degree_matrix(h).entries
