import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit.cli import _json_text, main
from netfit.fitting import MODELS, params_from_json_obj
from netfit.generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    ParameterError,
    TwoKParams,
    WSParams,
    _sample_distinct,
    _triangular_unrank,
    cba_rows,
    dd_rows,
    generate,
    generate_2k,
    generate_cba,
    generate_community,
    generate_dd,
    generate_ws,
    validate_jdm,
    ws_rows,
)
from netfit.graph import Graph
from netfit.metrics import (
    average_clustering,
    average_path_length_normalized,
    density,
    joint_degree_matrix,
)

from helpers import (
    connected_components,
    degree_sequence,
    graph_from_edges,
    pseudo_real_graph,
    reference_cba_rows,
    reference_generate_cba,
    reference_generate_community,
    reference_generate_dd,
    reference_generate_ws,
    reference_sample_distinct,
    reference_triangular_unrank,
)


def count_triangles(g):
    total = 0
    for u, v in g.edges():
        total += len(set(g.neighbors(u)) & set(g.neighbors(v)))
    return total // 3


class TestWattsStrogatz:
    def test_lattice_p0(self):
        g = generate_ws(WSParams(10, 4, 0.0), 0)
        assert g.edge_count == 20
        assert set(degree_sequence(g)) == {4}
        assert average_clustering(g) == pytest.approx(0.5)

    def test_cycle(self):
        g = generate_ws(WSParams(6, 2, 0.0), 0)
        assert degree_sequence(g) == (2,) * 6
        assert connected_components(g).count == 1

    def test_edge_count_preserved_under_full_rewiring(self):
        g = generate_ws(WSParams(20, 4, 1.0), 3)
        assert g.edge_count == 40

    def test_edge_count_preserved_many_seeds(self):
        for seed in range(100):
            p = (seed % 11) / 10.0
            g = generate_ws(WSParams(16, 4, p), seed)
            assert g.edge_count == 32

    def test_determinism(self):
        a = generate_ws(WSParams(30, 6, 0.4), 99)
        b = generate_ws(WSParams(30, 6, 0.4), 99)
        assert a == b

    @pytest.mark.parametrize("n,K,p", [(10, 3, 0.1), (10, 0, 0.1), (4, 4, 0.1), (10, 4, 1.5)])
    def test_invalid_params(self, n, K, p):
        with pytest.raises(ParameterError):
            generate_ws(WSParams(n, K, p), 0)

    @pytest.mark.parametrize(
        "n,K,p",
        [(3, 2, 1.0), (12, 10, 1.0), (12, 10, 0.5), (30, 4, 0.0), (30, 4, 0.05),
         (57, 6, 0.3), (200, 8, 0.01), (101, 10, 1.0)],
    )
    def test_matches_builder_reference(self, n, K, p):
        for seed in (0, 1, 17, 2024):
            params = WSParams(n, K, p)
            assert generate_ws(params, seed) == reference_generate_ws(params, seed)

    def test_reference_grid_reaches_full_row_skip(self):
        paths = []
        reference_generate_ws(WSParams(12, 10, 1.0), 0, paths)
        assert "full_row" in paths


@st.composite
def cba_cases(draw):
    """(params, seed) for CBA with n <= 60 and any m < n.

    p is 0, 1, uniform, or one step either side of a word that a build
    at such a p compared with its coin limit: the limit c << 11 with
    c = word >> 11 leaves that coin at or above it, c + 1 takes it.
    """
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**63 - 1))
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        _, interval = reference_cba_rows(CBAParams(n, m, p), seed)
        words = [w for w in interval if 0 <= w < 1 << 64]
        if words:
            p = ((draw(st.sampled_from(words)) >> 11) + draw(st.integers(0, 1))) * 2.0**-53
    return CBAParams(n, m, p), seed


class TestClusteringBA:
    def test_m1_gives_trees(self):
        for seed in range(100):
            g = generate_cba(CBAParams(5, 1, 0.0), seed)
            assert g.edge_count == 4
            assert count_triangles(g) == 0
            assert connected_components(g).count == 1

    def test_triad_formation_raises_clustering(self):
        with_triads = np.mean(
            [average_clustering(generate_cba(CBAParams(50, 2, 1.0), s)) for s in range(30)]
        )
        without = np.mean(
            [average_clustering(generate_cba(CBAParams(50, 2, 0.0), s)) for s in range(30)]
        )
        assert with_triads > without

    def test_forced_triangle(self):
        for p in (0.0, 0.5, 1.0):
            g = generate_cba(CBAParams(3, 2, p), 1)
            assert g.edge_count == 3
            assert degree_sequence(g) == (2, 2, 2)

    def test_edge_count_closed_form(self):
        for n, m in ((40, 1), (40, 2), (40, 3), (25, 5)):
            for seed in (0, 1):
                g = generate_cba(CBAParams(n, m, 0.5), seed)
                assert g.edge_count == m * (m - 1) // 2 + (n - m) * m

    def test_determinism(self):
        assert generate_cba(CBAParams(60, 3, 0.7), 5) == generate_cba(CBAParams(60, 3, 0.7), 5)

    @pytest.mark.parametrize("n,m,p", [(5, 0, 0.1), (5, 5, 0.1), (5, 2, -0.2)])
    def test_invalid_params(self, n, m, p):
        with pytest.raises(ParameterError):
            generate_cba(CBAParams(n, m, p), 0)

    CBA_GRID = [(2, 1, 0.0), (12, 1, 0.5), (40, 2, 0.0), (60, 3, 0.7), (54, 2, 1.0),
                (31, 30, 0.0), (31, 30, 1.0), (300, 4, 0.3), (300, 4, 1.0), (1000, 5, 0.0046)]

    @pytest.mark.parametrize("n,m,p", CBA_GRID)
    def test_matches_builder_reference(self, n, m, p):
        for seed in (0, 1, 6, 2024):
            params = CBAParams(n, m, p)
            assert generate_cba(params, seed) == reference_generate_cba(params, seed)

    def test_reference_grid_reaches_every_pick_branch(self):
        paths = set()
        for n, m, p in self.CBA_GRID:
            for seed in (0, 1, 6, 2024):
                found = []
                reference_generate_cba(CBAParams(n, m, p), seed, found)
                paths.update(found)
        # never "no-triad": see test_every_link_after_the_first_draws_a_coin
        assert paths == {"repeated", "fallback", "uniform"}

    @given(cba_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_and_interval_match_the_eager_reference(self, case):
        # the interval decides which fit simulations replay, so it is pinned too
        params, seed = case
        assert cba_rows(params, seed) == reference_cba_rows(params, seed)

    @given(cba_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_link_after_the_first_draws_a_coin(self, case):
        # cba_rows draws a coin at every later link without looking for a
        # triad candidate: the step's first target had at least m - 1 links
        # before v, more than v's links other than it, so one always exists
        params, seed = case
        paths = []
        reference_generate_cba(params, seed, paths)
        assert "no-triad" not in paths


class TestDuplicationDivergence:
    def test_n3_p1_is_path(self):
        for seed in range(20):
            g = generate_dd(DDParams(3, 1.0), seed)
            assert sorted(degree_sequence(g)) == [1, 1, 2]

    def test_no_isolated_replicas(self):
        for seed in range(20):
            g = generate_dd(DDParams(4, 1.0), seed)
            assert min(degree_sequence(g)) >= 1

    def test_mid_size_density_envelope(self):
        # regression fixture: 30-replicate density summary at (n=200, p=0.3)
        densities = [density(generate_dd(DDParams(200, 0.3), s)) for s in range(30)]
        mean, std = float(np.mean(densities)), float(np.std(densities))
        assert mean == pytest.approx(0.01674, abs=1e-4)
        assert std < mean  # spread smaller than the level
        fixed = density(generate_dd(DDParams(200, 0.3), 2024))
        assert abs(fixed - mean) < 6 * std

    def test_determinism(self):
        assert generate_dd(DDParams(50, 0.5), 8) == generate_dd(DDParams(50, 0.5), 8)

    def test_retry_budget_exhaustion(self):
        from netfit.generators import GenerationError

        # p this small never keeps a link within the 10000*n failure budget
        with pytest.raises(GenerationError, match="failed attempts"):
            generate_dd(DDParams(3, 1e-7), 0)

    @pytest.mark.parametrize("n,p", [(1, 0.5), (5, 0.0), (5, -0.1), (5, 1.2)])
    def test_invalid_params(self, n, p):
        with pytest.raises(ParameterError):
            generate_dd(DDParams(n, p), 0)

    @pytest.mark.parametrize("n", [2, 3, 57, 300])
    @pytest.mark.parametrize("p", [0.02, 0.5, 1.0])
    def test_matches_set_based_reference(self, n, p):
        for seed in (0, 1, 17, 2024):
            params = DDParams(n, p)
            assert generate_dd(params, seed) == reference_generate_dd(params, seed)


class TestRowBuilders:
    @pytest.mark.parametrize(
        "build, generate, params",
        [
            (ws_rows, generate_ws, WSParams(40, 6, 0.2)),
            (ws_rows, generate_ws, WSParams(12, 10, 1.0)),
            (cba_rows, generate_cba, CBAParams(40, 3, 0.5)),
            (cba_rows, generate_cba, CBAParams(8, 7, 1.0)),
            (dd_rows, generate_dd, DDParams(40, 0.3)),
            (dd_rows, generate_dd, DDParams(40, 1.0)),
        ],
    )
    def test_graph_of_sorted_rows_is_the_generated_graph(self, build, generate, params):
        for seed in range(5):
            rows, _ = build(params, seed)
            assert Graph([sorted(row) for row in rows]) == generate(params, seed)


JDM = "invalid joint degree matrix: "


class TestParamsRefuseInvalidValues:
    """Every params type refuses an invalid value when it is made, so no
    generator or fit-JSON reader checks it again."""

    @pytest.mark.parametrize(
        "params_type, args, message",
        [
            (WSParams, (10, 3, 0.1), "WS requires even K with 2 <= K < n, got n=10 K=3"),
            (WSParams, (10, 0, 0.1), "WS requires even K with 2 <= K < n, got n=10 K=0"),
            (WSParams, (10, 10, 0.1), "WS requires even K with 2 <= K < n, got n=10 K=10"),
            (WSParams, (10, 4, -0.1), "WS rewiring probability out of [0,1]: -0.1"),
            (WSParams, (10, 4, 1.5), "WS rewiring probability out of [0,1]: 1.5"),
            (CBAParams, (5, 0, 0.1), "CBA requires 1 <= m < n, got n=5 m=0"),
            (CBAParams, (5, 5, 0.1), "CBA requires 1 <= m < n, got n=5 m=5"),
            (CBAParams, (5, 2, 1.5), "CBA triad probability out of [0,1]: 1.5"),
            (CBAParams, (5, 2, float("nan")), "CBA triad probability out of [0,1]: nan"),
            (DDParams, (1, 0.5), "DD requires n >= 2, got 1"),
            (DDParams, (10, 0.0), "DD activation probability must be in (0,1], got 0.0"),
            (DDParams, (10, 1.5), "DD activation probability must be in (0,1], got 1.5"),
            (CommunityParams, ((), 0.5, 0.1), "community sizes must all be >= 1, got ()"),
            (CommunityParams, ((3, 0), 0.5, 0.1), "community sizes must all be >= 1, got (3, 0)"),
            (CommunityParams, ((3, 3), 1.5, 0.1), "p_in out of [0,1]: 1.5"),
            (CommunityParams, ((3, 3), 0.5, -0.5), "p_out out of [0,1]: -0.5"),
            (TwoKParams, ({(1, 2): -1},),
             JDM + "negative count for (1,2); degree-2 endpoint total -1 not divisible by 2"),
            (TwoKParams, ({(0, 1): 1},), JDM + "degree 0 < 1 in entry (0,1)"),
            (TwoKParams, ({(3, 2): 3},), JDM + "degree-2 endpoint total 3 not divisible by 2"),
            (TwoKParams, ({(3, 3): 3},), JDM + "entry (3,3)=3 exceeds n_k(n_k-1)/2=1"),
            (TwoKParams, ({(2, 4): 4},), JDM + "entry (2,4)=4 exceeds n_k*n_l=2"),
        ],
    )
    def test_refused_at_construction_with_its_message(self, params_type, args, message):
        with pytest.raises(ParameterError) as caught:
            params_type(*args)
        assert str(caught.value) == message


class TestCommunity:
    def test_two_disjoint_triangles(self):
        g = generate_community(CommunityParams((3, 3), 1.0, 0.0), 4)
        assert g.edge_count == 6
        assert sorted(connected_components(g).component_sizes) == [3, 3]
        assert average_clustering(g) == 1.0

    def test_complete_bipartite(self):
        g = generate_community(CommunityParams((4, 4), 0.0, 1.0), 4)
        assert g.edge_count == 16
        assert set(degree_sequence(g)) == {4}

    def test_binomial_edge_count(self):
        sizes, p_in, p_out = (50, 50), 0.2, 0.01
        expected = 2 * (50 * 49 // 2) * p_in + 2500 * p_out
        variance = 2 * (50 * 49 // 2) * p_in * (1 - p_in) + 2500 * p_out * (1 - p_out)
        counts = [
            generate_community(CommunityParams(sizes, p_in, p_out), s).edge_count
            for s in range(200)
        ]
        sigma_of_mean = np.sqrt(variance / len(counts))
        assert abs(np.mean(counts) - expected) < 3 * sigma_of_mean

    def test_determinism(self):
        params = CommunityParams((10, 20, 5), 0.3, 0.05)
        assert generate_community(params, 3) == generate_community(params, 3)

    @pytest.mark.parametrize("sizes,p_in,p_out", [((), 0.5, 0.5), ((3, 0), 0.5, 0.5), ((3, 3), 1.5, 0.0)])
    def test_invalid_params(self, sizes, p_in, p_out):
        with pytest.raises(ParameterError):
            generate_community(CommunityParams(sizes, p_in, p_out), 0)

    @pytest.mark.parametrize(
        "sizes,p_in,p_out",
        [
            ((1,), 0.5, 0.5),
            ((1, 1, 1), 1.0, 1.0),
            ((3, 1, 4), 0.0, 1.0),
            ((3, 1, 4), 1.0, 0.0),
            ((10, 20, 5), 0.3, 0.05),
            ((50, 50), 0.2, 0.01),
            ((200, 7, 1), 0.05, 1.0),
        ],
    )
    def test_matches_per_cell_reference(self, sizes, p_in, p_out):
        params = CommunityParams(sizes, p_in, p_out)
        for seed in (0, 5, 99):
            assert generate_community(params, seed) == reference_generate_community(params, seed)


class TestSampleDistinct:
    @pytest.mark.parametrize(
        "total,count",
        [(100, 12), (9, 1), (1000, 0), (1000, 124), (2**32 - 5, 50), (2**32, 7),
         (2**32 + 1, 40), (3 * 2**40, 100), (2**62, 3)],
    )
    def test_batches_match_scalar_draws(self, total, count):
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_distinct(rng, total, count)
            assert got.dtype == np.int64
            assert got.tolist() == reference_sample_distinct(ref, total, count)
            # both generators stop at the same draw
            assert rng.integers(2**63) == ref.integers(2**63)


class TestTriangularUnrank:
    def test_every_cell_matches_row_major_walk(self):
        for s in range(2, 61):
            cells = np.arange(s * (s - 1) // 2)
            u, v = _triangular_unrank(cells, s)
            expected = [reference_triangular_unrank(int(c), s) for c in cells]
            assert list(zip(u.tolist(), v.tolist())) == expected

    def test_first_last_and_row_boundaries_at_large_s(self):
        s = 10**5
        total = s * (s - 1) // 2
        u, v = _triangular_unrank(np.array([0, total - 1]), s)
        assert (int(u[0]), int(v[0])) == reference_triangular_unrank(0, s) == (0, 1)
        assert (int(u[1]), int(v[1])) == reference_triangular_unrank(total - 1, s) == (s - 2, s - 1)
        rows = np.arange(s - 1)
        lengths = s - 1 - rows
        starts = np.cumsum(lengths) - lengths
        u, v = _triangular_unrank(starts, s)
        assert (u == rows).all() and (v == rows + 1).all()
        u, v = _triangular_unrank(starts + lengths - 1, s)
        assert (u == rows).all() and (v == s - 1).all()


class TestValidateJdm:
    def test_triangle_jdm_valid(self):
        assert validate_jdm(TwoKParams({(2, 2): 3})) == {2: 3}

    def test_non_integer_class_size(self):
        with pytest.raises(ParameterError, match="not divisible"):
            validate_jdm(TwoKParams({(1, 2): 3}))

    def test_two_disjoint_edges_valid(self):
        assert validate_jdm(TwoKParams({(1, 1): 2})) == {1: 4}

    def test_cap_violation(self):
        # derived counts: 6 endpoints / 1 = 6 degree-1 nodes, and 3 edges fit
        assert validate_jdm(TwoKParams({(1, 1): 3})) == {1: 6}
        assert validate_jdm(TwoKParams({(2, 2): 2, (1, 2): 2})) == {1: 2, 2: 3}
        # 3 edges inside degree class 3 need n_3 = 2 nodes, which hold one edge
        with pytest.raises(ParameterError, match=r"entry \(3,3\)=3 exceeds n_k\(n_k-1\)/2=1"):
            validate_jdm(TwoKParams({(3, 3): 3}))

    def test_every_violation_listed(self):
        with pytest.raises(ParameterError) as caught:
            validate_jdm(TwoKParams({(2, 3): 1, (3, 3): 2}))
        assert str(caught.value) == (
            "invalid joint degree matrix: degree-2 endpoint total 1 not divisible by 2; "
            "degree-3 endpoint total 5 not divisible by 3")


class TestTwoKParams:
    """The 2K parameter is the joint degree matrix itself."""

    EDGES = "a b\nb c\nc a\nc d\nd e\n"
    # what `netfit fit` writes for EDGES with --model 2K --seed 4
    FIT_JSON = """\
{
  "evaluations": 0,
  "master_seed": 0,
  "model": "2K",
  "notes": [],
  "objective_value": 0.0,
  "params": {
    "jdm": {
      "entries": [
        [
          1,
          2,
          1
        ],
        [
          2,
          2,
          1
        ],
        [
          2,
          3,
          3
        ]
      ]
    }
  },
  "replicates_per_eval": 0
}
"""

    def test_fit_json_parses_and_reserialises_byte_for_byte(self):
        obj = json.loads(self.FIT_JSON)
        model, params, seed = params_from_json_obj(obj)
        assert (model, seed) == ("2K", None)
        assert params.entries == {(1, 2): 1, (2, 2): 1, (2, 3): 3}
        assert _json_text({**obj, "params": params.to_json_obj()}) == self.FIT_JSON

    def test_fit_writes_that_json(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text(self.EDGES)
        assert main(["fit", str(edges), "--model", "2K", "--seed", "4",
                     "--out", str(tmp_path / "fits")]) == 0
        assert (tmp_path / "fits" / "g_2K.json").read_text(encoding="utf-8") == self.FIT_JSON

    def test_reversed_keys_are_made_canonical_and_summed(self):
        assert TwoKParams({(3, 2): 2, (2, 3): 4, (1, 1): 4}).entries == {(2, 3): 6, (1, 1): 4}
        parsed = TwoKParams.from_json_obj({"jdm": {"entries": [[3, 2, 2], [2, 3, 4]]}})
        assert parsed.entries == {(2, 3): 6}
        assert parsed.to_json_obj() == {"jdm": {"entries": [[2, 3, 6]]}}

    @pytest.mark.parametrize("entries", [[[2, 3, 2], [2, 3, 4]], [[3, 2, 2], [2, 3, 4]]],
                             ids=["repeated", "reversed"])
    def test_json_entries_whose_keys_coincide_are_summed(self, entries):
        assert TwoKParams.from_json_obj({"jdm": {"entries": entries}}).entries == {(2, 3): 6}

    def test_class_sizes_are_kept_when_made(self):
        from_graph = joint_degree_matrix(graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3),
                                                              (3, 4)]))
        _, from_json, _ = params_from_json_obj(json.loads(self.FIT_JSON))
        for params in (from_graph, from_json):
            assert params.class_sizes == validate_jdm(params) == {1: 1, 2: 3, 3: 1}
        assert from_json == from_graph
        assert "class_sizes" not in repr(from_json)


STAR_HEAVY = graph_from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 6)])


def _complete(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _mean_distance(g):
    return average_path_length_normalized(g) * (g.node_count - 1)


class TestGenerate2K:
    def test_unique_triangle(self):
        g = generate_2k(TwoKParams({(2, 2): 3}), 0)
        assert degree_sequence(g) == (2, 2, 2)
        assert g.edge_count == 3

    def test_path3(self):
        g = generate_2k(TwoKParams({(1, 2): 2}), 0)
        assert sorted(degree_sequence(g)) == [1, 1, 2]

    def test_invalid_input_raises(self):
        with pytest.raises(ParameterError):
            generate_2k(TwoKParams({(1, 2): 3}), 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_mixed_generators(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            generate_cba(CBAParams(80, 2, 0.5), seed),
            generate_dd(DDParams(90, 0.4), seed),
            generate_community(CommunityParams((30, 30, 30), 0.2, 0.05), seed),
            pseudo_real_graph(rng, 70),
        ]
        for src in sources:
            # a JDM cannot encode degree-0 nodes; sources must not have any
            assert min(degree_sequence(src)) >= 1
            jdm = joint_degree_matrix(src)
            out = generate_2k(jdm, seed)
            assert joint_degree_matrix(out).entries == jdm.entries
            assert sorted(degree_sequence(out)) == sorted(degree_sequence(src))

    def test_star_heavy_jdm_needs_switches(self):
        # hub-and-spoke classes force saturated pairings, exercising the switch
        jdm = joint_degree_matrix(STAR_HEAVY)
        out = generate_2k(jdm, 0)
        assert joint_degree_matrix(out).entries == jdm.entries

    @pytest.mark.parametrize("make", [
        lambda: generate_cba(CBAParams(1000, 4, 0.3), 5),
        lambda: generate_dd(DDParams(1200, 0.4), 5),
        lambda: pseudo_real_graph(np.random.default_rng(5), 1500),
    ], ids=["cba", "dd", "pseudo_real"])
    def test_round_trip_at_scale(self, make):
        source = make()
        jdm = joint_degree_matrix(source)
        for seed in range(5):
            out = generate_2k(jdm, seed)
            assert joint_degree_matrix(out).entries == jdm.entries
            assert sorted(degree_sequence(out)) == sorted(degree_sequence(source))

    def test_seed_decides_the_graph(self):
        jdm = joint_degree_matrix(generate_cba(CBAParams(300, 3, 0.4), 1))
        assert generate_2k(jdm, 11) == generate_2k(jdm, 11)
        assert generate_2k(jdm, 11) != generate_2k(jdm, 12)

    def test_dense_jdms_exact_and_fast(self):
        # entries at their cap leave one realization up to labels; the
        # open-pair list keeps the last edges of a class pair from
        # costing O(n_k * n_l) draws each, and the dense random graphs
        # make switches reopen and close listed pairs
        rng = np.random.default_rng(8)
        sources = [
            _complete(60),
            graph_from_edges(50, [(u, v) for u in range(20) for v in range(20, 50)]),
            STAR_HEAVY,
            _complete(200),
        ]
        while len(sources) < 60:
            n, p = int(rng.integers(6, 16)), rng.uniform(0.5, 1.0)
            g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
            if min(degree_sequence(g)) >= 1:
                sources.append(g)
        start = time.perf_counter()
        for src in sources:
            jdm = joint_degree_matrix(src)
            for seed in range(5):
                assert joint_degree_matrix(generate_2k(jdm, seed)).entries == jdm.entries
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"dense JDMs took {elapsed:.1f}s"

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_mean_distance_near_the_source(self, n):
        src = generate_cba(CBAParams(n, 4, 0.3), 5)
        want = _mean_distance(src)
        got = _mean_distance(generate_2k(joint_degree_matrix(src), 5))
        assert abs(got - want) <= 0.1 * want, f"2K mean distance {got:.2f}, source {want:.2f}"

    def test_samples_like_networkx_ones(self):
        nx = pytest.importorskip("networkx")
        src = generate_cba(CBAParams(1000, 4, 0.3), 5)
        jdm = joint_degree_matrix(src)
        # networkx's dict of dicts, both orientations; it counts a
        # diagonal entry's edges twice
        joint = {}
        for (k, l), c in jdm.entries.items():
            joint.setdefault(k, {})[l] = 2 * c if k == l else c
            joint.setdefault(l, {})[k] = 2 * c if k == l else c
        ours, theirs = [], []
        for seed in range(4):
            ours.append(generate_2k(jdm, seed))
            h = nx.joint_degree_graph(joint, seed=seed)
            theirs.append(graph_from_edges(h.number_of_nodes(), list(h.edges())))
        for graphs in (ours, theirs):
            assert all(joint_degree_matrix(g).entries == jdm.entries for g in graphs)
        dist = [np.mean([_mean_distance(g) for g in gs]) for gs in (ours, theirs)]
        clust = [np.mean([average_clustering(g) for g in gs]) for gs in (ours, theirs)]
        assert abs(dist[0] - dist[1]) <= 0.03 * dist[1], dist
        assert abs(clust[0] - clust[1]) <= 0.01, clust


SAMPLE_PARAMS = {
    WSParams: WSParams(12, 4, 0.25),
    CBAParams: CBAParams(12, 2, 0.5),
    DDParams: DDParams(12, 0.7),
    CommunityParams: CommunityParams((4, 8), 0.5, 0.1),
    TwoKParams: TwoKParams({(2, 2): 3, (1, 2): 2}),
}


class TestDispatchAndSerialization:
    def test_generate_dispatch(self):
        assert generate(WSParams(10, 2, 0.0), 1).edge_count == 10
        assert generate(CBAParams(5, 1, 0.0), 1).edge_count == 4
        assert generate(DDParams(3, 1.0), 1).edge_count == 2
        assert generate(CommunityParams((3, 3), 1.0, 0.0), 1).edge_count == 6
        assert generate(TwoKParams({(2, 2): 3}), 1).edge_count == 3

    @pytest.mark.parametrize(
        "params", [(spec.name, SAMPLE_PARAMS[spec.params_type]) for spec in MODELS]
    )
    def test_json_round_trip(self, params):
        name, sample = params
        obj = json.loads(json.dumps({"model": name, "params": sample.to_json_obj(), "seed": 42}))
        model, parsed, seed = params_from_json_obj(obj)
        assert (model, seed) == (name, 42)
        assert parsed == sample
        assert generate(parsed, 7) == generate(sample, 7)

    def test_ws_std_maps_to_ws_params(self):
        model, parsed, _ = params_from_json_obj(
            {"model": "WS_STD", "params": {"n": 10, "K": 2, "p": 0.1}}
        )
        assert isinstance(parsed, WSParams)
