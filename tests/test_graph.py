import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfit.data import corpus_manifest
from netfit.generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    TwoKParams,
    WSParams,
    generate,
)
from netfit.graph import (
    EdgeListError,
    Graph,
    parse_edge_list,
    serialize_edge_list,
)

from netfit.metrics import joint_degree_matrix

from helpers import (
    GraphBuilder,
    connected_components,
    degree_sequence,
    graph_from_edges,
    relabel,
)


def _load_make_corpus():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_corpus = _load_make_corpus()


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("a b\nb c\nc a")
        assert (g.node_count, g.edge_count) == (3, 3)

    def test_self_loop_and_duplicates_collapse(self):
        g = parse_edge_list("1 1\n1 2\n2 1")
        assert (g.node_count, g.edge_count) == (2, 1)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("x y\n\n# comment\ny z")
        assert (g.node_count, g.edge_count) == (3, 2)
        assert degree_sequence(g) == (1, 2, 1)

    def test_percent_comment_and_extra_columns(self):
        g = parse_edge_list("% header\na b 3.5 extra\nb c 1.0")
        assert (g.node_count, g.edge_count) == (3, 2)

    def test_one_token_line_errors_with_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("a b\nxyz\nb c")

    def test_empty_input_errors(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("")
        with pytest.raises(EdgeListError):
            parse_edge_list("# only a comment\n\n")

    def test_only_self_loops_errors(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("3 3\n4 4")

    def test_first_appearance_ids(self):
        g = parse_edge_list("beta alpha\nalpha gamma")
        assert g.labels == ("beta", "alpha", "gamma")

    def test_parse_is_deterministic(self):
        text = "a b\nb c\nc d\nd a\na c"
        assert parse_edge_list(text) == parse_edge_list(text)

    def test_round_trip_serialization(self):
        g = parse_edge_list("n1 n2\nn2 n3\nn3 n1\nn3 n4")
        again = parse_edge_list(serialize_edge_list(g))
        assert sorted(degree_sequence(again)) == sorted(degree_sequence(g))
        assert again.edge_count == g.edge_count
        # serialization emits original labels
        assert "n4" in serialize_edge_list(g)


class TestGraphInvariants:
    @pytest.mark.parametrize(
        "adjacency,message",
        [
            (((1,), (0,), (2,)), "self-loop at node 2"),
            (((2, 1), (0,), (0,)), "adjacency of node 0 not sorted/unique"),
            (((1,), (0, 2, 2), (1,)), "adjacency of node 1 not sorted/unique"),
            (((1,), (0, 4), (), ()), "neighbor 4 of node 1 out of range"),
            (((1,), (-1, 0)), "neighbor -1 of node 1 out of range"),
            (((1, 2), (0,), ()), "edge 0-2 not symmetric"),
            (((1,), (0,), (), (0,)), "edge 3-0 not symmetric"),
        ],
        ids=["self-loop", "unsorted", "duplicate", "out-of-range", "negative", "asymmetric",
             "asymmetric-reverse"],
    )
    def test_rejects_invalid_adjacency(self, adjacency, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(adjacency)

    def test_first_fault_in_node_order_is_named(self):
        # node 1 has a self-loop and node 3 is out of range; node 1 comes first
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Graph(((), (1,), (), (9,)))

    def test_immutable(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.node_count = 5

    def test_builder_ignores_duplicates(self):
        b = GraphBuilder(3)
        assert b.add_edge(0, 1)
        assert not b.add_edge(1, 0)
        assert not b.add_edge(1, 1)
        assert b.build().edge_count == 1

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    @settings(max_examples=100)
    def test_handshake_lemma(self, pairs):
        b = GraphBuilder(10)
        for u, v in pairs:
            b.add_edge(u, v)
        g = b.build()
        assert sum(degree_sequence(g)) == 2 * g.edge_count


class TestComponents:
    def test_triangle_single_component(self):
        labeling = connected_components(graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert labeling.component_sizes == (3,)

    def test_two_disjoint_edges(self):
        labeling = connected_components(graph_from_edges(4, [(0, 1), (2, 3)]))
        assert sorted(labeling.component_sizes) == [2, 2]
        assert labeling.label[0] == labeling.label[1]
        assert labeling.label[0] != labeling.label[2]

    def test_isolated_nodes(self):
        labeling = connected_components(graph_from_edges(4, []))
        assert labeling.component_sizes == (1, 1, 1, 1)

    def test_sizes_sum_to_node_count(self):
        g = graph_from_edges(7, [(0, 1), (2, 3), (3, 4)])
        assert sum(connected_components(g).component_sizes) == 7


class TestDegreeSequence:
    def test_examples(self):
        assert degree_sequence(graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])) == (2, 2, 2)
        assert degree_sequence(graph_from_edges(3, [(0, 1), (1, 2)])) == (1, 2, 1)
        assert degree_sequence(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])) == (3, 1, 1, 1)


class TestRelabel:
    def test_relabel_preserves_structure(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = relabel(g, (3, 2, 1, 0))
        assert sorted(degree_sequence(h)) == sorted(degree_sequence(g))
        assert 2 in h.neighbors(3) and 0 in h.neighbors(1)


class TestMakeCorpus:
    RECIPES = list(make_corpus.corpus_recipes())

    @pytest.mark.parametrize("name,domain,seed", RECIPES, ids=[r[0] for r in RECIPES])
    def test_reproduces_bundled_graph(self, name, domain, seed):
        g = make_corpus.build_graph(np.random.default_rng(seed), domain)
        bundled = corpus_manifest().parent / f"{name}.txt"
        assert serialize_edge_list(g) == bundled.read_text(encoding="utf-8")

    def test_names_match_manifest(self):
        rows = corpus_manifest().read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [r[0] for r in self.RECIPES]


def _kept_array_graphs():
    cba = generate(CBAParams(30, 3, 0.5), 2)
    return {
        "empty": Graph(()),
        "isolated": graph_from_edges(4, []),
        "triangle": graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        "triangle-and-isolated": graph_from_edges(5, [(0, 3), (0, 4), (3, 4)]),
        "WS": generate(WSParams(30, 4, 0.2), 1),
        "CBA": cba,
        "DD": generate(DDParams(30, 0.6), 3),
        "Com": generate(CommunityParams((10, 12), 0.5, 0.1), 4),
        "2K": generate(TwoKParams(joint_degree_matrix(cba)), 5),
        "parsed": parse_edge_list("b a\na c\nc b\nd a\n"),
    }


KEPT_ARRAY_GRAPHS = _kept_array_graphs()


@pytest.mark.parametrize("g", KEPT_ARRAY_GRAPHS.values(), ids=KEPT_ARRAY_GRAPHS.keys())
class TestKeptArrays:
    def test_read_only_and_same_object(self, g):
        deg, (src, dst) = g.degree_array, g.edge_endpoints
        assert g.degree_array is deg
        assert g.edge_endpoints[0] is src and g.edge_endpoints[1] is dst
        for arr in (deg, src, dst):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0

    def test_equal_the_rows(self, g):
        deg = [len(nbrs) for nbrs in g.adjacency]
        src, dst = g.edge_endpoints
        assert g.degree_array.dtype == src.dtype == dst.dtype == np.int64
        assert g.degree_array.tolist() == deg
        assert src.tolist() == np.repeat(np.arange(g.node_count), deg).tolist()
        assert dst.tolist() == [v for nbrs in g.adjacency for v in nbrs]
        assert len(dst) == 2 * g.edge_count
