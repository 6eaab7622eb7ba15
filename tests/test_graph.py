import importlib.util
import tracemalloc
import weakref
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
    WSParams,
    generate,
)
from netfit import graph
from netfit.graph import (
    PARSE_BLOCK,
    SERIALIZE_CHUNK,
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
    graph_of_rows,
    reference_parse_edge_list,
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
        # beta, alpha, gamma -> 0, 1, 2; sorted tokens would make alpha the hub 0
        g = parse_edge_list("beta alpha\nalpha gamma")
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_parse_is_deterministic(self):
        text = "a b\nb c\nc d\nd a\na c"
        assert parse_edge_list(text) == parse_edge_list(text)

    def test_round_trip_serialization(self):
        g = parse_edge_list("n1 n2\nn2 n3\nn3 n1\nn3 n4")
        again = parse_edge_list(serialize_edge_list(g))
        assert sorted(degree_sequence(again)) == sorted(degree_sequence(g))
        assert again.edge_count == g.edge_count
        # serialization writes node ids, in id order
        assert serialize_edge_list(g) == "0 1\n0 2\n1 2\n2 3\n"
        assert again == g

    @pytest.mark.parametrize("edges", [0, 1, SERIALIZE_CHUNK - 1, SERIALIZE_CHUNK,
                                       SERIALIZE_CHUNK + 1, 2 * SERIALIZE_CHUNK + 1])
    def test_chunked_text_is_the_one_shot_join(self, edges):
        # a path through the nodes in shuffled order, so edge order differs from path order
        order = np.random.default_rng(edges).permutation(edges + 1).tolist()
        g = graph_from_edges(edges + 1, zip(order, order[1:]))
        one_shot = "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
        assert serialize_edge_list(g) == one_shot
        assert one_shot.count("\n") == max(edges, 1)


INVALID_ROWS = [
    (((1,), (0,), (2,)), "self-loop at node 2"),
    (((2, 1), (0,), (0,)), "adjacency of node 0 not sorted/unique"),
    (((1,), (0, 2, 2), (1,)), "adjacency of node 1 not sorted/unique"),
    (((1,), (0, 4), (), ()), "neighbor 4 of node 1 out of range"),
    (((1,), (-1, 0)), "neighbor -1 of node 1 out of range"),
    (((1, 2), (0,), ()), "edge 0-2 not symmetric"),
    (((1,), (0,), (), (0,)), "edge 3-0 not symmetric"),
]
INVALID_IDS = ["self-loop", "unsorted", "duplicate", "out-of-range", "negative", "asymmetric",
               "asymmetric-reverse"]


def _parse_outcome(parse, text):
    """What a parse gives: (degrees, src, dst) as lists, or its EdgeListError text."""
    try:
        g = parse(text)
    except EdgeListError as exc:
        return str(exc)
    src, dst = g.edge_endpoints
    return g.degree_array.tolist(), src.tolist(), dst.tolist()


TOKENS = st.sampled_from(["a", "b", "c", "d", "7", "07", "x1", "é"])
FILLER = st.sampled_from([" ", "  ", "\t", " \t "])
EDGE_LINE = st.builds(
    lambda lead, a, sep, b, extra: lead + a + sep + b + "".join(" " + t for t in extra),
    st.sampled_from(["", " ", "\t"]), TOKENS, FILLER, TOKENS,
    st.lists(st.sampled_from(["1.5", "w", "-2", "#", "a"]), max_size=2),
)
SELF_LOOP_LINE = TOKENS.map(lambda t: f"{t} {t}")
COMMENT_LINE = st.builds(lambda lead, prefix, body: lead + prefix + body,
                         st.sampled_from(["", "  "]), st.sampled_from(["#", "%"]),
                         st.sampled_from(["", " a b", "x", " 1 2 3"]))
BLANK_LINE = st.sampled_from(["", " ", "\t"])
ONE_TOKEN_LINE = st.builds(lambda lead, t: lead + t, st.sampled_from(["", " "]), TOKENS)
# every line boundary str.splitlines honours; "\r\n" is one boundary
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
LINE_END = st.sampled_from(LINE_ENDS)
# blocks of a few characters put block cuts inside most lines
BLOCK_SIZE = st.one_of(st.integers(1, 8), st.just(PARSE_BLOCK))


def _joined(lines, ends, trailing=False):
    """The lines, each ended by its own line end; the last one only when ``trailing``."""
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not trailing:
        text = text[: len(text) - len(ends[len(lines) - 1])]
    return text


def _parse_in_blocks(block, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "PARSE_BLOCK", block)
        return _parse_outcome(parse_edge_list, text)


class TestParseMatchesReference:
    """The array parse gives what the per-node set parse gave."""

    @pytest.mark.parametrize("name", [r[0] for r in make_corpus.corpus_recipes()])
    def test_corpus_file(self, name):
        text = (corpus_manifest().parent / f"{name}.txt").read_text(encoding="utf-8")
        assert _parse_outcome(parse_edge_list, text) == \
            _parse_outcome(reference_parse_edge_list, text)

    def test_line_ends_are_every_splitlines_boundary(self):
        text = "a".join(map(chr, range(0x110000)))
        ends = {line[-1] for line in text.splitlines(keepends=True)[:-1]}
        assert ends == {end[-1] for end in LINE_ENDS}

    @given(
        st.lists(st.one_of(EDGE_LINE, EDGE_LINE, EDGE_LINE, SELF_LOOP_LINE, COMMENT_LINE,
                           BLANK_LINE), max_size=40),
        st.one_of(LINE_END.map(lambda end: [end] * 40), st.lists(LINE_END, min_size=40)),
        st.booleans(),
        BLOCK_SIZE,
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_edge_lists(self, lines, ends, trailing, block):
        text = _joined(lines, ends, trailing)
        assert _parse_in_blocks(block, text) == _parse_outcome(reference_parse_edge_list, text)

    @given(st.lists(st.one_of(EDGE_LINE, SELF_LOOP_LINE, COMMENT_LINE, BLANK_LINE), max_size=10),
           ONE_TOKEN_LINE, st.lists(EDGE_LINE, max_size=5), st.lists(LINE_END, min_size=16),
           BLOCK_SIZE)
    @settings(max_examples=100, deadline=None)
    def test_one_token_line_error(self, before, bad, after, ends, block):
        text = _joined(before + [bad] + after, ends)
        outcome = _parse_in_blocks(block, text)
        assert outcome == _parse_outcome(reference_parse_edge_list, text)
        assert outcome.startswith("line ")

    def test_blocks_hold_a_few_lines_at_once(self):
        # CBA(10^4, 4, 0.3) as 39 990 lines: the parse traced 2.6 MiB; with
        # its lists and arrays alive to the end, 6.1 MiB; with every line
        # string of the text split at once, 4.2 MiB
        text = serialize_edge_list(generate(CBAParams(10_000, 4, 0.3), 1))
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == reference_parse_edge_list(text)
        assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_node_only_in_self_loop_is_dropped(self):
        text = "q q\na b\nb a\na b 2.0\nc c\n% c d\nc a\n"
        outcome = _parse_outcome(parse_edge_list, text)
        assert outcome == _parse_outcome(reference_parse_edge_list, text)
        assert outcome[0] == [2, 1, 1]  # a, b, c; q is gone


class TestGraphInvariants:
    @pytest.mark.parametrize("adjacency,message", INVALID_ROWS, ids=INVALID_IDS)
    def test_rejects_invalid_adjacency(self, adjacency, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            graph_of_rows(adjacency)

    def test_constructor_takes_the_arrays_over(self):
        deg = np.array([1, 2, 1], dtype=np.int64)
        dst = np.array([1, 0, 2, 1], dtype=np.int64)
        g = Graph(deg, dst)
        assert g.degree_array is deg and g.edge_endpoints[1] is dst
        assert not deg.flags.writeable and not dst.flags.writeable

    @pytest.mark.parametrize("make_rows", [
        lambda: [[3, 1], [4, 0], [4], [0], [2, 1]],
        lambda: [{1, 3}, {0, 4}, {4}, {0}, {1, 2}],
        lambda: [(3, 1), (0, 4), (4,), (0,), (2, 1)],
        lambda: [range(3, 0, -2), [4, 0], range(4, 5), range(1), [2, 1]],
    ], ids=["unsorted-lists", "sets", "tuples", "ranges"])
    def test_handed_over_rows_may_be_in_any_order(self, make_rows):
        rows = make_rows()
        g = Graph.from_rows(rows)
        assert rows == [None] * 5
        assert g == graph_of_rows([[1, 3], [0, 4], [4], [0], [1, 2]])

    @pytest.mark.parametrize(
        "deg,dst,message",
        [
            ([1, 1], [1, 0, 0], "degrees do not match the rows"),
            ([2, -1, 1], [1, 2], "degrees do not match the rows"),
            ([[1, 1]], [1, 0], "degrees and rows must be 1-D int64 arrays"),
            (np.array([1, 1], dtype=np.int32), [1, 0], "degrees and rows must be 1-D int64 arrays"),
            ([1, 1], [1.0, 0.0], "degrees and rows must be 1-D int64 arrays"),
        ],
        ids=["too-many-entries", "negative-degree", "2-D", "int32", "float"],
    )
    def test_constructor_refuses_malformed_arrays(self, deg, dst, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(np.asarray(deg), np.asarray(dst))

    def test_equality_reads_the_arrays_and_hashing_is_gone(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g == parse_edge_list("0 1\n1 2\n")
        assert g == graph_of_rows(((1,), (0, 2), (1,)))
        assert g != graph_from_edges(3, [(0, 1), (0, 2)])
        assert g != graph_from_edges(4, [(0, 1), (1, 2)])
        assert g != "not a graph"
        with pytest.raises(TypeError):
            hash(g)

    def test_neighbors_and_edges_read_the_arrays(self):
        g = graph_from_edges(5, [(3, 0), (0, 4), (3, 4), (1, 3)])
        assert [g.neighbors(u) for u in range(5)] == [(3, 4), (3,), (), (0, 1, 4), (0, 3)]
        assert list(g.edges()) == [(0, 3), (0, 4), (1, 3), (3, 4)]
        for u in (-1, 5):
            with pytest.raises(IndexError):
                g.neighbors(u)

    @pytest.mark.parametrize("adjacency,message", [
        (rows, message) for (rows, message), name in zip(INVALID_ROWS, INVALID_IDS)
        if name != "unsorted"  # the handed-over rows are sorted first
    ])
    def test_handed_over_rows_run_the_same_check(self, adjacency, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph.from_rows([list(row) for row in adjacency])

    def test_handed_over_rows_are_released_before_the_check(self, monkeypatch):
        rows = [{2, 1}, {0}, {0}]
        refs = [weakref.ref(row) for row in rows]
        alive = []
        check = graph._check_rows
        monkeypatch.setattr(graph, "_check_rows",
                            lambda *arrays: (alive.append([r() is not None for r in refs]),
                                             check(*arrays)))
        g = Graph.from_rows(rows)
        assert alive == [[False, False, False]]
        assert rows == [None, None, None]
        assert g == graph_of_rows(((1, 2), (0,), (0,)))

    def test_first_fault_in_node_order_is_named(self):
        # node 1 has a self-loop and node 3 is out of range; node 1 comes first
        with pytest.raises(ValueError, match="self-loop at node 1"):
            graph_of_rows(((), (1,), (), (9,)))

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
        "empty": graph_of_rows(()),
        "isolated": graph_from_edges(4, []),
        "triangle": graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        "triangle-and-isolated": graph_from_edges(5, [(0, 3), (0, 4), (3, 4)]),
        "WS": generate(WSParams(30, 4, 0.2), 1),
        "CBA": cba,
        "DD": generate(DDParams(30, 0.6), 3),
        "Com": generate(CommunityParams((10, 12), 0.5, 0.1), 4),
        "2K": generate(joint_degree_matrix(cba), 5),
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
        rows = [g.neighbors(u) for u in range(g.node_count)]
        deg = [len(nbrs) for nbrs in rows]
        src, dst = g.edge_endpoints
        assert g.degree_array.dtype == src.dtype == dst.dtype == np.int64
        assert g.degree_array.tolist() == deg
        assert src.tolist() == np.repeat(np.arange(g.node_count), deg).tolist()
        assert dst.tolist() == [v for nbrs in rows for v in nbrs]
        assert len(dst) == 2 * g.edge_count
