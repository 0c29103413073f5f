import pytest
from hypothesis import given, settings, strategies as st

from polycount import (
    BlockPartition,
    Edge,
    GraphParseError,
    Multigraph,
    add_apex,
    format_graph,
    gadget_size,
    named_graph,
    parse_graph,
    partition_edges,
    stretch,
    substitute_gadget,
)


def test_parse_k2():
    g = parse_graph("p graph 2 1\ne 0 1\n")
    assert g.n == 2 and g.m == 1
    assert g.edges[0] == Edge(0, 1, 1, "w")


def test_parse_triangle_with_comments():
    text = "c a triangle\np graph 3 3\ne 0 1\ne 1 2\ne 0 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 3


def test_parse_mult_and_label():
    g = parse_graph("p graph 2 1\ne 0 1 3 z\n")
    assert g.edges[0] == Edge(0, 1, 3, "z")


def test_parse_self_loop_rejected():
    with pytest.raises(GraphParseError) as err:
        parse_graph("p graph 2 1\ne 0 0\n")
    assert err.value.line == 2


def test_parse_errors_name_lines():
    with pytest.raises(GraphParseError) as err:
        parse_graph("p graph 2 1\ne 0 5\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph("p graph 2 1\ne 0 1 0\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph("p graph x 1\ne 0 1\n")
    assert err.value.line == 1
    with pytest.raises(GraphParseError):
        parse_graph("e 0 1\n")  # header missing
    with pytest.raises(GraphParseError):
        parse_graph("p graph 2 2\ne 0 1\n")  # count mismatch


def test_roundtrip_format():
    g = named_graph("petersen")
    assert parse_graph(format_graph(g)) == g


@st.composite
def labelled_multigraphs(draw):
    """Multigraphs on at most 6 vertices whose labels are any text without
    whitespace, comment and edge-line letters included."""
    n = draw(st.integers(0, 6))
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        label = st.text(min_size=1, max_size=4).filter(lambda s: s.split() == [s])
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=8)):
            if u != v:
                edges.append(Edge(u, v, draw(st.integers(1, 4)), draw(label)))
    return Multigraph(n, edges)


@settings(max_examples=100, deadline=None)
@given(labelled_multigraphs())
def test_format_parse_roundtrip_on_random_multigraphs(g):
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize("label", ["", "a b", " w", "w\n", "x\ty", "\u2028"])
def test_format_refuses_a_label_that_cannot_round_trip(label):
    with pytest.raises(ValueError, match="label"):
        format_graph(Multigraph(2, [Edge(0, 1, 1, label)]))


GRAPH_TOKENS = ["p", "graph", "e", "c", "0", "1", "2", "-1", "3", "x", "w", "z", "\n", " ", "\t", "\r", "\u2028"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(st.sampled_from(GRAPH_TOKENS), max_size=30).map("".join)))
def test_parse_fuzzed_text_raises_only_parse_errors(text):
    try:
        g = parse_graph(text)
    except GraphParseError:
        return
    assert isinstance(g, Multigraph)


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [Edge(0, 2)])
    with pytest.raises(ValueError):
        Multigraph(2, [Edge(0, 0)])
    with pytest.raises(ValueError):
        Multigraph(2, [Edge(0, 1, 0)])
    with pytest.raises(ValueError):
        Multigraph(2, [Edge(0, 1, 2)], simple=True)
    with pytest.raises(ValueError):
        Multigraph(2, [Edge(0, 1), Edge(1, 0)], simple=True)


def test_add_apex_k2():
    g = named_graph("k2")
    gp = add_apex(g)
    assert gp.n == 3 and gp.m == 3
    assert gp.edges[0].label == "w"
    assert {gp.edges[1].label, gp.edges[2].label} == {"z0", "z1"}


def test_add_apex_k3_wheel():
    gp = add_apex(named_graph("k3"))
    assert gp.n == 4 and gp.m == 6
    assert sum(1 for e in gp.edges if e.label == "w") == 3
    apex_edges = [e for e in gp.edges if e.label.startswith("z")]
    assert len(apex_edges) == 3 and all(e.v == 3 for e in apex_edges)


def test_add_apex_star_from_edgeless():
    g = Multigraph(3, [], simple=True)
    gp = add_apex(g, collapse_z=True)
    assert gp.n == 4 and gp.m == 3
    assert all(e.label == "z" for e in gp.edges)


def test_stretch_single_edge():
    g = named_graph("k2")
    s = stretch(g, 3)
    assert s.n == 4 and s.m == 3
    assert s.simple and Multigraph(s.n, s.edges, simple=True) == s


def test_stretch_double_edge_gives_cycle():
    g = Multigraph(2, [Edge(0, 1, 2)])
    s = stretch(g, 2)
    assert s.n == 4 and s.m == 4
    assert s.simple and Multigraph(s.n, s.edges, simple=True) == s
    # a 4-cycle through the two endpoints
    assert s.component_count() == 1
    assert all(sum(1 for e in s.edges if v in (e.u, e.v)) == 2 for v in range(4))


def test_stretch_identity_at_one():
    for g in (named_graph("k3"), Multigraph(2, [Edge(0, 1, 2)])):
        assert stretch(g, 1) == g


def test_stretch_counts():
    g = Multigraph(3, [Edge(0, 1, 2), Edge(1, 2)])
    for k in (2, 3, 4, 5):
        s = stretch(g, k)
        assert s.n == g.n + (k - 1) * g.total_mult
        assert s.m == k * g.total_mult
        assert s.simple and Multigraph(s.n, s.edges, simple=True) == s


def test_stretch_rejects_zero():
    with pytest.raises(ValueError):
        stretch(named_graph("k2"), 0)


def test_substitute_gadget_small():
    k2 = named_graph("k2")
    part = partition_edges(k2, 1)
    h1 = substitute_gadget(k2, part, (1,))
    # one path of 4 edges: the 2 endpoints plus 3 fresh internal vertices
    assert h1.n == 5 and h1.m == 4
    h2 = substitute_gadget(k2, part, (2,))
    assert h2.n == 8 and h2.m == 8
    with pytest.raises(ValueError):
        substitute_gadget(k2, part, (0,))


def test_substitute_gadget_bipartite_and_counts():
    g = named_graph("k3")
    for d, ells in ((1, (1, 2, 3)), (2, (2, 1)), (3, (2,))):
        part = partition_edges(g, d)
        h = substitute_gadget(g, part, ells)
        sides = h.bipartition()
        assert sides is not None
        assert h.n == g.n + 3 * sum(e * len(b) for e, b in zip(ells, part.blocks))
        assert h.m == 4 * sum(e * len(b) for e, b in zip(ells, part.blocks))
        # the original endpoints of any edge land on the same side
        side0, _ = sides
        for e in g.edges:
            assert (e.u in side0) == (e.v in side0)


def test_gadget_size_matches_substitution():
    g = Multigraph(7, [Edge(0, 1), Edge(1, 2), Edge(4, 5)])  # two components and isolated 3 and 6
    for d, ells in ((1, (1, 2, 3)), (2, (4, 1)), (3, (2,))):
        part = partition_edges(g, d)
        h = substitute_gadget(g, part, ells)
        assert gadget_size(g, part, ells) == (h.n, h.m)
    with pytest.raises(ValueError):
        gadget_size(g, partition_edges(g, 1), (1, 1))
    with pytest.raises(ValueError):
        gadget_size(g, partition_edges(g, 3), (0,))


def test_partition_edges():
    g = named_graph("c4")
    part = partition_edges(g, 2)
    assert part.blocks == ((0, 1), (2, 3))
    g5 = Multigraph(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3), Edge(0, 2)])
    part = partition_edges(g5, 2)
    assert [len(b) for b in part.blocks] == [2, 2, 1]
    part = partition_edges(g5, 99)
    assert part.b == 1
    with pytest.raises(ValueError):
        partition_edges(g5, 0)


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(((0, 1), (1, 2)), 2)  # overlap
    with pytest.raises(ValueError):
        BlockPartition(((0, 1, 2),), 2)  # too big

