import random

import pytest
from hypothesis import example, given, settings, strategies as st

from polycount import (
    BudgetError,
    Edge,
    Multigraph,
    forest_poly_bruteforce,
    forests_bruteforce,
    is_bruteforce,
    named_graph,
    pm_bruteforce,
    vc_bipartite,
    vc_bruteforce,
)
from polycount import forest, oracles
from polycount.verify import random_simple_graph


def test_pm_examples():
    assert pm_bruteforce(named_graph("c4")) == 2
    assert pm_bruteforce(named_graph("k4")) == 3
    assert pm_bruteforce(named_graph("k3")) == 0
    assert pm_bruteforce(named_graph("k33")) == 6


def test_is_vc_examples():
    assert is_bruteforce(named_graph("k2")) == 3
    assert vc_bruteforce(named_graph("k2")) == 3
    assert is_bruteforce(named_graph("c4")) == 7
    assert vc_bruteforce(named_graph("c4")) == 7
    edgeless = Multigraph(3, [])
    assert is_bruteforce(edgeless) == 8 == vc_bruteforce(edgeless)


def test_forest_examples():
    assert forests_bruteforce(named_graph("k3")) == 7
    assert forests_bruteforce(named_graph("k4")) == 38
    tree = Multigraph(5, [Edge(0, 1), Edge(1, 2), Edge(1, 3), Edge(3, 4)])
    assert forests_bruteforce(tree) == 2**4


def test_is_equals_vc_randomly():
    rng = random.Random(6)
    for _ in range(30):
        g = random_simple_graph(rng, 2, 10, 20)
        assert is_bruteforce(g) == vc_bruteforce(g)


def test_pm_zero_on_odd():
    rng = random.Random(7)
    for _ in range(20):
        g = random_simple_graph(rng, 3, 7, 12)
        if g.n % 2 == 1:
            assert pm_bruteforce(g) == 0


def test_forests_match_polynomial_at_one():
    rng = random.Random(8)
    for _ in range(15):
        g = random_simple_graph(rng)
        res = forest_poly_bruteforce(g)
        assert forests_bruteforce(g) == res.forest_count


def test_bucketed_vc_partitions_total():
    g = named_graph("c4")
    total = vc_bruteforce(g)
    split = (
        vc_bruteforce(g, outside=(0,))
        + vc_bruteforce(g, inside=(0,))
    )
    assert split == total


def test_bucketed_vc_rejects_stray_vertices(monkeypatch):
    def scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(oracles.kernels, "count_vertex_covers", scan)
    k2 = named_graph("k2")
    for constraint in ({"inside": (5,)}, {"outside": (7,)}, {"inside": (-1,)}, {"outside": (-1,)}):
        with pytest.raises(ValueError, match="outside 0..1"):
            vc_bruteforce(k2, **constraint)


def test_vc_bruteforce_rejects_conflicting_constraints(monkeypatch):
    def scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(oracles.kernels, "count_vertex_covers", scan)
    with pytest.raises(ValueError, match="both required and forbidden"):
        vc_bruteforce(named_graph("k3"), inside=(0, 1), outside=(1,))


def test_budgets_fail_loudly(monkeypatch):
    big = Multigraph(26, [])
    with pytest.raises(BudgetError):
        is_bruteforce(big)
    with pytest.raises(BudgetError):
        pm_bruteforce(Multigraph(18, [], simple=True))
    monkeypatch.setattr(forest, "ENUMERATION_GUARD", 1)
    monkeypatch.setattr(oracles, "PM_VERTEX_GUARD", 2)
    with pytest.raises(BudgetError):
        forests_bruteforce(named_graph("k3"))
    assert pm_bruteforce(named_graph("k2")) == 1


def test_multigraph_forests_count_copies():
    g = Multigraph(2, [Edge(0, 1, 3)])
    # subsets: empty, three single copies (any pair of copies is a cycle)
    assert forests_bruteforce(g) == 4


@st.composite
def bipartite_graphs(draw):
    """Bipartite graphs on at most 14 vertices: any two side sizes (empty and
    very unbalanced sides included), any set of edges between the sides (so
    isolated vertices and several components occur), and shuffled labels so
    the sides interleave."""
    a = draw(st.integers(0, 14))
    b = draw(st.integers(0, 14 - a))
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(a + b)))
    return Multigraph(a + b, [Edge(perm[u], perm[v]) for u, v in chosen])


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
@example(Multigraph(0, []))
@example(Multigraph(13, [Edge(0, v) for v in range(1, 13)]))
@example(Multigraph(9, [Edge(0, 1), Edge(2, 3), Edge(3, 4), Edge(5, 6), Edge(6, 7), Edge(7, 8)]))
def test_vc_bipartite_matches_bruteforce(g):
    assert vc_bipartite(g) == vc_bruteforce(g)


def test_vc_bipartite_budget_is_on_the_smaller_side(monkeypatch):
    monkeypatch.setattr(oracles, "SUBSET_GUARD", 3)
    assert vc_bipartite(named_graph("k33")) == 15
    star = Multigraph(30, [Edge(0, v) for v in range(1, 30)])
    assert vc_bipartite(star) == 2**29 + 1


def test_vc_bipartite_rejects_before_enumerating(monkeypatch):
    def enumerate_sides(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracles, "_side_cover_sum", enumerate_sides)
    with pytest.raises(ValueError):
        vc_bipartite(named_graph("k3"))
    monkeypatch.setattr(oracles, "SUBSET_GUARD", 2)
    with pytest.raises(BudgetError):
        vc_bipartite(named_graph("k33"))
