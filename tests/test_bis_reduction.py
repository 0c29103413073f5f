from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from polycount import (
    BlockPartition,
    BudgetError,
    Edge,
    Multigraph,
    conditioned_vc,
    count_is,
    gadget_counts,
    is_bruteforce,
    named_graph,
    partition_edges,
    substitute_gadget,
    type_of,
    vc_bipartite,
    vc_bruteforce,
)
from polycount import bis_reduction
from polycount.bis_reduction import covers_all_edges, feasible_type


def test_gadget_counts_formula():
    assert gadget_counts(1) == (2, 3, 5)
    assert gadget_counts(2) == (4, 9, 25)
    assert gadget_counts(3) == (8, 27, 125)
    with pytest.raises(ValueError):
        gadget_counts(0)


def test_gadget_counts_brute_force():
    k2 = named_graph("k2")
    part = partition_edges(k2, 1)
    for ell in (1, 2, 3):
        h = substitute_gadget(k2, part, (ell,))
        neither = vc_bruteforce(h, outside=(0, 1))
        one_u = vc_bruteforce(h, inside=(0,), outside=(1,))
        one_v = vc_bruteforce(h, inside=(1,), outside=(0,))
        both = vc_bruteforce(h, inside=(0, 1))
        assert (neither, one_u, both) == gadget_counts(ell)
        assert one_v == one_u


def test_type_of_examples():
    k2 = named_graph("k2")
    part = partition_edges(k2, 1)
    assert type_of(k2, part, set()) == ((1, 0, 0),)
    assert type_of(k2, part, {0}) == ((0, 1, 0),)
    assert type_of(k2, part, {0, 1}) == ((0, 0, 1),)

    k3 = named_graph("k3")
    part3 = partition_edges(k3, 3)
    t = type_of(k3, part3, {0, 1, 2})
    assert t == ((0, 0, 3),)
    assert covers_all_edges(t)
    assert feasible_type(t, part3)
    assert feasible_type(((1, 1, 1),), part3)  # row sum 3 = block size
    assert not feasible_type(((0, 0, 1),), part3)  # row sum 1 != 3


def test_conditioned_vc_examples():
    k2 = named_graph("k2")
    part = partition_edges(k2, 1)
    assert conditioned_vc(k2, part, (1,)) == 13  # 2 + 3 + 3 + 5
    assert conditioned_vc(k2, part, (2,)) == 47  # 4 + 9 + 9 + 25
    h = substitute_gadget(k2, part, (1,))
    assert vc_bruteforce(h) == 13


def test_conditioned_vc_rejects_a_partition_that_misses_an_edge():
    p3 = named_graph("p3")
    with pytest.raises(ValueError, match="do not cover"):
        conditioned_vc(p3, BlockPartition(((0,),), 1), (1,))


def test_conditioned_vc_guard():
    path = Multigraph(21, [Edge(i, i + 1) for i in range(20)])
    with pytest.raises(BudgetError, match="conditioning guard of 20"):
        conditioned_vc(path, partition_edges(path, 20), (1,))


def test_conditioned_vc_matches_bruteforce():
    cases = [
        (named_graph("k2"), 1),
        (named_graph("p3"), 1),
        (named_graph("p3"), 2),
        (named_graph("k3"), 1),
        (named_graph("k3"), 3),
        (named_graph("c4"), 2),
    ]
    for g, d in cases:
        part = partition_edges(g, d)
        for ells in product((1, 2), repeat=part.b):
            h = substitute_gadget(g, part, ells)
            if h.n > 25:
                continue
            assert conditioned_vc(g, part, ells) == vc_bruteforce(h), (g, d, ells)


def test_count_is_examples():
    assert count_is(named_graph("k2"), 1).count == 3
    assert count_is(named_graph("p3"), 1).count == 5
    assert count_is(named_graph("k3"), 3).count == 4


def test_count_is_census_soundness():
    g = named_graph("k3")
    result = count_is(g, 1)
    census = result.census
    assert sum(census.values()) == 2**g.n
    assert all(v >= 0 for v in census.values())
    for t, v in census.items():
        if not feasible_type(t, result.partition):
            assert v == 0
    # census actually matches direct set classification
    from collections import Counter

    direct = Counter(
        type_of(g, result.partition, {v for v in range(g.n) if (mask >> v) & 1})
        for mask in range(1 << g.n)
    )
    assert {t: c for t, c in census.items() if c} == dict(direct)


def test_count_is_d_and_oracle_choices():
    for name in ("k2", "p3", "k3", "c4"):
        g = named_graph(name)
        truth = is_bruteforce(g)
        for d in {1, g.m}:
            result = count_is(g, d, oracle="conditioned")
            assert result.count == truth, (name, d)
            assert result.query_count == ((d + 1) ** 3) ** result.partition.b


def answered_by(result):
    return Counter(e.query["oracle"] for e in result.transcript.entries)


def test_count_is_auto_mixes_oracles():
    # gadgets of at most 25 vertices go to side enumeration: k2 at ell <= 7,
    # c4 in blocks of two at ell_1 + ell_2 <= 3
    result = count_is(named_graph("k2"), 1, oracle="auto")
    assert result.count == 3
    assert answered_by(result) == {"side-enumeration": 7, "conditioned": 1}
    result = count_is(named_graph("c4"), 2, oracle="auto")
    assert result.count == 7
    assert answered_by(result) == {"side-enumeration": 3, "conditioned": 726}


def test_count_is_custom_oracle():
    g = named_graph("k2")
    base = count_is(g, 1, oracle="conditioned")
    answers = {tuple(e.query["ells"]): int(e.answer) for e in base.transcript.entries}
    seen = []

    def oracle(gadget):
        seen.append(gadget.n)
        ell = (gadget.n - 2) // 3  # K2 gadget graphs have 2 + 3*ell vertices
        return answers[(ell,)]

    result = count_is(g, 1, oracle=oracle)
    assert result.count == 3 and len(seen) == 8
    assert answered_by(result) == {"custom": 8}


def test_count_is_rejects_an_unknown_oracle_mode():
    with pytest.raises(ValueError, match="use auto, conditioned, or a callable"):
        count_is(named_graph("k2"), 1, oracle="brute")


def test_count_is_rejects_a_non_bipartite_gadget(monkeypatch):
    # the edgeless graph on 3 vertices asks one query, about itself; a
    # gadget builder that closes a triangle must not reach the oracle
    asked = []

    def triangle(g, part, ells):
        return Multigraph(g.n, [Edge(0, 1), Edge(1, 2), Edge(0, 2)])

    def custom(h):
        asked.append(h)
        return 0

    monkeypatch.setattr(bis_reduction, "substitute_gadget", triangle)
    with pytest.raises(ValueError, match=r"gadget graph for folds \[\] is not bipartite"):
        count_is(Multigraph(3, []), 1, oracle=custom)
    assert asked == []


# K2 in one block: the census is {(1,0,0): 1, (0,1,0): 2, (0,0,1): 1}, and a
# type tau = (t0, t1, t2) adds (2^t0 * 3^t1 * 5^t2)^ell to the query at ell.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda ell: int(ell == 5), "not an integer"),
        (lambda ell: -2 * 5**ell, "negative"),
        (lambda ell: 6**ell, "infeasible"),
        (lambda ell: 3**ell, "totals"),
    ],
)
def test_count_is_rejects_corrupted_answers(corrupt, message):
    def oracle(gadget):
        ell = (gadget.n - 2) // 3  # K2 gadget graphs have 2 + 3*ell vertices
        return vc_bipartite(gadget) + corrupt(ell)

    with pytest.raises(RuntimeError, match=message):
        count_is(named_graph("k2"), 1, oracle=oracle)


def test_count_is_rejects_nonzero_residual(monkeypatch):
    # a census that passes every other check but does not solve the system
    real_solve = bis_reduction.kronecker_solve

    def shifted_solve(factor, b, rhs):
        solution = real_solve(factor, b, rhs)
        solution[((0, 1, 0),)] -= 1
        solution[((0, 0, 1),)] += 1
        return solution

    monkeypatch.setattr(bis_reduction, "kronecker_solve", shifted_solve)
    with pytest.raises(RuntimeError, match="residual"):
        count_is(named_graph("k2"), 1, oracle="conditioned")


def test_count_is_grid_budget(monkeypatch):
    monkeypatch.setattr(bis_reduction, "GRID_GUARD", 100)
    with pytest.raises(BudgetError):
        count_is(named_graph("c4"), 1)


def test_count_is_edgeless_graph():
    # no edges means no blocks: one query at the empty fold vector, answered 2^n
    g = Multigraph(3, [])
    for oracle, name in (("auto", "side-enumeration"), ("conditioned", "conditioned")):
        result = count_is(g, 1, oracle=oracle)
        assert result.count == 8 and result.census == {(): 8}, oracle
        assert answered_by(result) == {name: 1}


def test_count_is_disconnected_graph():
    g = Multigraph(5, [Edge(0, 1), Edge(2, 3)])
    assert count_is(g, 1).count == is_bruteforce(g) == 2 * 3 * 3


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize(
    "g",
    [Multigraph(5, [Edge(i, i + 1) for i in range(4)]), Multigraph(4, [Edge(0, 1), Edge(1, 2), Edge(0, 2), Edge(2, 3)])],
    ids=["p5", "triangle-with-pendant"],
)
def test_count_is_one_block_beyond_d4(g, d):
    # factor sizes 216 and 343, past the d <= 4 of every other count_is test
    result = count_is(g, d)
    assert result.partition.b == 1
    assert result.count == is_bruteforce(g)


@st.composite
def is_cases(draw):
    """Simple graphs on at most 6 vertices and 4 edges, disconnected and
    edgeless ones included, with a block size d <= 4 that gives at most 3
    blocks and at most 729 queries."""
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    g = Multigraph(n, [Edge(u, v) for u, v in chosen])
    sizes = []
    for d in range(1, 5):
        blocks = -(-g.m // d)
        if blocks <= 3 and ((d + 1) ** 3) ** blocks <= 729:
            sizes.append(d)
    return g, draw(st.sampled_from(sizes)), draw(st.sampled_from(["auto", "conditioned"]))


@settings(max_examples=100, deadline=None)
@given(is_cases())
@example((Multigraph(0, []), 1, "auto"))  # no blocks
@example((Multigraph(5, [Edge(0, 1), Edge(2, 3), Edge(3, 4)]), 1, "conditioned"))  # three blocks
@example((Multigraph(6, [Edge(0, 1), Edge(4, 5)]), 2, "auto"))  # isolated vertices
def test_count_is_matches_bruteforce_on_random_graphs(case):
    g, d, oracle = case
    result = count_is(g, d, oracle=oracle)
    assert result.count == is_bruteforce(g)
    assert result.query_count == ((d + 1) ** 3) ** result.partition.b


def test_transcript_records_every_query():
    result = count_is(named_graph("p3"), 2)
    assert len(result.transcript) == result.query_count == 27
    entry = result.transcript.entries[0]
    assert entry.query["ells"] == [1]
    assert int(entry.answer) > 0


@pytest.mark.parametrize("name, d", [("p3", 2), ("k3", 1), ("c4", 4)])
def test_every_gadget_is_within_the_linear_size_bounds(name, d):
    # n' <= n + 3 (d + 1)^3 m and m' <= 4 (d + 1)^3 m on every query, met with
    # equality at the top fold vector, the last in the grid
    g = named_graph(name)
    folds = (d + 1) ** 3
    entries = [entry.query for entry in count_is(g, d).transcript.entries]
    assert all(q["gadget_vertices"] <= g.n + 3 * folds * g.m for q in entries)
    assert all(q["gadget_edges"] <= 4 * folds * g.m for q in entries)
    top = entries[-1]
    assert top["ells"] == [folds] * len(top["ells"])
    assert (top["gadget_vertices"], top["gadget_edges"]) == (g.n + 3 * folds * g.m, 4 * folds * g.m)


def test_transcript_replays_on_the_recorded_oracle():
    g = named_graph("p3")
    result = count_is(g, 2)
    part = result.partition

    def rerun(query):
        ells = query["ells"]
        if query["oracle"] == "side-enumeration":
            return vc_bipartite(substitute_gadget(g, part, ells))
        assert query["oracle"] == "conditioned"
        return conditioned_vc(g, part, ells)

    assert answered_by(result) == {"side-enumeration": 3, "conditioned": 24}
    assert result.transcript.replay(rerun) == []
