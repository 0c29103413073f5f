import gc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from polycount import (
    Edge,
    Multigraph,
    PmReductionParams,
    add_apex,
    block_interpolation,
    count_pm,
    forest_poly_bruteforce,
    forest_value_bruteforce,
    named_graph,
    pm_bruteforce,
    simulate_oracle_via_stretch,
)
from polycount import pm_reduction
from polycount.errors import BudgetError
from polycount.forest import bruteforce_simple_oracle, sp_simple_oracle
from polycount.pm_reduction import (
    multigraph_from_multiplicities,
    stretch_backed_oracle,
)
from polycount.transcripts import OracleTranscript

F = Fraction


def test_params_validation():
    with pytest.raises(ValueError):
        PmReductionParams(C=0)
    with pytest.raises(ValueError):
        PmReductionParams(C=2, x=F(1))
    with pytest.raises(ValueError):
        PmReductionParams(C=2, k=2)
    # k = 1 would leave every parallel copy in place: the queries are not simple
    for k in (1, -1, -3):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            PmReductionParams(C=2, k=k)
    assert PmReductionParams(C=2, k=5).k == 5
    p = PmReductionParams(C=2, x=F(2))
    assert p.t == 1 and p.z0 == F(1, 7)
    p = PmReductionParams(C=2, x=F(-1))
    assert p.t == F(-1, 2) and p.z0 == F(-1, 2)


def test_simulate_oracle_examples():
    params = PmReductionParams(C=2, x=F(3))  # t = 1/2
    z0 = params.z0
    oracle = sp_simple_oracle(params.t)

    double = Multigraph(2, [Edge(0, 1, 2)])
    assert simulate_oracle_via_stretch(double, params, oracle) == 1 + 2 * z0

    empty = Multigraph(3, [])
    assert simulate_oracle_via_stretch(empty, params, oracle) == 1

    single = named_graph("k2")
    assert simulate_oracle_via_stretch(single, params, oracle) == 1 + z0


def test_simulate_oracle_matches_bruteforce_on_stretched_graph():
    params = PmReductionParams(C=2, x=F(2))
    h = Multigraph(3, [Edge(0, 1, 2), Edge(1, 2)])
    got = simulate_oracle_via_stretch(h, params, sp_simple_oracle(params.t))
    # every parallel copy carries weight z0, so a bundle of 2 acts like 2*z0
    want = forest_value_bruteforce(h, {0: params.z0, 1: params.z0})
    assert got == want == 1 + 3 * params.z0 + 2 * params.z0**2


def test_every_query_graph_is_simple():
    # every query graph is simple and within the paper's linear size bounds
    # n' <= (n + 1) + (k - 1) C (m + n) and m' <= k C (m + n), met with
    # equality at the grid corner where every class has weight C
    oracle = sp_simple_oracle(F(1))  # t = 1 at x = 2
    for name, C, k, count, queries in (("c4", 2, 3, 2, 81), ("c4", 2, 5, 2, 81), ("k33", 9, 3, 6, 100)):
        g = named_graph(name)
        seen = []

        def spy(h):
            seen.append(h)
            return oracle(h)

        result = count_pm(g, PmReductionParams(C=C, x=F(2), k=k), simple_oracle=spy)
        assert result.count == count
        assert len(seen) == queries
        assert all(h.simple and Multigraph(h.n, h.edges, simple=True) == h for h in seen)
        assert max(h.n for h in seen) == (g.n + 1) + (k - 1) * C * (g.m + g.n)
        assert max(h.m for h in seen) == k * C * (g.m + g.n)
    assert (seen[-1].n, seen[-1].m) == (277, 405)  # K3,3 at C = 9, the all-C corner


def test_simulate_oracle_refuses_a_multigraph_query():
    # parameters that skip the stretch's simplicity: the bundle of two copies
    # must not reach the simple-graph oracle
    unstretched = SimpleNamespace(k=1, stretch_prefactor=F(1))
    calls = []
    with pytest.raises(ValueError, match="parallel edges"):
        simulate_oracle_via_stretch(Multigraph(2, [Edge(0, 1, 2)]), unstretched, calls.append)
    assert calls == []


def test_count_pm_leaves_no_cyclic_garbage():
    # every object of a call is freed by reference counting on return, so
    # the grid, its values and the transcript never wait for the collector
    g = named_graph("c4")
    params = PmReductionParams(C=2, x=F(2))
    gc.collect()
    gc.disable()
    try:
        assert count_pm(g, params).count == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_block_interpolation_recovers_bivariate():
    for name in ("k2", "p3", "k3"):
        g = named_graph(name)
        gp = add_apex(g, collapse_z=True)
        truth = forest_poly_bruteforce(gp).poly
        for C in (2, gp.m):
            params = PmReductionParams(C=C, x=F(2))
            transcript = OracleTranscript()
            got = block_interpolation(gp, params, stretch_backed_oracle(gp, params), transcript)
            assert got == truth
            n_classes = -(-g.m // C) + -(-g.n // C)
            assert len(transcript) == (C + 1) ** n_classes


def test_block_interpolation_no_z_edges():
    g = named_graph("k3")  # all edges labeled w, no apex
    params = PmReductionParams(C=2, x=F(2))
    poly = block_interpolation(g, params, stretch_backed_oracle(g, params))
    assert poly.variables == ("w", "z")
    assert all(exps[1] == 0 for exps in poly.terms)
    truth = forest_poly_bruteforce(g).poly  # univariate in w
    assert {e[0]: c for e, c in poly.terms.items()} == {e[0]: c for e, c in truth.terms.items()}


def test_block_interpolation_rejects_other_labels():
    g = Multigraph(2, [Edge(0, 1, 1, "q")])
    params = PmReductionParams(C=1, x=F(2))
    with pytest.raises(ValueError):
        block_interpolation(g, params, stretch_backed_oracle(g, params))


def test_oracle_independence():
    # two different correct simple-graph evaluators give identical polynomials
    for name, C in (("k2", 2), ("p3", 1)):
        g = named_graph(name)
        gp = add_apex(g, collapse_z=True)
        params = PmReductionParams(C=C, x=F(2))
        via_sp = block_interpolation(gp, params, stretch_backed_oracle(gp, params))
        via_brute = block_interpolation(
            gp, params, stretch_backed_oracle(gp, params, bruteforce_simple_oracle(params.t))
        )
        assert via_sp == via_brute


def test_count_pm_examples():
    for name, expected in (("c4", 2), ("k4", 3), ("p4", 1)):
        g = named_graph(name)
        result = count_pm(g, PmReductionParams(C=2, x=F(2)))
        assert result.count == expected == pm_bruteforce(g)
        assert not result.odd_warning


def test_count_pm_odd_graph():
    result = count_pm(named_graph("k3"), PmReductionParams(C=2, x=F(2)))
    assert result.count == 0 and result.odd_warning
    assert result.query_count == 0


def test_count_pm_query_accounting():
    g = named_graph("c4")
    result = count_pm(g, PmReductionParams(C=2, x=F(2)))
    # 2 w-classes and 2 z-classes of size <= 2, grid base 3
    assert result.query_count == 3**4 == len(result.transcript)


def test_count_pm_detects_an_extra_transcript_entry(monkeypatch):
    interpolate = pm_reduction.block_interpolation

    def one_entry_too_many(gprime, params, oracle, transcript=None):
        poly = interpolate(gprime, params, oracle, transcript)
        transcript.record("forest-sum query", {}, F(0), "not a grid point")
        return poly

    monkeypatch.setattr(pm_reduction, "block_interpolation", one_entry_too_many)
    with pytest.raises(RuntimeError, match="internal accounting error: 10 queries, expected 9"):
        count_pm(named_graph("k2"), PmReductionParams(C=2, x=F(2)))


def test_count_pm_across_points_and_class_sizes():
    graphs = [
        named_graph("k2"),
        named_graph("p4"),
        named_graph("c4"),
        Multigraph(6, [Edge(i, (i + 1) % 6) for i in range(6)]),  # C6
    ]
    for g in graphs:
        truth = pm_bruteforce(g)
        for C in (2, max(g.m, 1)):
            for x in (F(2), F(3), F(-1)):
                result = count_pm(g, PmReductionParams(C=C, x=x))
                assert result.count == truth, (g, C, x)


def test_count_pm_disconnected_even_graph():
    g = Multigraph(4, [Edge(0, 1), Edge(2, 3)])
    assert count_pm(g, PmReductionParams(C=2, x=F(2))).count == 1 == pm_bruteforce(g)
    lonely = Multigraph(4, [Edge(0, 1)])  # isolated vertices: no matching
    assert count_pm(lonely, PmReductionParams(C=2, x=F(2))).count == 0 == pm_bruteforce(lonely)


def pm_grid_variables(g, C):
    """Interpolation variables of count_pm: classes of at most C w-edges,
    then of at most C apex (z) edges."""
    return -(-g.m // C) + -(-g.n // C)


@st.composite
def pm_cases(draw):
    """Simple graphs on at most 6 vertices and 8 edges, disconnected and
    edgeless ones included, with a class size C <= 4 whose grid has at most
    4 variables and 729 points."""
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    g = Multigraph(n, [Edge(u, v) for u, v in chosen])
    sizes = [
        C for C in range(1, 5)
        if pm_grid_variables(g, C) <= 4 and (C + 1) ** pm_grid_variables(g, C) <= 729
    ]
    return g, draw(st.sampled_from(sizes)), draw(st.sampled_from([F(2), F(3), F(-1)]))


@settings(max_examples=60, deadline=None)
@given(pm_cases())
@example((Multigraph(0, []), 2, F(2)))  # no grid variables
@example((Multigraph(2, []), 2, F(2)))  # one
@example((Multigraph(6, [Edge(0, 1), Edge(2, 3), Edge(4, 5)]), 3, F(3)))  # three components
@example((Multigraph(4, [Edge(0, 2), Edge(1, 3), Edge(0, 1)]), 2, F(-1)))  # four variables
def test_count_pm_matches_bruteforce_on_random_graphs(case):
    g, C, x = case
    result = count_pm(g, PmReductionParams(C=C, x=x))
    assert result.count == pm_bruteforce(g)
    if g.n % 2 == 0:
        assert result.query_count == (C + 1) ** pm_grid_variables(g, C)


def test_count_pm_query_budget(monkeypatch):
    g = named_graph("petersen")
    monkeypatch.setattr(pm_reduction, "QUERY_GUARD", 100)
    with pytest.raises(BudgetError):
        count_pm(g, PmReductionParams(C=1, x=F(2)))


def test_transcript_replay():
    g = named_graph("c4")
    params = PmReductionParams(C=2, x=F(2))
    result = count_pm(g, params)
    gp = add_apex(g, collapse_z=True)
    oracle = stretch_backed_oracle(gp, params)

    def rerun(query):
        mults = {int(k): v for k, v in query["multiplicities"].items()}
        full = {i: mults.get(i, 0) for i in range(gp.m)}
        return oracle(full)

    assert result.transcript.replay(rerun) == []


def test_transcript_jsonl(tmp_path):
    g = named_graph("k2")
    result = count_pm(g, PmReductionParams(C=1, x=F(2)))
    path = tmp_path / "queries.jsonl"
    result.transcript.write_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == result.query_count
    import json

    first = json.loads(lines[0])
    assert {"index", "purpose", "query", "answer", "derived"} <= set(first)


def test_oracle_failure_attached_to_transcript():
    gp = add_apex(named_graph("k2"), collapse_z=True)
    params = PmReductionParams(C=1, x=F(2))
    transcript = OracleTranscript()
    calls = []

    def flaky(wprime):
        calls.append(dict(wprime))
        if len(calls) == 3:
            raise RuntimeError("synthetic oracle failure")
        return F(1)

    with pytest.raises(RuntimeError):
        block_interpolation(gp, params, flaky, transcript)
    assert len(transcript) == 3
    assert transcript.entries[-1].answer.startswith("error:")


def test_multigraph_from_multiplicities_drops_zeros():
    g = named_graph("k3")
    h = multigraph_from_multiplicities(g, {0: 2, 1: 0, 2: 1})
    assert h.m == 2 and h.total_mult == 3
