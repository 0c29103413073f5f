import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from polycount import forest
from polycount import (
    BudgetError,
    Edge,
    Multigraph,
    SparsePolynomial,
    PmReductionParams,
    add_apex,
    apex_rhs,
    count_pm,
    forest_poly_bruteforce,
    forest_poly_sp,
    forest_value_bruteforce,
    named_graph,
    pm_bruteforce,
    pm_coefficient_extract,
    stretch,
    stretched_edge_weight,
    tutte_y1,
)
from polycount.verify import (
    MULTIGRAPH_ZOO,
    RATIONAL_POOL,
    _apex_weights,
    random_multigraph,
    random_simple_graph,
)

F = Fraction


def test_forest_poly_k3():
    result = forest_poly_bruteforce(named_graph("k3"), ["x"] * 3)
    assert result.poly == SparsePolynomial(("x",), {(0,): F(1), (1,): F(3), (2,): F(3)})
    assert result.forest_count == 7
    assert result.max_forest_size == 2


def test_forest_poly_single_edge():
    g = named_graph("k2")
    result = forest_poly_bruteforce(g)
    assert result.poly == SparsePolynomial(("w",), {(0,): F(1), (1,): F(1)})


def test_forest_poly_k4_count():
    assert forest_poly_bruteforce(named_graph("k4")).forest_count == 38


def test_forest_poly_constant_term_and_degree_bound():
    rng = random.Random(2)
    for _ in range(20):
        g = random_simple_graph(rng)
        res = forest_poly_bruteforce(g, ["x"] * g.m)
        assert res.poly.coefficient((0,) * len(res.poly.variables)) == 1
        assert res.max_forest_size <= g.n - g.component_count()


def test_forest_poly_guard():
    g = Multigraph(2, [Edge(0, 1, 23)])
    with pytest.raises(BudgetError, match="enumeration guard of 22"):
        forest_poly_bruteforce(g)
    with pytest.raises(BudgetError, match="enumeration guard of 22"):
        forest_value_bruteforce(g, [F(1)])
    # copies count with multiplicity: 22 parallel copies, at the guard, have
    # the empty forest and 22 single edges
    assert forest.ENUMERATION_GUARD == 22
    at_bound = Multigraph(2, [Edge(0, 1, 22)])
    assert forest_poly_bruteforce(at_bound).forest_count == 23
    assert forest_value_bruteforce(at_bound, [F(1)]) == 23


def test_forest_weights_totality():
    g = named_graph("k3")
    for weights in ({0: F(1)}, [F(1)] * 2, [F(1)] * 4, {i: F(1) for i in range(4)}):
        with pytest.raises(ValueError, match="edge records"):
            forest_poly_bruteforce(g, weights)
        with pytest.raises(ValueError, match="edge records"):
            forest_value_bruteforce(g, weights)
        with pytest.raises(ValueError, match="edge records"):
            forest_poly_sp(g, weights)
    assert forest_value_bruteforce(g, {i: F(2) for i in range(3)}) == 1 + 3 * 2 + 3 * 4
    assert forest_value_bruteforce(g, [F(2)] * 3) == 1 + 3 * 2 + 3 * 4
    with pytest.raises(ValueError, match="rational"):
        forest_value_bruteforce(g, [e.label for e in g.edges])
    with pytest.raises(ValueError):
        forest_poly_sp(g, [e.label for e in g.edges])


def test_forest_poly_mixed_weights_fold():
    rng = random.Random(9)
    mixed = 0
    for _ in range(60):
        g = random_multigraph(rng, 10)
        weights = [rng.choice(["a", "b", rng.choice(RATIONAL_POOL)]) for _ in range(g.m)]
        mixed += len({isinstance(w, str) for w in weights}) == 2
        poly = forest_poly_bruteforce(g, weights).poly
        for _ in range(3):
            binding = {"a": rng.choice(RATIONAL_POOL), "b": rng.choice(RATIONAL_POOL)}
            bound = [binding[w] if isinstance(w, str) else w for w in weights]
            assert poly.evaluate(binding) == forest_value_bruteforce(g, bound) == forest_poly_sp(g, bound)
    assert mixed >= 20


def test_forest_sp_two_path():
    g = named_graph("p3")
    for w in (F(1), F(2), F(-1, 2), F(7, 3)):
        assert forest_poly_sp(g, {0: w, 1: w}) == 1 + 2 * w + w * w


def test_forest_sp_gadget_path_all_ones():
    # a path of 4 edges has no cycle: every subset is a forest
    g = Multigraph(5, [Edge(i, i + 1) for i in range(4)])
    assert forest_poly_sp(g, {i: F(1) for i in range(4)}) == 16


def test_forest_sp_tree_powers():
    star = Multigraph(4, [Edge(0, 1), Edge(0, 2), Edge(0, 3)])
    assert forest_poly_sp(star, {i: F(1) for i in range(3)}) == 8


def test_forest_sp_matches_enumeration_on_zoo():
    weights_pool = [F(1), F(-1, 2), F(2, 3), F(-2), F(1, 7)]
    rng = random.Random(4)
    for g in MULTIGRAPH_ZOO:
        for _ in range(3):
            weights = {i: rng.choice(weights_pool) for i in range(g.m)}
            assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)


def test_forest_sp_reduces_stretched_graphs():
    # far beyond the enumeration guard, but series-parallel collapsible
    g = stretch(named_graph("petersen"), 5)  # 75 edges
    value = forest_poly_sp(g, {i: F(1) for i in range(g.m)})
    m = named_graph("petersen").m
    inner = forest_value_bruteforce(
        named_graph("petersen"), {i: stretched_edge_weight(F(1), 5) for i in range(m)}
    )
    assert value == (F(2) ** 5 - 1) ** m * inner


SP_WEIGHTS = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-2), F(3)]


@st.composite
def weighted_multigraphs(draw):
    """Multigraphs on at most 7 vertices with total multiplicity at most 14,
    one weight per record drawn from a pool with 0, -1 and -1/2."""
    n = draw(st.integers(0, 7))
    edges = []
    if n >= 2:
        budget = 14
        vertex = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=10)):
            mult = draw(st.integers(1, 3))
            if u != v and mult <= budget:
                edges.append(Edge(u, v, mult))
                budget -= mult
    g = Multigraph(n, edges)
    return g, {i: draw(st.sampled_from(SP_WEIGHTS)) for i in range(g.m)}


@settings(max_examples=300, deadline=None)
@given(weighted_multigraphs())
def test_forest_sp_matches_enumeration_on_random_multigraphs(case):
    g, weights = case
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)


@settings(max_examples=300, deadline=None)
@given(weighted_multigraphs())
def test_forest_sp_dp_matches_enumeration_on_random_multigraphs(case):
    # these cores are nearly all sparse enough to split; with splitting off,
    # every one of them goes to the vertex-subset DP instead
    g, weights = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "SPARSE_CORE_DEGREE", 0)
        assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)


K4_ON_0456 = [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]


def _complete(n):
    return [Edge(u, v) for u in range(n) for v in range(u + 1, n)]


def _prism(n):
    """C_n x K2: two n-cycles 0..n-1 and n..2n-1 joined by the rungs i -- n+i."""
    cycles = [Edge(i, (i + 1) % n) for i in range(n)] + [Edge(n + i, n + (i + 1) % n) for i in range(n)]
    return cycles + [Edge(i, n + i) for i in range(n)]


def _hub_pair(extra):
    """Hubs 0 and 1 joined through 2 and through 3, plus the given edges."""
    return [Edge(0, 2), Edge(2, 1), Edge(0, 3), Edge(3, 1)] + extra


@pytest.mark.parametrize(
    "g, weights",
    [
        # parallel copies whose weights cancel, inside a triangle
        (Multigraph(3, [Edge(0, 1), Edge(0, 1), Edge(1, 2), Edge(0, 2)]), [F(2), F(-2), F(1), F(1)]),
        (Multigraph(3, [Edge(0, 1, 2), Edge(1, 0), Edge(1, 2), Edge(0, 2)]), [F(1), F(-2), F(1, 2), F(3)]),
        # a 4-cycle hanging off vertex 0 at w = -1/2: its factor is zero
        (
            Multigraph(7, [Edge(i, (i + 1) % 4) for i in range(4)] + [Edge(u, v) for u, v in K4_ON_0456]),
            [F(-1, 2)] * 4 + [F(2)] * 6,
        ),
        # a whole 5-cycle component beside a triangle
        (
            Multigraph(8, [Edge(i, (i + 1) % 5) for i in range(5)] + [Edge(5, 6), Edge(6, 7), Edge(5, 7)]),
            [F(2, 3)] * 8,
        ),
        # even stretches at w = -1/2: every chain has a vanishing factor and merges its ends
        (stretch(named_graph("k4"), 2), [F(-1, 2)] * 12),
        (stretch(named_graph("c4"), 2), [F(-1, 2)] * 8),
        (stretch(Multigraph(3, [Edge(0, 1, 2), Edge(1, 2), Edge(0, 2)]), 2), [F(-1, 2)] * 8),
        # the chain 0-4-1 becomes an edge of weight 1/3 that cancels the bundle 0-1
        (Multigraph(5, _hub_pair([Edge(0, 1), Edge(0, 4), Edge(4, 1)])), [F(1)] * 4 + [F(-1, 3), F(1), F(1)]),
    ],
)
def test_forest_sp_fixed_cases(g, weights):
    weights = dict(enumerate(weights))
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)


def test_forest_sp_doubly_stretched_k4():
    # 54 edges, far past the enumeration guard; every chain of three collapses
    # twice over.  Read backwards, the stretch identity F(stretch(G, 3); w) =
    # prod over edges of ((w+1)^3 - w^3) * F(G; w^3 / ((w+1)^3 - w^3)) gives
    # the value from enumeration of K4 (after two steps) or of stretch(K4, 3)
    k4 = named_graph("k4")
    once = stretch(k4, 3)
    twice = stretch(once, 3)
    assert twice.m == 54

    def factor(ws):
        return prod((w + 1) ** 3 - w**3 for w in ws)

    # weights constant on each edge of K4: apply the identity twice
    per_k4 = [F(2, 3), F(-3, 5), F(-1, 2), F(7, 4), F(-2), F(1, 7)]
    inner = [stretched_edge_weight(w, 3) for w in per_k4]
    want = factor([w for w in per_k4 for _ in range(3)]) * factor(inner)
    want *= forest_value_bruteforce(k4, [stretched_edge_weight(w, 3) for w in inner])
    assert forest_poly_sp(twice, [w for w in per_k4 for _ in range(9)]) == want
    # weights that differ along each chain of stretch(K4, 3): apply it once
    per_once = [(F(-3, 2), F(2, 5), F(-1, 3))[i % 3] for i in range(once.m)]
    want = factor(per_once) * forest_value_bruteforce(once, [stretched_edge_weight(w, 3) for w in per_once])
    assert forest_poly_sp(twice, [w for w in per_once for _ in range(3)]) == want


def _record_calls(monkeypatch, name, summary):
    """Wrap forest.<name> so that each call records summary(*args) before it
    runs; return the records."""
    records = []
    run = getattr(forest, name)

    def record(*args):
        records.append(summary(*args))
        return run(*args)

    monkeypatch.setattr(forest, name, record)
    return records


def _record_dp(monkeypatch):
    """Record the edge list of each core that forest_poly_sp hands to the
    vertex-subset DP; return the list."""
    return _record_calls(monkeypatch, "vertex_core_value", lambda edges: edges)


def _record_cores(monkeypatch):
    """_record_dp with no component splitting on an edge first."""
    monkeypatch.setattr(forest, "SPARSE_CORE_DEGREE", 0)
    return _record_dp(monkeypatch)


def _record_splits(monkeypatch):
    """Record (vertices, edges) of each core component that forest_poly_sp
    splits on an edge; return the list."""
    return _record_calls(
        monkeypatch, "_delete_contract", lambda core, comp: (len(comp), sum(len(core[v]) for v in comp) // 2)
    )


def _sp_core(monkeypatch, g, t):
    """Run forest_poly_sp at weight t and return the core's vertex pairs."""
    cores = _record_cores(monkeypatch)
    forest_poly_sp(g, {i: t for i in range(g.m)})
    (core,) = cores
    return [(u, v) for u, v, _ in core]


def test_forest_sp_core_shape(monkeypatch):
    petersen = named_graph("petersen")
    pairs = sorted((min(e.u, e.v), max(e.u, e.v)) for e in petersen.edges)
    # every 3-chain collapses back to its Petersen edge
    assert sorted(_sp_core(monkeypatch, stretch(petersen, 3), F(1))) == pairs
    # no rule applies to Petersen: the core is the input in input order
    sorted_petersen = Multigraph(10, [Edge(u, v) for u, v in pairs])
    assert _sp_core(monkeypatch, sorted_petersen, F(1, 2)) == pairs


def test_forest_sp_vanishing_chain_merges_its_ends(monkeypatch):
    cores = _record_cores(monkeypatch)
    # K5 with its edge 0-1 replaced by the chain 0-5-1, weights 1/3 and -4/3:
    # the chain's factor 1 + 1/3 - 4/3 vanishes, so 1 merges into 0
    g = Multigraph(6, [e for e in _complete(5) if (e.u, e.v) != (0, 1)] + [Edge(0, 5), Edge(5, 1)])
    weights = [F(2, 3)] * 9 + [F(1, 3), F(-4, 3)]
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
    (core,) = cores
    assert sorted({v for u, w, _ in core for v in (u, w)}) == [0, 2, 3, 4]


def test_forest_sp_bundle_cancels_after_two_chains_collapse(monkeypatch):
    cores = _record_cores(monkeypatch)
    # K5 on 0, 1, 4, 5, 6 without its edge 0-1, plus the chains 0-2-1 at
    # (1, 1) and 0-3-1 at (1/2, -3/5): they collapse to the edges 1/3 and
    # -1/3 between 0 and 1, whose bundle then sums to zero and drops out
    k5_minus = [Edge(u, v) for u in (0, 1) for v in (4, 5, 6)] + [Edge(4, 5), Edge(4, 6), Edge(5, 6)]
    g = Multigraph(7, _hub_pair(k5_minus))
    weights = [F(1), F(1), F(1, 2), F(-3, 5)] + [F(2, 3)] * 9
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
    (core,) = cores
    assert sorted((u, v) for u, v, _ in core) == sorted((e.u, e.v) for e in k5_minus)


def test_forest_sp_chain_with_negative_denominator(monkeypatch):
    cores = _record_cores(monkeypatch)
    # K5 with its edge 0-1 replaced by the chain 0-5-1 at (-2, -2): the
    # chain's A = 4 exceeds S = (-1)(-1) = 1, so its edge is the pair (4, -3),
    # which reaches the core as the Fraction -4/3
    g = Multigraph(6, [e for e in _complete(5) if (e.u, e.v) != (0, 1)] + [Edge(0, 5), Edge(5, 1)])
    weights = [F(1, 2)] * 9 + [F(-2), F(-2)]
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
    (core,) = cores
    chain_edge = [w for u, v, w in core if (u, v) == (0, 1)]
    assert chain_edge == [F(-4, 3)] and chain_edge[0].denominator == 3


def test_forest_sp_zero_prefactor_skips_core(monkeypatch):
    cores = _record_cores(monkeypatch)
    # a 4-cycle hanging off vertex 0 at w = -1/2: its factor is zero
    g = Multigraph(7, [Edge(i, (i + 1) % 4) for i in range(4)] + [Edge(u, v) for u, v in K4_ON_0456])
    assert forest_poly_sp(g, dict(enumerate([F(-1, 2)] * 4 + [F(2)] * 6))) == 0
    assert cores == []


def test_forest_sp_zero_prefactor_over_guard(monkeypatch):
    cores = _record_cores(monkeypatch)
    # K17 (a core component over the vertex guard) plus a pendant edge at w = -1
    k17 = _complete(17)
    assert 17 > forest.CORE_VERTEX_GUARD
    g = Multigraph(18, k17 + [Edge(0, 17)])
    assert forest_poly_sp(g, {i: F(-1) if i == len(k17) else F(1) for i in range(g.m)}) == 0
    assert cores == []


def test_forest_sp_vertex_guard():
    # the same K17 without the vanishing pendant factor reaches the core
    k17 = Multigraph(17, _complete(17))
    with pytest.raises(BudgetError, match="vertex guard of 16"):
        forest_poly_sp(k17, [F(1)] * k17.m)
    with pytest.raises(BudgetError, match="vertex guard"):
        tutte_y1(k17, F(2))
    # at the bound: the prism C8 x K2 is 3-regular, so its 16 vertices all
    # stay in the core; its forest count, by deletion-contraction of two
    # rungs over enumeration of the four 22-edge minors, is 9,446,592
    assert forest.CORE_VERTEX_GUARD == 16
    prism = Multigraph(16, _prism(8))
    assert forest_poly_sp(prism, [F(1)] * prism.m) == 9_446_592
    # a 17th vertex of degree 3 joins the core, which is then refused
    g = Multigraph(17, _prism(8) + [Edge(0, 16), Edge(4, 16), Edge(8, 16)])
    with pytest.raises(BudgetError, match="core component of 17 vertices"):
        forest_poly_sp(g, [F(1)] * g.m)


@pytest.mark.parametrize("n, forests", [(8, 561_948), (10, 205_608_536), (12, 123_373_203_208)])
def test_tutte_complete_graph_forests(n, forests):
    # OEIS A001858; K8 has 28 edges, already past the enumeration guard
    assert tutte_y1(Multigraph(n, _complete(n)), F(2)) == forests


def test_forest_sp_core_components(monkeypatch):
    cores = _record_cores(monkeypatch)
    two_k4 = Multigraph(8, _complete(4) + [Edge(e.u + 4, e.v + 4) for e in _complete(4)])
    assert forest_poly_sp(two_k4, [F(1)] * 12) == 38**2
    (core,) = cores
    assert len(core) == 12


def test_forest_sp_core_skips_isolated_vertices(monkeypatch):
    cores = _record_cores(monkeypatch)
    # K4 on 0, 4, 5, 6 plus a pendant path 6-7-8: vertices 1, 2, 3 are
    # isolated and 7, 8 become isolated once the path is reduced
    g = Multigraph(9, [Edge(u, v) for u, v in K4_ON_0456] + [Edge(6, 7), Edge(7, 8)])
    weights = [F(2, 3)] * 6 + [F(1, 5), F(-3)]
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
    (core,) = cores
    assert sorted({v for u, w, _ in core for v in (u, w)}) == [0, 4, 5, 6]
    assert forest.vertex_core_value([(u, v, F(1)) for u, v in K4_ON_0456]) == 38


def _random_cubic(rng, n, extra=0):
    """A random simple 3-regular graph on n vertices (the pairing model, drawn
    again until simple) plus extra further random edges."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            break
    while len(pairs) < 3 * n // 2 + extra:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return Multigraph(n, [Edge(u, v) for u, v in sorted(pairs)])


MIXED_WEIGHTS = [F(1), F(-1, 2), F(2, 3), F(-2), F(3), F(-1, 3)]


def test_forest_sp_splits_sparse_cores(monkeypatch):
    # Petersen and cubic graphs are 3-regular, and contracting an edge of a
    # graph with 2m <= 3n keeps 2m <= 4n, so no branch reaches the DP
    splits = _record_splits(monkeypatch)
    cores = _record_dp(monkeypatch)
    rng = random.Random(5)
    graphs = [named_graph("petersen")]
    graphs += [_random_cubic(rng, n, extra) for n, extra in ((10, 0), (10, 4), (12, 0), (12, 4), (14, 0))]
    for g in graphs:
        assert g.m <= forest.ENUMERATION_GUARD
        del splits[:]
        weights = [rng.choice(MIXED_WEIGHTS) for _ in range(g.m)]
        assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
        assert splits[0] == (g.n, g.m)
        assert cores == []
    del splits[:]
    assert tutte_y1(named_graph("petersen"), F(2)) == forest_value_bruteforce(named_graph("petersen"), [F(1)] * 15)
    assert splits[0] == (10, 15)


def test_forest_sp_contraction_drops_a_cancelling_bundle(monkeypatch):
    # K4 is sparse (2m = 12 <= 16) and splits on its first edge 0-1; merging 1
    # into 0 adds the bundles 0-2 at 2/3 and 1-2 at -2/3 to zero
    reduced = _record_calls(monkeypatch, "_reduce", lambda adj, vertices: {v: dict(adj[v]) for v in vertices})
    g = Multigraph(4, _complete(4))  # records 0-1, 0-2, 0-3, 1-2, 1-3, 2-3
    weights = [F(5, 7), F(2, 3), F(-3), F(-2, 3), F(1, 2), F(-1, 2)]
    assert forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights)
    _, deletion, contraction = reduced  # the whole graph, then each half
    assert sorted(deletion[0]) == [2, 3] and sorted(deletion[1]) == [2, 3]
    assert contraction[0] == {3: (-5, 2)} and contraction[1] == {}


def test_forest_sp_dense_cores_never_split(monkeypatch):
    splits = _record_splits(monkeypatch)
    cores = _record_dp(monkeypatch)
    assert tutte_y1(Multigraph(12, _complete(12)), F(2)) == 123_373_203_208
    assert splits == [] and [len(core) for core in cores] == [66]
    # K3,3 plus the apex (7 vertices, 15 edges, 2m = 30 > 28) is the core of
    # the query that uses every edge; it reaches the DP whole
    del cores[:]
    assert count_pm(named_graph("k33"), PmReductionParams(C=9)).count == 6
    assert (7, 15) not in splits
    whole = [core for core in cores if len(core) == 15]
    assert whole and all(len({v for u, w, _ in core for v in (u, w)}) == 7 for core in whole)


def test_forest_sp_core_common_denominator_and_negative_weights(monkeypatch):
    # K5 leaves nothing to reduce; the weights need D = 2*3*5*7 = 210, and
    # vertex 1's weights sum to zero, so Bareiss must look past a zero pivot
    cores = _record_cores(monkeypatch)
    g = Multigraph(5, _complete(5))
    weights = {}
    for i, e in enumerate(g.edges):
        weights[i] = {(0, 1): F(1, 2), (1, 2): F(1, 3), (1, 3): F(-1, 2), (1, 4): F(-1, 3)}.get(
            (e.u, e.v), F(-2, 5) if (e.u + e.v) % 2 else F(3, 7)
        )
    value = forest_poly_sp(g, weights)
    assert value == forest_value_bruteforce(g, weights)
    assert value.denominator > 1
    assert [len(core) for core in cores] == [10]


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    return sum((-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j in range(n))


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(n)]
        assert forest._bareiss_det([r[:] for r in rows]) == _cofactor_det(rows)


def test_apex_rhs_guard():
    g = Multigraph(8, [Edge(u, v) for u in range(8) for v in range(u + 1, 8)])
    with pytest.raises(BudgetError, match="enumeration guard"):
        apex_rhs(g, F(1), [F(0)] * 8)


def test_stretched_edge_weight():
    assert stretched_edge_weight(F(1), 3) == F(1, 7)
    assert stretched_edge_weight(F(-1, 2), 3) == F(-1, 2)
    with pytest.raises(ValueError):
        stretched_edge_weight(F(-1, 2), 2)
    # unchecked, k = -1 would give 1 / (2^-1 - 1) = -2
    for k in (-1, 0):
        with pytest.raises(ValueError, match="stretch factor must be >= 1"):
            stretched_edge_weight(F(1), k)


def test_tutte_bridge_examples():
    assert tutte_y1(named_graph("k2"), F(3)) == 3
    assert tutte_y1(named_graph("k3"), F(2)) == 7
    two_edges = Multigraph(4, [Edge(0, 1), Edge(2, 3)])
    assert tutte_y1(two_edges, F(2)) == 4
    with pytest.raises(ValueError):
        tutte_y1(named_graph("k3"), F(1))


def test_tutte_spanning_tree_adjacent_values():
    # at x = 2 the value is the forest count
    for name, forests in (("k3", 7), ("k4", 38), ("c4", 15)):
        assert tutte_y1(named_graph(name), F(2)) == forests


def test_apex_rhs_examples():
    k2 = named_graph("k2")
    for w in (F(2), F(-1), F(1, 3)):
        assert apex_rhs(k2, w, [F(-1), F(-1)]) == -w
    g = named_graph("k3")
    assert apex_rhs(g, F(5), [F(0)] * 3) == forest_value_bruteforce(g, {i: F(5) for i in range(3)})
    empty2 = Multigraph(2, [])
    z0, z1 = F(2), F(-3)
    assert apex_rhs(empty2, F(1), [z0, z1]) == (1 + z0) * (1 + z1)


def test_apex_identity_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_simple_graph(rng)
        wval = rng.choice([v for v in RATIONAL_POOL if v != 0])
        zvals = [rng.choice(RATIONAL_POOL) for _ in range(g.n)]
        gp = add_apex(g)
        lhs = forest_value_bruteforce(gp, _apex_weights(g, wval, zvals))
        assert lhs == apex_rhs(g, wval, zvals)


def _apex_poly_at_z_minus_one(g):
    gp = add_apex(g, collapse_z=True)
    poly = forest_poly_bruteforce(gp).poly
    return poly.substitute("z", F(-1))


def test_pm_extraction_examples():
    k2 = named_graph("k2")
    poly = _apex_poly_at_z_minus_one(k2)
    assert poly == SparsePolynomial(("w",), {(1,): F(-1)})
    assert pm_coefficient_extract(poly, 2) == (1, False)

    c4 = named_graph("c4")
    assert pm_coefficient_extract(_apex_poly_at_z_minus_one(c4), 4) == (2, False)

    k3 = named_graph("k3")
    assert pm_coefficient_extract(_apex_poly_at_z_minus_one(k3), 3) == (0, True)


def test_pm_extraction_rejects_a_non_integer_count():
    half = SparsePolynomial(("w",), {(0,): F(1), (1,): F(1, 2)})
    with pytest.raises(ValueError, match="non-integer"):
        pm_coefficient_extract(half, 2)


def test_pm_extraction_random_graphs():
    rng = random.Random(23)
    for _ in range(20):
        g = random_simple_graph(rng, 2, 8, 12)
        count, odd = pm_coefficient_extract(_apex_poly_at_z_minus_one(g), g.n)
        if g.n % 2:
            assert (count, odd) == (0, True)
        else:
            assert not odd and count == pm_bruteforce(g)


def test_isolated_vertex_terms_vanish():
    # the star on 4 vertices has 2-edge forests but no perfect matching,
    # so the w^2 coefficient must cancel to zero
    star = Multigraph(4, [Edge(0, 1), Edge(0, 2), Edge(0, 3)])
    poly = _apex_poly_at_z_minus_one(star)
    assert poly.coefficient((2,)) == 0


def test_stretch_identity_invariant():
    rng = random.Random(31)
    for g in MULTIGRAPH_ZOO[:8]:
        m = g.total_mult
        for k in (2, 3, 4, 5):
            w = rng.choice([F(1), F(2), F(-2), F(1, 3)])
            denom = (w + 1) ** k - w**k
            if denom == 0:
                continue
            stretched = stretch(g, k)
            if stretched.total_mult <= 20:
                lhs = forest_value_bruteforce(stretched, {i: w for i in range(stretched.m)})
            else:
                lhs = forest_poly_sp(stretched, {i: w for i in range(stretched.m)})
            rhs = denom**m * forest_value_bruteforce(
                g, {i: stretched_edge_weight(w, k) for i in range(g.m)}
            )
            assert lhs == rhs
