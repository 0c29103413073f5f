"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time against the stated budget.  Everything is exact equality;
there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from fractions import Fraction
import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from polycount import (
    Edge,
    Multigraph,
    PmReductionParams,
    add_apex,
    apex_rhs,
    count_is,
    count_pm,
    forest_poly_bruteforce,
    forest_poly_sp,
    forest_value_bruteforce,
    gadget_counts,
    gadget_size,
    is_bruteforce,
    named_graph,
    partition_edges,
    pm_bruteforce,
    pm_coefficient_extract,
    stretch,
    stretched_edge_weight,
    substitute_gadget,
    vc_bipartite,
    vc_bruteforce,
)
from polycount.bis_reduction import conditioned_vc, feasible_type
from polycount.cli import main as cli_main
from polycount.pm_reduction import block_interpolation, stretch_backed_oracle
from polycount.polynomials import VandermondeFactor, exact_det, kron_det_check
from polycount.transcripts import OracleTranscript
from polycount.verify import (
    MULTIGRAPH_ZOO,
    RATIONAL_POOL,
    _apex_weights,
    random_multigraph,
    random_simple_graph,
    suite_csp,
)

F = Fraction


class Criterion:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        ok = elapsed < self.limit_s
        status = "PASS" if ok else "FAIL (over time budget)"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} in {elapsed:.1f}s (limit {self.limit_s:.0f}s)")
        assert ok, f"criterion {self.number} exceeded its time budget: {elapsed:.1f}s"


def _atlas_connected(n: int) -> list[Multigraph]:
    out = []
    for G in graph_atlas_g():
        if G.number_of_nodes() == n and nx.is_connected(G):
            out.append(Multigraph(n, [Edge(min(u, v), max(u, v)) for u, v in G.edges()], simple=True))
    return out


def test_criterion_1_gadget_counts():
    crit = Criterion(1, "gadget vertex-cover counts", 30)
    k2 = named_graph("k2")
    part = partition_edges(k2, 1)
    for ell in (1, 2, 3):
        h = substitute_gadget(k2, part, (ell,))
        neither = vc_bruteforce(h, outside=(0, 1))
        one_u = vc_bruteforce(h, inside=(0,), outside=(1,))
        one_v = vc_bruteforce(h, inside=(1,), outside=(0,))
        both = vc_bruteforce(h, inside=(0, 1))
        assert (neither, one_u, both) == gadget_counts(ell) == (2**ell, 3**ell, 5**ell)
        assert one_v == one_u
    crit.done()


def test_criterion_2_apex_identity():
    crit = Criterion(2, "apex product identity", 60)
    rng = random.Random(2025)
    checked = 0
    for _ in range(55):
        g = random_simple_graph(rng, 2, 6, 8)
        gp = add_apex(g)
        for _ in range(3):
            wval = rng.choice([v for v in RATIONAL_POOL if v != 0])
            zvals = [rng.choice(RATIONAL_POOL) for _ in range(g.n)]
            lhs = forest_value_bruteforce(gp, _apex_weights(g, wval, zvals))
            assert lhs == apex_rhs(g, wval, zvals)
            checked += 1
    assert checked >= 150
    crit.done()


def test_criterion_3_pm_extraction_all_connected_small():
    crit = Criterion(3, "matching count extraction with sign correction", 120)
    for n in (2, 4, 6):
        for g in _atlas_connected(n):
            gp = add_apex(g, collapse_z=True)
            poly = forest_poly_bruteforce(gp).poly.substitute("z", F(-1))
            count, odd = pm_coefficient_extract(poly, n)
            assert not odd
            assert count == pm_bruteforce(g)
    crit.done()


def test_criterion_4_stretch_identity():
    crit = Criterion(4, "stretch identity", 60)
    rng = random.Random(7)
    graphs = list(MULTIGRAPH_ZOO) + [random_multigraph(rng) for _ in range(10)]
    assert all(g.total_mult <= 6 for g in graphs)
    for g in graphs:
        m = g.total_mult
        for k in (2, 3, 4, 5):
            stretched = stretch(g, k)
            for w in (F(1), F(2), F(-2), F(1, 3)):
                denom = (w + 1) ** k - w**k
                assert denom != 0
                if stretched.total_mult <= 20:
                    lhs = forest_value_bruteforce(stretched, {i: w for i in range(stretched.m)})
                else:
                    lhs = forest_poly_sp(stretched, {i: w for i in range(stretched.m)})
                rhs = denom**m * forest_value_bruteforce(
                    g, {i: stretched_edge_weight(w, k) for i in range(g.m)}
                )
                assert lhs == rhs, (g, k, w)
    crit.done()


def test_criterion_5_block_interpolation():
    crit = Criterion(5, "block interpolation recovers the bivariate polynomial", 120)
    for name in ("k2", "p3", "k3"):
        g = named_graph(name)
        gp = add_apex(g, collapse_z=True)
        truth = forest_poly_bruteforce(gp).poly
        for C in (2, gp.m):
            params = PmReductionParams(C=C, x=F(2))
            transcript = OracleTranscript()
            got = block_interpolation(gp, params, stretch_backed_oracle(gp, params), transcript)
            assert got == truth, (name, C)
            n_classes = -(-g.m // C) + -(-g.n // C)
            assert len(transcript) == (C + 1) ** n_classes
    crit.done()


def test_criterion_6_pm_pipeline_end_to_end():
    crit = Criterion(6, "perfect-matching pipeline end to end", 300)
    expected = {"c4": 2, "k4": 3, "p4": 1, "k33": 6}
    for name, want in expected.items():
        g = named_graph(name)
        assert pm_bruteforce(g) == want
        C = 9 if name == "k33" else 2
        for x in (F(2), F(3), F(-1)):
            result = count_pm(g, PmReductionParams(C=C, x=x))
            assert result.count == want, (name, x)
    crit.done()


def test_criterion_7_conditioned_counts():
    crit = Criterion(7, "conditioned gadget counting vs. brute force", 180)
    pairs = [
        (named_graph("k2"), 1, [(1,), (2,), (3,), (7,)]),
        (named_graph("p3"), 1, [(1, 1), (1, 2), (2, 2)]),
        (named_graph("p3"), 2, [(1,), (2,)]),
        (named_graph("k3"), 1, [(1, 1, 1), (2, 1, 2), (2, 2, 2)]),
        (named_graph("k3"), 3, [(1,), (2,)]),
        (named_graph("c4"), 2, [(1, 1), (1, 2)]),
        (named_graph("c4"), 4, [(1,)]),
    ]
    checked = 0
    for g, d, ell_list in pairs:
        part = partition_edges(g, d)
        for ells in ell_list:
            h = substitute_gadget(g, part, ells)
            assert h.n <= 25, (d, ells, h.n)
            assert gadget_size(g, part, ells) == (h.n, h.m)
            assert conditioned_vc(g, part, ells) == vc_bruteforce(h) == vc_bipartite(h)
            checked += 1
    assert checked >= 15
    crit.done()


def test_criterion_8_bis_pipeline_end_to_end():
    crit = Criterion(8, "independent-set pipeline end to end", 300)
    expected = {"k2": 3, "p3": 5, "k3": 4, "c4": 7}
    for name, want in expected.items():
        g = named_graph(name)
        assert is_bruteforce(g) == want
        for d in sorted({1, g.m}):
            result = count_is(g, d)
            assert result.count == want, (name, d)
            census = result.census
            assert sum(census.values()) == 2**g.n
            assert all(isinstance(v, int) and v >= 0 for v in census.values())
            for t, v in census.items():
                if not feasible_type(t, result.partition):
                    assert v == 0
    crit.done()


def test_criterion_9_kronecker_determinants():
    crit = Criterion(9, "Kronecker determinant identity and factor regularity", 30)
    rng = random.Random(12)
    for _ in range(100):
        na, nb = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        a = [[F(rng.randint(-9, 9)) for _ in range(na)] for _ in range(na)]
        b = [[F(rng.randint(-9, 9)) for _ in range(nb)] for _ in range(nb)]
        assert kron_det_check(a, b)
    for d in (1, 2):
        mat = [[F(x) for x in row] for row in VandermondeFactor(d).matrix()]
        assert exact_det(mat) != 0
    crit.done()


def test_criterion_10_csp_layer():
    crit = Criterion(10, "constraint counting layer", 180)
    result = suite_csp(2025)
    assert result.passed, result.failures[:3]
    assert result.checks >= 200
    crit.done()


def test_criterion_11_verify_all_gate():
    crit = Criterion(11, "verify all exits clean", 1200)
    assert cli_main(["verify", "all", "--seed", "0"]) == 0
    crit.done()
