"""Every enumeration size bound, checked exactly at its value (the count
runs) and one above it (the count refuses before it starts).  The forest
bounds have their own such tests in test_forest.py."""

import pytest

from polycount import (
    BudgetError,
    CspInstance,
    Edge,
    Multigraph,
    PmReductionParams,
    conditioned_vc,
    count_bruteforce,
    count_is,
    count_pm,
    is_bruteforce,
    named_graph,
    partition_edges,
    pm_bruteforce,
    vc_bipartite,
    vc_bruteforce,
)
from polycount import bis_reduction, csp, kernels, oracles, pm_reduction


def _matching(n):
    return Multigraph(n, [Edge(2 * i, 2 * i + 1) for i in range(n // 2)])


def _complete_bipartite(a):
    return Multigraph(2 * a, [Edge(i, a + j) for i in range(a) for j in range(a)])


def _conditioned_edgeless(n):
    g = Multigraph(n, [])
    return conditioned_vc(g, partition_edges(g, 1), ())


@pytest.mark.parametrize(
    "module, guard, bound, count, expected, error",
    [
        pytest.param(oracles, "SUBSET_GUARD", 25, lambda n: is_bruteforce(Multigraph(n, [])),
                     2**25, BudgetError, id="is_bruteforce"),
        pytest.param(oracles, "SUBSET_GUARD", 25, lambda n: vc_bruteforce(Multigraph(n, [])),
                     2**25, BudgetError, id="vc_bruteforce"),
        # K_{n,n}: the bound is on the smaller side, and the side recursion
        # collapses after the first vertex, so the scan at the bound is fast
        pytest.param(oracles, "SUBSET_GUARD", 25, lambda n: vc_bipartite(_complete_bipartite(n)),
                     2**26 - 1, BudgetError, id="vc_bipartite"),
        pytest.param(oracles, "PM_VERTEX_GUARD", 16, lambda n: pm_bruteforce(_matching(n)),
                     1, BudgetError, id="pm_bruteforce"),
        pytest.param(csp, "CSP_VAR_GUARD", 24, lambda n: count_bruteforce(CspInstance(n, (), ())),
                     2**24, BudgetError, id="csp_count_bruteforce"),
        pytest.param(bis_reduction, "CONDITIONING_GUARD", 20, _conditioned_edgeless,
                     2**20, BudgetError, id="conditioned_vc"),
        pytest.param(kernels, "_MAX_BITS", 30, lambda n: kernels.count_independent_sets(n, [0] * n),
                     2**30, ValueError, id="kernel_scan"),
    ],
)
def test_size_guard_at_and_above_its_bound(module, guard, bound, count, expected, error):
    assert getattr(module, guard) == bound
    assert count(bound) == expected
    with pytest.raises(error, match=str(bound)):
        count(bound + 1)


@pytest.mark.parametrize(
    "module, guard, bound, queries, run, expected",
    [
        # C = 2 on the apexed K2: one w class and one z class, (2 + 1)^2 points
        pytest.param(pm_reduction, "QUERY_GUARD", 1 << 20, 9,
                     lambda: count_pm(named_graph("k2"), PmReductionParams(C=2)).count, 1, id="count_pm"),
        # d = 1 on K2: one block, (1 + 1)^3 fold counts
        pytest.param(bis_reduction, "GRID_GUARD", 1 << 17, 8,
                     lambda: count_is(named_graph("k2"), 1).count, 3, id="count_is"),
    ],
)
def test_grid_guard_at_and_above_its_bound(monkeypatch, module, guard, bound, queries, run, expected):
    assert getattr(module, guard) == bound
    monkeypatch.setattr(module, guard, queries)
    assert run() == expected
    monkeypatch.setattr(module, guard, queries - 1)
    with pytest.raises(BudgetError, match=f"grid needs {queries} oracle queries"):
        run()
