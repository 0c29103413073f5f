"""The benchmark's workloads: inputs made from a seed, the pipeline call each
operation makes, and the check each answer must pass.

Inputs are built as plain (n, edges) pairs so the reference checks in
reference.py can read them without polycount; `build` converts them to
polycount graphs.

The seed relabels every graph (which also reorders its edges) and picks the
evaluation point of pm-k33.  The random graphs of tutte-dense are drawn once
from a fixed generator seed: their forest counts, and with them the work of a
pass, differ by about 20% from one draw to the next, while relabelling moves
the work by about 2%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference

K3 = (3, [(0, 1), (1, 2), (0, 2)])
C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K33 = (6, [(i, 3 + j) for i in range(3) for j in range(3)])

PM_POINTS = (2, 3, -1)
PM_CLASS_SIZE = 9
# (n, m) of the random graphs in one tutte-dense pass, and the seed they are drawn from.
TUTTE_SIZES = ((11, 18), (12, 18))
TUTTE_GRAPH_SEED = "tutte-dense graphs"
BIS_SCAN = ((C4, 2), (K3, 3))
BIS_KRON = ((C4, 4), (K3, 4))

NAMES = ("pm-k33", "tutte-dense", "bis-scan", "bis-kron")


@dataclass
class Operation:
    """One pipeline call and the check of its answer."""

    label: str
    pipeline: str  # the public function called, as module.name
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # a message when the answer is wrong


def relabel(rng: random.Random, graph):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def random_min_degree_3(rng: random.Random, n: int, m: int):
    """A connected simple graph with n vertices, m edges and minimum degree 3.

    First joins vertices of degree below 3 (to each other where possible),
    then adds uniformly random further edges; draws again when the first
    phase overshoots m or the result is disconnected.
    """
    while True:
        adj = [set() for _ in range(n)]
        edges = []

        def join(u: int, v: int) -> None:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((min(u, v), max(u, v)))

        while len(edges) <= m:
            short = [v for v in range(n) if len(adj[v]) < 3]
            if not short:
                break
            v = rng.choice(short)
            free = [u for u in range(n) if u != v and u not in adj[v]]
            join(v, rng.choice([u for u in free if len(adj[u]) < 3] or free))
        if len(edges) > m:
            continue
        rest = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]
        for u, v in rng.sample(rest, m - len(edges)):
            join(u, v)
        if reference.is_connected(n, edges):
            return n, sorted(edges)


def inputs(name: str, seed: int) -> list:
    """The workload's instances as plain data; the same seed gives the same list."""
    rng = random.Random(f"{name}/{seed}")
    if name == "pm-k33":
        return [(relabel(rng, K33), PM_POINTS[seed % len(PM_POINTS)])]
    if name == "tutte-dense":
        draw = random.Random(TUTTE_GRAPH_SEED)
        graphs = [reference.petersen()] + [random_min_degree_3(draw, n, m) for n, m in TUTTE_SIZES]
        return [relabel(rng, g) for g in graphs]
    if name == "bis-scan":
        return [(relabel(rng, g), d) for g, d in BIS_SCAN]
    if name == "bis-kron":
        return [(relabel(rng, g), d) for g, d in BIS_KRON]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def to_polycount(pc, graph):
    n, edges = graph
    return pc.Multigraph(n, [pc.Edge(u, v) for u, v in edges], simple=True)


def build(pc, name: str, instances: list) -> Callable[[], list[Operation]]:
    """Convert the instances to polycount graphs (part of set-up) and return
    a thunk that computes the reference answers and yields the operations."""
    if name == "pm-k33":
        ((graph, x),) = instances
        g = to_polycount(pc, graph)
        params = pc.PmReductionParams(C=PM_CLASS_SIZE, x=Fraction(x))
        return lambda: [_pm_operation(pc, graph, g, params)]
    if name == "tutte-dense":
        gs = [to_polycount(pc, graph) for graph in instances]
        return lambda: [_tutte_operation(pc, graph, g) for graph, g in zip(instances, gs)]
    gs = [(to_polycount(pc, graph), d) for graph, d in instances]
    oracle = "auto" if name == "bis-scan" else "conditioned"
    return lambda: [
        _bis_operation(pc, graph, g, d, oracle) for (graph, _), (g, d) in zip(instances, gs)
    ]


def _pm_operation(pc, graph, g, params) -> Operation:
    n, edges = graph
    want = reference.count_perfect_matchings(n, edges)
    apexed = edges + [(v, n) for v in range(n)]
    forests = reference.count_forests(n + 1, apexed)

    def check(result) -> Optional[str]:
        if result.count != want:
            return f"count_pm gave {result.count}, brute force {want}"
        coeffs = list(result.bivariate.terms.values())
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            return "forest polynomial of the apexed graph has a coefficient that is not a natural number"
        if sum(coeffs) != forests:
            return f"forest polynomial coefficients sum to {sum(coeffs)}, brute force counts {forests} forests"
        return None

    return Operation(f"count_pm(k33, C={params.C}, x={params.x})", "pm_reduction.count_pm",
                     lambda: pc.count_pm(g, params), check)


def _tutte_operation(pc, graph, g) -> Operation:
    n, edges = graph
    rank = n - 1  # the generated graphs are connected
    xs = [Fraction(x) for x in range(2, rank + 3)]
    trees = reference.spanning_trees(n, edges)

    def run():
        return [pc.tutte_y1(g, x) for x in xs]

    def check(values) -> Optional[str]:
        coeffs = reference.lagrange_coefficients(xs, [Fraction(v) for v in values])
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            return "T(G; x, 1) has a coefficient that is not a natural number"
        if coeffs[-1] != 1:
            return f"T(G; x, 1) has leading coefficient {coeffs[-1]}, expected 1"
        if sum(coeffs) != trees:
            return f"T(G; 1, 1) = {sum(coeffs)}, Kirchhoff counts {trees} spanning trees"
        return None

    return Operation(f"tutte_y1(n={n}, m={len(edges)}) at x=2..{rank + 2}", "forest.tutte_y1", run, check)


def _bis_operation(pc, graph, g, d: int, oracle: str) -> Operation:
    n, edges = graph
    want = reference.count_independent_sets(n, edges)

    def check(result) -> Optional[str]:
        if result.count != want:
            return f"count_is gave {result.count}, brute force {want}"
        total = sum(result.census.values())
        if total != 2**n:
            return f"type census sums to {total}, expected 2^{n}"
        return None

    return Operation(f"count_is(n={n}, m={len(edges)}, d={d}, oracle={oracle})", "bis_reduction.count_is",
                     lambda: pc.count_is(g, d, oracle=oracle), check)
