"""Budgeted exact counters.

The brute-force counters exist to be obviously correct: plain enumeration,
no clever exponential-time algorithms.  `vc_bipartite` is the one faster
counter, for bipartite graphs only, and the brute-force vertex-cover scan
is its independent check.  Each size bound is a module constant beside its
check, so misuse fails loudly instead of silently running for hours.
"""

from __future__ import annotations

from . import kernels
from .errors import BudgetError
from .forest import forest_poly_bruteforce
from .graphs import Multigraph

PM_VERTEX_GUARD = 16  # vertices of a matching count, which recurses over partners
SUBSET_GUARD = 25  # vertices (smaller-side vertices for vc_bipartite) whose 2^n subsets a scan visits


def pm_bruteforce(g: Multigraph) -> int:
    """Exact perfect-matching count by recursively matching the lowest
    unmatched vertex.  Zero whenever the vertex count is odd."""
    g = g.as_simple()
    if g.n > PM_VERTEX_GUARD:
        raise BudgetError(f"{g.n} vertices exceeds the matching budget of {PM_VERTEX_GUARD}")
    return kernels.count_perfect_matchings(g.n, g.adjacency_masks())


def is_bruteforce(g: Multigraph) -> int:
    """Exact independent-set count by subset enumeration."""
    if g.n > SUBSET_GUARD:
        raise BudgetError(f"{g.n} vertices exceeds the subset budget of {SUBSET_GUARD}")
    return kernels.count_independent_sets(g.n, g.adjacency_masks())


def vc_bruteforce(g: Multigraph, inside: tuple[int, ...] = (), outside: tuple[int, ...] = ()) -> int:
    """Exact count of the vertex covers that contain `inside` and avoid
    `outside`, by subset enumeration.

    Unconstrained, it always equals the independent-set count
    (complementation), but computed independently so the pair can
    cross-check each other.
    """
    strays = [v for v in (*inside, *outside) if not 0 <= v < g.n]
    if strays:
        raise ValueError(f"vertices {strays} are outside 0..{g.n - 1}")
    if g.n > SUBSET_GUARD:
        raise BudgetError(f"{g.n} vertices exceeds the subset budget of {SUBSET_GUARD}")
    required = 0
    for v in inside:
        required |= 1 << v
    forbidden = 0
    for v in outside:
        forbidden |= 1 << v
    if required & forbidden:
        raise ValueError("a vertex cannot be both required and forbidden")
    return kernels.count_vertex_covers(g.n, g.adjacency_masks(), required, forbidden)


def vc_bipartite(g: Multigraph) -> int:
    """Exact vertex-cover count of a bipartite graph by enumerating the
    subsets X of its smaller side S only.

    A cover that meets S in exactly S minus X must contain the neighbourhood
    N(X) in the other side T and may contain any part of the rest of T, so it
    contributes 2^(|T| - |N(X)|).  That is 2^|S| steps with |S| <= n/2.
    Raises ValueError on a graph with an odd cycle, and BudgetError when |S|
    exceeds SUBSET_GUARD, both before any enumeration.
    """
    sides = g.bipartition()
    if sides is None:
        raise ValueError("graph is not bipartite")
    small, other = sorted(sides, key=len)
    if len(small) > SUBSET_GUARD:
        raise BudgetError(f"smaller side of {len(small)} vertices exceeds the subset budget of {SUBSET_GUARD}")
    bit = {v: 1 << i for i, v in enumerate(sorted(other))}
    side_adj = [0] * g.n
    for e in g.edges:
        u, v = (e.u, e.v) if e.u in bit else (e.v, e.u)
        side_adj[v] |= bit[u]
    return _side_cover_sum([side_adj[v] for v in sorted(small)], len(other))


def _side_cover_sum(side_adj: list[int], t: int) -> int:
    """Sum of 2^(t - |N(X)|) over all subsets X of the side whose vertices
    have the neighbourhood masks side_adj, by recursion over that side with
    N(X) built one vertex at a time (memory linear in the side's size)."""

    def walk(i: int, covered: int) -> int:
        if i == len(side_adj):
            return 1 << (t - covered.bit_count())
        grown = covered | side_adj[i]
        if grown == covered:  # taking vertex i into X changes nothing
            return 2 * walk(i + 1, covered)
        return walk(i + 1, covered) + walk(i + 1, grown)

    return walk(0, 0)


def forests_bruteforce(g: Multigraph) -> int:
    """Count acyclic edge subsets; parallel copies count separately."""
    return forest_poly_bruteforce(g).forest_count
