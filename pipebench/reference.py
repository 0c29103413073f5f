"""Reference computations the benchmark checks polycount's answers against.

Nothing here imports polycount.  A graph is a vertex count and a list of
(u, v) pairs on vertices 0..n-1; every count is plain enumeration or a
textbook formula, chosen to be obviously correct rather than fast.
"""

from __future__ import annotations

from fractions import Fraction

Graph = tuple[int, list[tuple[int, int]]]


def _neighbour_masks(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def count_perfect_matchings(n: int, edges: list[tuple[int, int]]) -> int:
    """Match the lowest unmatched vertex with each free neighbour, recursively."""
    adj = _neighbour_masks(n, edges)
    full = (1 << n) - 1

    def rec(used: int) -> int:
        if used == full:
            return 1
        v = next(i for i in range(n) if not used >> i & 1)
        return sum(
            rec(used | 1 << v | 1 << u)
            for u in range(n)
            if adj[v] >> u & 1 and not used >> u & 1
        )

    return rec(0)


def count_independent_sets(n: int, edges: list[tuple[int, int]]) -> int:
    """Vertex subsets that contain both ends of no edge."""
    return sum(
        1
        for s in range(1 << n)
        if not any(s >> u & 1 and s >> v & 1 for u, v in edges)
    )


def count_forests(n: int, edges: list[tuple[int, int]]) -> int:
    """Edge subsets without a cycle, tested one subset at a time."""
    total = 0
    for s in range(1 << len(edges)):
        parent = list(range(n))
        total += all(_join(parent, u, v) for i, (u, v) in enumerate(edges) if s >> i & 1)
    return total


def _join(parent: list[int], u: int, v: int) -> bool:
    """Merge the trees of u and v; False when they already were one tree."""
    while parent[u] != u:
        u = parent[u]
    while parent[v] != v:
        v = parent[v]
    parent[u] = v
    return u != v


def _determinant(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def spanning_trees(n: int, edges: list[tuple[int, int]]) -> int:
    """Kirchhoff's theorem: any cofactor of the Laplacian, exactly."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    det = _determinant([row[1:] for row in lap[1:]])
    if det.denominator != 1:
        raise ArithmeticError(f"Laplacian cofactor is not an integer: {det}")
    return int(det)


def is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = _neighbour_masks(n, edges)
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= reach
    return n == 0 or seen == (1 << n) - 1


def lagrange_coefficients(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients, lowest degree first, of the polynomial through (xs, ys)."""
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, edges


def self_test() -> None:
    """Check every reference on values known in closed form."""
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    c4 = [(i, (i + 1) % 4) for i in range(4)]
    k3 = [(0, 1), (1, 2), (0, 2)]
    known = [
        ("perfect matchings of K3,3", count_perfect_matchings(6, k33), 6),
        ("independent sets of C4", count_independent_sets(4, c4), 7),
        ("forests of K3", count_forests(3, k3), 7),
        ("forests of C4", count_forests(4, c4), 15),
        ("spanning trees of Petersen", spanning_trees(*petersen()), 2000),
        ("spanning trees of K3,3", spanning_trees(6, k33), 81),
        (
            "interpolation of 1 + x^2",
            lagrange_coefficients([Fraction(x) for x in (0, 1, 2)], [Fraction(1), Fraction(2), Fraction(5)]),
            [1, 0, 1],
        ),
    ]
    for what, got, want in known:
        if got != want:
            raise AssertionError(f"reference self-test: {what} gave {got}, expected {want}")
