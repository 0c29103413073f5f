"""Forest generating functions: brute-force polynomials, a series-parallel
evaluator for large-but-reducible graphs, the Tutte slice at y = 1, and the
apex machinery that encodes perfect matchings into coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Optional, Sequence, Union

from . import kernels
from .errors import BudgetError
from .graphs import Edge, Multigraph
from .polynomials import Rat, SparsePolynomial

ENUMERATION_GUARD = 22  # edges counted with multiplicity; ~4M subsets

Weight = Union[Rat, str]  # a rational, or a symbol name
# One weight per edge record: a list, or a dict keyed 0..m-1.
Weights = Union[Sequence[Weight], Mapping[int, Weight]]


# ---------------------------------------------------------------------------
# Brute-force polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestPolyResult:
    """A forest polynomial plus cheap summary statistics."""

    poly: SparsePolynomial
    forest_count: int  # value at all-ones weights
    max_forest_size: int


def _expanded_edges(g: Multigraph) -> list[tuple[int, int, int]]:
    """(u, v, record index) per edge copy; parallel copies listed separately."""
    out = []
    for i, e in enumerate(g.edges):
        out.extend((e.u, e.v, i) for _ in range(e.mult))
    return out


def _profile_by_class(
    g: Multigraph, weights: Weights, guard: int
) -> tuple[list[Weight], dict[tuple[int, ...], int]]:
    """Forest counts bucketed by how many edges of each weight class are used.

    weights gives each edge record a rational or a symbol name and must cover
    exactly the records 0..m-1; records with equal weights, and the copies of
    one record, share a class.  Returns the classes in first-appearance order
    and the usage profile.
    """
    if not isinstance(weights, Mapping):
        weights = dict(enumerate(weights))
    missing = [i for i in range(g.m) if i not in weights]
    if missing:
        raise ValueError(f"weights miss edge records {missing}")
    extra = [i for i in weights if not 0 <= i < g.m]
    if extra:
        raise ValueError(f"weights name unknown edge records {extra}")
    copies = _expanded_edges(g)
    if len(copies) > guard:
        raise BudgetError(
            f"{len(copies)} edges exceeds the enumeration guard of {guard}; "
            "use the series-parallel evaluator for large graphs"
        )
    class_order: list[Weight] = []
    class_index: dict[Weight, int] = {}
    labels = []
    for _, _, rec in copies:
        w = weights[rec]
        key = w if isinstance(w, str) else Fraction(w)
        if key not in class_index:
            class_index[key] = len(class_order)
            class_order.append(key)
        labels.append(class_index[key])
    profile = kernels.forest_label_profile(
        g.n, [u for u, _, _ in copies], [v for _, v, _ in copies], labels
    )
    return class_order, profile


def forest_poly_bruteforce(
    g: Multigraph, weights: Optional[Weights] = None, guard: int = ENUMERATION_GUARD
) -> ForestPolyResult:
    """Sum over all acyclic edge subsets of the product of edge weights.

    weights holds one rational or symbol name per edge record (a list, or a
    dict keyed 0..m-1) and defaults to the records' labels.  Symbols become
    polynomial variables (in first-appearance order); rational weights fold
    into the coefficients.  Parallel copies are enumerated individually.
    """
    if weights is None:
        weights = [e.label for e in g.edges]
    class_order, profile = _profile_by_class(g, weights, guard)
    sym_positions = [i for i, key in enumerate(class_order) if isinstance(key, str)]
    val_positions = [i for i, key in enumerate(class_order) if not isinstance(key, str)]
    terms: dict[tuple[int, ...], Rat] = {}
    for exps, cnt in profile.items():
        coeff = Fraction(cnt)
        for i in val_positions:
            if exps[i]:
                coeff *= class_order[i] ** exps[i]
        key = tuple(exps[i] for i in sym_positions)
        terms[key] = terms.get(key, 0) + coeff
    poly = SparsePolynomial([class_order[i] for i in sym_positions], terms)
    max_size = max(map(sum, profile), default=0)
    return ForestPolyResult(poly, sum(profile.values()), max_size)


def forest_value_bruteforce(g: Multigraph, weights: Weights) -> Rat:
    """Exact weighted forest sum by enumeration; used as a ground-truth oracle.

    The all-rational case of forest_poly_bruteforce: a symbol among the
    weights raises ValueError.
    """
    poly = forest_poly_bruteforce(g, weights).poly
    if poly.variables:
        raise ValueError(f"weights must be rational, got symbols {list(poly.variables)}")
    return poly.coefficient(())


# ---------------------------------------------------------------------------
# Series-parallel evaluator
# ---------------------------------------------------------------------------


def stretched_edge_weight(w: Rat, k: int) -> Rat:
    """The reparameterized weight w^k / ((w+1)^k - w^k) induced by a k-stretch.

    Total for every odd k; for even k the denominator vanishes at w = -1/2
    (and nowhere else), which is rejected.
    """
    if k < 1:
        raise ValueError("stretch factor must be >= 1")
    w = Fraction(w)
    denom = (w + 1) ** k - w**k
    if denom == 0:
        raise ValueError(f"(w+1)^{k} - w^{k} vanishes at w={w}; use an odd stretch factor")
    return w**k / denom


def _chain_factor(ws: Sequence[Rat]) -> Rat:
    """prod(1+w) - prod(w): the forest weight of all proper subsets of a chain."""
    return prod(1 + w for w in ws) - prod(ws)


def forest_poly_sp(g: Multigraph, weights: Weights) -> Rat:
    """Evaluate the weighted forest sum by graph reduction plus a small core.

    One worklist pass over adjacency maps (Haggard, Pearce and Royle,
    Computing Tutte polynomials, ACM TOMS 2010): parallel copies add into one
    bundle as they are inserted and a bundle summing to zero is dropped; a
    pendant edge contributes a factor (1 + w); the maximal chain through a
    degree-2 vertex, of weights w_1..w_k, collapses to a single edge of weight
    prod(w) / (prod(1+w) - prod(w)) with global prefactor prod(1+w) - prod(w)
    (the k-stretch identity read backwards; a cycle, or a chain closing on one
    vertex, just contributes the prefactor).  Whatever remains is evaluated by
    enumeration and must fit the enumeration guard, unless the prefactor is
    already zero, which is then the answer.

    A chain whose prefactor vanishes is left for the core rather than divided
    by zero; uniform odd-length chains, the only kind the reduction pipelines
    produce, never hit this.
    """
    adj: list[dict[int, Fraction]] = [{} for _ in range(g.n)]

    def join(u: int, v: int, w: Fraction) -> None:
        w += adj[u].get(v, 0)
        if w:
            adj[u][v] = adj[v][u] = w
        elif v in adj[u]:
            del adj[u][v], adj[v][u]

    for i, e in enumerate(g.edges):
        join(e.u, e.v, e.mult * Fraction(weights[i]))
    prefactor = Fraction(1)
    stack = [v for v in range(g.n) if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        # degrees never grow, so a vertex pushed whenever it loses an edge is
        # popped again whenever a rule may newly apply to it
        if len(adj[v]) == 1:
            ((u, w),) = adj[v].items()
            prefactor *= 1 + w
            del adj[v][u], adj[u][v]
            stack.append(u)
        elif len(adj[v]) == 2:
            path = _chain_through(adj, v)
            left, right = path[0], path[-1]
            ws = [adj[a][b] for a, b in zip(path, path[1:])]
            factor = _chain_factor(ws)
            if left != right and factor == 0:
                continue
            prefactor *= factor
            for a, b in zip(path, path[1:]):
                del adj[a][b], adj[b][a]
            if left != right:
                join(left, right, prod(ws) / factor)
            stack += (left, right)
    if prefactor == 0:
        return prefactor
    core_edges = [(u, v, w) for u in range(g.n) for v, w in sorted(adj[u].items()) if u < v]
    if not core_edges:
        return prefactor
    core = Multigraph(g.n, [Edge(u, v, 1, "w") for u, v, _ in core_edges])
    return prefactor * forest_value_bruteforce(core, [w for _, _, w in core_edges])


def _chain_through(adj: list[dict[int, Fraction]], v: int) -> list[int]:
    """Vertices of the maximal chain of degree-2 vertices through v, from one
    end to the other; both ends are v when the chain is a whole cycle."""
    halves = []
    for first in adj[v]:
        prev, cur, half = v, first, []
        while len(adj[cur]) == 2 and cur != v:
            half.append(cur)
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
        half.append(cur)
        if cur == v:
            return [v] + half
        halves.append(half)
    return halves[0][::-1] + [v] + halves[1]


# ---------------------------------------------------------------------------
# Tutte slice y = 1
# ---------------------------------------------------------------------------


def tutte_y1(g: Multigraph, x: Rat) -> Rat:
    """Evaluate T(G; x, 1) = (x-1)^(n - components) * F(G; 1/(x-1)).

    Only forests survive at y = 1, which is what makes the bridge to the
    forest sum work; x = 1 is rejected because the bridge divides by x - 1.
    """
    x = Fraction(x)
    if x == 1:
        raise ValueError("x = 1 is excluded: the forest-sum bridge divides by x - 1")
    g = g.as_simple()
    t = 1 / (x - 1)
    value = forest_poly_sp(g, [t] * g.m)
    return (x - 1) ** (g.n - g.component_count()) * value


# ---------------------------------------------------------------------------
# Apex machinery
# ---------------------------------------------------------------------------


def apex_rhs(g: Multigraph, wval: Rat, zvals: Sequence[Rat]) -> Rat:
    """Closed form for the forest sum of the apexed graph, computed on the
    original graph: sum over forests A of wval^|A| times, per tree component
    (singletons included), the factor 1 + sum of z over the tree's vertices.
    """
    g = g.as_simple()
    if len(zvals) != g.n:
        raise ValueError(f"need one z value per vertex ({g.n}), got {len(zvals)}")
    if g.m > ENUMERATION_GUARD:
        raise BudgetError(f"{g.m} edges exceeds the enumeration guard of {ENUMERATION_GUARD}")
    wval = Fraction(wval)
    zvals = [Fraction(z) for z in zvals]
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    total = Fraction(0)

    def leaf(size: int) -> Fraction:
        sums: dict[int, Fraction] = {}
        for v in range(g.n):
            r = find(v)
            sums[r] = sums.get(r, Fraction(0)) + zvals[v]
        factor = wval**size
        for s in sums.values():
            factor *= 1 + s
        return factor

    def rec(i: int, size: int) -> None:
        nonlocal total
        if i == g.m:
            total += leaf(size)
            return
        rec(i + 1, size)
        e = g.edges[i]
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return
        parent[rv] = ru
        rec(i + 1, size + 1)
        parent[rv] = rv

    rec(0, 0)
    return total


def pm_coefficient_extract(apex_poly: SparsePolynomial, n: int) -> tuple[int, bool]:
    """Read the perfect-matching count out of the apexed forest polynomial.

    Expects the univariate polynomial in w obtained by setting every
    apex-edge weight to -1.  Each matched pair contributes a tree factor
    1 - 2 = -1, so the raw w^(n/2) coefficient carries a global sign
    (-1)^(n/2), which is corrected here.  Odd n has no perfect matching:
    returns (0, True) where the flag warns about the odd order.
    """
    if n % 2 == 1:
        return 0, True
    if apex_poly.variables not in ((), ("w",)):
        raise ValueError(f"expected a polynomial in 'w', got variables {apex_poly.variables}")
    if apex_poly.variables == ():
        coeff = apex_poly.coefficient(()) if n == 0 else Fraction(0)
    else:
        coeff = apex_poly.coefficient((n // 2,))
    value = (-1) ** (n // 2) * coeff
    if value.denominator != 1:
        raise ValueError(f"matching count came out non-integer: {value}")
    return int(value), False


SimpleOracle = Callable[[Multigraph], Rat]


def sp_simple_oracle(t: Rat) -> SimpleOracle:
    """Evaluator of the forest sum at the fixed rational t on simple graphs."""
    t = Fraction(t)

    def oracle(h: Multigraph) -> Rat:
        return forest_poly_sp(h, [t] * h.m)

    return oracle


def bruteforce_simple_oracle(t: Rat) -> SimpleOracle:
    """Enumeration-backed evaluator at t; only viable on small query graphs."""
    t = Fraction(t)

    def oracle(h: Multigraph) -> Rat:
        return forest_value_bruteforce(h, [t] * h.m)

    return oracle
