"""Forest generating functions: brute-force polynomials, a series-parallel
evaluator for large-but-reducible graphs, the Tutte slice at y = 1, and the
apex machinery that encodes perfect matchings into coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence, Union

from . import kernels
from .errors import BudgetError
from .graphs import Multigraph
from .polynomials import Rat, SparsePolynomial

ENUMERATION_GUARD = 22  # edges counted with multiplicity; ~4M subsets
CORE_VERTEX_GUARD = 16  # vertices per component of the forest_poly_sp core, whose DP is O(3^n)
SPARSE_CORE_DEGREE = 4  # average degree up to which a core component splits on an edge, not the DP

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


def _weight_list(g: Multigraph, weights: Weights) -> list[Weight]:
    """The weights of records 0..m-1 in order; ValueError unless weights
    covers exactly those records."""
    if not isinstance(weights, Mapping):
        weights = dict(enumerate(weights))
    missing = [i for i in range(g.m) if i not in weights]
    if missing:
        raise ValueError(f"weights miss edge records {missing}")
    extra = [i for i in weights if not 0 <= i < g.m]
    if extra:
        raise ValueError(f"weights name unknown edge records {extra}")
    return [weights[i] for i in range(g.m)]


def _profile_by_class(g: Multigraph, weights: Weights) -> tuple[list[Weight], dict[tuple[int, ...], int]]:
    """Forest counts bucketed by how many edges of each weight class are used.

    weights gives each edge record a rational or a symbol name; records with
    equal weights, and the copies of one record, share a class.  Returns the
    classes in first-appearance order and the usage profile.
    """
    weights = _weight_list(g, weights)
    copies = _expanded_edges(g)
    if len(copies) > ENUMERATION_GUARD:
        raise BudgetError(
            f"{len(copies)} edges exceeds the enumeration guard of {ENUMERATION_GUARD}; "
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


def forest_poly_bruteforce(g: Multigraph, weights: Optional[Weights] = None) -> ForestPolyResult:
    """Sum over all acyclic edge subsets of the product of edge weights.

    weights holds one rational or symbol name per edge record (a list, or a
    dict keyed 0..m-1) and defaults to the records' labels.  Symbols become
    polynomial variables (in first-appearance order); rational weights fold
    into the coefficients.  Parallel copies are enumerated individually.
    """
    if weights is None:
        weights = [e.label for e in g.edges]
    class_order, profile = _profile_by_class(g, weights)
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


def forest_poly_sp(g: Multigraph, weights: Weights) -> Rat:
    """Evaluate the weighted forest sum by graph reduction plus a small core.

    One worklist pass over adjacency maps (Haggard, Pearce and Royle,
    Computing Tutte polynomials, ACM TOMS 2010): parallel copies add into one
    bundle as they are inserted and a bundle summing to zero is dropped; a
    pendant edge contributes a factor (1 + w); the maximal chain through a
    degree-2 vertex, of weights w_1..w_k, collapses to a single edge of weight
    prod(w) / (prod(1+w) - prod(w)) with global prefactor prod(1+w) - prod(w)
    (the k-stretch identity read backwards; a cycle, or a chain closing on one
    vertex, just contributes the prefactor).  A chain between two vertices
    whose prefactor vanishes cannot be divided by: every forest left uses the
    whole chain, so it contributes prod(w) and its two ends merge.

    The reducer runs on integers: every weight, and the prefactor, is an
    unnormalised pair (a, b) standing for a/b with b != 0.  Writing
    w_i = a_i/b_i, a chain has A = prod(a), B = prod(b), S = prod(a+b); it
    vanishes when S == A, and otherwise becomes the edge (A, S - A) and the
    prefactor (S - A, B).  Nothing is reduced by a gcd until the hand-off,
    which builds one Fraction for the prefactor and one per edge that it
    splits on or hands to the DP.

    Every vertex left then has degree 0 or at least 3.  Unless the prefactor
    is already zero, which is then the answer, each connected component of
    that core must fit CORE_VERTEX_GUARD vertices.  A sparse component, of
    average degree at most SPARSE_CORE_DEGREE, splits on its edge e = uv of
    largest degree sum by deletion-contraction, F(G) = F(G - e) +
    w_e * F(G / e), where G / e merges v into u: their bundles to a common
    neighbour add into one, and e itself, now a loop, drops out.  Each half
    goes back through the same reducer; deleting e from a sparse core often
    leaves u or v of degree 2, for the chain rule to collapse.  The other
    components go, all together, to vertex_core_value, the integer
    vertex-subset DP with Bareiss determinants.  Enumeration
    (forest_value_bruteforce) is only the independent check of this
    evaluator.
    """
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.n)]
    for e, w in zip(g.edges, _weight_list(g, weights)):
        if not isinstance(w, (int, Fraction)):
            w = Fraction(w)  # a symbol name raises ValueError
        _join(adj, e.u, e.v, e.mult * w.numerator, w.denominator)
    return _reduce(adj, range(g.n))


# Adjacency maps by vertex: a list over 0..n-1, or a dict over the vertices
# of a core.  adj[u][v] = adj[v][u] = (a, b) is the bundle of weight a/b.
Adjacency = Union[list[dict[int, tuple[int, int]]], dict[int, dict[int, tuple[int, int]]]]


def _join(adj: Adjacency, u: int, v: int, a: int, b: int) -> None:
    """Add the weight a/b into the bundle between u and v; a bundle that
    sums to zero is dropped."""
    old = adj[u].get(v)
    if old is not None:
        c, d = old
        a, b = a * d + c * b, b * d
    if a:
        adj[u][v] = adj[v][u] = (a, b)
    elif old is not None:
        del adj[u][v], adj[v][u]


def _merge(adj: Adjacency, u: int, v: int) -> list[int]:
    """Merge v into u: the bundle between them, now a loop, drops out and
    v's other bundles add into u's.  Returns v's former neighbours."""
    adj[u].pop(v, None)
    adj[v].pop(u, None)
    moved = list(adj[v])
    for x, (a, b) in adj[v].items():
        del adj[x][v]
        _join(adj, u, x, a, b)
    adj[v].clear()
    return moved


def _reduce(adj: Adjacency, vertices: Sequence[int]) -> Fraction:
    """The forest sum of the graph adj on the given vertices, by the
    reduction rules and core hand-off of forest_poly_sp.  Consumes adj."""
    pre_num = pre_den = 1  # the prefactor pre_num / pre_den
    stack = [v for v in vertices if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        # degrees never grow, so a vertex pushed whenever it loses an edge is
        # popped again whenever a rule may newly apply to it
        if len(adj[v]) == 1:
            ((u, (a, b)),) = adj[v].items()
            pre_num *= a + b
            pre_den *= b
            del adj[v][u], adj[u][v]
            stack.append(u)
        elif len(adj[v]) == 2:
            path = _chain_through(adj, v)
            left, right = path[0], path[-1]
            prod_a = prod_b = prod_ab = 1
            for x, y in zip(path, path[1:]):
                a, b = adj[x].pop(y)
                del adj[y][x]
                prod_a *= a
                prod_b *= b
                prod_ab *= a + b
            pre_den *= prod_b
            factor = prod_ab - prod_a  # the prefactor is factor / prod_b
            if left == right or factor:
                pre_num *= factor
                if left != right:
                    _join(adj, left, right, prod_a, factor)
            else:
                # only forests that use the whole chain are left: its ends
                # merge, and a bundle between them, now a loop, drops out
                pre_num *= prod_a
                stack += _merge(adj, left, right)
            stack += (left, right)
    prefactor = Fraction(pre_num, pre_den)
    if pre_num == 0:
        return prefactor
    core = {v: adj[v] for v in vertices if adj[v]}
    dense_edges = []
    for comp in _core_components(core):
        if sum(len(core[v]) for v in comp) <= SPARSE_CORE_DEGREE * len(comp):
            prefactor *= _delete_contract(core, comp)
        else:
            dense_edges += [(u, v, Fraction(*w)) for u in comp for v, w in sorted(core[u].items()) if u < v]
    if dense_edges:
        prefactor *= vertex_core_value(dense_edges)
    return prefactor


def _delete_contract(core: Adjacency, comp: list[int]) -> Fraction:
    """F(G) = F(G - e) + w_e * F(G / e) on the connected component comp of
    core, for its edge e = uv of largest degree sum (the first in sorted
    order on ties), each half by _reduce.  Consumes the component."""
    u, v = max(
        sorted((x, y) for x in comp for y in core[x] if x < y),
        key=lambda e: len(core[e[0]]) + len(core[e[1]]),
    )
    a, b = core[u][v]
    deletion = {x: dict(core[x]) for x in comp}
    del deletion[u][v], deletion[v][u]
    _merge(core, u, v)
    return _reduce(deletion, comp) + Fraction(a, b) * _reduce(core, comp)


def _chain_through(adj: Adjacency, v: int) -> list[int]:
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
# Vertex-subset core
# ---------------------------------------------------------------------------


def vertex_core_value(edges: Sequence[tuple[int, int, Fraction]]) -> Fraction:
    """Forest sum of the simple graph with weighted edges (u, v, w), one per
    vertex pair, by the vertex-subset DP of Bjoerklund, Husfeldt, Kaski and
    Koivisto (Computing the Tutte polynomial in vertex-exponential time,
    FOCS 2008).

    A forest is a partition of the vertices into blocks with a spanning tree
    on each, so F(G) sums, over vertex partitions, the product of the blocks'
    weighted spanning-tree sums tau_w(G[B]).  With w_e = a_e / D over one
    common denominator D, a block contributes T(B) = D * tau_a(G[B]) =
    D^|B| * tau_w(G[B]), so every partition of the k vertices carries D^k and
    F = f(V) / D^k, where f(S) sums T(S') f(S - S') over the connected
    subsets S' of S that hold min S.  tau_a is an integer reduced-Laplacian
    determinant, by Bareiss's fraction-free elimination (Math. Comp. 1968):
    the work is int throughout, up to the one Fraction returned.  Only
    vertices with an edge take part; F multiplies over connected components,
    and a component above CORE_VERTEX_GUARD vertices raises BudgetError.
    """
    den = lcm(*(w.denominator for _, _, w in edges))
    nbrs: dict[int, dict[int, int]] = {}
    for u, v, w in edges:
        nbrs.setdefault(u, {})[v] = nbrs.setdefault(v, {})[u] = w.numerator * (den // w.denominator)
    numerator = 1
    for comp in _core_components(nbrs):
        index = {v: i for i, v in enumerate(comp)}
        numerator *= _partition_sum([{index[u]: a for u, a in nbrs[v].items()} for v in comp], den)
    return Fraction(numerator, den ** len(nbrs))


def _core_components(nbrs: Mapping[int, Mapping[int, object]]) -> list[list[int]]:
    """Vertex lists of the connected components, each in increasing order;
    BudgetError if one exceeds CORE_VERTEX_GUARD vertices."""
    seen: set[int] = set()
    comps = []
    for root in sorted(nbrs):
        if root in seen:
            continue
        seen.add(root)
        comp, todo = [], [root]
        while todo:
            v = todo.pop()
            comp.append(v)
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        comps.append(sorted(comp))
    largest = max(map(len, comps), default=0)
    if largest > CORE_VERTEX_GUARD:
        raise BudgetError(f"core component of {largest} vertices exceeds the vertex guard of {CORE_VERTEX_GUARD}")
    return comps


def _partition_sum(adj: list[dict[int, int]], den: int) -> int:
    """f(V) of vertex_core_value on one connected graph with integer edge
    weights adj[v][u], vertex sets as bitmasks."""
    k = len(adj)
    full = (1 << k) - 1
    nbr_mask = [sum(1 << u for u in a) for a in adj]
    # connected sets in increasing order: each set of two or more vertices
    # has a vertex above its minimum whose removal leaves it connected, so it
    # is grown from a smaller connected set by one neighbour above the minimum
    connected = bytearray(1 << k)
    reach = [0] * (1 << k)  # union of the members' neighbourhoods
    tau = [0] * (1 << k)  # tau_a(G[S]) of the connected sets S
    blocks: list[list[tuple[int, int]]] = [[] for _ in range(k)]  # (S', T(S')) by min S'
    for s in range(1, 1 << k):
        low = s & -s
        first = low.bit_length() - 1
        reach[s] = reach[s ^ low] | nbr_mask[first]
        if s == low:
            connected[s] = 1
        elif not connected[s]:
            continue
        grow = reach[s] & ~s & ~(2 * low - 1)
        while grow:
            bit = grow & -grow
            connected[s | bit] = 1
            grow ^= bit
        tau[s] = _tree_sum(adj, nbr_mask, tau, s)
        if tau[s]:
            blocks[first].append((s, den * tau[s]))
    # f over the subsets of {i+1..k-1} is complete before the blocks with
    # minimum i add into the sets with minimum i; of those only f(V) is needed
    f = [0] * (1 << k)
    f[0] = 1
    for i in range(k - 1, 0, -1):
        above = full & ~((2 << i) - 1)
        for s, t in blocks[i]:
            free = above & ~s
            r = free
            while True:
                f[s | r] += t * f[r]
                if not r:
                    break
                r = (r - 1) & free
    return sum(t * f[full ^ s] for s, t in blocks[0])


def _tree_sum(adj: list[dict[int, int]], nbr_mask: list[int], tau: list[int], s: int) -> int:
    """Weighted spanning-tree sum of the connected subgraph induced by the
    vertex set s, given tau of its connected proper subsets.  A leaf v of
    G[s] hangs off every spanning tree by its one edge, so
    tau(s) = a(v, x) * tau(s - v); otherwise it is the Laplacian determinant
    with the row and column of min s removed."""
    members = [v for v in range(s.bit_length()) if s >> v & 1]
    if len(members) == 1:
        return 1
    for v in members:
        inside = nbr_mask[v] & s
        if inside & (inside - 1) == 0:
            return adj[v][inside.bit_length() - 1] * tau[s ^ (1 << v)]
    first, *rest = members
    rows = []
    for j, v in enumerate(rest):
        row = [-adj[v].get(u, 0) for u in rest]
        row[j] = adj[v].get(first, 0) - sum(row)  # v's weighted degree in G[s]
        rows.append(row)
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a non-empty square integer matrix by Bareiss's
    fraction-free elimination: every division is exact."""
    sign, prev = 1, 1
    while len(rows) > 1:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p:
            sign = -sign
            rows[0], rows[p] = rows[p], rows[0]
        pivot, *head = rows[0]
        rows = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], head)] for row in rows[1:]]
        prev = pivot
    return sign * rows[0][0]


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
