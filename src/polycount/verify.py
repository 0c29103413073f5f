"""Property suites behind `polycount verify`.

Each suite exercises documented identities and invariants over seeded random
and fixed instance families, comparing every pipeline component against an
independent brute-force realization.  Failures carry a minimal
counterexample dump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .bis_reduction import conditioned_vc, count_is, gadget_counts
from .csp import (
    BooleanRelation,
    CspInstance,
    count_affine,
    count_bruteforce,
    imp2sat_from_bipartite,
    is_affine,
    pos2sat_from_graph,
)
from .forest import (
    apex_rhs,
    forest_poly_sp,
    forest_value_bruteforce,
    stretched_edge_weight,
)
from .graphs import (
    Edge,
    Multigraph,
    add_apex,
    format_graph,
    named_graph,
    partition_edges,
    stretch,
    substitute_gadget,
)
from .oracles import is_bruteforce, pm_bruteforce, vc_bruteforce
from .pm_reduction import PmReductionParams, count_pm
from .polynomials import (
    SparsePolynomial,
    VandermondeFactor,
    exact_det,
    grid_interpolate,
    kron_det_check,
    kronecker_apply,
    kronecker_solve,
)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, dump: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(dump)

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

RATIONAL_POOL = [
    Fraction(1),
    Fraction(2),
    Fraction(-1),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(3),
    Fraction(0),
]


def random_simple_graph(rng: random.Random, n_min: int = 2, n_max: int = 6, max_edges: int = 8) -> Multigraph:
    n = rng.randint(n_min, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_edges, len(pairs)))
    return Multigraph(n, [Edge(u, v) for u, v in sorted(pairs[:m])], simple=True)


def random_multigraph(rng: random.Random, max_total: int = 6) -> Multigraph:
    n = rng.randint(2, 4)
    edges = []
    budget = rng.randint(1, max_total)
    spent = 0
    while spent < budget:
        u, v = rng.sample(range(n), 2)
        mu = rng.randint(1, min(3, budget - spent))
        edges.append(Edge(min(u, v), max(u, v), mu))
        spent += mu
    return Multigraph(n, edges)


def random_bipartite_graph(rng: random.Random, n_max: int = 12) -> Multigraph:
    a = rng.randint(1, max(1, n_max // 2))
    b = rng.randint(1, n_max - a)
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    rng.shuffle(pairs)
    m = rng.randint(0, len(pairs))
    return Multigraph(a + b, [Edge(u, v) for u, v in sorted(pairs[:m])], simple=True)


MULTIGRAPH_ZOO = [
    Multigraph(2, [Edge(0, 1)]),
    Multigraph(2, [Edge(0, 1, 2)]),
    Multigraph(2, [Edge(0, 1, 3)]),
    Multigraph(3, [Edge(0, 1), Edge(1, 2)]),
    Multigraph(3, [Edge(0, 1), Edge(1, 2), Edge(0, 2)]),
    Multigraph(3, [Edge(0, 1, 2), Edge(1, 2, 2)]),
    Multigraph(3, [Edge(0, 1, 2), Edge(1, 2), Edge(0, 2)]),
    Multigraph(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)]),
    Multigraph(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3), Edge(0, 2)]),
    Multigraph(4, [Edge(0, 1), Edge(0, 2), Edge(0, 3)]),
    Multigraph(5, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(0, 4), Edge(1, 3)]),
]


def _apex_weights(g: Multigraph, wval: Fraction, zvals: list[Fraction]) -> list[Fraction]:
    """Weights for add_apex(g): originals first, then apex edges to 0..n-1."""
    return [Fraction(wval)] * g.m + [Fraction(z) for z in zvals]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_apex(seed: int) -> SuiteResult:
    """Forest sum of the apexed graph vs. the per-tree product formula."""
    rng = random.Random(seed)
    res = SuiteResult("apex")
    cases = []
    for _ in range(50):
        g = random_simple_graph(rng)
        settings = []
        for _ in range(3):
            wval = rng.choice([v for v in RATIONAL_POOL if v != 0])
            zvals = [rng.choice(RATIONAL_POOL) for _ in range(g.n)]
            settings.append((wval, zvals))
        cases.append((g, settings))
    for _ in range(10):
        g = random_simple_graph(rng)
        cases.append((g, [(Fraction(1), [Fraction(-1)] * g.n), (Fraction(2), [Fraction(0)] * g.n)]))
    for g, settings in cases:
        gp = add_apex(g)
        for wval, zvals in settings:
            lhs = forest_value_bruteforce(gp, _apex_weights(g, wval, zvals))
            rhs = apex_rhs(g, wval, zvals)
            res.check(
                lhs == rhs,
                f"apex identity failed: graph=<{format_graph(g).strip()}> w={wval} z={zvals}: "
                f"forest sum {lhs} != product form {rhs}",
            )
    return res


def suite_stretch(seed: int) -> SuiteResult:
    """k-stretch identity, bundle collapse, and pipeline weight algebra."""
    rng = random.Random(seed)
    res = SuiteResult("stretch")
    graphs = list(MULTIGRAPH_ZOO) + [random_multigraph(rng) for _ in range(6)]
    wvals = [Fraction(1), Fraction(2), Fraction(-2), Fraction(1, 3)]
    for g in graphs:
        m = g.total_mult
        for k in (2, 3, 4, 5):
            stretched = stretch(g, k)
            for w in wvals:
                denom = (w + 1) ** k - w**k
                if denom == 0:
                    continue
                if stretched.total_mult <= 20:
                    lhs = forest_value_bruteforce(stretched, [w] * stretched.m)
                else:
                    lhs = forest_poly_sp(stretched, [w] * stretched.m)
                inner = forest_value_bruteforce(g, [stretched_edge_weight(w, k)] * g.m)
                rhs = denom**m * inner
                res.check(
                    lhs == rhs,
                    f"stretch identity failed: graph=<{format_graph(g).strip()}> k={k} w={w}: "
                    f"{lhs} != {rhs}",
                )
    # sp engine agrees with enumeration on the zoo at several weights, and on
    # 2-stretches at w = -1/2, whose chains all have a vanishing factor
    cases = [(g, w) for g in graphs for w in (Fraction(1), Fraction(-1, 2), Fraction(2, 3))]
    cases += [(stretch(g, 2), Fraction(-1, 2)) for g in graphs]
    for g, w in cases:
        weights = [w] * g.m
        res.check(
            forest_poly_sp(g, weights) == forest_value_bruteforce(g, weights),
            f"series-parallel evaluator disagrees with enumeration on "
            f"<{format_graph(g).strip()}> at w={w}",
        )
    return res


def suite_gadget(seed: int) -> SuiteResult:
    """Gadget vertex-cover counts and shape invariants of the substitution."""
    res = SuiteResult("gadget")
    k2 = named_graph("k2")
    for ell in (1, 2, 3):
        part = partition_edges(k2, 1)
        h = substitute_gadget(k2, part, (ell,))
        neither = vc_bruteforce(h, outside=(0, 1))
        only_u = vc_bruteforce(h, inside=(0,), outside=(1,))
        only_v = vc_bruteforce(h, inside=(1,), outside=(0,))
        both = vc_bruteforce(h, inside=(0, 1))
        want = gadget_counts(ell)
        res.check(
            (neither, only_u, both) == want and only_v == want[1],
            f"gadget counts at ell={ell}: got ({neither},{only_u}/{only_v},{both}), want {want}",
        )
    rng = random.Random(seed)
    samples = [named_graph("k3"), named_graph("c4"), random_simple_graph(rng, 3, 5, 6)]
    for g in samples:
        for d in (1, 2):
            part = partition_edges(g, d)
            ells = tuple((i % 2) + 1 for i in range(part.b))
            h = substitute_gadget(g, part, ells)
            expected_edges = 4 * sum(ell * len(block) for ell, block in zip(ells, part.blocks))
            res.check(
                h.m == expected_edges,
                f"gadget edge count: graph=<{format_graph(g).strip()}> d={d} ells={ells}: "
                f"{h.m} != {expected_edges}",
            )
            res.check(
                h.bipartition() is not None,
                f"gadget output not bipartite for <{format_graph(g).strip()}> d={d} ells={ells}",
            )
    return res


def suite_eq6(seed: int) -> SuiteResult:
    """Conditioned gadget counting vs. brute force on the substituted graph."""
    rng = random.Random(seed)
    res = SuiteResult("eq6")
    graphs = [named_graph("k2"), named_graph("p3"), named_graph("k3"), named_graph("c4")]
    graphs += [random_simple_graph(rng, 3, 5, 5) for _ in range(3)]
    for g in graphs:
        if g.m == 0:
            continue
        for d in {1, 2, g.m}:
            part = partition_edges(g, d)
            for ells in product((1, 2), repeat=part.b):
                h = substitute_gadget(g, part, ells)
                if h.n > 25:
                    continue
                fast = conditioned_vc(g, part, ells)
                slow = vc_bruteforce(h)
                res.check(
                    fast == slow,
                    f"conditioned count mismatch: graph=<{format_graph(g).strip()}> d={d} "
                    f"ells={ells}: {fast} != {slow}",
                )
    return res


def suite_kron(seed: int) -> SuiteResult:
    """Determinant identity, factor invertibility, solver round trips, and
    interpolation round trips."""
    rng = random.Random(seed)
    res = SuiteResult("kron")
    for _ in range(100):
        na, nb = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(na)] for _ in range(na)]
        b = [[Fraction(rng.randint(-5, 5)) for _ in range(nb)] for _ in range(nb)]
        res.check(kron_det_check(a, b), f"Kronecker determinant identity failed for a={a} b={b}")
    for d in (1, 2):
        factor = VandermondeFactor(d)
        det = exact_det([[Fraction(x) for x in row] for row in factor.matrix()])
        res.check(det != 0, f"structured factor for d={d} is singular")
    # indicator and random round trips, applying the power then solving
    for d, b in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        factor = VandermondeFactor(d)
        x = {}
        for key in product(factor.taus, repeat=b):
            x[key] = Fraction(0)
        for _ in range(3):
            key = tuple(rng.choice(factor.taus) for _ in range(b))
            x[key] += rng.randint(0, 5)
        rhs = kronecker_apply(factor, b, x)
        solved = kronecker_solve(factor, b, rhs)
        res.check(solved == x, f"Kronecker solve round trip failed for d={d} b={b}")
        res.check(
            kronecker_apply(factor, b, solved) == rhs,
            f"solution residual nonzero for d={d} b={b}",
        )
    # interpolation round trip on random sparse polynomials
    for _ in range(20):
        n_vars = rng.randint(1, 3)
        variables = [f"v{i}" for i in range(n_vars)]
        deg = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, deg) for _ in range(n_vars))
            terms[exps] = Fraction(rng.randint(-9, 9))
        p = SparsePolynomial(variables, terms)
        values = {
            pt: p.evaluate(dict(zip(variables, pt)))
            for pt in product(range(deg + 1), repeat=n_vars)
        }
        q = grid_interpolate(values, variables, deg)
        res.check(q == p, f"interpolation round trip failed for {p}")
    return res


def _random_affine_relation(rng: random.Random, arity: int) -> BooleanRelation:
    """Solution set of a random linear system on `arity` local variables."""
    n_eqs = rng.randint(0, arity)
    eqs = [(rng.randint(0, (1 << arity) - 1), rng.randint(0, 1)) for _ in range(n_eqs)]
    tuples = []
    for a in range(1 << arity):
        ok = True
        for mask, rhs in eqs:
            dot = bin(a & mask).count("1") & 1
            if dot != rhs:
                ok = False
                break
        if ok:
            tuples.append(tuple((a >> pos) & 1 for pos in range(arity)))
    return BooleanRelation(arity, frozenset(tuples))


def _achievable_solution_sets(arity: int) -> set[frozenset]:
    """Solution sets of every linear system over `arity` variables.

    Systems are subsets of the 2^(arity+1) candidate equations; feasible for
    arity <= 3 and used to pin the closure-based affinity test empirically.
    """
    assignments = list(range(1 << arity))
    single = []
    for mask in range(1 << arity):
        for rhs in (0, 1):
            sols = frozenset(a for a in assignments if (bin(a & mask).count("1") & 1) == rhs)
            single.append(sols)
    achievable = set()
    for bits in range(1 << len(single)):
        cur = frozenset(assignments)
        b = bits
        i = 0
        while b:
            if b & 1:
                cur &= single[i]
            b >>= 1
            i += 1
        achievable.add(cur)
    return achievable


def suite_csp(seed: int) -> SuiteResult:
    """Affine counting vs. enumeration, the 2-CNF bridges, and the affinity
    characterization against exhaustive linear-system search."""
    rng = random.Random(seed)
    res = SuiteResult("csp")
    for _ in range(100):
        n = rng.randint(1, 12)
        relations = tuple(_random_affine_relation(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        constraints = []
        for _ in range(rng.randint(0, 6)):
            rid = rng.randrange(len(relations))
            k = relations[rid].arity
            if k > n:
                continue
            scope = tuple(rng.sample(range(n), k))
            constraints.append((rid, scope))
        inst = CspInstance(n, relations, tuple(constraints))
        fast = count_affine(inst)
        slow = count_bruteforce(inst)
        res.check(fast == slow, f"affine count mismatch on n={n} inst={inst}: {fast} != {slow}")
    for _ in range(50):
        g = random_bipartite_graph(rng)
        inst = imp2sat_from_bipartite(g)
        models = count_bruteforce(inst)
        truth = is_bruteforce(g)
        res.check(
            models == truth,
            f"implication 2-CNF models != independent sets on <{format_graph(g).strip()}>: "
            f"{models} != {truth}",
        )
    for _ in range(50):
        g = random_simple_graph(rng, 2, 12, 20)
        inst = pos2sat_from_graph(g)
        models = count_bruteforce(inst)
        truth = vc_bruteforce(g)
        res.check(
            models == truth,
            f"monotone 2-CNF models != vertex covers on <{format_graph(g).strip()}>: "
            f"{models} != {truth}",
        )
    for arity in (1, 2, 3):
        achievable = _achievable_solution_sets(arity)
        for bits in range(1 << (1 << arity)):
            tuples = frozenset(
                tuple((a >> pos) & 1 for pos in range(arity))
                for a in range(1 << arity)
                if (bits >> a) & 1
            )
            r = BooleanRelation(arity, tuples)
            as_masks = frozenset(
                sum(b << pos for pos, b in enumerate(t)) for t in r.tuples
            )
            expected = as_masks in achievable
            res.check(
                is_affine(r) == expected,
                f"affinity test disagrees with exhaustive search on arity={arity} "
                f"relation={sorted(r.bitstrings())}",
            )
    return res


def suite_smoke(seed: int) -> SuiteResult:
    """End-to-end pipeline runs on tiny named graphs."""
    res = SuiteResult("smoke")
    for name, want in (("c4", 2), ("k4", 3), ("p4", 1)):
        g = named_graph(name)
        got = count_pm(g, PmReductionParams(C=2, x=Fraction(2))).count
        truth = pm_bruteforce(g)
        res.check(
            got == want == truth,
            f"matching pipeline on {name}: pipeline {got}, brute force {truth}, expected {want}",
        )
    for name, want in (("k2", 3), ("p3", 5), ("k3", 4)):
        g = named_graph(name)
        got = count_is(g, 1).count
        truth = is_bruteforce(g)
        res.check(
            got == want == truth,
            f"independent-set pipeline on {name}: pipeline {got}, brute force {truth}, expected {want}",
        )
    return res


SUITES = {
    "apex": suite_apex,
    "stretch": suite_stretch,
    "gadget": suite_gadget,
    "eq6": suite_eq6,
    "kron": suite_kron,
    "csp": suite_csp,
}


def run_suites(name: str, seed: int = 0) -> list[SuiteResult]:
    """Run one named suite, or all of them plus the end-to-end smoke runs."""
    if name == "all":
        results = [fn(seed) for fn in SUITES.values()]
        results.append(suite_smoke(seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join([*SUITES, 'all'])}")
    return [SUITES[name](seed)]
