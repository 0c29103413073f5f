"""Perfect-matching counting through a forest-sum oracle on simple graphs.

The chain: apex the input graph, recover its two-weight forest polynomial by
block interpolation from evaluations at small integer weight multiples,
realize each evaluation as a multigraph whose parallel bundles are stretched
into a simple graph the oracle can handle, then read the matching count from
one coefficient after setting the apex weight to -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Mapping, Optional

from .errors import BudgetError
from .forest import (
    SimpleOracle,
    pm_coefficient_extract,
    sp_simple_oracle,
    stretched_edge_weight,
)
from .graphs import Edge, Multigraph, add_apex, stretch
from .polynomials import Rat, SparsePolynomial, grid_interpolate
from .transcripts import OracleTranscript

WeightMapOracle = Callable[[Mapping[int, int]], Rat]

QUERY_GUARD = 1 << 20  # oracle queries of one interpolation grid, (C + 1)^classes


@dataclass(frozen=True)
class PmReductionParams:
    """Knobs of the pipeline.

    C is the interpolation class size (edges sharing one indeterminate);
    x is the evaluation point the simulated oracle works at (x != 1), giving
    t = 1/(x-1); k is the stretch factor, odd so the reparameterized weight
    z0 = t^k / ((t+1)^k - t^k) is always defined, and at least 3 so every
    stretched query graph is simple.  z0 = 0 never happens since
    t = 1/(x-1) cannot be 0.
    """

    C: int
    x: Rat = Fraction(2)
    k: int = 3

    def __post_init__(self):
        if self.C < 1:
            raise ValueError("interpolation class size C must be >= 1")
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x == 1:
            raise ValueError("x = 1 is excluded (the forest bridge divides by x - 1)")
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"stretch factor k must be an odd integer >= 3, got {self.k}")

    @cached_property
    def t(self) -> Rat:
        return 1 / (self.x - 1)

    @cached_property
    def z0(self) -> Rat:
        return stretched_edge_weight(self.t, self.k)

    @cached_property
    def stretch_prefactor(self) -> Rat:
        """(t+1)^k - t^k, the per-bundle-copy factor removed after stretching."""
        t = self.t
        return (t + 1) ** self.k - t**self.k


@dataclass(frozen=True)
class PmRunResult:
    count: int
    odd_warning: bool
    query_count: int
    bivariate: Optional[SparsePolynomial]
    transcript: OracleTranscript


def multigraph_from_multiplicities(base: Multigraph, mults: Mapping[int, int]) -> Multigraph:
    """Copy of base where edge i carries multiplicity mults[i]; zero drops it."""
    edges = []
    for i, e in enumerate(base.edges):
        mu = mults.get(i, 0)
        if mu < 0:
            raise ValueError("multiplicities must be non-negative")
        if mu:
            edges.append(Edge(e.u, e.v, mu, e.label))
    return Multigraph(base.n, edges)


def simulate_oracle_via_stretch(
    h: Multigraph,
    params: PmReductionParams,
    simple_oracle: SimpleOracle,
) -> Rat:
    """Answer F(h; z0 * multiplicities) through a simple-graph evaluator.

    Integer weight multiples are already realized as parallel edges of h;
    stretching every copy into a k-path yields a simple graph whose forest
    sum at t equals the wanted value times ((t+1)^k - t^k) per copy.  The
    graph handed to simple_oracle is checked to be simple.
    """
    prefactor = params.stretch_prefactor
    m_copies = h.total_mult
    h_simple = stretch(h, params.k) if m_copies else h
    raw = simple_oracle(h_simple.as_simple())
    return Fraction(raw) / prefactor**m_copies


def stretch_backed_oracle(
    gprime: Multigraph,
    params: PmReductionParams,
    simple_oracle: Optional[SimpleOracle] = None,
) -> WeightMapOracle:
    """The standard oracle realization: multiplicities -> stretch -> evaluate."""
    if simple_oracle is None:
        simple_oracle = sp_simple_oracle(params.t)

    def oracle(wprime: Mapping[int, int]) -> Rat:
        h = multigraph_from_multiplicities(gprime, wprime)
        return simulate_oracle_via_stretch(h, params, simple_oracle)

    return oracle


def _interpolation_classes(gprime: Multigraph, C: int) -> tuple[list[list[int]], list[str]]:
    """Chunk w-edges then z-edges into classes of <= C sharing an indeterminate."""
    w_ids = [i for i, e in enumerate(gprime.edges) if e.label == "w"]
    z_ids = [i for i, e in enumerate(gprime.edges) if e.label == "z"]
    if len(w_ids) + len(z_ids) != gprime.m:
        bad = next(e.label for e in gprime.edges if e.label not in ("w", "z"))
        raise ValueError(f"every edge must be labeled w or z; found {bad!r}")
    classes = []
    names = []
    for j in range(0, len(w_ids), C):
        classes.append(w_ids[j : j + C])
        names.append(f"x{j // C + 1}")
    for j in range(0, len(z_ids), C):
        classes.append(z_ids[j : j + C])
        names.append(f"y{j // C + 1}")
    return classes, names


def block_interpolation(
    gprime: Multigraph,
    params: PmReductionParams,
    oracle: WeightMapOracle,
    transcript: Optional[OracleTranscript] = None,
) -> SparsePolynomial:
    """Recover the exact two-weight forest polynomial of gprime.

    Edges tagged w and z are split into classes of at most C sharing an
    indeterminate; the oracle is queried on every integer grid point in
    {0..C} per class (weights scaled by z0), the class polynomial is
    interpolated, and each monomial with x-degree i and y-degree j is folded
    into the coefficient of w^i z^j after dividing by z0^(i+j).
    """
    classes, names = _interpolation_classes(gprime, params.C)
    n_queries = (params.C + 1) ** len(classes)
    if n_queries > QUERY_GUARD:
        raise BudgetError(f"grid needs {n_queries} oracle queries, budget is {QUERY_GUARD}")
    values: dict[tuple[int, ...], Rat] = {}
    # a flat loop in lexicographic order: no closure that refers to itself
    # holds the values and the transcript in a reference cycle after return
    for point in product(range(params.C + 1), repeat=len(classes)):
        wprime = {}
        for cls, val in zip(classes, point):
            for edge_id in cls:
                wprime[edge_id] = val
        query = {
            "point": [str(v) for v in point],
            "multiplicities": {str(k): v for k, v in sorted(wprime.items())},
        }
        try:
            answer = oracle(wprime)
        except Exception as exc:
            if transcript is not None:
                transcript.record("forest-sum query", query, f"error: {exc}", "oracle failure")
            raise
        values[point] = answer
        if transcript is not None:
            transcript.record(
                purpose="forest-sum query",
                query=query,
                answer=answer,
                derived=f"F at z0*point, z0={params.z0}",
            )
    poly = grid_interpolate(values, names, params.C)
    # project all x-classes onto w and all y-classes onto z
    n_x = sum(1 for name in names if name.startswith("x"))
    z0 = params.z0
    terms: dict[tuple[int, int], Rat] = {}
    for exps, coeff in poly.terms.items():
        i = sum(exps[:n_x])
        j = sum(exps[n_x:])
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + coeff / z0 ** (i + j)
    return SparsePolynomial(("w", "z"), terms)


def count_pm(
    g: Multigraph,
    params: PmReductionParams,
    simple_oracle: Optional[SimpleOracle] = None,
) -> PmRunResult:
    """Count perfect matchings of a simple graph using only forest-sum
    evaluations at the fixed point t on simple graphs.
    """
    g = g.as_simple()
    transcript = OracleTranscript()
    if g.n % 2 == 1:
        return PmRunResult(0, True, 0, None, transcript)
    gprime = add_apex(g, collapse_z=True)
    oracle = stretch_backed_oracle(gprime, params, simple_oracle)
    bivariate = block_interpolation(gprime, params, oracle, transcript)
    univariate = bivariate.substitute("z", Fraction(-1))
    count, odd = pm_coefficient_extract(univariate, g.n)
    n_classes = -(-g.m // params.C) + -(-g.n // params.C)  # ceil division
    expected_queries = (params.C + 1) ** n_classes
    if len(transcript) != expected_queries:
        raise RuntimeError(
            f"internal accounting error: {len(transcript)} queries, expected {expected_queries}"
        )
    return PmRunResult(count, odd, len(transcript), bivariate, transcript)
