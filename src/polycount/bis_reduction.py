"""Counting independent sets of a general graph through an oracle that only
counts vertex covers (equivalently independent sets) of bipartite graphs.

Every edge is replaced by a four-path gadget folded ell times; conditioning
on the intersection of a vertex cover with the original vertices makes the
gadget contributions multiply, giving a linear system over the unknown
"type" census whose matrix is a Kronecker power of one small invertible
factor.  Solving it exactly and summing the types that cover every edge
yields the vertex-cover count, which equals the independent-set count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Union

from . import oracles
from .errors import BudgetError
from .graphs import BlockPartition, Multigraph, gadget_size, partition_edges, substitute_gadget
# vc_bruteforce is not called here; pipebench/spans.py hooks it at this module
from .oracles import vc_bipartite, vc_bruteforce
from .polynomials import VandermondeFactor, kronecker_apply, kronecker_solve
from .transcripts import OracleTranscript

TypeMatrix = tuple[tuple[int, int, int], ...]
BipartiteOracle = Callable[[Multigraph], int]

CONDITIONING_GUARD = 20  # original-graph vertices; conditioned_vc scans 2^n sets
GRID_GUARD = 1 << 17  # oracle queries of one count_is grid, (d + 1)^(3 * blocks)


def gadget_counts(ell: int) -> tuple[int, int, int]:
    """Vertex-cover counts of the ell-fold four-path gadget, bucketed by
    which of the two original endpoints the cover contains:
    (neither, exactly one named endpoint, both) = (2^ell, 3^ell, 5^ell).
    """
    if ell < 1:
        raise ValueError("fold count must be >= 1")
    return 2**ell, 3**ell, 5**ell


def type_of(g: Multigraph, part: BlockPartition, s: Union[set[int], frozenset[int]]) -> TypeMatrix:
    """The per-block census of a vertex set: for block i, how many of its
    edges have 0, 1, or 2 endpoints inside s."""
    if any(not 0 <= v < g.n for v in s):
        raise ValueError("set contains a vertex outside the graph")
    rows = []
    for block in part.blocks:
        t0 = t1 = t2 = 0
        for edge_id in block:
            e = g.edges[edge_id]
            inside = (e.u in s) + (e.v in s)
            if inside == 0:
                t0 += 1
            elif inside == 1:
                t1 += 1
            else:
                t2 += 1
        rows.append((t0, t1, t2))
    return tuple(rows)


def feasible_type(t: TypeMatrix, part: BlockPartition) -> bool:
    """A type is achievable only if each row sums to its block's size."""
    return all(sum(row) == len(block) for row, block in zip(t, part.blocks))


def covers_all_edges(t: TypeMatrix) -> bool:
    """Vertex covers are exactly the sets whose type has first column zero."""
    return all(row[0] == 0 for row in t)


def conditioned_vc(g: Multigraph, part: BlockPartition, ells: Sequence[int]) -> int:
    """Vertex covers of the gadget-substituted graph, computed on the
    original graph: sum over all S of the product over blocks of
    (2^t1 * 3^t2 * 5^t3)^ell, where (t1,t2,t3) is S's census for the block.

    An independent realization of the same number the bipartite oracle
    returns; serves both as a fast oracle stand-in and as a cross-check.
    """
    g = g.as_simple()
    part.validate_cover(g)
    if len(ells) != part.b:
        raise ValueError(f"need one ell per block ({part.b}), got {len(ells)}")
    if g.n > CONDITIONING_GUARD:
        raise BudgetError(f"{g.n} vertices exceeds the conditioning guard of {CONDITIONING_GUARD}")
    total = 0
    for mask in range(1 << g.n):
        prod_term = 1
        for block, ell in zip(part.blocks, ells):
            t0 = t1 = t2 = 0
            for edge_id in block:
                e = g.edges[edge_id]
                inside = ((mask >> e.u) & 1) + ((mask >> e.v) & 1)
                if inside == 0:
                    t0 += 1
                elif inside == 1:
                    t1 += 1
                else:
                    t2 += 1
            prod_term *= (2**t0 * 3**t1 * 5**t2) ** ell
        total += prod_term
    return total


@dataclass(frozen=True)
class BisRunResult:
    count: int
    query_count: int
    partition: BlockPartition
    census: dict[TypeMatrix, int]
    transcript: OracleTranscript


def _bipartite_gadget(g: Multigraph, part: BlockPartition, ells: Sequence[int]) -> Multigraph:
    """The gadget graph of one query; ValueError unless it is bipartite, the
    only kind of graph the reduction may ask the oracle about."""
    h = substitute_gadget(g, part, ells)
    if h.bipartition() is None:
        raise ValueError(f"gadget graph for folds {list(ells)} is not bipartite")
    return h


def _resolve_oracle(
    oracle: Union[str, BipartiteOracle],
    g: Multigraph,
    part: BlockPartition,
) -> Callable[[Sequence[int], int], tuple[str, int]]:
    """A function of (ells, gadget vertex count) that answers the query and
    names the oracle that did.  Only the oracles that read the gadget graph
    build it; a custom oracle is handed it only once it is checked
    bipartite, as vc_bipartite checks it for auto."""
    if callable(oracle):
        return lambda ells, n: ("custom", oracle(_bipartite_gadget(g, part, ells)))
    if oracle == "conditioned":
        return lambda ells, n: ("conditioned", conditioned_vc(g, part, ells))
    if oracle == "auto":

        def auto(ells: Sequence[int], n: int) -> tuple[str, int]:
            if n <= oracles.SUBSET_GUARD:
                return "side-enumeration", vc_bipartite(substitute_gadget(g, part, ells))
            return "conditioned", conditioned_vc(g, part, ells)

        return auto
    raise ValueError(f"unknown oracle mode {oracle!r}; use auto, conditioned, or a callable")


def count_is(
    g: Multigraph,
    d: int,
    oracle: Union[str, BipartiteOracle] = "auto",
) -> BisRunResult:
    """Count independent sets of a simple graph via bipartite oracle queries.

    Partitions the edges into blocks of size at most d, queries the oracle on
    the gadget substitution for every fold vector in {1..(d+1)^3}^blocks,
    solves the Kronecker-structured system exactly, checks the solution is a
    genuine census (non-negative integers, zero on infeasible types, total
    2^n), and returns the number of types covering every edge, which equals
    the independent-set count by complementation.

    In "auto" mode a query whose gadget graph has at most
    oracles.SUBSET_GUARD vertices goes to vc_bipartite, a larger one to
    conditioned_vc.  "conditioned" mode sends every query to conditioned_vc,
    and a callable oracle is handed each gadget graph once it is checked
    bipartite.  Each transcript entry names the oracle that answered.
    """
    g = g.as_simple()
    part = partition_edges(g, d)
    factor = VandermondeFactor(d)
    size = factor.size
    n_queries = size**part.b
    if n_queries > GRID_GUARD:
        raise BudgetError(f"grid needs {n_queries} oracle queries, budget is {GRID_GUARD}")
    run_oracle = _resolve_oracle(oracle, g, part)
    transcript = OracleTranscript()
    rhs = {}
    for ells in product(range(1, size + 1), repeat=part.b):
        gadget_n, gadget_m = gadget_size(g, part, ells)
        answered_by, answer = run_oracle(ells, gadget_n)
        rhs[ells] = answer
        transcript.record(
            purpose="bipartite vertex-cover query",
            query={"ells": list(ells), "oracle": answered_by, "gadget_vertices": gadget_n, "gadget_edges": gadget_m},
            answer=answer,
            derived="rhs entry",
        )
    solution = kronecker_solve(factor, part.b, rhs)
    census: dict[TypeMatrix, int] = {}
    total = 0
    for key, val in solution.items():
        if val.denominator != 1:
            raise RuntimeError(f"census value for type {key} is not an integer: {val}")
        iv = int(val)
        if iv < 0:
            raise RuntimeError(f"census value for type {key} is negative: {iv}")
        if iv and not feasible_type(key, part):
            raise RuntimeError(f"infeasible type {key} received nonzero census {iv}")
        census[key] = iv
        total += iv
    if kronecker_apply(factor, part.b, census) != rhs:
        raise RuntimeError("solver residual nonzero: recovered census does not reproduce the queries")
    if total != 2**g.n:
        raise RuntimeError(f"census totals {total}, expected 2^{g.n}")
    count = sum(v for t, v in census.items() if covers_all_edges(t))
    return BisRunResult(count, len(transcript), part, census, transcript)
