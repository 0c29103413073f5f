"""Enumeration kernels: subset scans, perfect matchings and forest profiles.

The subset counters are plain exhaustive enumeration, so their results are
obviously correct, but they evaluate a predicate on every subset at once by
bitslicing (Biham, A fast new DES implementation in software, FSE 1997):
the predicate's truth table is an integer with one bit per subset, built
from per-vertex tables with a few bitwise operations per edge or
constraint, and its popcount is the count.
"""

from __future__ import annotations

from typing import Callable, Sequence

BACKEND = "pure"  # the one implementation; benchmark reports name it

_MAX_BITS = 30
# Truth tables cover the low 16 items (2^16 bits, 8 KiB each); assignments
# of the items above that are looped over, which keeps memory flat in n.
_CHUNK_BITS = 16


def _check_size(n: int) -> None:
    if n < 0 or n > _MAX_BITS:
        raise ValueError(f"kernel supports 0..{_MAX_BITS} items, got {n}")


def _item_table(v: int, k: int) -> int:
    """The 2^k-bit table whose bit s is bit v of s: runs of 2^v zeros and
    2^v ones, repeated."""
    period = 2 << v
    run = ((1 << (1 << v)) - 1) << (1 << v)
    return run * (((1 << (1 << k)) - 1) // ((1 << period) - 1))


def _count_true(n: int, predicate: Callable[[list[int], int], int]) -> int:
    """Number of subsets s of n items on which the predicate holds.

    predicate(x, ones) receives the tables x[0..n-1] of the items and the
    all-ones table, and returns the table of its value, built with &, | and
    ^ (complement is ones ^ t; Python's ~ on a large int is several times
    slower).  The low k = min(n, 16) items are real tables; in each of the
    2^(n-k) assignments of the items above them, a high item's table is the
    constant ones or 0.
    """
    _check_size(n)
    k = min(n, _CHUNK_BITS)
    low = [_item_table(v, k) for v in range(k)]
    ones = (1 << (1 << k)) - 1
    total = 0
    for high in range(1 << (n - k)):
        tables = low + [ones if (high >> j) & 1 else 0 for j in range(n - k)]
        total += predicate(tables, ones).bit_count()
    return total


def _edges(n: int, adj: Sequence[int]) -> set[tuple[int, int]]:
    """The pairs u <= v joined in adj, read symmetrically."""
    return {(min(u, v), max(u, v)) for u in range(n) for v in range(n) if (adj[u] >> v) & 1}


def count_vertex_covers(n: int, adj: Sequence[int], required: int = 0, forbidden: int = 0) -> int:
    """Count S with required ⊆ S, S ∩ forbidden = ∅, S meeting every edge.

    adj[v] is the neighbor bitmask of v.
    """
    if required >> n:
        return 0
    edges = _edges(n, adj)

    def covers(x: list[int], ones: int) -> int:
        table = ones
        for u, v in edges:
            table &= x[u] | x[v]
        for v in range(n):
            if (required >> v) & 1:
                table &= x[v]
            if (forbidden >> v) & 1:
                table &= ones ^ x[v]
        return table

    return _count_true(n, covers)


def count_independent_sets(n: int, adj: Sequence[int]) -> int:
    """Count S such that no edge has both endpoints in S."""
    edges = _edges(n, adj)

    def independent(x: list[int], ones: int) -> int:
        table = ones
        for u, v in edges:
            table &= ones ^ (x[u] & x[v])
        return table

    return _count_true(n, independent)


def count_perfect_matchings(n: int, adj: Sequence[int]) -> int:
    """Count perfect matchings by always matching the lowest unmatched vertex."""
    _check_size(n)
    if n == 0:
        return 1
    if n % 2 == 1:
        return 0
    full = (1 << n) - 1

    def rec(matched: int) -> int:
        if matched == full:
            return 1
        v = ((~matched) & -(~matched)).bit_length() - 1
        total = 0
        cand = adj[v] & ~matched
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            total += rec(matched | (1 << v) | (1 << u))
        return total

    return rec(0)


def forest_label_profile(
    n: int,
    edges_u: Sequence[int],
    edges_v: Sequence[int],
    labels: Sequence[int],
) -> dict[tuple[int, ...], int]:
    """Count acyclic edge subsets, bucketed by per-label usage counts.

    Enumerates subsets of the m given edges (parallel copies must already be
    expanded into separate entries) by a prefix recursion that prunes as soon
    as an edge would close a cycle; since every superset of a cyclic set is
    cyclic, exactly the acyclic subsets survive.  Labels are 0..max(labels);
    returns a map from label exponent vector (one entry per label) to the
    number of forests with that usage.
    """
    m = len(edges_u)
    if not (len(edges_v) == len(labels) == m):
        raise ValueError("edge arrays must have equal length")
    if any(l < 0 for l in labels):
        raise ValueError("labels must be non-negative")
    n_labels = max(labels, default=-1) + 1
    caps = [0] * n_labels
    for l in labels:
        caps[l] += 1
    strides = [0] * n_labels
    size = 1
    for l in range(n_labels):
        strides[l] = size
        size *= caps[l] + 1
    if size > 1 << 24:
        raise ValueError(f"profile table would need {size} cells; refusing")
    table = [0] * size
    parent = list(range(n))
    rank = [0] * n

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i: int, idx: int) -> None:
        if i == m:
            table[idx] += 1
            return
        rec(i + 1, idx)
        ru, rv = find(edges_u[i]), find(edges_v[i])
        if ru == rv:
            return
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        bumped = rank[ru] == rank[rv]
        if bumped:
            rank[ru] += 1
        rec(i + 1, idx + strides[labels[i]])
        parent[rv] = rv
        if bumped:
            rank[ru] -= 1

    rec(0, 0)
    out = {}
    for idx, cnt in enumerate(table):
        if cnt == 0:
            continue
        exps = []
        rem = idx
        for l in range(n_labels):
            rem, e = divmod(rem, caps[l] + 1)
            exps.append(e)
        out[tuple(exps)] = cnt
    return out



def count_csp_models(n_vars: int, relmasks: Sequence[int], scopes: Sequence[Sequence[int]]) -> int:
    """Count assignments satisfying every constraint.

    relmasks[c] has bit t set iff the tuple t over scopes[c], encoded with
    scope[0] as the most significant bit, is allowed.  Any arity works: a
    constraint's table is the OR over its allowed tuples of the AND of their
    literals.
    """

    def satisfied(x: list[int], ones: int) -> int:
        table = ones
        for relmask, scope in zip(relmasks, scopes):
            k = len(scope)
            allowed = 0
            for t in range(1 << k):
                if (relmask >> t) & 1:
                    term = ones
                    for i, var in enumerate(scope):
                        term &= x[var] if (t >> (k - 1 - i)) & 1 else ones ^ x[var]
                    allowed |= term
            table &= allowed
        return table

    return _count_true(n_vars, satisfied)
