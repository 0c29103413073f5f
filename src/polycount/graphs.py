"""Multigraph data model, text format I/O, and the graph transformations
used by the counting reductions (apex, stretch, gadget substitution,
edge-block partition).

Vertices are dense integer indices 0..n-1.  Transformations that create new
vertices always append them after the original indices, so the original
vertex set of a transformed graph is still 0..n-1.  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import GraphParseError


@dataclass(frozen=True)
class Edge:
    """One edge record: endpoints, multiplicity, and a weight tag.

    Parallel edges are stored as multiplicity on a single record, not as
    repeated records.  The tag names a weight class; numeric weights are
    passed to the forest evaluators separately, one per record, so the same
    graph can be re-weighted without rebuilding.
    """

    u: int
    v: int
    mult: int = 1
    label: str = "w"


class Multigraph:
    """An undirected multigraph without self-loops.

    Args:
        n: number of vertices (identified 0..n-1).
        edges: edge records; endpoints must be distinct and in range.
        simple: if True, asserts mult == 1 everywhere and no two records
            share an endpoint pair.
    """

    __slots__ = ("n", "edges", "simple")

    def __init__(self, n: int, edges: Iterable[Edge], simple: bool = False):
        edges = tuple(edges)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for e in edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge ({e.u},{e.v}) has an endpoint outside 0..{n - 1}")
            if e.u == e.v:
                raise ValueError(f"self-loop at vertex {e.u} is not allowed")
            if e.mult < 1:
                raise ValueError(f"edge ({e.u},{e.v}) has non-positive multiplicity {e.mult}")
        if simple:
            pairs = [frozenset((e.u, e.v)) for e in edges]
            if any(e.mult != 1 for e in edges) or len(set(pairs)) != len(pairs):
                raise ValueError("graph flagged simple but has parallel edges")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "simple", simple)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    @property
    def m(self) -> int:
        """Number of edge records."""
        return len(self.edges)

    @property
    def total_mult(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(e.mult for e in self.edges)

    def as_simple(self) -> "Multigraph":
        """Return the same graph with the simple flag set (validates)."""
        if self.simple:
            return self
        return Multigraph(self.n, self.edges, simple=True)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks of the underlying simple support."""
        adj = [0] * self.n
        for e in self.edges:
            adj[e.u] |= 1 << e.v
            adj[e.v] |= 1 << e.u
        return adj

    def component_count(self) -> int:
        """Number of connected components, isolated vertices included."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = self.n
        for e in self.edges:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return comps

    def bipartition(self) -> Optional[tuple[set[int], set[int]]]:
        """2-coloring by BFS: (side0, side1), or None if an odd cycle exists.

        Deterministic: components are rooted at their lowest vertex, which
        always lands on side 0.
        """
        color = [-1] * self.n
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        for root in range(self.n):
            if color[root] != -1:
                continue
            color[root] = 0
            queue = [root]
            while queue:
                x = queue.pop(0)
                for y in adj[x]:
                    if color[y] == -1:
                        color[y] = 1 - color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        return None
        return (
            {v for v in range(self.n) if color[v] == 0},
            {v for v in range(self.n) if color[v] == 1},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m}, total_mult={self.total_mult})"


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint edge-index blocks covering all edges, each of size <= d."""

    blocks: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if len(block) > self.d:
                raise ValueError(f"block {block} exceeds size bound {self.d}")
            for i in block:
                if i in seen:
                    raise ValueError(f"edge {i} appears in two blocks")
                seen.add(i)

    def validate_cover(self, graph: Multigraph) -> None:
        covered = {i for block in self.blocks for i in block}
        if covered != set(range(graph.m)):
            raise ValueError("blocks do not cover the edge set exactly")

    @property
    def b(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Multigraph:
    """Parse the graph text format.

    Format: a header line ``p graph <n> <m>``, then m lines
    ``e <u> <v> [mult] [label]`` (mult defaults to 1, label to "w").
    Lines starting with ``c`` are comments.
    """
    header = None
    header_line = 0
    edges: list[Edge] = []
    declared_m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphParseError(lineno, "duplicate header line")
            if len(parts) != 4 or parts[1] != "graph":
                raise GraphParseError(lineno, f"malformed header {line!r}; expected 'p graph <n> <m>'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(lineno, f"non-integer counts in header {line!r}") from None
            if n < 0 or declared_m < 0:
                raise GraphParseError(lineno, "negative counts in header")
            header = n
            header_line = lineno
            continue
        if parts[0] == "e":
            if header is None:
                raise GraphParseError(lineno, "edge line before header")
            if len(parts) < 3 or len(parts) > 5:
                raise GraphParseError(lineno, f"malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(lineno, f"non-integer endpoint in {line!r}") from None
            mult = 1
            label = "w"
            if len(parts) >= 4:
                try:
                    mult = int(parts[3])
                except ValueError:
                    raise GraphParseError(lineno, f"non-integer multiplicity in {line!r}") from None
            if len(parts) == 5:
                label = parts[4]
            if not (0 <= u < header and 0 <= v < header):
                raise GraphParseError(lineno, f"endpoint out of range in {line!r}")
            if u == v:
                raise GraphParseError(lineno, f"self-loop at vertex {u}")
            if mult < 1:
                raise GraphParseError(lineno, f"non-positive multiplicity {mult}")
            edges.append(Edge(u, v, mult, label))
            continue
        raise GraphParseError(lineno, f"unrecognized line {line!r}")
    if header is None:
        raise GraphParseError(1, "missing header line 'p graph <n> <m>'")
    if len(edges) != declared_m:
        raise GraphParseError(header_line, f"header declares {declared_m} edges but {len(edges)} edge lines follow")
    return Multigraph(header, edges)


def format_graph(g: Multigraph) -> str:
    """Serialize back to the text format (inverse of parse_graph).

    Raises ValueError on a label that is empty or holds whitespace: the
    text would read back as a different graph, or not at all.
    """
    lines = [f"p graph {g.n} {g.m}"]
    for e in g.edges:
        if e.label.split() != [e.label]:
            raise ValueError(f"edge ({e.u},{e.v}) label {e.label!r} is empty or holds whitespace")
        lines.append(f"e {e.u} {e.v} {e.mult} {e.label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def add_apex(g: Multigraph, collapse_z: bool = False) -> Multigraph:
    """Join a new vertex (index n) to every original vertex.

    Original edges keep the tag "w"; the new edge to vertex v is tagged
    "z<v>", or uniformly "z" when collapse_z is set.  Works for any simple
    input, connected or not.
    """
    g = g.as_simple()
    a = g.n
    edges = [Edge(e.u, e.v, 1, "w") for e in g.edges]
    for v in range(g.n):
        edges.append(Edge(v, a, 1, "z" if collapse_z else f"z{v}"))
    return Multigraph(g.n + 1, edges, simple=True)


def stretch(g: Multigraph, k: int) -> Multigraph:
    """Replace every edge by a path of k edges.

    Parallel copies are stretched independently: a record of multiplicity mu
    becomes mu internally-disjoint k-paths.  The result is simple for k >= 2;
    k = 1 returns the graph unchanged.  New vertices are appended after the
    original indices.  Path edges inherit the replaced edge's label.
    """
    if k < 1:
        raise ValueError("stretch factor must be >= 1")
    if k == 1:
        return g
    edges: list[Edge] = []
    fresh = g.n
    for e in g.edges:
        for _ in range(e.mult):
            prev = e.u
            for _ in range(k - 1):
                edges.append(Edge(prev, fresh, 1, e.label))
                prev = fresh
                fresh += 1
            edges.append(Edge(prev, e.v, 1, e.label))
    return Multigraph(fresh, edges, simple=True)


def _check_folds(g: Multigraph, part: BlockPartition, ells: Sequence[int]) -> Multigraph:
    g = g.as_simple()
    part.validate_cover(g)
    if len(ells) != part.b:
        raise ValueError(f"need one ell per block ({part.b}), got {len(ells)}")
    if any(ell < 1 for ell in ells):
        raise ValueError("gadget fold counts must be positive")
    return g


def gadget_size(g: Multigraph, part: BlockPartition, ells: Sequence[int]) -> tuple[int, int]:
    """(vertices, edges) of substitute_gadget(g, part, ells), without building it.

    Each of the L = sum_i |block_i| * ell_i four-edge paths adds three
    vertices, so the result is (n + 3L, 4L).
    """
    g = _check_folds(g, part, ells)
    paths = sum(len(block) * ell for block, ell in zip(part.blocks, ells))
    return g.n + 3 * paths, 4 * paths


def substitute_gadget(g: Multigraph, part: BlockPartition, ells: Sequence[int]) -> Multigraph:
    """Replace each edge of block i by a fresh ell_i-fold four-path gadget.

    The gadget joins the two original endpoints by ell internally-disjoint
    paths of four edges each, so the output is simple, bipartite, and keeps
    both endpoints on the same side of the bipartition.  New vertices are
    appended after the original indices.
    """
    g = _check_folds(g, part, ells)
    block_of = {}
    for i, block in enumerate(part.blocks):
        for edge_index in block:
            block_of[edge_index] = i
    edges: list[Edge] = []
    fresh = g.n
    for idx, e in enumerate(g.edges):
        ell = ells[block_of[idx]]
        for _ in range(ell):
            a, b, c = fresh, fresh + 1, fresh + 2
            fresh += 3
            edges.append(Edge(e.u, a, 1, e.label))
            edges.append(Edge(a, b, 1, e.label))
            edges.append(Edge(b, c, 1, e.label))
            edges.append(Edge(c, e.v, 1, e.label))
    return Multigraph(fresh, edges, simple=True)


def partition_edges(g: Multigraph, d: int) -> BlockPartition:
    """Chunk edge indices in input order into ceil(m/d) blocks of size <= d."""
    if d < 1:
        raise ValueError("block size must be >= 1")
    indices = list(range(g.m))
    blocks = tuple(tuple(indices[i : i + d]) for i in range(0, len(indices), d))
    part = BlockPartition(blocks, d)
    part.validate_cover(g)
    return part


# ---------------------------------------------------------------------------
# Built-in named graphs
# ---------------------------------------------------------------------------

def _cycle(n: int) -> Multigraph:
    return Multigraph(n, [Edge(i, (i + 1) % n) for i in range(n)], simple=True)

def _path(n: int) -> Multigraph:
    return Multigraph(n, [Edge(i, i + 1) for i in range(n - 1)], simple=True)

def _complete(n: int) -> Multigraph:
    return Multigraph(n, [Edge(i, j) for i in range(n) for j in range(i + 1, n)], simple=True)

def _complete_bipartite(a: int, b: int) -> Multigraph:
    return Multigraph(a + b, [Edge(i, a + j) for i in range(a) for j in range(b)], simple=True)

def _petersen() -> Multigraph:
    edges = [Edge(i, (i + 1) % 5) for i in range(5)]
    edges += [Edge(i, i + 5) for i in range(5)]
    edges += [Edge(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, edges, simple=True)


NAMED_GRAPHS = {
    "k2": lambda: _complete(2),
    "k3": lambda: _complete(3),
    "k4": lambda: _complete(4),
    "c4": lambda: _cycle(4),
    "p3": lambda: _path(3),
    "p4": lambda: _path(4),
    "k33": lambda: _complete_bipartite(3, 3),
    "petersen": _petersen,
}


def named_graph(name: str) -> Multigraph:
    try:
        return NAMED_GRAPHS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown named graph {name!r}; known: {', '.join(sorted(NAMED_GRAPHS))}") from None
