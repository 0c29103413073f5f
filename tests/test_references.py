"""Each fast evaluator is checked against an independent reference, so no
fast path may call its reference, and no reference may call the fast path
it checks.

The walk reads the source of src/polycount with `ast` and imports nothing.
Every module-level function, class and assigned name is a node, and so is
every method, as `Class.method`.  A node refers to each module-level name
its body (with defaults, decorators, annotations and nested functions)
reads, resolved through the module's own definitions, its `from .x import
y` lines and `module.attr` for `from . import module`.  A class node is its
header, its class-level statements and its dunder methods, which operators
and construction call without naming them.  Any other attribute read
(`factor.inverse()`, `self._helper()`) refers to every method of that name
in the package, so a call through an instance is followed without knowing
the instance's class.  A path is the transitive closure of those
references, so it sees pairs kept in one module (forest.py, csp.py,
polynomials.py) that an import-only check would miss.

Known blind spot: a method reached by a name built at run time
(`getattr(obj, name)`) goes unseen.
"""

from __future__ import annotations

import ast
from collections import deque
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polycount"

Node = tuple[str, str]  # (module, name)

# fast path -> the references it must never reach
FAST_TO_REFERENCE = [
    (("forest", "forest_poly_sp"),
     [("forest", "forest_value_bruteforce"), ("forest", "forest_poly_bruteforce"), ("forest", "apex_rhs")]),
    (("pm_reduction", "count_pm"),
     [("oracles", "pm_bruteforce"), ("forest", "forest_value_bruteforce"), ("forest", "forest_poly_bruteforce")]),
    (("bis_reduction", "count_is"),
     [("oracles", "vc_bruteforce"), ("oracles", "is_bruteforce"), ("bis_reduction", "type_of")]),
    (("oracles", "vc_bipartite"), [("oracles", "vc_bruteforce")]),
    (("polynomials", "grid_interpolate"), [("polynomials", "exact_inverse")]),
    (("polynomials", "kronecker_solve"), [("polynomials", "exact_inverse")]),
    (("polynomials", "kronecker_apply"), [("polynomials", "kron")]),
    (("csp", "count_affine"), [("csp", "count_bruteforce")]),
]

# reference -> the fast paths it checks, which it must never reach
REFERENCE_TO_FAST = [
    (("forest", "forest_poly_bruteforce"), [("forest", "forest_poly_sp"), ("forest", "vertex_core_value")]),
    (("forest", "apex_rhs"), [("forest", "forest_poly_sp")]),
]

PAIRS = FAST_TO_REFERENCE + REFERENCE_TO_FAST

# the census residual check -> the solve's construction, which it must
# never share, so that one fault cannot hide in both
RESIDUAL_TO_SOLVE = [
    (("polynomials", "kronecker_apply"), ("polynomials", "master_polynomial")),
    (("polynomials", "kronecker_apply"), ("polynomials", "node_polynomial_rows")),
]


def _module_bindings(tree: ast.Module) -> tuple[dict[str, ast.AST], dict[str, Node], set[str]]:
    """A module's definitions (name -> node to walk), its `from .x import y`
    names (local name -> (x, y)) and its `from . import x` module names."""
    defs: dict[str, ast.AST] = {}
    imported: dict[str, Node] = {}
    modules: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            header: list[ast.AST] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{stmt.name}.{member.name}"] = member
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        continue
                header.append(member)
            defs[stmt.name] = ast.Module(body=header, type_ignores=[])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = stmt.value
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                local = alias.asname or alias.name
                if stmt.module is None:
                    modules.add(local)
                else:
                    imported[local] = (stmt.module, alias.name)
    return defs, imported, modules


@cache
def reference_graph() -> dict[Node, set[Node]]:
    """Every module-level node of the package and the nodes its body refers to."""
    bindings = {
        path.stem: _module_bindings(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }

    def resolve(module: str, name: str) -> Node | None:
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if module not in bindings:
                return None
            defs, imported, _ = bindings[module]
            if name in defs:
                return module, name
            if name not in imported:
                return None
            module, name = imported[name]
        return None

    methods: dict[str, set[Node]] = {}
    for module, (defs, _, _) in bindings.items():
        for name in defs:
            if "." in name:
                methods.setdefault(name.split(".")[1], set()).add((module, name))

    graph: dict[Node, set[Node]] = {}
    for module, (defs, _, modules) in bindings.items():
        for name, body in defs.items():
            refs = set()
            for node in ast.walk(body):
                if isinstance(node, ast.Name):
                    refs.add(resolve(module, node.id))
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        refs.add(resolve(node.value.id, node.attr))
                    else:
                        refs |= methods.get(node.attr, set())
            graph[(module, name)] = refs - {None, (module, name)}
    return graph


def path_between(graph: dict[Node, set[Node]], start: Node, goal: Node) -> list[Node] | None:
    """The shortest chain of references from start to goal, or None."""
    parent: dict[Node, Node | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            chain = []
            while node is not None:
                chain.append(node)
                node = parent[node]
            return chain[::-1]
        for nxt in sorted(graph[node]):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def test_every_named_function_resolves():
    # a renamed root or reference must fail here, not pass the walk unchecked
    graph = reference_graph()
    named = {root for root, _ in PAIRS} | {target for _, targets in PAIRS for target in targets}
    named |= {node for pair in RESIDUAL_TO_SOLVE for node in pair}
    assert sorted(n for n in named if n not in graph) == []


def test_walk_follows_module_attributes_and_imports():
    # the walk sees the edges it relies on: a same-module call, a
    # `from .x import y` call and a `module.attr` read
    graph = reference_graph()
    assert path_between(graph, ("forest", "forest_poly_sp"), ("forest", "vertex_core_value"))
    assert path_between(graph, ("bis_reduction", "count_is"), ("oracles", "vc_bipartite"))
    assert ("oracles", "SUBSET_GUARD") in graph[("bis_reduction", "_resolve_oracle")]


def test_walk_follows_calls_through_instances():
    # an attribute read on an instance reaches the methods of that name; a
    # class named only in an annotation reaches none of its other methods
    graph = reference_graph()
    assert ("graphs", "Multigraph.as_simple") in graph[("bis_reduction", "count_is")]
    assert ("polynomials", "VandermondeFactor.bases") in graph[("polynomials", "kronecker_apply")]
    assert path_between(graph, ("polynomials", "VandermondeFactor.inverse"), ("polynomials", "master_polynomial"))
    assert path_between(graph, ("polynomials", "VandermondeFactor"), ("polynomials", "node_polynomial_rows")) is None


@pytest.mark.parametrize(
    "root, targets", PAIRS, ids=[f"{module}.{name}" for (module, name), _ in PAIRS]
)
def test_no_path_between_a_fast_evaluator_and_its_reference(root, targets):
    graph = reference_graph()
    found = {}
    for target in targets:
        chain = path_between(graph, root, target)
        if chain is not None:
            found[target] = " -> ".join(f"{m}.{n}" for m, n in chain)
    assert found == {}


@pytest.mark.parametrize(
    "root, target", RESIDUAL_TO_SOLVE, ids=[f"{root[1]}-{target[1]}" for root, target in RESIDUAL_TO_SOLVE]
)
def test_no_path_from_the_residual_check_to_the_solve(root, target):
    chain = path_between(reference_graph(), root, target)
    assert chain is None, " -> ".join(f"{m}.{n}" for m, n in chain)
