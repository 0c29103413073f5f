"""Boolean constraint satisfaction counting: affine detection, exact model
counting for affine languages by elimination over the two-element field,
the monotone/implication 2-CNF bridges to vertex covers and independent
sets, and a brute-force counter.

Relations are extensional tuple sets (not formulas), matching the finite
constraint-language setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernels
from .errors import BudgetError
from .graphs import Multigraph

CSP_VAR_GUARD = 24  # variables of a brute-force count, which visits all 2^n assignments


@dataclass(frozen=True)
class BooleanRelation:
    """A relation R over {0,1}^arity, stored as the set of allowed tuples."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity or any(b not in (0, 1) for b in t):
                raise ValueError(f"tuple {t} does not fit arity {self.arity}")

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    @classmethod
    def from_bitstrings(cls, arity: int, strings: Sequence[str]) -> "BooleanRelation":
        tuples = []
        for s in strings:
            if len(s) != arity or any(ch not in "01" for ch in s):
                raise ValueError(f"bitstring {s!r} does not fit arity {arity}")
            tuples.append(tuple(int(ch) for ch in s))
        return cls(arity, frozenset(tuples))

    def bitstrings(self) -> list[str]:
        return sorted("".join(str(b) for b in t) for t in self.tuples)

    def mask(self) -> int:
        """Membership bitmask: bit index reads the tuple with position 0 as
        the most significant bit."""
        m = 0
        for t in self.tuples:
            idx = 0
            for b in t:
                idx = (idx << 1) | b
            m |= 1 << idx
        return m


# common relations
OR2 = BooleanRelation.from_bitstrings(2, ["01", "10", "11"])
IMPLIES = BooleanRelation.from_bitstrings(2, ["00", "01", "11"])  # (first -> second)
PARITY3 = BooleanRelation.from_bitstrings(3, ["000", "110", "101", "011"])


@dataclass(frozen=True)
class CspInstance:
    """Variables 0..n-1 and constraints (relation id, variable tuple)."""

    n: int
    relations: tuple[BooleanRelation, ...]
    constraints: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        for rid, scope in self.constraints:
            if not 0 <= rid < len(self.relations):
                raise ValueError(f"relation id {rid} out of range")
            if len(scope) != self.relations[rid].arity:
                raise ValueError(f"scope {scope} does not match arity of relation {rid}")
            if any(not 0 <= v < self.n for v in scope):
                raise ValueError(f"scope {scope} names a variable outside 0..{self.n - 1}")


def is_affine(r: BooleanRelation) -> bool:
    """True iff r is the solution set of a linear system over GF(2).

    Characterization: closure under coordinatewise triple XOR.  The empty
    relation is affine (an inconsistent system).
    """
    tuples = list(r.tuples)
    for a in tuples:
        for b in tuples:
            for c in tuples:
                x = tuple(p ^ q ^ s for p, q, s in zip(a, b, c))
                if x not in r.tuples:
                    return False
    return True


def relation_equations(r: BooleanRelation) -> list[tuple[int, int]]:
    """All GF(2) equations (coefficient mask over local positions, rhs bit)
    satisfied by every tuple of r.  Position 0 maps to mask bit 0.

    For an affine relation the joint solution set of these equations is
    exactly r; the empty relation yields the inequation 0 = 1.
    """
    if r.is_empty:
        return [(0, 1)]
    out = []
    for a in range(1 << r.arity):
        for c in (0, 1):
            if a == 0 and c == 0:
                continue  # trivial 0 = 0
            ok = True
            for t in r.tuples:
                dot = 0
                for pos in range(r.arity):
                    if (a >> pos) & 1:
                        dot ^= t[pos]
                if dot != c:
                    ok = False
                    break
            if ok:
                out.append((a, c))
    return out


def count_affine(inst: CspInstance) -> int:
    """Model count of an all-affine instance: 0 if the combined linear system
    is inconsistent, else 2^(free variables)."""
    for rid in {rid for rid, _ in inst.constraints}:
        if not is_affine(inst.relations[rid]):
            raise ValueError(f"relation {rid} is not affine")
    # rows: (coefficient mask over the n variables, rhs bit)
    rows: list[tuple[int, int]] = []
    for rid, scope in inst.constraints:
        for local_mask, rhs in relation_equations(inst.relations[rid]):
            mask = 0
            for pos in range(inst.relations[rid].arity):
                if (local_mask >> pos) & 1:
                    mask |= 1 << scope[pos]
            rows.append((mask, rhs))
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> row
    for mask, rhs in rows:
        while mask:
            lead = mask.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (mask, rhs)
                break
            pmask, prhs = pivots[lead]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs == 1:
                return 0
    return 2 ** (inst.n - len(pivots))


def count_bruteforce(inst: CspInstance) -> int:
    """Exact model count by enumerating all assignments."""
    if inst.n > CSP_VAR_GUARD:
        raise BudgetError(f"{inst.n} variables exceeds the enumeration budget of {CSP_VAR_GUARD}")
    relmasks = [inst.relations[rid].mask() for rid, _ in inst.constraints]
    scopes = [scope for _, scope in inst.constraints]
    return kernels.count_csp_models(inst.n, relmasks, scopes)


def imp2sat_from_bipartite(
    g: Multigraph, sides: Optional[tuple[set[int], set[int]]] = None
) -> CspInstance:
    """One variable per vertex and a clause (v -> u) per edge, v on the first
    side.  Model count equals the number of independent sets of the graph.
    """
    g = g.as_simple()
    if sides is None:
        sides = g.bipartition()
        if sides is None:
            raise ValueError("graph is not bipartite")
    side_v, side_u = sides
    constraints = []
    for e in g.edges:
        if e.u in side_v and e.v in side_u:
            scope = (e.u, e.v)
        elif e.v in side_v and e.u in side_u:
            scope = (e.v, e.u)
        else:
            raise ValueError(f"edge ({e.u},{e.v}) does not cross the given sides")
        constraints.append((0, scope))
    return CspInstance(g.n, (IMPLIES,), tuple(constraints))


def pos2sat_from_graph(g: Multigraph) -> CspInstance:
    """Monotone 2-CNF with a clause (u or v) per edge; models are exactly the
    vertex covers."""
    g = g.as_simple()
    constraints = tuple((0, (e.u, e.v)) for e in g.edges)
    return CspInstance(g.n, (OR2,), constraints)


@dataclass(frozen=True)
class ClassifyResult:
    all_affine: bool
    witness: Optional[BooleanRelation] = None
    size_constant: Optional[int] = None  # arity of the largest non-affine relation


def classify(gamma: Sequence[BooleanRelation]) -> ClassifyResult:
    """All-affine languages are polynomial-time countable; otherwise report a
    non-affine witness.  The size constant is the arity of the largest
    non-affine relation, reported as instance-size accounting only.
    """
    non_affine = [r for r in gamma if not is_affine(r)]
    if not non_affine:
        return ClassifyResult(True)
    witness = max(non_affine, key=lambda r: r.arity)
    return ClassifyResult(False, witness, witness.arity)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def relations_from_json(data: dict) -> list[BooleanRelation]:
    return [
        BooleanRelation.from_bitstrings(r["arity"], r["tuples"]) for r in data["relations"]
    ]


def instance_from_json(data: dict) -> CspInstance:
    relations = relations_from_json(data)
    constraints = tuple((rid, tuple(scope)) for rid, scope in data["constraints"])
    return CspInstance(data["n"], tuple(relations), constraints)

