"""Sparse exact multivariate polynomials, grid interpolation, and the
structured Vandermonde/Kronecker linear algebra behind the reductions.

Everything here is exact: coefficients are unbounded rationals and no
operation may introduce rounding.  Matrix entries like 30**192 overflow any
fixed-width integer immediately, so machine-word arithmetic is off limits in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul
from typing import Callable, Mapping, Sequence

Rat = Fraction

# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------


class SparsePolynomial:
    """Multivariate polynomial: ordered variables, exponent-vector terms.

    Invariants: no stored zero coefficients; every exponent vector has the
    same arity as the variable list.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Rat]):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], Rat] = {}
        k = len(self.variables)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != k:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {k}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    def evaluate(self, point: Mapping[str, Rat]) -> Rat:
        """Exact value at a point binding every variable."""
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"missing bindings for {missing}")
        total = Fraction(0)
        vals = [Fraction(point[v]) for v in self.variables]
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(vals, exps):
                if e:
                    term *= val**e
            total += term
        return total

    def substitute(self, name: str, value: Rat) -> "SparsePolynomial":
        """Bind one variable to a rational; it disappears from the result."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        pos = self.variables.index(name)
        value = Fraction(value)
        rest = self.variables[:pos] + self.variables[pos + 1 :]
        out: dict[tuple[int, ...], Rat] = {}
        for exps, coeff in self.terms.items():
            key = exps[:pos] + exps[pos + 1 :]
            c = coeff * value ** exps[pos]
            out[key] = out.get(key, Fraction(0)) + c
        return SparsePolynomial(rest, out)

    def coefficient(self, exps: Sequence[int]) -> Rat:
        return self.terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            factors = []
            for var, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            if not factors:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append("*".join(factors))
            elif coeff == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(f"{coeff}*" + "*".join(factors))
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.variables}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# Grid interpolation
# ---------------------------------------------------------------------------


def master_polynomial(nodes: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    """The master polynomial m(t) = prod_j (t - nodes[j]) of pairwise-distinct
    nodes: its monomial coefficients, low to high, and its derivative at
    each node, m'(nodes[i]) = prod_{j != i} (nodes[i] - nodes[j]).  Integer
    nodes give integers."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be pairwise distinct")
    master = [1]
    for x in nodes:
        master = [lower - x * c for lower, c in zip([0] + master, master + [0])]
    slopes = [prod([xi - xj for xj in nodes if xj != xi]) for xi in nodes]
    return master, slopes


def node_polynomial_rows(nodes: Sequence[Rat]) -> tuple[list[list[Rat]], list[Rat]]:
    """Undivided Lagrange rows on pairwise-distinct nodes.

    Row i holds the monomial coefficients, low to high, of
    master(t) / (t - nodes[i]) with master(t) = prod_j (t - nodes[j]), and
    denominators[i] = prod_{j != i} (nodes[i] - nodes[j]).  Row i divided by
    denominators[i] is the Lagrange basis polynomial that is 1 at nodes[i]
    and 0 at the other nodes (Macon and Spitzbart, Inverses of Vandermonde
    matrices, 1958).  Integer nodes give integer rows and denominators.
    """
    master, denominators = master_polynomial(nodes)
    n = len(nodes)
    rows = []
    for xi in nodes:
        # synthetic division: master / (t - xi)
        q = [0] * n
        carry = master[n]
        for j in range(n - 1, -1, -1):
            q[j] = carry
            carry = master[j] + carry * xi
        rows.append(q)
    return rows, denominators


def _horner(coefficients: Sequence[Rat], x: Rat) -> Rat:
    """Value at x of the polynomial with the given coefficients, low to high."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def grid_interpolate(
    values: Mapping[tuple[int, ...], Rat],
    variables: Sequence[str],
    degree: int,
) -> SparsePolynomial:
    """Recover the unique polynomial of degree at most ``degree`` in each
    variable that matches values on the grid {0..degree}^len(variables).

    Keys of ``values`` are node tuples in variable order and must cover the
    grid exactly.  Each value is divided once, by the product of its nodes'
    denominators; the transposed integer node rows, the undivided inverse of
    the Vandermonde matrix on 0..degree, then act on every fiber of every
    variable.
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    variables = tuple(variables)
    grid = list(product(range(degree + 1), repeat=len(variables)))
    if len(values) != len(grid) or any(pt not in values for pt in grid):
        raise ValueError("values do not cover the interpolation grid exactly")
    rows, denominators = node_polynomial_rows(range(degree + 1))
    node_dens = product(denominators, repeat=len(variables))
    scaled = [Fraction(values[pt]) / prod(dens) for pt, dens in zip(grid, node_dens)]
    columns = list(zip(*rows))

    def interpolate_fiber(fiber: list[Rat]) -> list[Rat]:
        out = []
        for col in columns:
            acc = 0
            for c, v in zip(col, fiber):
                if v:
                    acc += c * v
            out.append(acc)
        return out

    coefficients = _map_modes(scaled, len(variables), degree + 1, interpolate_fiber)
    return SparsePolynomial(variables, {exps: c for exps, c in zip(grid, coefficients) if c})


def _map_modes(
    tensor: list[Rat], b: int, n: int, fiber_map: Callable[[list[Rat]], list[Rat]]
) -> list[Rat]:
    """Carry every fiber of a flat tensor with b modes of size n through a
    linear map of length-n vectors, one mode after another: the map acts on
    the entries whose indices differ only along that mode.  Entries run in
    the order of itertools.product, the first mode slowest.  With the map
    v -> M v this multiplies by the b-fold Kronecker power of M; an all-zero
    fiber maps to zeros without a call."""
    size = len(tensor)
    for mode in range(b):
        inner = n ** (b - mode - 1)
        stride = n * inner
        out = [0] * size
        for base in range(0, size, stride):
            for start in range(base, base + inner):
                fiber = tensor[start : start + stride : inner]
                if any(fiber):
                    out[start : start + stride : inner] = fiber_map(fiber)
        tensor = out
    return tensor


# ---------------------------------------------------------------------------
# Exact dense linear algebra (small matrices only)
# ---------------------------------------------------------------------------


def exact_inverse(rows: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    """Gauss-Jordan inverse over the rationals; raises on singular input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = [[Fraction(x) for x in r] for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def exact_det(rows: Sequence[Sequence[Rat]]) -> Rat:
    """Determinant by fraction-preserving Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        p = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def kron(a: Sequence[Sequence[Rat]], b: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    """Kronecker product: block matrix of a[i][j]-scaled copies of b."""
    return [
        [a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
        for i in range(len(a))
        for k in range(len(b))
    ]


def kron_det_check(a: Sequence[Sequence[Rat]], b: Sequence[Sequence[Rat]]) -> bool:
    """Self-test of the Kronecker implementation on one pair of square
    matrices: det(A (x) B) must equal det(A)**nb * det(B)**na exactly."""
    na, nb = len(a), len(b)
    if any(len(r) != na for r in a) or any(len(r) != nb for r in b):
        raise ValueError("inputs must be square")
    lhs = exact_det(kron(a, b))
    rhs = exact_det(a) ** nb * exact_det(b) ** na
    return lhs == rhs


# ---------------------------------------------------------------------------
# The structured Vandermonde factor and its Kronecker powers
# ---------------------------------------------------------------------------

@dataclass
class VandermondeFactor:
    """The square integer matrix with rows ell = 1..(d+1)^3, columns indexed
    by triples tau in {0..d}^3 (lexicographic), and entries
    (2^tau1 * 3^tau2 * 5^tau3) ** ell.

    Distinct triples give distinct column bases (unique prime factorization),
    which makes the matrix an invertible transposed Vandermonde matrix.
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("block size d must be >= 1")

    @property
    def size(self) -> int:
        return (self.d + 1) ** 3

    @property
    def taus(self) -> list[tuple[int, int, int]]:
        r = range(self.d + 1)
        return [(t1, t2, t3) for t1 in r for t2 in r for t3 in r]

    @property
    def bases(self) -> list[int]:
        return [2**t1 * 3**t2 * 5**t3 for t1, t2, t3 in self.taus]

    def matrix(self) -> list[list[int]]:
        bases = self.bases
        return [[b**ell for b in bases] for ell in range(1, self.size + 1)]

    def inverse(self) -> tuple[list[list[int]], list[int]]:
        """The exact inverse as integers (Q, D): A^-1[j][ell-1] = Q[j][ell-1] / D[j].

        A factors as W * diag(bases) with W[ell][j] = bases[j] ** (ell - 1),
        the transpose of the Vandermonde matrix on the bases, whose inverse
        rows are the Lagrange basis coefficients.  So Q holds the node
        polynomial rows on the bases and D[j] = bases[j] * denominators[j].
        kronecker_solve builds no such table; this dense form, like
        matrix(), is the reference that tests check the solve against.
        """
        bases = self.bases
        rows, denominators = node_polynomial_rows(bases)
        return rows, [p * denom for p, denom in zip(bases, denominators)]


def kronecker_solve(
    factor: VandermondeFactor, b: int, rhs: Mapping[tuple[int, ...], Rat]
) -> dict[tuple[tuple[int, int, int], ...], Rat]:
    """Solve (A tensor ... tensor A) x = rhs, with b factors A, without
    materializing the power or the factor's inverse.

    The rhs must cover the grid {1..N}^b exactly, N = factor.size; for b = 0
    the power is the 1x1 identity and the grid is the one empty index ().
    Along each of the b tensor modes, every fiber r goes through the
    undivided inverse of the factor in O(N^2), from the master polynomial
    m(t) = prod_j (t - beta_j) of the bases beta and no N x N table
    (Kaltofen and Lakshman, ISSAC 1988; Zippel, J. Symbolic Comput. 1990):
    with P(t) = sum_s p_s t^s and p_s = sum_k r_k * m_{k+s+1}, entry j is
    P(beta_j) by Horner, which is row j of the node polynomial rows on the
    bases applied to r.  Each entry is then divided once, by
    D[j1] * ... * D[jb] with D[j] = beta_j * m'(beta_j).
    Integer right-hand sides stay integers until that division.  Keys of
    the result are b-tuples of column triples, one per mode, in the same
    mode order as the rhs indices.
    """
    if b < 0:
        raise ValueError("tensor mode count must be non-negative")
    n = factor.size
    grid = list(product(range(1, n + 1), repeat=b))
    if len(rhs) != len(grid) or any(key not in rhs for key in grid):
        raise ValueError(f"rhs must cover the grid (1..{n})^{b} exactly, got {len(rhs)} keys")
    bases = factor.bases
    master, slopes = master_polynomial(bases)

    def solve_fiber(r: list[Rat]) -> list[Rat]:
        p = [sum(map(mul, r, master[s + 1 :])) for s in range(n)]
        return [_horner(p, beta) for beta in bases]

    tensor = _map_modes([rhs[key] for key in grid], b, n, solve_fiber)
    denominators = [beta * slope for beta, slope in zip(bases, slopes)]
    keys = product(factor.taus, repeat=b)
    return {
        key: Fraction(val, prod(dens))
        for key, dens, val in zip(keys, product(denominators, repeat=b), tensor)
    }


def kronecker_apply(factor: VandermondeFactor, b: int, x: Mapping[tuple[tuple[int, int, int], ...], Rat]) -> dict[tuple[int, ...], Rat]:
    """Multiply the b-fold Kronecker power of the factor by x (residual check).

    No matrix is built: along each mode, every nonzero entry x_j of a fiber
    adds x_j * beta_j^ell into output ell for ell = 1..N, the power stepped
    up by one factor beta_j at a time.  It reads only the bases, so the
    check shares nothing with the solve.  Missing keys of x count as 0.
    """
    n = factor.size
    bases = factor.bases

    def apply_fiber(fiber: list[Rat]) -> list[Rat]:
        y = [0] * n
        for xj, beta in zip(fiber, bases):
            if xj:
                power = xj
                for ell in range(n):
                    power *= beta
                    y[ell] += power
        return y

    tensor = _map_modes([x.get(key, 0) for key in product(factor.taus, repeat=b)], b, n, apply_fiber)
    return dict(zip(product(range(1, n + 1), repeat=b), tensor))
