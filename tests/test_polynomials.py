import random
from operator import mul
from fractions import Fraction
from itertools import product

import pytest

from polycount import (
    SparsePolynomial,
    VandermondeFactor,
    grid_interpolate,
    kron,
    kron_det_check,
    kronecker_solve,
)
from polycount.polynomials import (
    exact_det,
    exact_inverse,
    kronecker_apply,
    node_polynomial_rows,
)

F = Fraction


def test_evaluate_examples():
    p = SparsePolynomial(("x",), {(0,): F(1), (1,): F(3), (2,): F(3)})
    assert p.evaluate({"x": F(1)}) == 7  # forest count of the triangle
    q = SparsePolynomial(("x", "y"), {(1, 1): F(1)})
    assert q.evaluate({"x": F(2), "y": F(3)}) == 6
    r = SparsePolynomial(("x", "y"), {(0, 0): F(5), (2, 1): F(7)})
    assert r.evaluate({"x": F(0), "y": F(0)}) == 5


def test_evaluate_missing_binding():
    p = SparsePolynomial(("x", "y"), {(1, 0): F(1)})
    with pytest.raises(ValueError):
        p.evaluate({"x": F(1)})


def test_poly_substitute_and_str():
    p = SparsePolynomial(("w", "z"), {(1, 0): F(1), (1, 1): F(2), (0, 2): F(1)})
    q = p.substitute("z", F(-1))
    assert q.variables == ("w",)
    assert q.coefficient((1,)) == -1  # w - 2w
    assert q.coefficient((0,)) == 1
    assert str(SparsePolynomial(("x",), {(0,): F(1), (2,): F(1)})) == "1 + x^2"


def test_poly_no_zero_terms():
    p = SparsePolynomial(("x",), {(1,): F(0), (2,): F(4)})
    assert (1,) not in p.terms and p.coefficient((1,)) == 0


def test_grid_interpolate_quadratic():
    values = {(0,): F(1), (1,): F(2), (2,): F(5)}
    p = grid_interpolate(values, ["x"], 2)
    assert p == SparsePolynomial(("x",), {(0,): F(1), (2,): F(1)})


def test_grid_interpolate_constant():
    values = {(0,): F(9), (1,): F(9)}
    p = grid_interpolate(values, ["x"], 1)
    assert p == SparsePolynomial(("x",), {(0,): F(9)})


def test_grid_interpolate_bivariate():
    values = {(a, b): F(a + b) for a in (0, 1) for b in (0, 1)}
    p = grid_interpolate(values, ["x", "y"], 1)
    assert p == SparsePolynomial(("x", "y"), {(1, 0): F(1), (0, 1): F(1)})


def test_grid_interpolate_rejects_bad_grids():
    with pytest.raises(ValueError, match="cover"):  # a missing point
        grid_interpolate({(0,): F(1)}, ["x"], 1)
    with pytest.raises(ValueError, match="cover"):  # a point off the grid
        grid_interpolate({(0,): F(1), (1,): F(2), (2,): F(3)}, ["x"], 1)
    with pytest.raises(ValueError, match="degree"):
        grid_interpolate({(): F(1)}, [], -1)


def test_grid_interpolate_roundtrip_random():
    rng = random.Random(5)
    for _ in range(25):
        n_vars = rng.randint(1, 3)
        variables = [f"v{i}" for i in range(n_vars)]
        deg = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, deg) for _ in range(n_vars)): F(rng.randint(-9, 9))
            for _ in range(rng.randint(1, 6))
        }
        p = SparsePolynomial(variables, terms)
        values = {
            pt: p.evaluate(dict(zip(variables, pt)))
            for pt in product(range(deg + 1), repeat=n_vars)
        }
        assert grid_interpolate(values, variables, deg) == p


def test_grid_interpolate_roundtrip_rational_degree_9():
    # the shape of count_pm's K3,3 grid at C = 9: two variables, nodes 0..9,
    # here with coefficients of different denominators
    rng = random.Random(7)
    terms = {
        (rng.randint(0, 9), rng.randint(0, 9)): F(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 9, 11]))
        for _ in range(12)
    }
    terms[(9, 9)] = F(-5, 13)
    terms[(0, 0)] = F(1, 4)
    p = SparsePolynomial(("x", "y"), terms)
    values = {pt: p.evaluate({"x": pt[0], "y": pt[1]}) for pt in product(range(10), repeat=2)}
    assert len({v.denominator for v in p.terms.values()}) > 2
    assert grid_interpolate(values, ["x", "y"], 9) == p


def test_lagrange_rows_exact():
    # undivided: master(t) = (t - 2)(t - 3), rows master / (t - x_i)
    assert node_polynomial_rows([2, 3]) == ([[-3, 1], [-2, 1]], [-1, 1])
    with pytest.raises(ValueError):
        node_polynomial_rows([2, 2])


def test_vandermonde_factor_d1():
    factor = VandermondeFactor(1)
    assert factor.size == 8
    assert sorted(factor.bases) == [1, 2, 3, 5, 6, 10, 15, 30]
    tau_index = factor.taus.index((1, 1, 0))
    assert factor.matrix()[1][tau_index] == 36
    ones_col = factor.taus.index((0, 0, 0))
    assert all(row[ones_col] == 1 for row in factor.matrix())


def test_vandermonde_det_nonzero():
    for d in (1, 2):
        mat = [[F(x) for x in row] for row in VandermondeFactor(d).matrix()]
        assert exact_det(mat) != 0


def test_vandermonde_inverse_paths_agree():
    # the integer inverse against the Gauss-Jordan inverse over the
    # rationals, at sizes 8 and 27
    for d in (1, 2):
        factor = VandermondeFactor(d)
        q, denominators = factor.inverse()
        assert all(type(c) is int for row in q for c in row)
        assert all(type(den) is int and den != 0 for den in denominators)
        reference = exact_inverse(factor.matrix())
        n = factor.size
        assert [[F(q[j][i], denominators[j]) for i in range(n)] for j in range(n)] == reference


def test_structured_inverse_beyond_gauss_jordan_limit():
    # sizes 64 and 125, where Gauss-Jordan is too slow to serve as the
    # reference: Q * A = diag(D) on every column
    for d in (3, 4):
        factor = VandermondeFactor(d)
        q, denominators = factor.inverse()
        columns = list(zip(*factor.matrix()))
        for j, row in enumerate(q):
            products = [sum(map(mul, row, col)) for col in columns]
            assert products == [denominators[j] if i == j else 0 for i in range(factor.size)]


def test_kronecker_solve_matches_the_dense_inverse_rows():
    # sizes 64 and 125, past Gauss-Jordan: the master-polynomial solve
    # against the rows of factor.inverse() on a random integer rhs
    rng = random.Random(11)
    for d in (3, 4):
        factor = VandermondeFactor(d)
        q, denominators = factor.inverse()
        r = [rng.randint(-10**6, 10**6) for _ in range(factor.size)]
        solution = kronecker_solve(factor, 1, {(ell,): v for ell, v in enumerate(r, start=1)})
        want = {(tau,): F(sum(map(mul, row, r)), den) for tau, row, den in zip(factor.taus, q, denominators)}
        assert solution == want


def test_kron_det_check_examples():
    eye2 = [[F(1), F(0)], [F(0), F(1)]]
    assert kron_det_check(eye2, eye2)
    assert kron_det_check([[F(2)]], [[F(3)]])
    assert exact_det(kron([[F(2)]], [[F(3)]])) == 6
    rng = random.Random(1)
    for _ in range(50):
        a = [[F(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        b = [[F(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        assert kron_det_check(a, b)


def test_kronecker_solve_known_combination():
    factor = VandermondeFactor(1)
    weights = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 1}
    rhs = {}
    for ell in range(1, 9):
        total = F(0)
        for tau, x in weights.items():
            base = 2 ** tau[0] * 3 ** tau[1] * 5 ** tau[2]
            total += x * base**ell
        rhs[(ell,)] = total
    solution = kronecker_solve(factor, 1, rhs)
    for tau in factor.taus:
        assert solution[(tau,)] == weights.get(tau, 0)


def test_kronecker_solve_indicator():
    factor = VandermondeFactor(1)
    tau0 = (1, 0, 1)
    j = factor.taus.index(tau0)
    rhs = {(ell,): F(factor.matrix()[ell - 1][j]) for ell in range(1, 9)}
    solution = kronecker_solve(factor, 1, rhs)
    assert all(v == (key == (tau0,)) for key, v in solution.items())


def test_kronecker_solve_indicator_two_modes():
    factor = VandermondeFactor(1)
    tau_pair = ((1, 0, 0), (0, 1, 1))
    x = {key: F(int(key == tau_pair)) for key in product(factor.taus, repeat=2)}
    rhs = kronecker_apply(factor, 2, x)
    solution = kronecker_solve(factor, 2, rhs)
    assert solution == x


def test_kronecker_roundtrip_b3():
    rng = random.Random(9)
    factor = VandermondeFactor(1)
    x = {key: F(0) for key in product(factor.taus, repeat=3)}
    for _ in range(4):
        key = tuple(rng.choice(factor.taus) for _ in range(3))
        x[key] += rng.randint(1, 9)
    rhs = kronecker_apply(factor, 3, x)
    assert kronecker_solve(factor, 3, rhs) == x
    assert kronecker_apply(factor, 3, x) == rhs


@pytest.mark.parametrize("d, b", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_kronecker_apply_matches_dense_kron_power(d, b):
    # the dense b-fold Kronecker power of the factor is the reference: its
    # rows and columns run over (ell_1..ell_b) and (tau_1..tau_b) in
    # lexicographic order, the first mode most significant
    rng = random.Random(10 * d + b)
    factor = VandermondeFactor(d)
    keys = list(product(factor.taus, repeat=b))
    x = {key: rng.randint(-9, 9) for key in keys}
    dense = [[1]]
    for _ in range(b):
        dense = kron(dense, factor.matrix())
    rows = product(range(1, factor.size + 1), repeat=b)
    want = {ells: sum(a * x[key] for a, key in zip(row, keys)) for ells, row in zip(rows, dense)}
    assert kronecker_apply(factor, b, x) == want


def test_kronecker_system_requires_total_rhs():
    factor = VandermondeFactor(1)
    total = {(ell,): F(ell) for ell in range(1, 9)}
    with pytest.raises(ValueError, match="cover"):  # a missing key
        kronecker_solve(factor, 1, {(1,): F(1)})
    with pytest.raises(ValueError, match="cover"):  # an extra key
        kronecker_solve(factor, 1, {**total, (9,): F(1)})
    off_grid = dict(total)
    del off_grid[(8,)]
    off_grid[(0,)] = F(1)
    with pytest.raises(ValueError, match="cover"):  # a key outside the grid
        kronecker_solve(factor, 1, off_grid)
    with pytest.raises(ValueError, match="non-negative"):
        kronecker_solve(factor, -1, {(): F(1)})


def test_kronecker_roundtrip_d2_b2_integer_census():
    rng = random.Random(4)
    factor = VandermondeFactor(2)
    x = {key: 0 for key in product(factor.taus, repeat=2)}
    for _ in range(6):
        x[(rng.choice(factor.taus), rng.choice(factor.taus))] += rng.randint(1, 9)
    rhs = kronecker_apply(factor, 2, x)
    assert all(type(v) is int for v in rhs.values())
    solution = kronecker_solve(factor, 2, rhs)
    assert solution == x
    assert all(v.denominator == 1 for v in solution.values())


def test_kronecker_solve_rational_rhs():
    factor = VandermondeFactor(1)
    rhs = {(ell,): F(ell * ell - 3, 7) for ell in range(1, factor.size + 1)}
    solution = kronecker_solve(factor, 1, rhs)
    inverse = exact_inverse(factor.matrix())
    for j, tau in enumerate(factor.taus):
        assert solution[(tau,)] == sum(inverse[j][ell - 1] * rhs[(ell,)] for ell in range(1, factor.size + 1))
    assert any(v.denominator != 1 for v in solution.values())
    assert kronecker_apply(factor, 1, solution) == rhs


def test_kronecker_solve_rational_rhs_two_modes():
    # b = 2 with a non-integer rhs, so the second mode's fibers are
    # fractions; the reference is the Gauss-Jordan inverse of the dense
    # Kronecker square, rows over (tau_1, tau_2), columns over (ell_1, ell_2)
    factor = VandermondeFactor(1)
    grid = list(product(range(1, factor.size + 1), repeat=2))
    rhs = {ells: F(ells[0] * ells[0] - 3 * ells[1], 7) for ells in grid}
    solution = kronecker_solve(factor, 2, rhs)
    inverse = exact_inverse(kron(factor.matrix(), factor.matrix()))
    want = {
        key: sum(map(mul, row, (rhs[ells] for ells in grid)))
        for key, row in zip(product(factor.taus, repeat=2), inverse)
    }
    assert solution == want
    assert any(v.denominator != 1 for v in solution.values())
    assert kronecker_apply(factor, 2, solution) == rhs
