import random

import pytest

from polycount import (
    BooleanRelation,
    CspInstance,
    classify,
    count_affine,
    count_bruteforce,
    imp2sat_from_bipartite,
    is_affine,
    is_bruteforce,
    named_graph,
    pos2sat_from_graph,
    vc_bruteforce,
)
from polycount.csp import (
    IMPLIES,
    OR2,
    PARITY3,
    instance_from_json,
    relation_equations,
    relations_from_json,
)
from polycount.verify import (
    _achievable_solution_sets,
    _random_affine_relation,
    random_bipartite_graph,
    random_simple_graph,
)


def test_is_affine_examples():
    assert is_affine(PARITY3)
    assert not is_affine(OR2)  # 01 ^ 10 ^ 11 = 00, absent
    assert not is_affine(IMPLIES)  # 00 ^ 01 ^ 11 = 10, absent


def test_is_affine_empty_and_full():
    assert is_affine(BooleanRelation(2, frozenset()))
    assert is_affine(BooleanRelation.from_bitstrings(2, ["00", "01", "10", "11"]))
    assert is_affine(BooleanRelation.from_bitstrings(1, ["1"]))


def test_is_affine_matches_exhaustive_search():
    for arity in (1, 2, 3):
        achievable = _achievable_solution_sets(arity)
        for bits in range(1 << (1 << arity)):
            tuples = frozenset(
                tuple((a >> pos) & 1 for pos in range(arity))
                for a in range(1 << arity)
                if (bits >> a) & 1
            )
            r = BooleanRelation(arity, tuples)
            masks = frozenset(sum(b << pos for pos, b in enumerate(t)) for t in r.tuples)
            assert is_affine(r) == (masks in achievable)


def test_relation_equations_recover_affine_relations():
    rng = random.Random(17)
    for _ in range(40):
        r = _random_affine_relation(rng, rng.randint(1, 3))
        eqs = relation_equations(r)
        solutions = set()
        for a in range(1 << r.arity):
            if all((bin(a & mask).count("1") & 1) == rhs for mask, rhs in eqs):
                solutions.add(tuple((a >> pos) & 1 for pos in range(r.arity)))
        assert solutions == set(r.tuples)


def test_count_affine_examples():
    xor = BooleanRelation.from_bitstrings(2, ["01", "10"])
    inst = CspInstance(2, (xor,), ((0, (0, 1)),))
    assert count_affine(inst) == 2

    zero = BooleanRelation.from_bitstrings(1, ["0"])
    one = BooleanRelation.from_bitstrings(1, ["1"])
    contradiction = CspInstance(1, (zero, one), ((0, (0,)), (1, (0,))))
    assert count_affine(contradiction) == 0

    free = CspInstance(3, (), ())
    assert count_affine(free) == 8


def test_count_affine_rejects_non_affine():
    inst = CspInstance(2, (OR2,), ((0, (0, 1)),))
    with pytest.raises(ValueError):
        count_affine(inst)


def test_count_bruteforce_examples():
    assert count_bruteforce(pos2sat_from_graph(named_graph("k3"))) == 4
    assert count_bruteforce(imp2sat_from_bipartite(named_graph("k2"))) == 3
    parity = CspInstance(3, (PARITY3,), ((0, (0, 1, 2)),))
    assert count_bruteforce(parity) == count_affine(parity) == 4


def _weight_relation(arity, weights):
    """All tuples of the given arity whose number of ones is in weights."""
    strings = [format(t, f"0{arity}b") for t in range(1 << arity)]
    return BooleanRelation.from_bitstrings(arity, [s for s in strings if s.count("1") in weights])


def test_count_bruteforce_wide_relations():
    or7 = _weight_relation(7, range(1, 8))
    exactly_one8 = _weight_relation(8, {1})
    # at least one of seven variables set: 2^7 - 1
    assert count_bruteforce(CspInstance(7, (or7,), ((0, tuple(range(7))),))) == 127
    # exactly one of variables 1..8 set, variable 0 free: 8 * 2
    assert count_bruteforce(CspInstance(9, (exactly_one8,), ((0, tuple(range(1, 9))),))) == 16
    # both, overlapping on variables 1..6: exactly one of 1..8 set, and it is
    # one of 1..6 unless variable 0 is set (6 + 8)
    both = CspInstance(9, (or7, exactly_one8), ((0, tuple(range(7))), (1, tuple(range(1, 9)))))
    assert count_bruteforce(both) == 14


def test_count_affine_matches_bruteforce_random():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 10)
        rels = tuple(_random_affine_relation(rng, rng.randint(1, 3)) for _ in range(2))
        cons = []
        for _ in range(rng.randint(0, 5)):
            rid = rng.randrange(2)
            k = rels[rid].arity
            if k <= n:
                cons.append((rid, tuple(rng.sample(range(n), k))))
        inst = CspInstance(n, rels, tuple(cons))
        assert count_affine(inst) == count_bruteforce(inst)


def test_imp2sat_examples():
    from polycount import Edge, Multigraph

    assert count_bruteforce(imp2sat_from_bipartite(named_graph("k2"))) == 3
    assert count_bruteforce(imp2sat_from_bipartite(named_graph("c4"))) == 7
    star = Multigraph(4, [Edge(0, i) for i in (1, 2, 3)])
    assert count_bruteforce(imp2sat_from_bipartite(star)) == 9


def test_imp2sat_rejects_odd_cycles():
    with pytest.raises(ValueError):
        imp2sat_from_bipartite(named_graph("k3"))


def test_imp2sat_matches_is_randomly():
    rng = random.Random(41)
    for _ in range(30):
        g = random_bipartite_graph(rng)
        assert count_bruteforce(imp2sat_from_bipartite(g)) == is_bruteforce(g)


def test_pos2sat_examples():
    assert count_bruteforce(pos2sat_from_graph(named_graph("k2"))) == 3
    assert count_bruteforce(pos2sat_from_graph(named_graph("k3"))) == 4
    from polycount import Multigraph

    edgeless = Multigraph(2, [])
    assert count_bruteforce(pos2sat_from_graph(edgeless)) == 4


def test_pos2sat_matches_vc_randomly():
    rng = random.Random(43)
    for _ in range(30):
        g = random_simple_graph(rng, 2, 10, 16)
        assert count_bruteforce(pos2sat_from_graph(g)) == vc_bruteforce(g)


def test_classify():
    assert classify([PARITY3]).all_affine
    result = classify([PARITY3, OR2])
    assert not result.all_affine
    assert result.witness == OR2
    assert result.size_constant == 2
    assert classify([]).all_affine
    # largest non-affine relation wins the size constant
    or3 = BooleanRelation.from_bitstrings(3, ["001", "010", "100", "011", "101", "110", "111"])
    assert classify([OR2, or3]).size_constant == 3


def test_json_roundtrip():
    inst = CspInstance(3, (OR2, PARITY3), ((0, (0, 1)), (1, (0, 1, 2))))
    data = {
        "relations": [
            {"arity": 2, "tuples": ["01", "10", "11"]},
            {"arity": 3, "tuples": ["000", "110", "101", "011"]},
        ],
        "n": 3,
        "constraints": [[0, [0, 1]], [1, [0, 1, 2]]],
    }
    assert instance_from_json(data) == inst
    gamma = relations_from_json({"relations": [{"arity": 2, "tuples": ["01", "10"]}]})
    assert gamma == [BooleanRelation.from_bitstrings(2, ["01", "10"])]


def test_instance_validation():
    with pytest.raises(ValueError):
        CspInstance(2, (OR2,), ((0, (0, 1, 1)),))  # arity mismatch... length 3
    with pytest.raises(ValueError):
        CspInstance(2, (OR2,), ((0, (0, 5)),))
    with pytest.raises(ValueError):
        CspInstance(2, (OR2,), ((3, (0, 1)),))


def test_bruteforce_budget(monkeypatch):
    from polycount import csp
    from polycount.errors import BudgetError

    inst = CspInstance(25, (), ())
    with pytest.raises(BudgetError):
        count_bruteforce(inst)
    small = CspInstance(4, (), ())
    monkeypatch.setattr(csp, "CSP_VAR_GUARD", 4)
    assert count_bruteforce(small) == 16
    monkeypatch.setattr(csp, "CSP_VAR_GUARD", 3)
    with pytest.raises(BudgetError):
        count_bruteforce(small)
