"""Enumeration kernels: the bitsliced subset scans against plain loops over
every subset, plus known values and edge cases."""

import random

import pytest

from polycount import kernels

# n above 16 runs the loop over the items above the 16-bit truth tables; the
# constraint loop below costs about 10 us per assignment, so it stops at 18
SIZES = list(range(0, 21))
CSP_SIZES = list(range(0, 19))


def random_adj(rng, n, p=0.4):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def edge_masks(adj):
    return {(1 << u) | (1 << v) for u in range(len(adj)) for v in range(len(adj)) if (adj[u] >> v) & 1}


def test_active_backend_exposed():
    assert kernels.BACKEND == "pure"


@pytest.mark.parametrize("n", SIZES)
def test_vertex_cover_scan_matches_loop(n):
    rng = random.Random(n)
    adj = random_adj(rng, n, rng.random())
    required = rng.getrandbits(n) & rng.getrandbits(n)
    forbidden = rng.getrandbits(n) & rng.getrandbits(n) & ~required
    edges = edge_masks(adj)
    expected = sum(
        s & required == required and not s & forbidden and all(s & e for e in edges) for s in range(1 << n)
    )
    assert kernels.count_vertex_covers(n, adj, required, forbidden) == expected


@pytest.mark.parametrize("n", SIZES)
def test_independent_set_scan_matches_loop(n):
    rng = random.Random(100 + n)
    adj = random_adj(rng, n, rng.random())
    edges = edge_masks(adj)
    expected = sum(all(s & e != e for e in edges) for s in range(1 << n))
    assert kernels.count_independent_sets(n, adj) == expected


@pytest.mark.parametrize("n", CSP_SIZES)
def test_csp_scan_matches_loop(n):
    rng = random.Random(200 + n)
    relmasks, scopes = [], []
    for arity in range(1, min(n, 8) + 1):
        # dense relations, so that most assignments stay alive to the last one
        relmasks.append(rng.getrandbits(1 << arity) | rng.getrandbits(1 << arity))
        scopes.append([rng.randrange(n) for _ in range(arity)])

    def index(s, scope):
        return sum(((s >> v) & 1) << (len(scope) - 1 - i) for i, v in enumerate(scope))

    expected = sum(
        all((r >> index(s, scope)) & 1 for r, scope in zip(relmasks, scopes)) for s in range(1 << n)
    )
    assert kernels.count_csp_models(n, relmasks, scopes) == expected


def test_edge_cases():
    assert kernels.count_vertex_covers(0, []) == 1
    assert kernels.count_independent_sets(0, []) == 1
    assert kernels.count_perfect_matchings(0, []) == 1
    assert kernels.count_perfect_matchings(3, [0, 0, 0]) == 0
    assert kernels.forest_label_profile(3, [], [], []) == {(): 1}
    assert kernels.count_csp_models(2, [], []) == 4
    # a vertex pair with no edges: every subset is everything
    assert kernels.count_vertex_covers(2, [0, 0]) == 4
    assert kernels.count_independent_sets(2, [0, 0]) == 4
    # a vertex both required and forbidden, or required past n, admits nothing
    assert kernels.count_vertex_covers(2, [0, 0], required=0b01, forbidden=0b01) == 0
    assert kernels.count_vertex_covers(2, [0, 0], required=0b100) == 0


def test_size_guard():
    with pytest.raises(ValueError):
        kernels.count_independent_sets(31, [0] * 31)


def test_profile_table_cap():
    # 25 edges with distinct labels need 2^25 profile cells, over the 2^24 cap;
    # the refusal comes before the table is allocated
    with pytest.raises(ValueError, match="profile table would need 33554432 cells"):
        kernels.forest_label_profile(2, [0] * 25, [1] * 25, list(range(25)))


def test_known_counts():
    # triangle: adj masks
    adj = [0b110, 0b101, 0b011]
    assert kernels.count_independent_sets(3, adj) == 4
    assert kernels.count_vertex_covers(3, adj) == 4
    assert kernels.count_perfect_matchings(3, adj) == 0
    profile = kernels.forest_label_profile(3, [0, 1, 0], [1, 2, 2], [0, 0, 0])
    assert profile == {(0,): 1, (1,): 3, (2,): 3}
