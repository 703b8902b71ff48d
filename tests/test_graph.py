import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_tv.errors import InputError
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph(-1)


def test_max_degree():
    assert Graph(0).max_degree() == 0
    assert path_graph(3).max_degree() == 2
    assert cycle_graph(3).max_degree() == 2
    assert Graph(5, itertools.combinations(range(5), 2)).max_degree() == 4


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(2, 0), (3, 1), (0, 3), (0, 1)])
    for v in range(4):
        neigh = g.neighbors(v)
        assert list(neigh) == sorted(neigh)
        for u in neigh:
            assert v in g.neighbors(int(u))
    assert g.max_degree() == max(len(g.neighbors(v)) for v in range(4))


def test_is_independent_set():
    g = path_graph(3)
    assert g.is_independent_set([])
    assert g.is_independent_set([0, 2])
    assert not Graph(2, [(0, 1)]).is_independent_set([0, 1])


def test_induced_subgraph_examples():
    tri = cycle_graph(3)
    sub, relabel = tri.induced_subgraph([0, 1, 2])
    assert sub == tri and relabel == {0: 0, 1: 1, 2: 2}
    sub, _ = tri.induced_subgraph([0, 2])
    assert sub.n == 2 and sub.m == 1
    sub, _ = path_graph(3).induced_subgraph([0, 2])
    assert sub.n == 2 and sub.m == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_induced_subgraph_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(n, 0.4, rng)
    keep = [v for v in range(n) if rng.random() < 0.6]
    sub, relabel = g.induced_subgraph(keep)
    assert sorted(relabel) == sorted(keep)
    back = {new: old for old, new in relabel.items()}
    restricted = {
        (min(u, v), max(u, v))
        for u, v in g.edges
        if u in relabel and v in relabel
    }
    mapped_back = {
        (min(back[a], back[b]), max(back[a], back[b])) for a, b in sub.edges
    }
    assert mapped_back == restricted


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_independent_set_matches_edge_scan(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(n, 0.5, rng)
    s = {v for v in range(n) if rng.random() < 0.5}
    expected = all(not (u in s and v in s) for u, v in g.edges)
    assert g.is_independent_set(s) == expected


def brute_force_independent_sets(g, vertices, max_size=None):
    """Every subset of ``vertices`` that is independent and small enough,
    sorted by binary value with the lowest vertex as the most significant bit."""
    order = sorted(vertices)
    k = len(order)
    sets = []
    for bits in range(1 << k):
        s = tuple(v for i, v in enumerate(order) if bits >> (k - 1 - i) & 1)
        if g.is_independent_set(s) and (max_size is None or len(s) <= max_size):
            sets.append(s)
    return sets


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10**6))
def test_independent_sets_match_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(n, float(rng.uniform(0.1, 0.7)), rng)
    vertices = [v for v in range(n) if rng.random() < 0.8]
    assert list(g.independent_sets(vertices)) == brute_force_independent_sets(g, vertices)
    for t in range(4):
        assert list(g.independent_sets(vertices, t)) == brute_force_independent_sets(
            g, vertices, t
        )


def test_independent_sets_examples():
    assert list(Graph(0).independent_sets([])) == [()]
    assert list(path_graph(3).independent_sets([])) == [()]
    assert list(path_graph(3).independent_sets([2, 0, 1], 0)) == [()]
    # exclude-first order, duplicates and input order ignored
    assert list(path_graph(3).independent_sets([2, 0, 1, 0])) == [
        (), (2,), (1,), (0,), (0, 2)
    ]
    with pytest.raises(InputError):
        list(path_graph(3).independent_sets([3]))
