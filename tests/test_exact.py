import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gibbs_tv import exact as exact_mod
from gibbs_tv.counting import CounterConfig, approx_count
from gibbs_tv.errors import InputError, TooLargeError
from gibbs_tv.exact import (
    count_via_tv_queries,
    deg2_partition,
    deg2_plus_marginal,
    distribution,
    exact_marginal_tv,
    exact_partition,
    exact_tv,
    support_configs,
    _all_configs,
    _row_patterns,
)
from gibbs_tv.estimators import _project_unique
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel
from gibbs_tv.sampling import Sampler, SamplerConfig


def test_exact_partition_examples():
    assert math.exp(exact_partition(HardcoreModel(Graph(1), [2.0]))) == pytest.approx(3.0)
    p3 = HardcoreModel(path_graph(3), [1.0] * 3)
    assert math.exp(exact_partition(p3)) == pytest.approx(5.0)
    ising1 = IsingModel(Graph(1), {}, [0.0])
    assert math.exp(exact_partition(ising1)) == pytest.approx(2.0)


def test_exact_partition_cap():
    with pytest.raises(TooLargeError):
        exact_partition(HardcoreModel(Graph(25), np.ones(25)), cap=20)


def test_enumeration_past_max_draws_is_refused(monkeypatch):
    """An Ising enumeration of more than MAX_DRAWS rows (2^26 and 2^64 here)
    is refused by every enumerating oracle before its rows are allocated;
    a hardcore one once its independent sets pass the limit."""
    for n in (26, 64):
        g = path_graph(n)
        mu = IsingModel(g, {e: 0.1 for e in g.edges}, np.zeros(n))
        nu = IsingModel(g, {e: 0.2 for e in g.edges}, np.zeros(n))
        for run in (lambda: support_configs(mu, cap=n),
                    lambda: distribution(mu, cap=n),
                    lambda: exact_tv(mu, nu, cap=n),
                    lambda: exact_marginal_tv(mu, nu, [0, 1], cap=n),
                    lambda: Sampler(mu, cfg=SamplerConfig(exact_fallback_cap=n)),
                    lambda: approx_count(mu, 0.1, CounterConfig(exact_fallback_cap=n),
                                         np.random.default_rng(0))):
            with pytest.raises(TooLargeError, match="exact enumeration needs"):
                run()
    # at a limit of 32 rows, 5 free Ising vertices pass and 6 are refused
    monkeypatch.setattr(exact_mod, "MAX_DRAWS", 32)
    g = path_graph(6)
    ising = IsingModel(g, {e: 0.1 for e in g.edges}, np.zeros(6))
    assert len(support_configs(ising, {0: 1})) == 32
    with pytest.raises(TooLargeError, match="exact enumeration needs"):
        support_configs(ising)
    # the 8-path has 55 independent sets, the 7-path 34, the 6-path 21
    assert len(support_configs(HardcoreModel(g, np.ones(6)))) == 21
    with pytest.raises(TooLargeError, match="more than 32 rows"):
        support_configs(HardcoreModel(path_graph(7), np.ones(7)))
    monkeypatch.setattr(exact_mod, "MAX_DRAWS", 34)
    assert len(support_configs(HardcoreModel(path_graph(7), np.ones(7)))) == 34
    with pytest.raises(TooLargeError, match="more than 34 rows"):
        exact_tv(HardcoreModel(path_graph(8), np.ones(8)),
                 HardcoreModel(path_graph(8), np.full(8, 2.0)))


def _bit_matrix_configs(n, pins):
    """The rows _all_configs wrote from a (2^k, k) int64 bit matrix."""
    free = [v for v in range(n) if pins[v] == 0]
    k = len(free)
    configs = np.tile(pins, (1 << k, 1)).astype(np.int8)
    if k:
        bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
        configs[:, free] = (2 * bits - 1).astype(np.int8)
    return configs


def test_all_configs_writes_its_rows_in_place(rng):
    """The rows are those of the bit-matrix formula at every k 0-10, pinned
    or not, and building 2^18 rows peaks at no more than 3x their bytes."""
    for n in range(11):
        for pins in (np.zeros(n, dtype=np.int8),
                     rng.choice(np.array([-1, 0, 0, 1], dtype=np.int8), n)):
            rows = _all_configs(n, pins)
            assert rows.dtype == np.int8 and np.array_equal(rows, _bit_matrix_configs(n, pins))
    tracemalloc.start()
    try:
        rows = _all_configs(18, np.zeros(18, dtype=np.int8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (1 << 18, 18) and peak <= 3 * rows.nbytes


def test_ising_support_enumerates_free_spins_only(rng):
    """A spin fixed by an infinite field is enumerated at that spin only:
    the distribution is the one filtered from every +-1 row, with its rows
    in the same order, and a pin against a forced spin leaves none."""
    for _ in range(20):
        n = int(rng.integers(1, 8))
        g = random_graph(n, 0.4, rng)
        h = np.where(rng.random(n) < 0.3, rng.choice([-math.inf, math.inf], n),
                     rng.uniform(-1.0, 1.0, n))
        model = IsingModel(g, {e: float(rng.uniform(-1.0, 1.0)) for e in g.edges}, h)
        pins = rng.choice(np.array([-1, 0, 0, 0, 1], dtype=np.int8), n)
        pin = {v: int(pins[v]) for v in range(n) if pins[v]}
        every = _all_configs(n, pins)
        logw = model.log_weight_batch(every)
        want = every[logw > -math.inf]
        dist = distribution(model, pin)
        assert np.array_equal(dist.configs, want)
        free = np.sum((pins == 0) & (model.forced == 0))
        clash = np.any(pins * model.forced == -1)
        assert len(support_configs(model, pin)) == (0 if clash else 2**free)
        if len(want):
            assert dist.log_weights == pytest.approx(logw[logw > -math.inf], rel=1e-12)
            assert dist.log_z == pytest.approx(float(np.logaddexp.reduce(dist.log_weights)))
            assert np.allclose(dist.log_probs, dist.log_weights - dist.log_z)
        else:
            assert dist.log_z == -math.inf


def test_conditional_partition():
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    assert distribution(edge, None).log_z == exact_partition(edge)
    assert math.exp(distribution(edge, {0: 1}).log_z) == pytest.approx(1.0)
    assert distribution(edge, {0: 1, 1: 1}).log_z == -math.inf


def test_distribution_probabilities_sum_to_one(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        g = random_graph(n, 0.4, rng)
        model = HardcoreModel(g, rng.uniform(0.1, 2, n))
        dist = distribution(model)
        assert math.fsum(np.exp(dist.log_probs).tolist()) == pytest.approx(1.0, abs=1e-10)


def test_hardcore_support_rows_and_order(rng):
    """Every configuration the pins and zero fields allow whose +1 set is
    independent, once, in exclude-first order over the free vertices (the
    enumeration sampler indexes these rows with its random draws)."""
    for _ in range(40):
        n = int(rng.integers(0, 9))
        g = random_graph(n, 0.4, rng)
        lam = np.where(rng.random(n) < 0.2, 0.0, 1.0)
        pins = rng.choice(np.array([-1, 0, 0, 0, 1], dtype=np.int8), n)
        free = [v for v in range(n) if pins[v] == 0]
        want = sorted(
            (
                c for c in _all_configs(n, pins)
                if g.is_independent_set(np.flatnonzero(c > 0))
                and not np.any((c > 0) & (lam == 0) & (pins == 0))
            ),
            key=lambda c: tuple(c[free] > 0),
        )
        pin = {v: int(pins[v]) for v in range(n) if pins[v]}
        rows = support_configs(HardcoreModel(g, lam), pin)
        assert rows.dtype == np.int8 and rows.shape == (len(want), n)
        assert all(np.array_equal(r, w) for r, w in zip(rows, want))


def test_exact_tv_examples():
    a = HardcoreModel(Graph(1), [1.0])
    assert exact_tv(a, a) == 0.0
    b = HardcoreModel(Graph(1), [3.0])
    assert exact_tv(a, b) == pytest.approx(0.25)


def test_exact_tv_properties(rng):
    g = random_graph(5, 0.4, rng)
    models = [HardcoreModel(g, rng.uniform(0.1, 2, 5)) for _ in range(3)]
    a, b, c = models
    ab, ba = exact_tv(a, b), exact_tv(b, a)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0 <= ab <= 1
    assert exact_tv(a, c) <= ab + exact_tv(b, c) + 1e-12


def test_exact_marginal_tv():
    g = path_graph(3)
    mu = HardcoreModel(g, [1.0, 1.0, 1.0])
    nu = HardcoreModel(g, [1.0, 2.0, 1.0])
    assert exact_marginal_tv(mu, nu, range(3)) == pytest.approx(exact_tv(mu, nu))
    assert exact_marginal_tv(mu, nu, []) == 0.0
    edge = Graph(2, [(0, 1)])
    em = HardcoreModel(edge, [1.0, 1.0])
    en = HardcoreModel(edge, [1.0, 2.0])
    # single-vertex marginal TV equals the difference of + marginals
    pm = 1.0 / 3.0  # P(v0 = +) under lambda = (1,1): weights 1,1,1
    pn = 1.0 / 4.0  # under (1,2): Z = 4, only {v0} has v0 = +
    assert exact_marginal_tv(em, en, [0]) == pytest.approx(abs(pm - pn))


def test_row_patterns_match_np_unique(rng):
    """The packed-bits helper reproduces np.unique(axis=0): the same patterns
    in the same order, the same inverse and counts, at any width."""
    for k in (1, 5, 63, 70):
        pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(30, k + 4))
        xs = pool[rng.integers(0, len(pool), size=500)]
        cols = [int(c) for c in rng.permutation(k + 4)[:k]]
        want = np.unique(xs[:, cols], axis=0, return_inverse=True, return_counts=True)
        got = _row_patterns(xs, cols)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    # zero columns: one empty pattern that holds every row
    xs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(7, 3))
    want = np.unique(xs[:, []], axis=0, return_inverse=True, return_counts=True)
    for g, w in zip(_row_patterns(xs, []), want):
        assert g.shape == w.shape and np.array_equal(g, w)
    plus_sets, counts = _project_unique(xs, ())
    assert plus_sets == [()] and list(counts) == [7]


def test_row_patterns_weighted_counts(rng):
    """With row weights, each pattern's count is the count it has among the
    rows repeated that many times; patterns and their order are unchanged."""
    pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 9))
    weights = rng.integers(1, 6, size=len(pool))
    cols = [7, 0, 3, 4]
    patterns, inverse, counts = _row_patterns(pool, cols, weights)
    want = _row_patterns(np.repeat(pool, weights, axis=0), cols)
    assert np.array_equal(patterns, want[0]) and np.array_equal(counts, want[2])
    assert np.array_equal(patterns[inverse], pool[:, cols])
    plus_sets, counts = _project_unique(pool, (2, 5), weights)
    assert sum(counts) == weights.sum() and len(plus_sets) == len(set(plus_sets))


def test_exact_marginal_tv_monotone(rng):
    g = random_graph(6, 0.4, rng)
    mu = HardcoreModel(g, rng.uniform(0.2, 1.5, 6))
    nu = HardcoreModel(g, rng.uniform(0.2, 1.5, 6))
    prev = 0.0
    subset: list[int] = []
    for v in rng.permutation(6):
        subset.append(int(v))
        cur = exact_marginal_tv(mu, nu, subset)
        assert cur >= prev - 1e-12
        prev = cur


def test_ising_infinite_fields_in_exact_tv():
    g = Graph(2, [(0, 1)])
    j = {(0, 1): 0.4}
    mu = IsingModel(g, j, [math.inf, 0.0])
    nu = IsingModel(g, j, [-math.inf, 0.0])
    assert exact_tv(mu, nu) == pytest.approx(1.0)


def test_deg2_transfer_matrix(rng):
    # paths, cycles, and disjoint unions against enumeration
    for g in [path_graph(1), path_graph(2), path_graph(5), cycle_graph(3),
              cycle_graph(6), Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])]:
        lam = rng.uniform(0.2, 2.0, g.n)
        model = HardcoreModel(g, lam)
        assert deg2_partition(g, lam) == pytest.approx(
            math.exp(exact_partition(model)), rel=1e-12
        )
        for v in range(g.n):
            dist = distribution(model)
            truth = math.fsum(
                np.exp(dist.log_probs[dist.configs[:, v] > 0]).tolist()
            )
            assert deg2_plus_marginal(g, lam, v) == pytest.approx(truth, abs=1e-12)


def test_deg2_at_any_size():
    """At lambda 1, Z is the Fibonacci number F(n+2) on a path of n vertices
    and the Lucas number L(n) on a cycle.  Past the largest double Z is inf,
    and a marginal still tends to the infinite line's (5 - sqrt 5)/10."""
    fib = [0, 1]
    while len(fib) < 1003:
        fib.append(fib[-1] + fib[-2])
    for n in (10, 500, 1000):
        ones = np.ones(n)
        lucas = fib[n - 1] + fib[n + 1]
        assert deg2_partition(path_graph(n), ones) == pytest.approx(fib[n + 2], rel=1e-12)
        assert deg2_partition(cycle_graph(n), ones) == pytest.approx(lucas, rel=1e-12)
        # v is in the set iff its two neighbours are not: a path of n - 3 left
        assert deg2_plus_marginal(cycle_graph(n), ones, 0) == pytest.approx(
            float(Fraction(fib[n - 1], lucas)), rel=1e-12)
    limit = (5 - math.sqrt(5)) / 10
    for g in (path_graph(3000), cycle_graph(3000)):
        ones = np.ones(g.n)
        assert deg2_partition(g, ones) == math.inf
        assert deg2_plus_marginal(g, ones, 1500) == pytest.approx(limit, abs=1e-12)


def test_deg2_requires_low_degree():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError):
        deg2_partition(star, np.ones(4))


def test_count_via_tv_queries_examples():
    assert count_via_tv_queries(Graph(1)) == 2
    assert count_via_tv_queries(path_graph(3)) == 5
    assert count_via_tv_queries(cycle_graph(3)) == 4
    # K4 has max degree 3: 1 + 4 independent sets
    assert count_via_tv_queries(Graph(4, itertools.combinations(range(4), 2))) == 5
    with pytest.raises(InputError):
        count_via_tv_queries(Graph(5, itertools.combinations(range(5), 2)))


def test_count_via_tv_queries_matches_enumeration(rng):
    for _ in range(5):
        while True:
            g = random_graph(int(rng.integers(4, 7)), 0.35, rng)
            if g.max_degree() <= 3:
                break
        truth = len(support_configs(HardcoreModel(g, np.ones(g.n))))
        assert count_via_tv_queries(g) == truth
