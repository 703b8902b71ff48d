import math

import numpy as np
import pytest

from gibbs_tv.counting import (
    CounterConfig,
    approx_count,
    conditional_count,
    counts_exactly,
    num_levels,
    _level_model,
)
from gibbs_tv.errors import InputError, MustPreprocessError, TooLargeError
from gibbs_tv.exact import distribution, exact_partition
from gibbs_tv.graph import Graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel
from gibbs_tv.sampling import Sampler, SamplerConfig

EXACT_SAMPLER = SamplerConfig(exact_fallback_cap=20)


def test_trivial_models_counted_exactly(rng):
    zero = HardcoreModel(path_graph(3), np.zeros(3))
    assert approx_count(zero, 0.1, rng=rng) == 0.0
    free = IsingModel(Graph(3), {}, np.zeros(3))
    est = approx_count(free, 0.1, CounterConfig(boost_repeats=1), rng, EXACT_SAMPLER)
    assert math.exp(est) == pytest.approx(8.0, rel=1e-12)


def test_exact_shortcut():
    model = HardcoreModel(path_graph(4), np.full(4, 0.9))
    cfg = CounterConfig(exact_fallback_cap=10)
    assert counts_exactly(model, cfg)
    got = approx_count(model, 0.3, cfg, np.random.default_rng(0))
    assert got == exact_partition(model)


def test_approx_count_p3(rng):
    model = HardcoreModel(path_graph(3), np.ones(3))
    cfg = CounterConfig(boost_repeats=3)
    hits = 0
    for child in rng.spawn(20):
        z = math.exp(approx_count(model, 0.1, cfg, child, EXACT_SAMPLER))
        hits += 4.5 <= z <= 5.5
    assert hits >= 18


def test_approx_count_rejects_bad_input(rng):
    model = IsingModel(Graph(1), {}, [math.inf])
    with pytest.raises(MustPreprocessError):
        approx_count(model, 0.1, rng=rng)
    with pytest.raises(InputError):
        approx_count(HardcoreModel(Graph(1), [1.0]), 1.5, rng=rng)


def test_approx_count_refuses_astronomic_draws(monkeypatch):
    """Draws per level above MAX_DRAWS, or a 1/eps^2 that underflows to a
    division by zero, fail with TooLargeError before any chain step."""

    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(Sampler, "sample_batch", no_chains)
    model = HardcoreModel(path_graph(4), np.ones(4))
    for eps in (1e-4, 1e-12, 1e-200):
        with pytest.raises(TooLargeError):
            approx_count(model, eps, CounterConfig(), np.random.default_rng(0))


def test_conditional_count(rng):
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    cfg = CounterConfig(boost_repeats=1)
    est = conditional_count(edge, {0: 1}, 0.1, cfg, rng, EXACT_SAMPLER)
    assert math.exp(est) == pytest.approx(1.0, rel=1e-9)
    # fully pinned: exact log-weight, no sampling at all
    full = conditional_count(edge, {0: 1, 1: -1}, 0.1, cfg, rng, EXACT_SAMPLER)
    assert full == pytest.approx(0.0)
    # infeasible: deterministic -inf
    assert conditional_count(edge, {0: 1, 1: 1}, 0.1, cfg, rng) == -math.inf
    # empty pinning matches plain counting
    got = conditional_count(edge, {}, 0.1, CounterConfig(exact_fallback_cap=5),
                            rng, EXACT_SAMPLER)
    assert got == exact_partition(edge)


def test_telescoping_identity_exact_expectations(rng):
    """Product of exact per-level reverse-ratio expectations telescopes to Z."""
    for model in [
        HardcoreModel(random_graph(6, 0.4, rng), rng.uniform(0.2, 1.5, 6)),
        IsingModel(
            random_graph(5, 0.4, rng),
            {},
            rng.uniform(-0.8, 0.8, 5),
        ),
    ]:
        cfg = CounterConfig()
        ell = num_levels(model, cfg)
        log_base = 0.0 if model.kind == "hardcore" else model.n * math.log(2)
        log_z = log_base
        for i in range(1, ell + 1):
            level = _level_model(model, i / ell)
            prev = _level_model(model, (i - 1) / ell)
            dist = distribution(level)
            lw_prev = prev.log_weight_batch(dist.configs)
            lw_cur = level.log_weight_batch(dist.configs)
            ratios = np.where(
                np.isneginf(lw_prev), 0.0, np.exp(lw_prev - lw_cur)
            )
            expectation = float(np.exp(dist.log_probs) @ ratios)
            log_z -= math.log(expectation)
        assert log_z == pytest.approx(exact_partition(model), abs=1e-10)


def test_conditional_count_empty_pin_matches_plain():
    """Identical seeds: the empty pinning takes the same code path and
    returns the same estimate as plain counting."""
    model = HardcoreModel(path_graph(4), np.full(4, 0.8))
    cfg = CounterConfig(boost_repeats=2)
    a = conditional_count(model, {}, 0.2, cfg, np.random.default_rng(3), EXACT_SAMPLER)
    b = approx_count(model, 0.2, cfg, np.random.default_rng(3), EXACT_SAMPLER)
    assert a == b
