import math
import time

import numpy as np
import pytest

from gibbs_tv import exact
from gibbs_tv import sampling as sampling_mod
from gibbs_tv.counting import (
    CounterConfig,
    approx_count,
    count_plan,
    num_levels,
    _level_model,
)
from gibbs_tv.cli import main
from gibbs_tv.errors import InputError, MustPreprocessError, TooLargeError
from gibbs_tv.estimators import EstimatorBudget, _Runtime, dispatch_tv
from gibbs_tv.exact import deg2_partition, distribution, exact_partition
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.instances import emit_instance
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
    """An enumerated count runs no chain, so a delta does not repeat it."""
    model = HardcoreModel(path_graph(4), np.full(4, 0.9))
    cfg = CounterConfig(exact_fallback_cap=10)
    plan = count_plan(model, 0.3, cfg, SamplerConfig(), delta=1e-3)
    assert (plan.levels, plan.repeats, plan.chain_steps) == (0, 1, 0)
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
    """Draws per level above MAX_DRAWS, a 1/eps^2 that underflows to a
    division by zero, or a whole count (repeats x levels x draws x steps)
    above MAX_CHAIN_STEPS fail with TooLargeError before any chain step."""

    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(Sampler, "sample_batch", no_chains)
    model = HardcoreModel(path_graph(4), np.ones(4))
    for eps in (1e-4, 1e-12, 1e-200):
        with pytest.raises(TooLargeError, match="draws"):
            approx_count(model, eps, CounterConfig(), np.random.default_rng(0))
    # 1.6e5 draws per level, under MAX_DRAWS, but 9 x 559 levels of them
    long_path = HardcoreModel(path_graph(200), np.ones(200))
    with pytest.raises(TooLargeError, match="chain steps"):
        approx_count(long_path, 0.01, CounterConfig(), np.random.default_rng(0))


def test_whole_count_cost_fails_fast(tmp_path, monkeypatch, capsys):
    """An Ising 4-cycle pair with one pinned vertex, through the
    additive-gated branch at eps 0.3.  At J 0.15, 2.0e7 draws per level
    (under MAX_DRAWS) over 8 levels of 917-step chains is 1.5e11 chain
    steps: without a whole-cost guard this ran for hours.  At J 0.1, mu's
    count alone (7.9e10 steps) passes a per-count guard and ran for minutes
    before nu's was refused.  Both must fail before any chain step, from the
    library and with CLI exit code 4."""

    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(Sampler, "sample_batch", no_chains)
    g = cycle_graph(4)
    budget = EstimatorBudget(
        exact_cap=0, T_override=200, sampler=SamplerConfig(exact_fallback_cap=0),
        counter=CounterConfig(samples_per_level=0.25, boost_repeats=1, exact_fallback_cap=0),
    )
    flags = ["--eps", "0.3", "--exact-cap", "0", "--exact-sampler-cap", "0",
             "--exact-counter-cap", "0", "--samples-per-level", "0.25",
             "--boost-repeats", "1", "--t-override", "200"]
    for coupling in (0.15, 0.1):
        couplings = {e: coupling for e in g.edges}
        mu = IsingModel(g, couplings, [math.inf, 0.0, -0.2, 0.05])
        nu = IsingModel(g, couplings, [math.inf, 0.3, -0.2, 0.05])
        t0 = time.perf_counter()
        with pytest.raises(TooLargeError, match="chain steps"):
            dispatch_tv(mu, nu, 0.3, budget, np.random.default_rng(0))
        paths = []
        for name, model in (("mu", mu), ("nu", nu)):
            paths.append(str(tmp_path / f"{name}.json"))
            (tmp_path / f"{name}.json").write_text(emit_instance(model))
        assert main(["tv", *paths, *flags]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert len(capsys.readouterr().err.splitlines()) == 1


def _runtime(cfg, rng):
    return _Runtime(EstimatorBudget(sampler=EXACT_SAMPLER, counter=cfg), rng)


def test_conditional_count(rng):
    """The estimators' one count path contracts the pinning, then counts."""
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    rt = _runtime(CounterConfig(boost_repeats=1), rng)
    est = rt.count(edge, 0.1, {0: 1})
    assert math.exp(est) == pytest.approx(1.0, rel=1e-9)
    # fully pinned: exact log-weight, no sampling at all
    full = rt.count(edge, 0.1, {0: 1, 1: -1})
    assert full == pytest.approx(0.0)
    # infeasible: deterministic -inf
    assert rt.count(edge, 0.1, {0: 1, 1: 1}) == -math.inf
    assert rt.counter_calls == 3
    # empty pinning matches plain counting
    rt = _runtime(CounterConfig(exact_fallback_cap=5), rng)
    assert rt.count(edge, 0.1, {}) == exact_partition(edge)
    # an exact count is not boosted; a chain-backed one is, 2 ceil(ln 20) + 1 times
    assert rt.count(edge, 0.1, {}, delta=0.05) == exact_partition(edge)
    rt = _runtime(CounterConfig(boost_repeats=1), rng)
    p3 = HardcoreModel(path_graph(3), np.ones(3))
    assert math.exp(rt.count(p3, 0.1, {0: -1}, delta=0.05)) == pytest.approx(3.0, rel=0.1)
    assert rt.counter_calls == 7


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
        ell = num_levels(model)
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
    a = _runtime(cfg, np.random.default_rng(3)).count(model, 0.2, {})
    b = approx_count(model, 0.2, cfg, np.random.default_rng(3), EXACT_SAMPLER)
    assert a == b


@pytest.mark.parametrize("name", ["hardcore-path", "hardcore-cycle", "ising"])
def test_annealing_count_on_chains(monkeypatch, name):
    """With both exact caps at 0 the count runs Glauber chains on every
    level and lands within eps of the exact log Z: transfer matrices on a
    path and a cycle of 16, enumeration on an Ising graph of 10."""
    rng = np.random.default_rng(5)
    if name == "ising":
        g = random_graph(10, 0.3, rng)
        model = IsingModel(g, {e: float(rng.uniform(-0.3, 0.3)) for e in g.edges},
                           rng.uniform(-0.5, 0.5, 10))
        log_z = exact_partition(model)
    else:
        g = path_graph(16) if name == "hardcore-path" else cycle_graph(16)
        lam = rng.uniform(0.3, 1.0, 16)
        model = HardcoreModel(g, lam)
        log_z = math.log(deg2_partition(g, lam))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the count enumerated")

    # chain steps run, as the kernel's chunk entry reports them
    steps = []
    kernel = sampling_mod._kernel
    chunk = kernel.sample_chunk

    def counted_chunk(*args):
        spent, fallbacks = chunk(*args)
        steps.append(spent)
        return spent, fallbacks

    monkeypatch.setattr(exact, "distribution", no_enumeration)
    monkeypatch.setattr(kernel, "sample_chunk", counted_chunk)
    cfg = CounterConfig(samples_per_level=4, boost_repeats=3, exact_fallback_cap=0)
    sampler_cfg = SamplerConfig(exact_fallback_cap=0)
    eps = 0.3
    for seed in (0, 1, 2):
        got = approx_count(model, eps, cfg, np.random.default_rng(seed), sampler_cfg)
        assert abs(got - log_z) <= eps
    assert sum(steps) > 0
