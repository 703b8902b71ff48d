import itertools
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gibbs_tv import estimators as estimators_mod
from gibbs_tv import exact as exact_mod
from gibbs_tv import sampling as sampling_mod
from gibbs_tv.counting import CounterConfig, approx_count, count_plan
from gibbs_tv.errors import GateError, InfeasiblePinningError, InputError, TooLargeError
from gibbs_tv.estimators import (
    EstimatorBudget,
    MetaConditionParams,
    _f_hat_from,
    _field_ratio,
    _ratio_mean,
    _Runtime,
    _tilde_ratio,
    additive_tv,
    advanced_relative_tv,
    basic_relative_tv,
    dispatch_tv,
    eta_truncation_bound,
    marginal_additive_tv,
    meta_condition_params,
    partition_big_small,
    truncated_conditional,
)
from gibbs_tv.exact import distribution, exact_marginal_tv, exact_partition, exact_tv
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel, contract_pinning, marginal_lower_bound
from gibbs_tv.sampling import SamplerConfig
from gibbs_tv.suites import ADVANCED_KAPPA, ADVANCED_THETA
from oracles import (
    big_small_pair,
    exact_big_small,
    exact_w_moments,
    fixed_advanced_pairs,
    fixed_basic_pairs,
    random_soft_pair,
    small_parameter_pair,
)


def adv_budget(**kw):
    defaults = dict(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        kappa_override=ADVANCED_KAPPA,
        theta_override=ADVANCED_THETA,
        override_gates=True,
    )
    defaults.update(kw)
    return EstimatorBudget(**defaults)


def tilde_ratio(mu, nu, part, tcount, rng):
    """advanced_relative_tv's ratio step: Z_nu/Z_mu from tcount big-side samples."""
    return _tilde_ratio(
        mu, nu, part.big, lambda plus: truncated_conditional(mu, nu, part, plus, 4),
        _Runtime(adv_budget(), rng), tcount,
    )


def f_hat(mu, nu, part, r_tilde, plus):
    """advanced_relative_tv's per-pinning TV contribution, truncated at t = 4."""
    tc = truncated_conditional(mu, nu, part, plus, 4)
    return _f_hat_from(tc, _field_ratio(mu, nu, tc.x_plus), r_tilde)


def test_additive_identical_pair(exact_budget, rng):
    m = HardcoreModel(path_graph(3), np.ones(3))
    rep = additive_tv(m, m, 0.1, exact_budget, rng)
    assert rep.error_kind == "additive"
    assert rep.estimate <= 0.1
    assert rep.samples_used == math.ceil(64 / 0.01)


def test_additive_single_vertex_coverage(exact_budget, rng):
    a = HardcoreModel(Graph(1), [1.0])
    b = HardcoreModel(Graph(1), [3.0])
    hits = 0
    for child in rng.spawn(30):
        est = additive_tv(a, b, 0.05, exact_budget, child).estimate
        hits += 0.20 <= est <= 0.30
    assert hits >= 20  # promise is 2/3


def test_additive_ising_four_cycle(exact_budget, rng):
    g = cycle_graph(4)
    j = {e: 0.25 for e in g.edges}
    mu = IsingModel(g, j, [0.0] * 4)
    nu = IsingModel(g, j, [0.5, 0.0, 0.0, 0.0])
    truth = exact_tv(mu, nu)
    hits = 0
    for child in rng.spawn(30):
        est = additive_tv(mu, nu, 0.05, exact_budget, child).estimate
        hits += abs(est - truth) <= 0.05
    assert hits >= 20


def test_ratio_mean_matches_the_formulas_it_replaced():
    """The one statistic ``mean max(0, 1 - W/r)``: with a log r it is the
    additive estimator's former expression, rows with w_mu = 0 giving 0;
    without one it is the basic estimator's ``e_bar / (2 w_bar)``, on draws
    of mu, which never have w_mu = 0."""
    gen = np.random.default_rng(5)
    for _ in range(50):
        lwm, lwn = gen.normal(0.0, 3.0, (2, 300))
        lwn[gen.random(300) < 0.1] = -np.inf
        dead = gen.random(300) < 0.1
        log_zm, log_zn = gen.normal(0.0, 2.0, 2)

        ok = ~dead
        live = ok & (lwn > -np.inf)
        ratio = np.zeros(300)
        ratio[live] = np.exp(lwn[live] - lwm[live] + (log_zm - log_zn))
        additive = float(np.mean(np.where(ok, np.maximum(0.0, 1.0 - ratio), 0.0)))
        got = _ratio_mean(np.where(dead, -np.inf, lwm), lwn, log_r=log_zn - log_zm)
        assert got == pytest.approx(additive, rel=1e-12, abs=0)

        w_hat = np.exp(lwn - lwm)  # 0 where w_nu is 0
        w_bar = float(np.mean(w_hat))
        e_bar = float(np.mean(np.abs(w_hat - w_bar)))
        got = _ratio_mean(lwm, lwn)
        assert got == pytest.approx(e_bar / (2.0 * w_bar), rel=1e-12, abs=0)
    # nu forbids every draw: TV 1, where e_bar / (2 w_bar) divided 0 by 0
    assert _ratio_mean(np.zeros(3), np.full(3, -np.inf)) == 1.0
    # weighted rows are repeated rows
    counts = gen.integers(1, 5, 300)
    assert _ratio_mean(lwm, lwn, counts, 0.3) == pytest.approx(
        _ratio_mean(np.repeat(lwm, counts), np.repeat(lwn, counts), log_r=0.3),
        rel=1e-12, abs=0)


def test_marginal_additive(exact_budget, rng):
    g = path_graph(3)
    mu = HardcoreModel(g, [1.0, 1.0, 1.0])
    nu = HardcoreModel(g, [1.0, 2.0, 1.0])
    assert marginal_additive_tv(mu, nu, [], 0.1, exact_budget, rng).estimate == 0.0
    truth = exact_marginal_tv(mu, nu, [1])
    hits = 0
    for child in rng.spawn(20):
        est = marginal_additive_tv(mu, nu, [1], 0.05, exact_budget, child).estimate
        hits += abs(est - truth) <= 0.05
    assert hits >= 14
    # subset = V statistically matches the full additive estimator
    full = marginal_additive_tv(mu, nu, range(3), 0.1, exact_budget, rng).estimate
    assert abs(full - exact_tv(mu, nu)) <= 0.1


def test_meta_condition_params_formulas():
    g = random_graph(10, 0.3, np.random.default_rng(1))
    mu = HardcoreModel(g, np.full(10, 0.5))
    nu = HardcoreModel(g, np.full(10, 0.5))
    params = meta_condition_params(mu, nu, b=1.0 / 3.0, c_tv_par=1.0 / 27.0)
    assert params.holds and params.L == 2.0
    assert params.K == pytest.approx(3240.0)

    g2 = cycle_graph(4)  # n = 4, m = 4
    j = {e: 0.1 for e in g2.edges}
    a = IsingModel(g2, j, [0.0] * 4)
    params = meta_condition_params(a, a, b=0.5, c_tv_par=1.0 / 8.0)
    assert params.K == pytest.approx(256.0)

    far = HardcoreModel(g, np.full(10, 1.4))
    gate = meta_condition_params(mu, far, b=1.0 / 3.0, c_tv_par=1.0 / 27.0)
    assert not gate.holds and "exceeds" in gate.reason


def test_meta_condition_holds_on_exact_moments():
    """On pairs within the threshold, the (K, L) of meta_condition_params
    hold for the exact weight ratio W: sd(W) <= K TV and E[W] >= 1/L."""
    rng = np.random.default_rng(2)
    seeds = [int(rng.integers(0, 2**31)) for _ in range(30)][24:]
    for i, seed in enumerate(seeds):
        kind = "hardcore" if i % 2 == 0 else "ising"
        mu, nu, _ = small_parameter_pair(np.random.default_rng(seed), kind=kind)
        b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
        params = meta_condition_params(mu, nu, b)
        mom = exact_w_moments(mu, nu)
        assert params.holds, (i, params.reason)
        assert math.sqrt(mom["var_w"]) <= params.K * exact_tv(mu, nu) + 1e-12, i
        assert mom["e_w"] >= 1.0 / params.L, i


def test_basic_relative(exact_budget, rng):
    a = HardcoreModel(Graph(1), [1.0])
    b = HardcoreModel(Graph(1), [1.01])
    bud = EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        T_override=20000,
    )
    b_pair = min(marginal_lower_bound(a).b, marginal_lower_bound(b).b)
    params = meta_condition_params(a, b, b_pair)
    truth = exact_tv(a, b)
    assert truth == pytest.approx(0.01 / 4.02, rel=1e-9)
    hits = 0
    for child in rng.spawn(30):
        est = basic_relative_tv(a, b, 0.2, params, bud, child).estimate
        hits += abs(est - truth) <= 0.2 * truth
    assert hits >= 20

    # identical pair: E-bar is exactly zero
    params_same = meta_condition_params(a, a, marginal_lower_bound(a).b)
    assert basic_relative_tv(a, a, 0.2, params_same, bud, rng).estimate == 0.0

    bad = meta_condition_params(a, HardcoreModel(Graph(1), [3.0]), b_pair)
    with pytest.raises(GateError):
        basic_relative_tv(a, HardcoreModel(Graph(1), [3.0]), 0.2, bad, bud, rng)


def test_basic_relative_refuses_astronomic_draw_counts(rng):
    g = random_graph(6, 0.4, np.random.default_rng(0))
    mu = HardcoreModel(g, np.full(6, 0.4))
    nu = HardcoreModel(g, np.full(6, 0.4 + 1e-6))
    params = meta_condition_params(mu, nu, 0.01)
    with pytest.raises(TooLargeError):
        basic_relative_tv(mu, nu, 0.25, params, EstimatorBudget(), rng)


def _no_call(*args, **kwargs):
    raise AssertionError("called")


CHAINS_ONLY = EstimatorBudget(
    exact_cap=0, sampler=SamplerConfig(exact_fallback_cap=0),
    counter=CounterConfig(exact_fallback_cap=0),
)


def test_basic_relative_on_chains(monkeypatch):
    """The production path: Glauber draws with every exact cap at 0 and no
    counting call, within eps of the exact TV on every fixed basic pair."""
    eps = 0.25
    cases = []
    for mu, nu in fixed_basic_pairs():
        b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
        cases.append((mu, nu, meta_condition_params(mu, nu, b), exact_tv(mu, nu)))
    monkeypatch.setattr(estimators_mod, "approx_count", _no_call)
    budget = replace(CHAINS_ONLY, T_override=1000)
    for idx, (mu, nu, params, truth) in enumerate(cases):
        for rng in np.random.default_rng(idx).spawn(5):
            rep = basic_relative_tv(mu, nu, eps, params, budget, rng)
            assert rep.counter_calls == 0 and rep.samples_used == 1000
            assert abs(rep.estimate - truth) <= eps * truth, (idx, rep.estimate, truth)


def test_basic_relative_refuses_long_batches(monkeypatch):
    """5e7 draws (at MAX_DRAWS) of 1.5e4-step chains on a 30-cycle is 7.7e11
    chain steps: refused before any chain step."""
    g = cycle_graph(30)
    mu = HardcoreModel(g, np.full(30, 0.4))
    nu = HardcoreModel(g, np.full(30, 0.4 + 1e-4))
    params = meta_condition_params(mu, nu, min(marginal_lower_bound(mu).b,
                                               marginal_lower_bound(nu).b))
    assert params.holds
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk", _no_call)
    budget = replace(CHAINS_ONLY, T_override=50_000_000)
    t0 = time.perf_counter()
    with pytest.raises(TooLargeError, match="sample batch"):
        basic_relative_tv(mu, nu, 0.25, params, budget, np.random.default_rng(0))
    assert time.perf_counter() - t0 < 1.0


def test_partition_big_small():
    g = path_graph(4)
    kappa = ADVANCED_KAPPA
    lam_hi = np.full(4, 0.3)
    mu = HardcoreModel(g, lam_hi)
    nu = HardcoreModel(g, lam_hi + 1e-6)
    part = partition_big_small(mu, nu, 0.25, adv_budget())
    assert part.small == () and set(part.big) == set(range(4))

    lam_lo = np.full(4, kappa / 10)
    mu2 = HardcoreModel(g, lam_lo)
    nu2 = HardcoreModel(g, lam_lo + 1e-8)
    part2 = partition_big_small(mu2, nu2, 0.25, adv_budget())
    assert part2.big == () and set(part2.small) == set(range(4))

    mixed = np.array([0.3, kappa / 10, 0.4, kappa / 2])
    mu3 = HardcoreModel(g, mixed)
    nu3 = HardcoreModel(g, mixed + 1e-8)
    part3 = partition_big_small(mu3, nu3, 0.25, adv_budget())
    assert set(part3.big) == {0, 2} and set(part3.small) == {1, 3}

    with pytest.raises(GateError):  # distance above the override threshold
        partition_big_small(mu, HardcoreModel(g, lam_hi + 1.0), 0.25, adv_budget())
    k4 = Graph(4, itertools.combinations(range(4), 2))
    beyond = HardcoreModel(k4, np.full(4, 5.0))  # above lambda_c(3) = 4
    with pytest.raises(GateError):
        partition_big_small(beyond, beyond, 0.25, adv_budget())


def _mixed_pair():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    lam = np.array([0.3, 0.002, 0.25, 0.001, 0.35, 0.0005])
    lam2 = lam + np.array([2e-5, -1e-5, 0.0, 1e-5, -2e-5, 1e-5])
    return HardcoreModel(g, lam), HardcoreModel(g, np.clip(lam2, 1e-9, None))


def test_truncated_conditional():
    mu, nu = _mixed_pair()
    part = partition_big_small(mu, nu, 0.25, adv_budget())
    tc0 = truncated_conditional(mu, nu, part, (), 0)
    assert tc0.z_mu == 1.0 and tc0.z_nu == 1.0 and tc0.sets == ((),)

    tc_full = truncated_conditional(mu, nu, part, (), len(part.small))
    log_z = distribution(mu, {v: -1 for v in part.big}).log_z
    # conditional partition of the small side: divide out nothing (all big -1)
    assert math.log(tc_full.z_mu) == pytest.approx(log_z, abs=1e-10)
    # the sets are every independent set of the small side, each once
    small = list(part.small)
    assert sorted(tc_full.sets) == sorted(
        tuple(v for v, keep in zip(small, bits) if keep)
        for bits in itertools.product((0, 1), repeat=len(small))
        if mu.graph.is_independent_set(v for v, keep in zip(small, bits) if keep)
    )

    tc = truncated_conditional(mu, nu, part, [part.big[0]], 4)
    assert tc.x_plus == (part.big[0],)
    blocked = set(int(u) for u in mu.graph.neighbors(part.big[0]))
    assert all(v not in blocked for v in tc.s_x)

    edge = HardcoreModel(Graph(2, [(0, 1)]), [0.3, 0.4])
    edge_part = partition_big_small(edge, edge, 0.25, adv_budget())
    assert edge_part.big == (0, 1)
    with pytest.raises(InfeasiblePinningError):
        truncated_conditional(edge, edge, edge_part, (0, 1), 2)
    with pytest.raises(InputError):
        truncated_conditional(mu, nu, part, [part.small[0]], 2)


def test_f_hat_identical_pair_vanishes():
    mu, _ = _mixed_pair()
    part = partition_big_small(mu, mu, 0.25, adv_budget())
    assert f_hat(mu, mu, part, 1.0, ()) == 0.0


def test_f_hat_empty_small_side():
    g = Graph(2, [(0, 1)])
    mu = HardcoreModel(g, [0.3, 0.4])
    nu = HardcoreModel(g, [0.3 + 1e-8, 0.4])
    part = partition_big_small(mu, nu, 0.25, adv_budget())
    assert part.small == ()
    r = 1.0
    ratio = nu.lam[0] / mu.lam[0]
    expected = 0.5 * abs(ratio / r - 1.0)
    assert f_hat(mu, nu, part, r, (0,)) == pytest.approx(expected, rel=1e-12)


def test_eta_truncation_bound():
    assert eta_truncation_bound(0.123, 0, 10) == pytest.approx(2e8)
    assert eta_truncation_bound(1e-3, 4, 10) == pytest.approx(32.0)
    assert eta_truncation_bound(0.0, 1, 5) == 0.0


def test_tilde_ratio_identical_pair(rng):
    mu, _ = _mixed_pair()
    part = partition_big_small(mu, mu, 0.25, adv_budget())
    assert tilde_ratio(mu, mu, part, 500, rng) == 1.0


def test_tilde_ratio_all_big(rng):
    g = path_graph(4)
    mu = HardcoreModel(g, np.full(4, 0.3))
    nu = HardcoreModel(g, np.full(4, 0.3 + 1e-5))
    part = partition_big_small(mu, nu, 0.25, adv_budget())
    assert part.small == ()
    truth = math.exp(exact_partition(nu) - exact_partition(mu))
    r = tilde_ratio(mu, nu, part, 40000, rng)
    assert r == pytest.approx(truth, abs=3e-5)


def test_tilde_ratio_gate_errors(rng):
    """The truncation gates are checked before the ratio step draws."""
    mu, nu = _mixed_pair()
    strict = adv_budget(override_gates=False, T_override=500)
    with pytest.raises(GateError, match="advanced-estimator gates failed"):
        advanced_relative_tv(mu, nu, 0.25, strict, rng)


def test_advanced_identical_pair(rng):
    mu, _ = _mixed_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = advanced_relative_tv(mu, mu, 0.25, adv_budget(T_override=2000), rng)
    assert rep.estimate == 0.0 and rep.branch == "advanced"


def test_advanced_close_edge_pair(rng):
    g = Graph(2, [(0, 1)])
    mu = HardcoreModel(g, [0.5, 0.5])
    nu = HardcoreModel(g, [0.5001, 0.5])
    truth = exact_tv(mu, nu)
    budget = adv_budget(theta_override=1e-3, T_override=60000)
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for child in rng.spawn(20):
            est = advanced_relative_tv(mu, nu, 0.25, budget, child).estimate
            hits += abs(est - truth) <= 0.25 * truth
    assert hits >= 14


def test_advanced_beats_degenerate_basic(rng):
    """Fields far below one sample's resolution: W-estimator sees only empty
    sets and returns 0; the truncated estimator stays relatively accurate."""
    g = random_graph(6, 0.35, np.random.default_rng(8))
    lam = np.full(6, 1e-6)
    mu = HardcoreModel(g, lam)
    nu = HardcoreModel(g, lam + 1e-8)
    truth = exact_tv(mu, nu)
    assert truth > 0

    b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
    params = meta_condition_params(mu, nu, b)
    bud = EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        T_override=3000,
    )
    assert basic_relative_tv(mu, nu, 0.25, params, bud, rng).estimate == 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = advanced_relative_tv(mu, nu, 0.25, adv_budget(T_override=3000), rng)
    assert rep.estimate == pytest.approx(truth, rel=0.25)


def test_dispatch_branches(rng, exact_budget):
    g = Graph(2, [(0, 1)])
    j = {(0, 1): 0.4}
    case1 = dispatch_tv(
        IsingModel(g, j, [math.inf, 0.0]),
        IsingModel(g, j, [-math.inf, 0.0]),
        0.2, exact_budget, rng,
    )
    assert case1.branch == "preprocess-resolved" and case1.estimate == 1.0

    m = HardcoreModel(path_graph(3), np.ones(3))
    small = dispatch_tv(m, HardcoreModel(path_graph(3), [1, 2, 1]), 0.2,
                        exact_budget, rng)
    assert small.branch == "exact"

    same = dispatch_tv(m, m, 0.2, EstimatorBudget(exact_cap=0), rng)
    assert same.branch == "identical" and same.estimate == 0.0

    # forced exact cap 0 routes a large-distance pair to the gated additive;
    # the paper-shaped draw count at accuracy theta*C*eps is astronomical, so
    # the desk-scale run overrides it
    bud = EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        exact_cap=0,
        T_override=20000,
    )
    far = dispatch_tv(m, HardcoreModel(path_graph(3), [1.0, 1.8, 1.0]), 0.5, bud, rng)
    assert far.branch == "additive-gated" and far.error_kind == "relative"
    assert far.d_par == pytest.approx(0.8)
    assert far.theta is not None and far.d_par >= far.theta

    # tiny distance in the uniqueness regime routes to the advanced estimator
    mu_adv = HardcoreModel(path_graph(3), [0.3, 0.3, 0.3])
    nu_adv = HardcoreModel(path_graph(3), [0.3 + 1e-9, 0.3, 0.3])
    bud_adv = EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        exact_cap=0,
        theta_override=1e-8,
        kappa_override=ADVANCED_KAPPA,
        override_gates=True,
        T_override=500,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        adv = dispatch_tv(mu_adv, nu_adv, 0.25, bud_adv, rng)
    assert adv.branch == "advanced"

    gap = dispatch_tv(
        IsingModel(g, j, [math.inf, 0.0]), IsingModel(g, j, [0.0, 0.0]),
        0.3, exact_budget, rng,
    )
    assert gap.branch == "preprocess-big-gap" and gap.error_kind == "relative"
    truth = exact_tv(
        IsingModel(g, j, [math.inf, 0.0]), IsingModel(g, j, [0.0, 0.0])
    )
    assert abs(gap.estimate - truth) <= gap.b * 0.3 + 0.05


def test_dispatch_empty_graph(rng):
    empty = HardcoreModel(Graph(0), [])
    rep = dispatch_tv(empty, empty, 0.3, EstimatorBudget(), rng)
    assert rep.estimate == 0.0 and rep.branch == "empty"


def test_dispatch_median_repeats(rng, exact_budget):
    a = HardcoreModel(Graph(1), [1.0])
    b = HardcoreModel(Graph(1), [3.0])
    bud = EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        exact_cap=0,
        mode="additive",
        median_repeats=5,
    )
    rep = dispatch_tv(a, b, 0.1, bud, rng)
    assert rep.branch == "additive-forced"
    assert abs(rep.estimate - 0.25) < 0.1
    assert rep.samples_used == 5 * math.ceil(64 / 0.01)


def test_budget_validation():
    m = HardcoreModel(Graph(1), [1.0])
    with pytest.raises(InputError):
        dispatch_tv(m, m, 1.5, EstimatorBudget())
    with pytest.raises(InputError):
        EstimatorBudget(mode="nope")
    with pytest.raises(InputError):
        EstimatorBudget(t=-1)
    with pytest.raises(InputError):
        EstimatorBudget(T_override=0)
    with pytest.raises(InputError):
        EstimatorBudget(threads=0)
    # non-finite numbers are refused in every numeric field
    for name in ("t", "kappa_override", "theta_override", "T_override", "exact_cap",
                 "median_repeats", "threads"):
        for bad in (math.nan, math.inf, -1):
            with pytest.raises(InputError, match="finite number"):
                EstimatorBudget(**{name: bad})
    for name in ("kappa_override", "theta_override"):
        with pytest.raises(InputError):
            EstimatorBudget(**{name: 0.0})
    for name, bad in (("samples_per_level", math.nan), ("samples_per_level", 0.0),
                      ("boost_repeats", 0), ("boost_repeats", math.inf),
                      ("exact_fallback_cap", -1)):
        with pytest.raises(InputError, match=name):
            CounterConfig(**{name: bad})


def test_marginal_refuses_its_whole_cost(monkeypatch):
    """Each conditional count of the marginal estimator is under the limit,
    but all of them together are not: refused before the first chain step."""
    g = path_graph(3)
    mu = HardcoreModel(g, [1.0, 1.0, 1.0])
    nu = HardcoreModel(g, [1.0, 2.0, 1.0])
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk", _no_call)
    budget = replace(CHAINS_ONLY, counter=CounterConfig(exact_fallback_cap=0))
    rt = _Runtime(budget, np.random.default_rng(0))
    one = rt.pattern_count_steps(mu, [0, 2], 0.1 / 8, 0.1**2 / 320)
    assert 0 < one < sampling_mod.MAX_CHAIN_STEPS
    with pytest.raises(TooLargeError, match="marginal estimator"):
        marginal_additive_tv(mu, nu, [0, 2], 0.1, budget, np.random.default_rng(0))


def test_advanced_refuses_its_whole_cost(monkeypatch):
    """On chains, the ratio batch and the main batch of the advanced
    estimator each fit under the limit at 1e7 draws, but not together:
    refused before the first chain step."""
    mu, nu = fixed_advanced_pairs()[0]
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk", _no_call)
    budget = replace(CHAINS_ONLY, kappa_override=ADVANCED_KAPPA,
                     theta_override=ADVANCED_THETA, override_gates=True, T_override=10**7)
    sampler = _Runtime(budget, None).sampler(mu)
    for delta in (1e-10, 1e-9):  # the two batches' accuracies at 1e7 draws
        assert sampler.batch_steps(10**7, delta) < sampling_mod.MAX_CHAIN_STEPS
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TooLargeError, match="advanced estimator"):
            advanced_relative_tv(mu, nu, 0.25, budget, np.random.default_rng(0))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("kind", ["hardcore", "ising"])
def test_pattern_count_bound_covers_every_pattern(kind):
    """pattern_count_steps bounds the worst-case steps of the boosted count
    under every pinning of the subset, Ising pins that raise |h| included."""
    rng = np.random.default_rng(7)
    budget = replace(CHAINS_ONLY, counter=CounterConfig(samples_per_level=1.0,
                                                        exact_fallback_cap=0))
    rt = _Runtime(budget, rng)
    for _ in range(6):
        g = random_graph(7, 0.4, rng)
        if kind == "hardcore":
            model = HardcoreModel(g, rng.uniform(0.0, 3.0, 7))
        else:
            model = IsingModel(g, {e: float(rng.uniform(-2.0, 2.0)) for e in g.edges},
                               rng.uniform(-0.3, 0.3, 7))
        sub = sorted(int(v) for v in rng.choice(7, size=3, replace=False))
        bound = rt.pattern_count_steps(model, sub, 0.2, 1e-3)
        for row in itertools.product((-1, 1), repeat=3):
            pin = dict(zip(sub, row))
            try:
                reduced = estimators_mod.contract_pinning(model, pin)[0]
            except InfeasiblePinningError:
                continue
            plan = count_plan(reduced, 0.2, budget.counter, budget.sampler, delta=1e-3)
            assert plan.chain_steps <= bound


def test_sample_count_shapes():
    """Configured budgets scale with the polynomial shapes, not wall clock."""
    g = random_graph(10, 0.3, np.random.default_rng(2))
    mu = HardcoreModel(g, np.full(10, 0.5))
    params = meta_condition_params(mu, mu, b=0.25, c_tv_par=0.25**3)
    # T for the basic estimator: 1e4 L^2 K^2 / eps^2
    expect = math.ceil(1e4 * 4 * params.K**2 / 0.25**2)
    assert expect == math.ceil(1e4 * params.L**2 * params.K**2 / 0.25**2)
    # advanced-path draw count: (n^3 + n/kappa)/eps^2, via the same formula
    n, kappa, eps = 10, 1e-3, 0.5
    assert math.ceil((n**3 + n / kappa) / eps**2) == math.ceil(
        (1000 + 10000) / 0.25
    )
    from gibbs_tv.sampling import Sampler

    s = Sampler(mu)
    s1 = s.steps_for(0.1)
    assert s1 == max(10, math.ceil(20.0 * 10 * math.log(10 / 0.1)))


def test_truncation_sandwich(rng):
    """0 <= f - f_t everywhere; the truncation-bound coefficient caps the gap
    whenever the gate preconditions hold."""
    for _ in range(20):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        mu, nu, part, theta = big_small_pair(crng, n_max=8)
        d = exact_tv(mu, nu)
        n = mu.n
        records = exact_big_small(mu, nu, part)
        for plus, rec in records.items():
            for t in (0, 1, 2):
                keep = rec["sizes"] <= t
                f_t = 0.5 * float(
                    np.sum(np.abs(rec["g"] * rec["p_nu"][keep] - rec["p_mu"][keep]))
                )
                gap = rec["f"] - f_t
                assert gap >= -1e-14
                # gates hold by construction of big_small_pair
                assert theta / part.kappa < 1.0 / (10 * n)
                assert theta + part.kappa < 1.0 / (10 * n)
                assert gap <= eta_truncation_bound(part.kappa, t, n) * d + 1e-14


# Empirical ceiling for Var(f)/TV^2 relative to (n^3 + n/kappa): the largest
# ratio observed over 150 generated instances at n <= 10 was 0.013; the guard
# flags drift past a 4x margin rather than asserting any theoretical constant.
VARIANCE_GUARD_CONSTANT = 0.05


@pytest.mark.parametrize("cases, seed", [(4, 5), (3, 0)])
def test_variance_guard(cases, seed):
    """Regression guard: Var_{mu_B}(f) / TV^2 stays below the calibrated
    multiple of (n^3 + n/kappa), with f the big/small statistic."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        mu, nu, part, _ = big_small_pair(crng, n_max=9)
        rec = exact_big_small(mu, nu, part)
        d = exact_tv(mu, nu)
        if d == 0.0:
            continue
        mean_f = math.fsum(r["mu_b"] * r["f"] for r in rec.values())
        var_f = math.fsum(r["mu_b"] * (r["f"] - mean_f) ** 2 for r in rec.values())
        n = mu.n
        assert var_f / d**2 <= VARIANCE_GUARD_CONSTANT * (n**3 + n / part.kappa), i


def test_tilde_ratio_single_vertex_accuracy(rng):
    a = HardcoreModel(Graph(1), [1.0])
    b = HardcoreModel(Graph(1), [1.001])
    part = partition_big_small(a, b, 0.25, adv_budget(theta_override=1e-2))
    assert part.small == ()
    vals = [tilde_ratio(a, b, part, 200000, child) for child in rng.spawn(5)]
    for v in vals:
        assert abs(v - 2.001 / 2.0) <= 1e-4


def test_dispatch_advanced_at_n30(rng):
    """Gate arithmetic on a 30-vertex pair with tiny parameter distance."""
    from gibbs_tv.graph import path_graph as pg

    g = pg(30)
    lam = np.full(30, 0.3)
    lam2 = lam.copy()
    lam2[7] += 1e-9
    mu, nu = HardcoreModel(g, lam), HardcoreModel(g, lam2)
    bud = EstimatorBudget(
        theta_override=1e-8,
        kappa_override=ADVANCED_KAPPA,
        override_gates=True,
        T_override=100,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = dispatch_tv(mu, nu, 0.25, bud, rng)
    assert rep.branch == "advanced"
    assert rep.estimate >= 0.0


def test_estimates_stay_in_range(rng, exact_budget):
    """Every reported estimate lies in [0, 1 + additive slack]."""
    for _ in range(10):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        mu, nu = random_soft_pair(crng, n_max=6)
        rep = dispatch_tv(mu, nu, 0.2, exact_budget, crng)
        assert 0.0 <= rep.estimate <= 1.0 + 1e-12
        add = additive_tv(mu, nu, 0.3, exact_budget, crng)
        assert 0.0 <= add.estimate <= 1.0


def test_additive_with_glauber_sampler(rng):
    """Same estimator driven by the chain sampler: mixing error stays inside
    the additive budget on a small pair."""
    g = path_graph(5)
    mu = HardcoreModel(g, np.full(5, 0.8))
    nu = HardcoreModel(g, np.array([0.8, 1.3, 0.8, 0.6, 0.8]))
    truth = exact_tv(mu, nu)
    budget = EstimatorBudget(
        sampler=SamplerConfig(),  # no exact fallback: real Glauber chains
        counter=CounterConfig(exact_fallback_cap=20),
    )
    eps = 0.15
    hits = sum(
        abs(additive_tv(mu, nu, eps, budget, child).estimate - truth) <= eps
        for child in rng.spawn(10)
    )
    assert hits >= 7


def test_literal_constants_gate_without_overrides(rng):
    """A budget that sets no override evaluates the advanced gates with the
    published constants."""
    g = Graph(2, [(0, 1)])
    mu = HardcoreModel(g, [0.5, 0.5])
    nu = HardcoreModel(g, [0.5001, 0.5])
    literal = EstimatorBudget()
    # paper theta = 1e-10 eps^(1/4) / n^(5/2) is far below d_par = 1e-4
    with pytest.raises(GateError, match="advanced threshold"):
        partition_big_small(mu, nu, 0.25, literal)
    # the overrides let the same pair through
    overridden = EstimatorBudget(theta_override=1e-3, kappa_override=1e-2, override_gates=True)
    assert partition_big_small(mu, nu, 0.25, overridden).big == (0, 1)

    # a pair below the literal threshold passes the split but fails the
    # truncation gates, which only override_gates demotes
    nu2 = HardcoreModel(g, [0.5 + 1e-16, 0.5])
    with pytest.raises(GateError, match="gates failed"):
        advanced_relative_tv(mu, nu2, 0.25, literal, rng)


def test_advanced_with_glauber_sampler(rng):
    """The truncated estimator fed by real chains stays within tolerance."""
    mu, nu = _mixed_pair()
    truth = exact_tv(mu, nu)
    budget = EstimatorBudget(
        sampler=SamplerConfig(),  # Glauber chains, no enumeration fallback
        counter=CounterConfig(exact_fallback_cap=20),
        kappa_override=ADVANCED_KAPPA,
        theta_override=ADVANCED_THETA,
        override_gates=True,
        T_override=4000,
    )
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for child in rng.spawn(6):
            est = advanced_relative_tv(mu, nu, 0.3, budget, child).estimate
            hits += abs(est - truth) <= 0.3 * truth
    assert hits >= 4


def test_a_seed_reproduces_its_result():
    """Glauber chains with every exact cap at 0, under a reduced budget: one
    seed gives fixed draw and count totals, and estimates fixed to 1e-12
    (a changed random stream moves them by far more).  The marginal call
    runs boosted conditional counts."""
    budget = EstimatorBudget(
        exact_cap=0, sampler=SamplerConfig(exact_fallback_cap=0),
        counter=CounterConfig(samples_per_level=0.25, boost_repeats=1, exact_fallback_cap=0),
    )
    g = path_graph(3)
    mu = HardcoreModel(g, [0.5, 0.7, 0.5])
    nu = HardcoreModel(g, [0.9, 0.3, 0.6])
    add = additive_tv(mu, nu, 0.5, budget, np.random.default_rng(11))
    marg = marginal_additive_tv(mu, nu, [0, 2], 0.5, budget, np.random.default_rng(11))
    log_z = approx_count(HardcoreModel(path_graph(6), np.full(6, 0.8)), 0.5, budget.counter,
                         np.random.default_rng(11), budget.sampler)
    # an Ising pair sharing an infinite field, which the counts contract
    ising_mu = IsingModel(g, {(0, 1): 0.3, (1, 2): -0.2}, [math.inf, 0.1, -0.2])
    ising_nu = IsingModel(g, {(0, 1): 0.4, (1, 2): -0.2}, [math.inf, -0.1, 0.1])
    ising = additive_tv(ising_mu, ising_nu, 0.5, budget, np.random.default_rng(11))
    assert (add.counter_calls, add.samples_used) == (2, 256)
    assert (ising.counter_calls, ising.samples_used) == (2, 256)
    assert ising.estimate == pytest.approx(0.17769005118390435, rel=1e-12, abs=0)
    assert (marg.counter_calls, marg.samples_used) == (74, 256)
    assert add.estimate == pytest.approx(0.1928275075996619, rel=1e-12, abs=0)
    assert marg.estimate == pytest.approx(0.18921358581720926, rel=1e-12, abs=0)
    assert log_z == pytest.approx(1.7645133346233388, rel=1e-12, abs=0)
    basic = basic_relative_tv(mu, nu, 0.5, MetaConditionParams(1.0, 2.0, True),
                              replace(budget, T_override=256), np.random.default_rng(11))
    assert (basic.counter_calls, basic.samples_used) == (0, 256)
    assert basic.estimate == pytest.approx(0.17629103470256283, rel=1e-12, abs=0)


def _enumerated_pairs():
    """A 7-vertex hardcore pair, an Ising pair on the same graph, and a
    hardcore pair for the advanced estimator (three fields below
    ADVANCED_KAPPA, parameter distance 3e-5 < ADVANCED_THETA)."""
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 4)])
    hardcore = (HardcoreModel(g, [0.5, 0.8, 0.3, 0.6, 0.9, 0.4, 0.7]),
                HardcoreModel(g, [0.6, 0.7, 0.3, 0.5, 1.0, 0.4, 0.6]))
    couplings = {e: 0.1 * (k % 5) - 0.2 for k, e in enumerate(g.edges)}
    couplings2 = {**couplings, (1, 4): couplings[(1, 4)] + 0.3}
    ising = (IsingModel(g, couplings, [0.3, -0.2, 0.1, 0.0, -0.4, 0.2, 0.5]),
             IsingModel(g, couplings2, [0.3, -0.1, 0.1, 0.0, -0.4, 0.2, 0.4]))
    advanced = (HardcoreModel(g, [0.2, 0.003, 0.3, 0.001, 0.25, 0.004, 0.15]),
                HardcoreModel(g, [0.20003, 0.003, 0.29998, 0.00101, 0.25, 0.00399, 0.15002]))
    return hardcore, ising, advanced


def test_a_seed_reproduces_its_enumerated_result(exact_budget):
    """As above, with the sampler and the counter enumerating (caps 20), so
    that the estimators read each batch as support rows with multiplicities.
    Branches and draw and count totals are fixed; marginal and advanced
    estimates are fixed exactly, additive and basic ones to 1e-12, as a sum
    over rows rounds differently from a sum over draws."""
    hardcore, ising, advanced = _enumerated_pairs()
    budget = exact_budget
    basic_budget = replace(budget, T_override=30000)
    gated = replace(budget, exact_cap=0, T_override=30000, median_repeats=3)
    params = MetaConditionParams(1.0, 2.0, True)
    want = {  # (branch, samples_used, counter_calls, estimate)
        ("hardcore", "additive"): ("additive", 6400, 2, 0.0738122847159681),
        ("hardcore", "marginal"): ("marginal-additive", 6400, 18, 0.05153532024893478),
        ("hardcore", "basic"): ("basic", 30000, 0, 0.07323377829090032),
        ("hardcore", "dispatch"): ("additive-gated", 90000, 6, 0.07420483284242388),
        ("ising", "additive"): ("additive", 6400, 2, 0.11525573230974447),
        ("ising", "marginal"): ("marginal-additive", 6400, 18, 0.0051668356918719936),
        ("ising", "basic"): ("basic", 30000, 0, 0.11711848245271282),
        ("ising", "dispatch"): ("additive-gated", 90000, 6, 0.11711419019980507),
        ("advanced", "advanced"): ("advanced", 48310, 0, 3.3604395661389535e-05),
        ("advanced", "dispatch"): ("advanced", 48310, 0, 3.3604395661389535e-05),
    }
    got = {}
    for name, (mu, nu) in (("hardcore", hardcore), ("ising", ising)):
        got[name, "additive"] = additive_tv(mu, nu, 0.1, budget, np.random.default_rng(11))
        got[name, "marginal"] = marginal_additive_tv(mu, nu, [0, 2, 5], 0.1, budget,
                                                     np.random.default_rng(11))
        got[name, "basic"] = basic_relative_tv(mu, nu, 0.25, params, basic_budget,
                                               np.random.default_rng(11))
        got[name, "dispatch"] = dispatch_tv(mu, nu, 0.25, gated, np.random.default_rng(11))
    adv = adv_budget(t=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got["advanced", "advanced"] = advanced_relative_tv(*advanced, 0.25, adv,
                                                           np.random.default_rng(11))
        got["advanced", "dispatch"] = dispatch_tv(*advanced, 0.25, replace(adv, exact_cap=0),
                                                  np.random.default_rng(11))
    for key, (branch, samples, calls, estimate) in want.items():
        rep = got[key]
        assert (rep.branch, rep.samples_used, rep.counter_calls) == (branch, samples, calls), key
        if rep.branch in ("marginal-additive", "advanced"):
            assert rep.estimate == estimate, key
        else:
            assert rep.estimate == pytest.approx(estimate, rel=1e-12, abs=0), key


def test_enumerated_estimators_build_no_draw_matrix(exact_budget, monkeypatch):
    """With the sampler and the counter enumerating, no estimator builds the
    T-row draw matrix of Sampler.sample_batch."""
    monkeypatch.setattr(sampling_mod.Sampler, "sample_batch",
                        lambda *a, **k: pytest.fail("a T-row draw matrix was built"))
    hardcore, ising, advanced = _enumerated_pairs()
    budget = exact_budget
    params = MetaConditionParams(1.0, 2.0, True)
    for mu, nu in (hardcore, ising):
        assert additive_tv(mu, nu, 0.1, budget, np.random.default_rng(1)).samples_used == 6400
        assert marginal_additive_tv(mu, nu, [1, 3], 0.1, budget,
                                    np.random.default_rng(1)).samples_used == 6400
        rep = basic_relative_tv(mu, nu, 0.25, params, replace(budget, T_override=30000),
                                np.random.default_rng(1))
        assert rep.samples_used == 30000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = advanced_relative_tv(*advanced, 0.25, adv_budget(t=4), np.random.default_rng(1))
    assert rep.samples_used == 48310


@pytest.mark.parametrize("kind", ["hardcore", "ising"])
def test_enumerated_counts_read_the_support(exact_budget, kind, monkeypatch):
    """With the counter enumerating, a count reads the model's support and
    neither contracts nor plans: under every pinning of a 2- and a 3-vertex
    subset of a 7-vertex model with one forced spin, it is log_const plus
    the contracted model's exact log Z, -inf when the pinning is infeasible,
    and one counter call."""
    rng = np.random.default_rng(29)
    monkeypatch.setattr(estimators_mod, "contract_pinning",
                        lambda *a: pytest.fail("an enumerated count contracted"))
    monkeypatch.setattr(estimators_mod, "count_plan",
                        lambda *a: pytest.fail("an enumerated count was planned"))
    for _ in range(3):
        g = random_graph(7, 0.4, rng)
        forced = int(rng.integers(7))
        if kind == "hardcore":
            lam = rng.uniform(0.2, 2.0, 7)
            lam[forced] = 0.0
            model = HardcoreModel(g, lam)
        else:
            h = rng.uniform(-1.0, 1.0, 7)
            h[forced] = math.inf if rng.random() < 0.5 else -math.inf
            model = IsingModel(g, {e: float(rng.uniform(-1.0, 1.0)) for e in g.edges}, h)
        others = [v for v in range(7) if v != forced]
        subsets = (sorted(int(v) for v in rng.choice(7, size=2, replace=False)),
                   sorted([forced, *(int(v) for v in rng.choice(others, size=2, replace=False))]))
        rt = _Runtime(exact_budget, np.random.default_rng(0))
        counts = infeasible = 0
        for sub in subsets:
            for row in itertools.product((-1, 1), repeat=len(sub)):
                pin = dict(zip(sub, row))
                got = rt.count(model, 0.1, pin, 1e-3 if counts % 2 else None)
                counts += 1
                try:
                    reduced, _, log_const = contract_pinning(model, pin)
                except InfeasiblePinningError:
                    infeasible += 1
                    assert got == -math.inf, pin
                    continue
                want = log_const + exact_partition(reduced)
                assert got == pytest.approx(want, rel=0, abs=1e-12), pin
        assert infeasible > 0
        assert rt.counter_calls == counts  # one call per count, as when it contracted


def test_enumerated_estimators_enumerate_each_model_once(exact_budget, monkeypatch):
    """With the sampler and the counter enumerating, one estimator call
    enumerates each model at most once, and the advanced estimator lists the
    small side's independent sets once, whatever the number of big-side
    patterns (the sampler's own support enumeration aside)."""
    supports, set_calls, inside = [], [], []
    support_configs = exact_mod.support_configs
    independent_sets = Graph.independent_sets

    def counted_support(model, *args, **kwargs):
        supports.append(model)
        inside.append(model)
        try:
            return support_configs(model, *args, **kwargs)
        finally:
            inside.pop()

    def counted_sets(graph, vertices, max_size=None):
        vertices = list(vertices)
        if not inside:
            set_calls.append(vertices)
        return independent_sets(graph, vertices, max_size)

    monkeypatch.setattr(exact_mod, "support_configs", counted_support)
    monkeypatch.setattr(Graph, "independent_sets", counted_sets)
    hardcore, ising, advanced = _enumerated_pairs()
    params = MetaConditionParams(1.0, 2.0, True)
    runs = []
    for mu, nu in (hardcore, ising):
        runs += [
            (2, lambda: additive_tv(mu, nu, 0.1, exact_budget, np.random.default_rng(1))),
            (2, lambda: marginal_additive_tv(mu, nu, [0, 2, 5], 0.1, exact_budget,
                                             np.random.default_rng(1))),
            (1, lambda: basic_relative_tv(mu, nu, 0.25, params,
                                          replace(exact_budget, T_override=30000),
                                          np.random.default_rng(1))),
        ]
    runs.append((1, lambda: advanced_relative_tv(*advanced, 0.25, adv_budget(t=4),
                                                 np.random.default_rng(1))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for limit, run in runs:
            supports.clear()
            set_calls.clear()
            run()
            assert len(supports) <= limit
            assert len(set(map(id, supports))) == len(supports)
    small = set(partition_big_small(*advanced, 0.25, adv_budget()).small)
    assert len(set_calls) == 1 and set(set_calls[0]) <= small
    big = partition_big_small(*advanced, 0.25, adv_budget()).big
    assert len(big) >= 3  # several big-side patterns share that one listing
