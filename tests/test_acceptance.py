"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run the estimators over the exact-fallback sampler (and,
where stated, the exact counting shortcut) so that coverage measures the
estimator logic rather than chain mixing.  Sample counts follow the stated
tolerances; relative-path draw counts use the documented desk-scale
overrides.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from gibbs_tv import exact
from gibbs_tv.counting import CounterConfig, approx_count
from gibbs_tv.estimators import (
    EstimatorBudget,
    additive_tv,
    advanced_relative_tv,
    basic_relative_tv,
    marginal_additive_tv,
    meta_condition_params,
)
from gibbs_tv.graph import random_graph
from gibbs_tv.models import (
    HardcoreModel,
    IsingModel,
    check_uniqueness,
    marginal_lower_bound,
    parameter_distance,
)
from gibbs_tv.sampling import SamplerConfig
from gibbs_tv.suites import ADVANCED_KAPPA, ADVANCED_THETA
from oracles import (
    big_small_pair,
    brute_force_marginal_bound,
    counting_instances,
    exact_big_small,
    fixed_additive_pairs,
    fixed_advanced_pairs,
    fixed_basic_pairs,
    oracle_equivalence_checks,
    random_hardcore_pair,
    random_ising_pair,
    reduction_demo_checks,
    truncation_checks,
)


def announce(line: str) -> None:
    # bypass capture so every criterion prints its verdict
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def exact_budget(**kw) -> EstimatorBudget:
    return EstimatorBudget(
        sampler=SamplerConfig(exact_fallback_cap=20),
        counter=CounterConfig(exact_fallback_cap=20),
        **kw,
    )


def test_criterion_1_exact_identity_suite():
    """E[W] = Z_nu/Z_mu and (Z_mu/2Z_nu) E|E[W]-W| = TV to 1e-10, 200 pairs."""
    rows = oracle_equivalence_checks(cases=200, seed=11)
    failures = [r for r in rows if not r.passed]
    ok = not failures and len(rows) >= 400
    announce(f"ACCEPTANCE 1 exact-identity ({len(rows)} checks): "
             f"{'PASS' if ok else 'FAIL ' + str(failures[:3])}")
    assert ok


def test_criterion_2_tv_lower_bound():
    """TV >= C * d_par with the per-case constant on >= 500 pairs."""
    rng = np.random.default_rng(22)
    violations = []
    total = 0
    for i in range(510):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        cls = i % 3
        if cls == 0:
            mu, nu = random_hardcore_pair(crng, style="uniqueness")
            assert check_uniqueness(mu) is not None
            assert check_uniqueness(nu) is not None
            c = 1.0 / 5000.0
        elif cls == 1:
            mu, nu = random_hardcore_pair(crng, style="bounded")
            b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
            c = b**3
        else:
            mu, nu = random_ising_pair(crng)
            b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
            c = b**2 / 2.0
        d = parameter_distance(mu, nu)
        tv = exact.exact_tv(mu, nu)
        total += 1
        if tv + 1e-12 < c * d:
            violations.append((i, tv, c * d))
    ok = not violations and total >= 500
    announce(f"ACCEPTANCE 2 tv-lower-bound ({total} pairs): "
             f"{'PASS' if ok else 'FAIL ' + str(violations[:3])}")
    assert ok


def test_criterion_3_structural_bounds():
    """Conditional-partition, marginal-ratio, and small-side TV bounds on
    >= 100 gate-satisfying pairs, every big-side pinning checked."""
    rng = np.random.default_rng(33)
    violations = []
    for i in range(100):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        mu, nu, part, _ = big_small_pair(crng, n_max=10)
        n = mu.n
        d = parameter_distance(mu, nu)
        for plus, rec in exact_big_small(mu, nu, part).items():
            checks = [
                1.0 <= rec["z_mu_x"] < 2.0,
                1.0 <= rec["z_nu_x"] < 2.0,
                abs(rec["z_mu_x"] - rec["z_nu_x"]) <= 2 * n * d + 1e-15,
                abs(rec["g"] - 1.0) <= 10 * n * d / part.kappa + 1e-12,
                rec["tv_small"] <= 4 * n * d + 1e-15,
            ]
            if not all(checks):
                violations.append((i, plus, checks))
    ok = not violations
    announce(f"ACCEPTANCE 3 structural-bounds (100 pairs): "
             f"{'PASS' if ok else 'FAIL ' + str(violations[:3])}")
    assert ok


def test_criterion_4_truncation_exactness():
    """Full-size truncation reproduces conditional partitions and f exactly."""
    rows = truncation_checks(cases=100, seed=44)
    failures = [r for r in rows if not r.passed]
    ok = not failures and len(rows) == 200
    announce(f"ACCEPTANCE 4 truncation-exactness ({len(rows)} checks): "
             f"{'PASS' if ok else 'FAIL ' + str(failures[:3])}")
    assert ok


@pytest.mark.slow
def test_criterion_5_additive_coverage():
    """|d_hat - TV| <= 0.05 in >= 85/100 runs per fixed pair; same for the
    marginal estimator on a random subset per pair."""
    eps = 0.05
    budget = exact_budget()
    rng = np.random.default_rng(55)
    worst_full, worst_marg = 100, 100
    for idx, (mu, nu) in enumerate(fixed_additive_pairs()):
        truth = exact.exact_tv(mu, nu)
        hits = sum(
            abs(additive_tv(mu, nu, eps, budget, r).estimate - truth) <= eps
            for r in rng.spawn(100)
        )
        worst_full = min(worst_full, hits)
        assert hits >= 85, (idx, hits)

        size = int(rng.integers(1, mu.n + 1))
        subset = list(rng.choice(mu.n, size=size, replace=False))
        truth_m = exact.exact_marginal_tv(mu, nu, subset)
        hits_m = sum(
            abs(marginal_additive_tv(mu, nu, subset, eps, budget, r).estimate - truth_m)
            <= eps
            for r in rng.spawn(100)
        )
        worst_marg = min(worst_marg, hits_m)
        assert hits_m >= 85, (idx, subset, hits_m)
    announce(f"ACCEPTANCE 5 additive-coverage (20 pairs x 100 runs): PASS "
             f"(worst full {worst_full}/100, worst marginal {worst_marg}/100)")


@pytest.mark.slow
def test_criterion_6_basic_relative_coverage():
    """Relative error <= 0.25 in >= 85/100 runs on 10 small-distance pairs."""
    eps = 0.25
    rng = np.random.default_rng(66)
    budget = exact_budget(T_override=30000)
    worst = 100
    for idx, (mu, nu) in enumerate(fixed_basic_pairs()):
        truth = exact.exact_tv(mu, nu)
        b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
        params = meta_condition_params(mu, nu, b)
        assert params.holds, (idx, params.reason)
        hits = sum(
            abs(basic_relative_tv(mu, nu, eps, params, budget, r).estimate - truth)
            <= eps * truth
            for r in rng.spawn(100)
        )
        worst = min(worst, hits)
        assert hits >= 85, (idx, hits)
    announce(f"ACCEPTANCE 6 basic-relative-coverage (10 pairs x 100 runs): "
             f"PASS (worst {worst}/100)")


@pytest.mark.slow
def test_criterion_7_advanced_coverage():
    """Relative error <= 0.25 in >= 85/100 runs on 10 hardcore pairs with the
    desk-scale kappa/theta overrides, two pairs entirely below kappa."""
    eps = 0.25
    rng = np.random.default_rng(77)
    budget = exact_budget(
        kappa_override=ADVANCED_KAPPA,
        theta_override=ADVANCED_THETA,
        override_gates=True,
        t=4,
    )
    worst = 100
    pairs = fixed_advanced_pairs()
    all_small = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for idx, (mu, nu) in enumerate(pairs):
            if max(np.max(mu.lam), np.max(nu.lam)) < ADVANCED_KAPPA:
                all_small += 1
            truth = exact.exact_tv(mu, nu)
            assert truth > 0
            hits = sum(
                abs(advanced_relative_tv(mu, nu, eps, budget, r).estimate - truth)
                <= eps * truth
                for r in rng.spawn(100)
            )
            worst = min(worst, hits)
            assert hits >= 85, (idx, hits)
    assert all_small >= 2
    announce(f"ACCEPTANCE 7 advanced-coverage (10 pairs x 100 runs, "
             f"{all_small} all-small): PASS (worst {worst}/100)")


@pytest.mark.slow
def test_criterion_8_counting_contract():
    """approx_count at eps=0.05 within (1 +/- 0.05) Z in >= 97/100 runs, and
    the telescoping identity with exact expectations matches to 1e-10."""
    rng = np.random.default_rng(88)
    cfg = CounterConfig(boost_repeats=3)
    scfg = SamplerConfig(exact_fallback_cap=20)
    results = []
    for inst in counting_instances()[:3]:
        truth = exact.exact_partition(inst)
        hits = 0
        for r in rng.spawn(100):
            est = approx_count(inst, 0.05, cfg, r, scfg)
            hits += abs(math.expm1(est - truth)) <= 0.05
        results.append(hits)
        assert hits >= 97, (inst, hits)

    # exact per-level expectations telescope to the partition function
    from gibbs_tv.counting import _level_model, num_levels

    model = counting_instances()[2]
    ell = num_levels(model)
    log_z = 0.0
    for i in range(1, ell + 1):
        level = _level_model(model, i / ell)
        prev = _level_model(model, (i - 1) / ell)
        dist = exact.distribution(level)
        lw_prev = prev.log_weight_batch(dist.configs)
        lw_cur = level.log_weight_batch(dist.configs)
        ratios = np.where(np.isneginf(lw_prev), 0.0, np.exp(lw_prev - lw_cur))
        log_z -= math.log(float(np.exp(dist.log_probs) @ ratios))
    tele_ok = abs(log_z - exact.exact_partition(model)) <= 1e-10
    assert tele_ok
    announce(f"ACCEPTANCE 8 counting-contract (hits {results}, telescoping "
             f"{'exact' if tele_ok else 'BROKEN'}): PASS")


@pytest.mark.slow
def test_criterion_9_reduction_demo():
    """TV-query counting reproduces exact independent-set counts on every
    connected graph with n <= 7 and max degree <= 3."""
    rows = reduction_demo_checks(max_n=7)
    failures = [r for r in rows if not r.passed]
    ok = not failures and len(rows) >= 100
    announce(f"ACCEPTANCE 9 reduction-demo ({len(rows)} graphs): "
             f"{'PASS' if ok else 'FAIL ' + str(failures[:3])}")
    assert ok


def test_criterion_10_marginal_bound_oracle():
    """Computed marginal lower bound equals the brute-force minimum over all
    feasible pinnings on >= 100 random models."""
    rng = np.random.default_rng(1010)
    mismatches = []
    for i in range(100):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        n = int(crng.integers(2, 9))
        g = random_graph(n, 0.4, crng)
        if crng.random() < 0.5:
            lam = crng.uniform(0.05, 2.5, n)
            if crng.random() < 0.25:
                lam[int(crng.integers(0, n))] = 0.0
            model = HardcoreModel(g, lam)
        else:
            model = IsingModel(
                g,
                {e: float(crng.uniform(-0.8, 0.8)) for e in g.edges},
                crng.uniform(-1.0, 1.0, n),
            )
        claimed = marginal_lower_bound(model).b
        truth = brute_force_marginal_bound(model)
        if abs(claimed - truth) > 1e-10:
            mismatches.append((i, claimed, truth))
    ok = not mismatches
    announce(f"ACCEPTANCE 10 marginal-bound-oracle (100 models): "
             f"{'PASS' if ok else 'FAIL ' + str(mismatches[:3])}")
    assert ok
