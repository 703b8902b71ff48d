"""Test oracles: random pair generators, exact ground truth by enumeration,
the fixed instance families of the acceptance criteria, and the checks that
criteria 1, 4 and 9 run.

Every generator draws from the ``rng`` it is given, in a fixed order, so a
seed names one case for good.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from gibbs_tv import exact
from gibbs_tv.estimators import (
    BigSmallPartition,
    _f_hat_from,
    _field_ratio,
    section_theta,
    truncated_conditional,
)
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.models import (
    HardcoreModel,
    IsingModel,
    SpinSystem,
    lambda_c,
    marginal_lower_bound,
    parameter_distance,
)
from gibbs_tv.suites import ADVANCED_KAPPA, ADVANCED_THETA


@dataclass
class CaseResult:
    case_id: str
    seed: int
    estimate: float
    truth: float
    passed: bool


# ---------------------------------------------------------------------------
# Instance generators


def random_hardcore_pair(
    rng: np.random.Generator,
    n_max: int = 8,
    style: str = "bounded",
    perturbation: Optional[float] = None,
) -> tuple[HardcoreModel, HardcoreModel]:
    """Random soft hardcore pair; ``style`` controls the field regime."""
    n = int(rng.integers(2, n_max + 1))
    g = random_graph(n, 0.35, rng)
    if style == "uniqueness":
        cap = 0.9 * min(4.0, lambda_c(max(g.max_degree(), 3)))
        lam = rng.uniform(0.05, cap, n)
        scale = perturbation if perturbation is not None else 0.2 * cap
        lam2 = np.clip(lam + rng.uniform(-scale, scale, n), 0.02, 0.95 * cap)
    else:
        lam = rng.uniform(0.05, 3.0, n)
        scale = perturbation if perturbation is not None else 0.5
        lam2 = np.clip(lam + rng.uniform(-scale, scale, n), 0.02, None)
    return HardcoreModel(g, lam), HardcoreModel(g, lam2)


def random_ising_pair(
    rng: np.random.Generator, n_max: int = 8, perturbation: float = 0.2
) -> tuple[IsingModel, IsingModel]:
    n = int(rng.integers(2, n_max + 1))
    g = random_graph(n, 0.4, rng)
    j1 = {e: float(rng.uniform(-0.5, 0.5)) for e in g.edges}
    h1 = rng.uniform(-1.0, 1.0, n)
    j2 = {e: v + float(rng.uniform(-perturbation, perturbation)) for e, v in j1.items()}
    h2 = h1 + rng.uniform(-perturbation, perturbation, n)
    return IsingModel(g, j1, h1), IsingModel(g, j2, h2)


def random_soft_pair(
    rng: np.random.Generator, n_max: int = 8
) -> tuple[SpinSystem, SpinSystem]:
    if rng.random() < 0.5:
        return random_hardcore_pair(rng, n_max)
    return random_ising_pair(rng, n_max)


def small_parameter_pair(
    rng: np.random.Generator, n_max: int = 8, kind: str = "hardcore"
) -> tuple[SpinSystem, SpinSystem, float]:
    """Pair with d_par at most the additive/relative threshold theta."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        g = random_graph(n, 0.3, rng)
        if kind == "hardcore":
            lam = rng.uniform(0.3, 1.2, n)
            mu = HardcoreModel(g, lam)
            b = min(marginal_lower_bound(mu).b, 0.5)
            theta = section_theta(mu, mu, b)
            d = float(rng.uniform(0.2, 0.9)) * theta
            lam2 = lam.copy()
            idx = rng.integers(0, n)
            lam2[idx] = lam[idx] + d
            nu = HardcoreModel(g, lam2)
        else:
            j1 = {e: float(rng.uniform(-0.4, 0.4)) for e in g.edges}
            h1 = rng.uniform(-0.6, 0.6, n)
            mu = IsingModel(g, j1, h1)
            theta = section_theta(mu, mu, 0.5)
            d = float(rng.uniform(0.2, 0.9)) * theta
            h2 = h1.copy()
            idx = rng.integers(0, n)
            h2[idx] = h1[idx] + d * (g.degree(int(idx)) + 1)
            nu = IsingModel(g, j1, h2)
        b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
        theta = section_theta(mu, nu, b)
        if parameter_distance(mu, nu) <= theta:
            return mu, nu, theta


def big_small_pair(
    rng: np.random.Generator, n_max: int = 10
) -> tuple[HardcoreModel, HardcoreModel, BigSmallPartition, float]:
    """Hardcore pair plus a big/small split satisfying the truncation gates.

    Uses kappa = 0.7/(10n) and theta = 0.9*kappa/(10n), so theta/kappa and
    kappa+theta both sit strictly inside 1/(10n).
    """
    n = int(rng.integers(4, n_max + 1))
    g = random_graph(n, 0.35, rng)
    kappa = 0.7 / (10.0 * n)
    theta = 0.9 * kappa / (10.0 * n)
    big_mask = rng.random(n) < 0.55
    if big_mask.all():
        big_mask[int(rng.integers(0, n))] = False
    lam = np.where(
        big_mask,
        rng.uniform(1.05 * kappa, 0.45, n),
        rng.uniform(0.01 * kappa, 0.9 * kappa, n),
    )
    d_target = float(rng.uniform(0.1, 0.9)) * theta
    signs = rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.7)
    lam2 = np.clip(lam + signs * d_target, 1e-9, None)
    mu, nu = HardcoreModel(g, lam), HardcoreModel(g, lam2)
    both = np.minimum(lam, lam2)
    part = BigSmallPartition(
        tuple(int(v) for v in np.flatnonzero(both >= kappa)),
        tuple(int(v) for v in np.flatnonzero(both < kappa)),
        kappa,
    )
    return mu, nu, part, theta


def connected_max_deg3_graphs(max_n: int = 7):
    """All connected graphs with n <= max_n and max degree <= 3, up to iso."""
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or n > max_n or not nx.is_connected(ag):
            continue
        if max(d for _, d in ag.degree()) > 3:
            continue
        mapping = {v: i for i, v in enumerate(sorted(ag.nodes()))}
        yield Graph(n, [(mapping[u], mapping[v]) for u, v in ag.edges()])


# ---------------------------------------------------------------------------
# Exact ground truth


def exact_w_moments(mu: SpinSystem, nu: SpinSystem) -> dict:
    """Exact E[W], E|E[W]-W|, Var(W), and the TV identity value over mu."""
    dist = exact.distribution(mu)
    lwm = mu.log_weight_batch(dist.configs)
    lwn = nu.log_weight_batch(dist.configs)
    w = np.exp(lwn - lwm)
    p = np.exp(dist.log_probs)
    e_w = math.fsum((p * w).tolist())
    mean_abs = math.fsum((p * np.abs(e_w - w)).tolist())
    var_w = math.fsum((p * (w - e_w) ** 2).tolist())
    log_zn = exact.exact_partition(nu)
    z_ratio = math.exp(log_zn - dist.log_z)
    return {
        "e_w": e_w,
        "z_ratio": z_ratio,
        "mean_abs_dev": mean_abs,
        "var_w": var_w,
        "tv_identity": mean_abs / (2.0 * e_w),
    }


def exact_big_small(
    mu: HardcoreModel, nu: HardcoreModel, part: BigSmallPartition
) -> dict[tuple[int, ...], dict]:
    """Exact per-pinning quantities of the big/small decomposition.

    For every independent big-side +1 set x: conditional partition values on
    both sides, the marginal ratio nu_B(x)/mu_B(x), the small-side
    conditional TV distance, the decomposition statistic f(x), and mu_B(x).
    """
    records: dict[tuple[int, ...], dict] = {}
    for plus in mu.graph.independent_sets(part.big):
        plus_set = set(plus)
        s_x = [
            v for v in part.small
            if not any(int(u) in plus_set for u in mu.graph.neighbors(v))
        ]
        sub, _ = mu.graph.induced_subgraph(s_x)
        red_mu = HardcoreModel(sub, mu.lam[s_x])
        red_nu = HardcoreModel(sub, nu.lam[s_x])
        z_mu_x = math.exp(exact.exact_partition(red_mu)) if s_x else 1.0
        z_nu_x = math.exp(exact.exact_partition(red_nu)) if s_x else 1.0
        pm = float(np.prod(mu.lam[list(plus)])) if plus else 1.0
        pn = float(np.prod(nu.lam[list(plus)])) if plus else 1.0
        if s_x:
            dmu = exact.distribution(red_mu)
            pmu = np.exp(dmu.log_probs)
            pnu_log = red_nu.log_weight_batch(dmu.configs)
            pnu = np.exp(pnu_log - exact.exact_partition(red_nu))
            tv_small = 0.5 * math.fsum(np.abs(pmu - pnu).tolist())
            sizes = (dmu.configs > 0).sum(axis=1)
        else:
            pmu = np.array([1.0])
            pnu = np.array([1.0])
            tv_small = 0.0
            sizes = np.array([0])
        records[plus] = {
            "z_mu_x": z_mu_x,
            "z_nu_x": z_nu_x,
            "mu_un": pm * z_mu_x,
            "nu_un": pn * z_nu_x,
            "tv_small": tv_small,
            "p_mu": pmu,
            "p_nu": pnu,
            "sizes": sizes,
        }
    z_mu = math.fsum(r["mu_un"] for r in records.values())
    z_nu = math.fsum(r["nu_un"] for r in records.values())
    for r in records.values():
        r["mu_b"] = r["mu_un"] / z_mu
        r["nu_b"] = r["nu_un"] / z_nu
        g = r["nu_b"] / r["mu_b"]
        r["g"] = g
        r["f"] = 0.5 * math.fsum(np.abs(g * r["p_nu"] - r["p_mu"]).tolist())
    return records


def brute_force_marginal_bound(model: SpinSystem) -> float:
    """Minimum positive conditional marginal over *all* partial pinnings."""
    n = model.n
    if n == 0:
        return 1.0
    configs = exact._all_configs(n, np.zeros(n, dtype=np.int8))
    with np.errstate(over="ignore"):
        w = np.exp(model.log_weight_batch(configs))
    plus = (configs > 0).astype(np.float64)
    match = {
        (v, c): (configs[:, v] == c) for v in range(n) for c in (-1, 1)
    }
    best = 1.0
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        free = [v for v in range(n) if pattern[v] == 0]
        if not free:
            continue
        mask = np.ones(len(w), dtype=bool)
        for v in range(n):
            if pattern[v] != 0:
                mask &= match[(v, pattern[v])]
        wm = w * mask
        tot = wm.sum()
        if tot <= 0:
            continue
        w_plus = wm @ plus
        for v in free:
            m_plus = w_plus[v] / tot
            if w_plus[v] > 0:
                best = min(best, m_plus)
            if tot - w_plus[v] > 0:
                best = min(best, 1.0 - m_plus)
    return best


# ---------------------------------------------------------------------------
# Exact checks of criteria 1, 4 and 9


def oracle_equivalence_checks(cases: int, seed: int) -> list[CaseResult]:
    """E[W] = Z_nu/Z_mu and the half-deviation TV identity, per random pair."""
    tol = 1e-10
    rows: list[CaseResult] = []
    rng = np.random.default_rng(seed)
    for i in range(cases):
        case_seed = int(rng.integers(0, 2**31))
        mu, nu = random_soft_pair(np.random.default_rng(case_seed))
        mom = exact_w_moments(mu, nu)
        rows.append(CaseResult(f"e_w-{i}", case_seed, mom["e_w"], mom["z_ratio"],
                               abs(mom["e_w"] - mom["z_ratio"]) <= tol))
        truth = exact.exact_tv(mu, nu)
        rows.append(CaseResult(f"tv-identity-{i}", case_seed, mom["tv_identity"], truth,
                               abs(mom["tv_identity"] - truth) <= tol))
    return rows


def truncation_checks(cases: int, seed: int) -> list[CaseResult]:
    """Full-size truncation reproduces every conditional partition and f."""
    tol = 1e-10
    rows: list[CaseResult] = []
    rng = np.random.default_rng(seed)
    for i in range(cases):
        case_seed = int(rng.integers(0, 2**31))
        mu, nu, part, _ = big_small_pair(np.random.default_rng(case_seed), n_max=10)
        rec = exact_big_small(mu, nu, part)
        z_ratio = math.exp(exact.exact_partition(nu) - exact.exact_partition(mu))
        worst_z = 0.0
        worst_f = 0.0
        for plus, r in rec.items():
            tc = truncated_conditional(mu, nu, part, plus, len(part.small))
            worst_z = max(
                worst_z,
                abs(tc.z_mu - r["z_mu_x"]),
                abs(tc.z_nu - r["z_nu_x"]),
            )
            f_full = _f_hat_from(tc, _field_ratio(mu, nu, plus), z_ratio)
            worst_f = max(worst_f, abs(f_full - r["f"]))
        rows.append(CaseResult(f"trunc-z-{i}", case_seed, worst_z, 0.0, worst_z <= tol))
        rows.append(CaseResult(f"trunc-f-{i}", case_seed, worst_f, 0.0, worst_f <= tol))
    return rows


def reduction_demo_checks(max_n: int) -> list[CaseResult]:
    """Counting via TV queries agrees with direct enumeration."""
    rows: list[CaseResult] = []
    for i, g in enumerate(connected_max_deg3_graphs(max_n)):
        counted = exact.count_via_tv_queries(g)
        truth = len(exact.support_configs(HardcoreModel(g, np.ones(g.n))))
        rows.append(CaseResult(f"count-n{g.n}-{i}", 0, counted, truth, counted == truth))
    return rows


# ---------------------------------------------------------------------------
# Fixed instance families for the coverage criteria


def fixed_additive_pairs() -> list[tuple[SpinSystem, SpinSystem]]:
    """20 deterministic pairs (10 hardcore, 10 Ising), n <= 10."""
    pairs: list[tuple[SpinSystem, SpinSystem]] = []
    for i in range(10):
        pairs.append(random_hardcore_pair(np.random.default_rng(1000 + i), n_max=10))
    for i in range(10):
        pairs.append(random_ising_pair(np.random.default_rng(2000 + i), n_max=10))
    return pairs


def fixed_basic_pairs() -> list[tuple[SpinSystem, SpinSystem]]:
    """10 deterministic small-parameter-distance pairs, n <= 8."""
    pairs: list[tuple[SpinSystem, SpinSystem]] = []
    for i in range(6):
        mu, nu, _ = small_parameter_pair(np.random.default_rng(3000 + i), kind="hardcore")
        pairs.append((mu, nu))
    for i in range(4):
        mu, nu, _ = small_parameter_pair(np.random.default_rng(4000 + i), kind="ising")
        pairs.append((mu, nu))
    return pairs


def fixed_advanced_pairs() -> list[tuple[HardcoreModel, HardcoreModel]]:
    """10 deterministic hardcore pairs for the truncated estimator.

    All satisfy uniqueness with parameter distance below ADVANCED_THETA when
    the thresholds are overridden to (ADVANCED_KAPPA, ADVANCED_THETA); the
    last two have every field below kappa, the regime where the plain
    weight-ratio estimator collapses to zero.
    """
    pairs = []
    for i in range(8):
        rng = np.random.default_rng(5000 + i)
        while True:
            n = int(rng.integers(6, 11))
            g = random_graph(n, 0.3, rng)
            if g.max_degree() <= 8:
                break
        big_mask = rng.random(n) < 0.6
        if big_mask.all():
            big_mask[int(rng.integers(0, n))] = False
        if not big_mask.any():
            big_mask[int(rng.integers(0, n))] = True
        lam = np.where(
            big_mask,
            rng.uniform(0.1, 0.4, n),
            rng.uniform(1e-5, 0.5 * ADVANCED_KAPPA, n),
        )
        d = float(rng.uniform(0.3, 0.8)) * ADVANCED_THETA
        signs = rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.7)
        lam2 = np.clip(lam + signs * d, 1e-9, None)
        pairs.append((HardcoreModel(g, lam), HardcoreModel(g, lam2)))
    for i in range(2):
        rng = np.random.default_rng(6000 + i)
        n = int(rng.integers(6, 9))
        g = random_graph(n, 0.35, rng)
        lam = rng.uniform(1e-6, 5e-4, n)
        d = float(rng.uniform(0.2, 0.8)) * min(1e-6, ADVANCED_THETA)
        signs = rng.choice([-1.0, 1.0], n)
        lam2 = np.clip(lam + signs * d, 1e-9, None)
        pairs.append((HardcoreModel(g, lam), HardcoreModel(g, lam2)))
    return pairs


def counting_instances() -> list[SpinSystem]:
    """Small instances whose exact partition function anchors coverage runs."""
    rng = np.random.default_rng(7000)
    out: list[SpinSystem] = [
        HardcoreModel(path_graph(3), np.ones(3)),
        HardcoreModel(cycle_graph(5), np.full(5, 0.8)),
        HardcoreModel(random_graph(8, 0.35, rng), rng.uniform(0.3, 1.2, 8)),
    ]
    g = random_graph(5, 0.4, np.random.default_rng(7001))
    out.append(
        IsingModel(
            g,
            {e: float(v) for e, v in zip(g.edges, np.random.default_rng(7002).uniform(-0.3, 0.3, g.m))},
            np.random.default_rng(7003).uniform(-0.4, 0.4, 5),
        )
    )
    return out
