"""TV-distance estimators over the sampling/counting oracles, plus dispatch.

Four estimators.  The paper writes TV(mu, nu) as the mean under mu of
``max(0, 1 - W/r)`` with ``W = w_nu/w_mu`` and ``r = Z_nu/Z_mu``; the first
three compute that one statistic (:func:`_ratio_mean`) and differ only in
where W and r come from:

* :func:`additive_tv` -- W per draw of mu, r from counts of Z_mu and Z_nu;
  additive error.
* :func:`marginal_additive_tv` -- W per sampled pattern on a vertex subset,
  from pinned counts and weighted by the pattern's draws, r from counts;
  every count is boosted to high success probability.
* :func:`basic_relative_tv` -- W per draw of mu and r the draws' own mean of
  W, which concentrates when the parameter distance is small; it counts no
  partition function.
* :func:`advanced_relative_tv` -- hardcore-only estimator that conditions on
  the vertices with non-tiny fields and enumerates truncated conditional
  distributions on the rest, so pairs whose fields are far below one sample's
  resolution still get relative accuracy.

:func:`dispatch_tv` glues these behind the preprocessing reductions and the
parameter-distance threshold test.

Several gate constants come straight from asymptotic proofs and are vacuous
or astronomically large at desk scale (e.g. the advanced estimator's
``theta = 1e-10 eps^{1/4} / n^{5/2}``).  The budget therefore exposes
overrides for them; a budget that sets none runs with the published
constants.  Draw counts keep their analytic polynomial shape unless
``T_override`` replaces them.  Every estimator takes its accuracy
``epsilon`` and its random generator ``rng`` as arguments; without an
``rng`` it draws fresh entropy.

When the oracles enumerate, an estimator call enumerates each model at
most once (:class:`_Runtime`): its counts, the sampled model's weights on
the drawn rows and the drawn patterns are all read from that one support,
and the advanced estimator lists the small side's independent sets once and
reads every big-side pattern's truncated conditional from that list.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .counting import CounterConfig, approx_count, count_plan
from .errors import GateError, InfeasiblePinningError, InputError, check_number
from .models import (
    NEG_INF,
    IsingModel,
    SpinSystem,
    _check_pair,
    check_uniqueness,
    contract_pinning,
    pair_regime,
    parameter_distance,
    pin_array,
    preprocess,
    tv_lower_bound_constant,
)
from .sampling import MAX_CHAIN_STEPS, Sampler, SamplerConfig, check_budget


@dataclass(frozen=True)
class EstimatorBudget:
    """Every tunable constant the asymptotic statements hide.

    ``t`` is the truncation size of the advanced estimator.  ``T_override``
    replaces the analytically shaped draw counts outright.  ``kappa_override``
    and ``theta_override`` replace the advanced estimator's thresholds, and
    ``override_gates`` demotes its failed truncation gates to warnings.
    ``exact_cap`` is the size below which the dispatcher answers from the
    exact oracle in auto mode.  ``median_repeats`` amplifies the 2/3 success
    probability by running the chosen estimator several times and taking the
    median estimate.  ``threads`` runs the chains of one sample batch on that
    many worker threads.
    """

    mode: str = "auto"  # auto | additive | basic-relative | advanced | exact
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    counter: CounterConfig = field(default_factory=CounterConfig)
    t: int = 4
    kappa_override: Optional[float] = None
    theta_override: Optional[float] = None
    T_override: Optional[int] = None
    override_gates: bool = False
    exact_cap: int = 16
    median_repeats: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.mode not in {"auto", "additive", "basic-relative", "advanced", "exact"}:
            raise InputError(f"unknown mode {self.mode!r}")
        check_number("truncation size t", self.t, 0)
        for name in ("kappa_override", "theta_override"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), 0.0, strict=True)
        if self.T_override is not None:
            check_number("T_override", self.T_override, 1)
        check_number("exact_cap", self.exact_cap, 0)
        check_number("median_repeats", self.median_repeats, 1)
        check_number("threads", self.threads, 1)


@dataclass
class EstimateReport:
    """Estimate plus the diagnostics needed to audit the branch taken."""

    estimate: float
    error_kind: str  # "additive" | "relative"
    branch: str
    epsilon: float
    d_par: Optional[float] = None
    theta: Optional[float] = None
    b: Optional[float] = None
    c_tv_par: Optional[float] = None
    samples_used: int = 0
    counter_calls: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class MetaConditionParams:
    """Concentration parameters (K, L) for the basic relative estimator."""

    K: float
    L: float
    holds: bool
    reason: str = ""
    theta: Optional[float] = None
    c_tv_par: Optional[float] = None
    d_par: Optional[float] = None


@dataclass(frozen=True)
class BigSmallPartition:
    """Vertices with both fields >= kappa (big) versus the rest (small)."""

    big: tuple[int, ...]
    small: tuple[int, ...]
    kappa: float


@dataclass(frozen=True)
class TruncatedConditional:
    """Truncated conditional partition data for one big-side pinning.

    ``x_plus`` is the big-side +1 set.  ``sets`` enumerates the independent
    sets of the residual small-side graph up to the truncation size, in
    :meth:`Graph.independent_sets` order, with their plain-space weights on
    both sides.
    """

    x_plus: tuple[int, ...]
    t: int
    s_x: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]
    w_mu: np.ndarray
    w_nu: np.ndarray
    z_mu: float
    z_nu: float


class _Draws(NamedTuple):
    """A batch of draws of ``model``: sample row ``rows[i]`` drawn
    ``mult[i]`` times (``mult`` None: once each, on chains).  On
    enumeration ``idx[i]`` is that row's index in the model's support."""

    model: SpinSystem
    rows: np.ndarray
    mult: Optional[np.ndarray]
    idx: Optional[np.ndarray]


class _Runtime:
    """Per-call bundle of budget, rng, cached samplers and supports, usage
    counters, and the start time.

    Each model is enumerated at most once per call: :meth:`support` takes
    the sampler's support when the sampler enumerates, and counts, row
    weights and patterns of enumerated draws all read that one support.
    """

    def __init__(self, budget: EstimatorBudget, rng: Optional[np.random.Generator]):
        self.t0 = time.perf_counter()
        self.budget = budget
        self.rng = rng if rng is not None else np.random.default_rng()
        self.samples_used = 0
        self.counter_calls = 0
        self._samplers: dict[SpinSystem, Sampler] = {}
        self._supports: dict[SpinSystem, exact.ExactDistribution] = {}
        self._pattern_ids: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def sampler(self, model: SpinSystem) -> Sampler:
        if model not in self._samplers:
            self._samplers[model] = Sampler(model, None, self.budget.sampler)
        return self._samplers[model]

    def support(self, model: SpinSystem) -> exact.ExactDistribution:
        """``model``'s enumerated distribution: its sampler's when that
        enumerates, else one :func:`exact.distribution` per call."""
        if model not in self._supports:
            support = self.sampler(model).support
            if support is None:
                support = exact.distribution(model, None, cap=max(model.n, 1))
            self._supports[model] = support
        return self._supports[model]

    def sample_rows(self, model: SpinSystem, count: int, delta: float) -> _Draws:
        """``count`` draws of ``model``; an enumerating sampler returns the
        support rows it drew (:meth:`Sampler.sample_indices`)."""
        self.samples_used += count
        sampler, threads = self.sampler(model), self.budget.threads
        if sampler.support is None:
            return _Draws(model, sampler.sample_batch(count, delta, self.rng, threads), None, None)
        idx, mult = sampler.sample_indices(count, delta, self.rng, threads)
        return _Draws(model, sampler.support.configs[idx], mult, idx)

    def log_weights(self, model: SpinSystem, draws: _Draws) -> np.ndarray:
        """log w of ``model`` on the drawn rows, gathered from the support
        when they are enumerated draws of ``model``."""
        if draws.idx is not None and draws.model is model:
            return self.support(model).log_weights[draws.idx]
        return model.log_weight_batch(draws.rows)

    def patterns(self, draws: _Draws, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Distinct patterns of the drawn rows on ``cols``, with their draw
        counts, in the order of :func:`exact._row_patterns`.

        Enumerated draws read pattern ids computed once per support and
        ``cols``, and count them with one ``bincount``; only patterns drawn
        at least once are kept.
        """
        if draws.idx is None:
            patterns, _, counts = exact._row_patterns(draws.rows, cols, draws.mult)
            return patterns, counts
        key = (draws.model, tuple(cols))
        if key not in self._pattern_ids:
            patterns, ids, _ = exact._row_patterns(self.support(draws.model).configs, cols)
            self._pattern_ids[key] = patterns, ids
        patterns, ids = self._pattern_ids[key]
        counts = np.bincount(ids[draws.idx], weights=draws.mult, minlength=len(patterns))
        drawn = counts > 0
        return patterns[drawn], counts[drawn]

    def _counter_enumerates(self, model: SpinSystem, eps: float) -> bool:
        """Whether the counter enumerates ``model`` (``0 < n <= cap``): its
        counts then read :meth:`support` and cost no chain step.  ``eps`` is
        checked as :func:`count_plan` checks it."""
        if not 0 < eps < 1:
            raise InputError(f"epsilon must be in (0,1), got {eps}")
        return 0 < model.n <= self.budget.counter.exact_fallback_cap

    def count_steps(
        self, model: SpinSystem, eps: float, delta: Optional[float] = None
    ) -> int:
        """Worst-case chain steps of ``count(model, eps, None, delta)``."""
        if self._counter_enumerates(model, eps):
            return 0
        reduced, _, _ = contract_pinning(model, None)
        return count_plan(reduced, eps, self.budget.counter, self.budget.sampler,
                          delta).chain_steps

    def pattern_count_steps(
        self, model: SpinSystem, subset: list[int], eps: float, delta: float
    ) -> int:
        """Worst-case chain steps of ``count(model, eps, pin, delta)``, bounded
        over every pinning ``pin`` of ``subset``.

        Pinning ``subset`` to -1 (to its forced spin where it has one)
        keeps the most vertices and edges a pinning can, and flipping pins
        moves an Ising field by at most twice the couplings to ``subset``.
        The count of that contraction with every field raised by this much
        has at least as many vertices, edges and annealing levels as any
        pattern's, so at least as many chains, each at least as long.
        """
        if self._counter_enumerates(model, eps):
            return 0
        sub = set(subset)
        base = {v: int(model.forced[v]) or -1 for v in sub}
        bound, kept, _ = contract_pinning(model, base)
        if model.kind == "ising":
            shift = np.zeros(model.n)
            for (u, v), j in model.couplings.items():
                if (u in sub) != (v in sub):
                    shift[v if u in sub else u] += 2.0 * abs(j)
            bound = IsingModel(bound.graph, bound.couplings, np.abs(bound.h) + shift[kept])
        return count_plan(bound, eps, self.budget.counter, self.budget.sampler,
                          delta).chain_steps

    def count(
        self,
        model: SpinSystem,
        eps: float,
        pin: Optional[Mapping[int, int]] = None,
        delta: Optional[float] = None,
    ) -> float:
        """log Z^pin-hat: ``approx_count`` of the contracted model, boosted
        to failure probability ``delta`` when it is given.

        The pinning (and any forced spin) is contracted here, and
        each of the count's repeats (:class:`CountPlan`) is one counter
        call.  Infeasible pinnings give -inf.  When the counter enumerates
        ``model``, the count is one call that contracts nothing: the
        log-sum-exp of the support's log weights over the rows that match
        ``pin``.
        """
        if self._counter_enumerates(model, eps):
            self.counter_calls += 1
            support = self.support(model)
            if not pin:
                return support.log_z
            pins = pin_array(pin, model.n)
            cols = np.flatnonzero(pins)
            match = np.all(support.configs[:, cols] == pins[cols], axis=1)
            if not match.any():
                return NEG_INF
            return float(np.logaddexp.reduce(support.log_weights[match]))
        try:
            reduced, _, log_const = contract_pinning(model, pin)
        except InfeasiblePinningError:
            self.counter_calls += 1
            return NEG_INF
        counter, sampler = self.budget.counter, self.budget.sampler
        self.counter_calls += count_plan(reduced, eps, counter, sampler, delta).repeats
        return log_const + approx_count(reduced, eps, counter, self.rng, sampler,
                                        self.budget.threads, delta)

    def finish(self, report: EstimateReport) -> EstimateReport:
        report.samples_used = self.samples_used
        report.counter_calls = self.counter_calls
        report.elapsed = time.perf_counter() - self.t0
        return report


def _draw_count(
    budget: EstimatorBudget, formula: Callable[[], float], what: str
) -> int:
    """Draw count of one estimator stage, refused above ``MAX_DRAWS``.

    ``T_override`` replaces the analytic ``formula``; the formula is only
    evaluated when it is used.
    """
    if budget.T_override is not None:
        return check_budget(lambda: budget.T_override, what)
    return check_budget(formula, f"{what} (set T_override to run at desk scale)")


def _ratio_mean(lwm: np.ndarray, lwn: np.ndarray, weights: Optional[np.ndarray] = None,
                log_r: Optional[float] = None) -> float:
    """Weighted mean of ``max(0, 1 - W/r)`` over rows with log w_mu ``lwm``
    and log w_nu ``lwn``, where ``W = w_nu/w_mu`` and ``r = exp(log_r)``, or
    without ``log_r`` the rows' weighted mean of W.  Rows with w_mu = 0
    contribute 0."""
    ok = lwm > NEG_INF
    live = ok & (lwn > NEG_INF)
    ratio = np.zeros(len(lwm))
    with np.errstate(over="ignore"):  # inf ratios clamp their terms to 0
        if log_r is None:
            ratio[live] = np.exp(lwn[live] - lwm[live])
            ratio[live] /= np.average(ratio, weights=weights)
        else:
            ratio[live] = np.exp(lwn[live] - lwm[live] - log_r)
    terms = np.where(ok, np.maximum(0.0, 1.0 - ratio), 0.0)
    return float(np.average(terms, weights=weights))


def additive_tv(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: EstimatorBudget,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Additive-error estimate: mean of max(0, 1 - nu_hat/mu_hat) over samples.

    Counting calls run at accuracy eps/4, sampling at TV accuracy eps/4, and
    T = ceil(64/eps^2) draws give P[|d_hat - TV| <= eps] >= 2/3.  A
    ``T_override`` on the budget replaces the draw count (the dispatcher's
    gated accuracies can make the default astronomically large); statistical
    quality is then the caller's responsibility.  The worst-case chain
    steps of both counts and of the sample batch are added up and refused
    above ``MAX_CHAIN_STEPS`` before the first of them runs.
    """
    _check_pair(mu, nu)
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    tcount = _draw_count(budget, lambda: 64.0 / epsilon**2, "additive estimator")
    check_budget(
        lambda: rt.count_steps(mu, epsilon / 4) + rt.count_steps(nu, epsilon / 4)
        + rt.sampler(mu).batch_steps(tcount, epsilon / 4),
        "the additive estimator", MAX_CHAIN_STEPS, "chain steps",
    )
    log_zm = rt.count(mu, epsilon / 4)
    log_zn = rt.count(nu, epsilon / 4)
    draws = rt.sample_rows(mu, tcount, epsilon / 4)
    estimate = _ratio_mean(rt.log_weights(mu, draws), rt.log_weights(nu, draws), draws.mult,
                           log_r=log_zn - log_zm)
    report = EstimateReport(estimate, "additive", "additive", epsilon)
    return rt.finish(report)


def marginal_additive_tv(
    mu: SpinSystem,
    nu: SpinSystem,
    subset: Iterable[int],
    epsilon: float,
    budget: EstimatorBudget,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Additive-error estimate of the TV distance between marginals on a subset.

    Uses conditional counting at accuracy eps/8 with per-call success boosted
    to 1 - eps^2/320, and T = ceil(64/eps^2) projected samples.  The
    worst-case chain steps of every count and of the sample batch are added
    up and refused above ``MAX_CHAIN_STEPS`` before the first of them runs:
    the two boosted counts, the batch, and two boosted conditional counts
    for each of at most ``min(T, 2^|subset|)`` patterns, each bounded by
    :meth:`_Runtime.pattern_count_steps`.
    """
    _check_pair(mu, nu)
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    sub = sorted(set(int(v) for v in subset))
    if any(not 0 <= v < mu.n for v in sub):
        raise InputError("subset references vertices outside the graph")
    rt = _Runtime(budget, rng)
    if not sub:
        return rt.finish(EstimateReport(0.0, "additive", "marginal-additive", epsilon))
    tcount = _draw_count(budget, lambda: 64.0 / epsilon**2, "marginal estimator")
    delta_cc = epsilon**2 / 320.0
    patterns = min(tcount, 2 ** min(len(sub), 64))
    check_budget(
        lambda: rt.count_steps(mu, epsilon / 8, delta_cc)
        + rt.count_steps(nu, epsilon / 8, delta_cc)
        + rt.sampler(mu).batch_steps(tcount, epsilon / 8)
        + patterns * (rt.pattern_count_steps(mu, sub, epsilon / 8, delta_cc)
                      + rt.pattern_count_steps(nu, sub, epsilon / 8, delta_cc)),
        "the marginal estimator", MAX_CHAIN_STEPS, "chain steps",
    )
    log_zm = rt.count(mu, epsilon / 8, delta=delta_cc)
    log_zn = rt.count(nu, epsilon / 8, delta=delta_cc)
    patterns, counts = rt.patterns(rt.sample_rows(mu, tcount, epsilon / 8), sub)
    lwm = np.full(len(patterns), NEG_INF)
    lwn = np.full(len(patterns), NEG_INF)
    for i, row in enumerate(patterns):
        pin = {v: int(c) for v, c in zip(sub, row)}
        lwm[i] = rt.count(mu, epsilon / 8, pin, delta_cc)
        if lwm[i] > NEG_INF:  # else mu_hat restricted to this pattern is 0
            lwn[i] = rt.count(nu, epsilon / 8, pin, delta_cc)
    estimate = _ratio_mean(lwm, lwn, counts, log_zn - log_zm)
    report = EstimateReport(estimate, "additive", "marginal-additive", epsilon)
    return rt.finish(report)


def section_theta(mu: SpinSystem, nu: SpinSystem, b: float) -> float:
    """Parameter-distance threshold separating the additive and relative paths."""
    n, m = mu.n, mu.graph.m
    if mu.kind == "hardcore":
        return b / (2.0 * (1.0 - b) * n) if b < 1 else 0.5 / n
    return 1.0 / (2.0 * (n + 3 * m))


def meta_condition_params(
    mu: SpinSystem,
    nu: SpinSystem,
    b: float,
    c_tv_par: Optional[float] = None,
    d_par: Optional[float] = None,
) -> MetaConditionParams:
    """(K, L) for the concentration condition behind the basic estimator.

    Hardcore: K = 4n/(b C); Ising: K = 4(n+m)/C; both with L = 2, valid when
    the parameter distance is at most the threshold theta.
    """
    _check_pair(mu, nu)
    if c_tv_par is None:
        c_tv_par = tv_lower_bound_constant(pair_regime(mu, nu))
    if d_par is None:
        d_par = parameter_distance(mu, nu)
    theta = section_theta(mu, nu, b)
    if mu.kind == "hardcore":
        k = 4.0 * mu.n / (b * c_tv_par)
    else:
        k = 4.0 * (mu.n + mu.graph.m) / c_tv_par
    if d_par > theta:
        return MetaConditionParams(
            k, 2.0, False,
            f"parameter distance {d_par:.3g} exceeds threshold {theta:.3g}",
            theta, c_tv_par, d_par,
        )
    return MetaConditionParams(k, 2.0, True, "", theta, c_tv_par, d_par)


def basic_relative_tv(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    params: MetaConditionParams,
    budget: EstimatorBudget,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Relative-error estimate ``e_bar / (2 w_bar)`` from T draws of mu.

    With ``W = w_nu(X)/w_mu(X)`` for ``X ~ mu``, ``E[W] = Z_nu/Z_mu``
    exactly, so the paper's ``TV = (Z_mu / 2 Z_nu) E|E[W] - W|`` is
    ``E|E[W] - W| / (2 E[W])``.  Both parts come from the same draws
    ``W_1..W_T``: ``w_bar = mean W_i`` and ``e_bar = mean |W_i - w_bar|``,
    and as the ``W_i - w_bar`` sum to 0, ``e_bar / (2 w_bar)`` is the mean
    of ``max(0, 1 - W_i/w_bar)``.  No partition function is counted.

    ``w_bar`` is an eps/4-relative estimate of ``Z_nu/Z_mu`` by the
    meta-condition alone.  Its (K, L) give ``sd(W) <= K TV`` and
    ``E[W] >= 1/L``, so with ``T = 1e4 L^2 K^2 / eps^2`` Chebyshev gives::

        P(|w_bar / E[W] - 1| > eps/4) <= 16 Var(W) / (T eps^2 E[W]^2)
                                      <= 16 K^2 TV^2 L^2 / (T eps^2)
                                       = 16 TV^2 / 1e4  <=  1.6e-3,

    below the 2 x 0.01 failure budget of two eps/4 counts of Z_mu and Z_nu,
    the only other source of the ratio.  On that event ``1/w_bar`` lies
    within factors ``1/(1 + eps/4)`` and ``1/(1 - eps/4)`` of
    ``Z_mu/Z_nu``, inside the range the two counts allow, so the analysis of
    ``e_bar`` goes through unchanged.  A ``T_override`` below T gives up
    this bound.
    """
    _check_pair(mu, nu)
    if not params.holds:
        raise GateError(f"concentration condition gate failed: {params.reason}")
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    tcount = _draw_count(
        budget,
        lambda: 1e4 * params.L**2 * params.K**2 / epsilon**2,
        "basic estimator",
    )
    draws = rt.sample_rows(mu, tcount, 1.0 / (100.0 * tcount))
    estimate = _ratio_mean(rt.log_weights(mu, draws), rt.log_weights(nu, draws), draws.mult)
    report = EstimateReport(
        estimate, "relative", "basic", epsilon,
        d_par=params.d_par, theta=params.theta, c_tv_par=params.c_tv_par,
    )
    return rt.finish(report)


# ---------------------------------------------------------------------------
# Advanced hardcore estimator


def advanced_thresholds(
    n: int, epsilon: float, budget: EstimatorBudget
) -> tuple[float, float]:
    """(kappa, theta) for the big/small split, honoring overrides."""
    kappa = 1e-9 * epsilon**0.25 / n**1.5
    theta = 1e-10 * epsilon**0.25 / n**2.5
    if budget.kappa_override is not None:
        kappa = budget.kappa_override
    if budget.theta_override is not None:
        theta = budget.theta_override
    return kappa, theta


def eta_truncation_bound(kappa: float, t: int, n: int) -> float:
    """Truncation-error coefficient 1e6 (1+n/10)^(t+1) kappa^t n^(t+2)."""
    if kappa < 0 or t < 0:
        raise InputError("kappa must be >= 0 and t >= 0")
    return 1e6 * (1.0 + n / 10.0) ** (t + 1) * kappa**t * n ** (t + 2)


def partition_big_small(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: EstimatorBudget,
) -> BigSmallPartition:
    """Split vertices by min(lam_mu, lam_nu) >= kappa.

    Gated on a hardcore pair in the uniqueness regime with parameter distance
    below the advanced threshold theta.
    """
    _check_pair(mu, nu)
    if mu.kind != "hardcore":
        raise GateError("the advanced estimator applies to hardcore pairs only")
    if check_uniqueness(mu) is None or check_uniqueness(nu) is None:
        raise GateError("both models must satisfy the uniqueness condition")
    kappa, theta = advanced_thresholds(mu.n, epsilon, budget)
    d = parameter_distance(mu, nu)
    if d >= theta:
        raise GateError(
            f"parameter distance {d:.3g} is not below the advanced threshold "
            f"{theta:.3g}"
        )
    both = np.minimum(mu.lam, nu.lam)
    big = tuple(int(v) for v in np.flatnonzero(both >= kappa))
    small = tuple(int(v) for v in np.flatnonzero(both < kappa))
    return BigSmallPartition(big, small, kappa)


class _SmallSets(NamedTuple):
    """The small side's independent sets of size at most ``t``, in
    :meth:`Graph.independent_sets` order, with their vertex indicators
    (one row of ``n`` per set) and plain-space weights on both sides."""

    t: int
    sets: tuple[tuple[int, ...], ...]
    members: np.ndarray
    w_mu: np.ndarray
    w_nu: np.ndarray


def _small_sets(
    mu: SpinSystem, nu: SpinSystem, part: BigSmallPartition, t: int
) -> _SmallSets:
    t_eff = min(t, len(part.small))
    sets = tuple(mu.graph.independent_sets(part.small, t_eff))
    members = np.zeros((len(sets), mu.n), dtype=bool)
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    members[rows, np.array([v for s in sets for v in s], dtype=np.intp)] = True
    w_mu = np.array([float(np.prod(mu.lam[list(s)])) for s in sets])
    w_nu = np.array([float(np.prod(nu.lam[list(s)])) for s in sets])
    return _SmallSets(t_eff, sets, members, w_mu, w_nu)


def _conditional(
    mu: SpinSystem, part: BigSmallPartition, table: _SmallSets, plus: Iterable[int]
) -> TruncatedConditional:
    """:func:`truncated_conditional` read from the small side's sets
    ``table``: the sets with no vertex next to ``plus``.  They are the
    independent sets of ``s_x`` in their own order, and ``math.fsum`` does
    not depend on order, so the result is the same as enumerating ``s_x``."""
    plus_set = set(int(v) for v in plus)
    if not plus_set <= set(part.big):
        raise InputError("the +1 set must be a subset of the big vertices")
    if not mu.graph.is_independent_set(plus_set):
        raise InfeasiblePinningError("big-side +1 set is not independent")
    s_x, blocked = [], []
    for v in part.small:
        adjacent = any(int(u) in plus_set for u in mu.graph.neighbors(v))
        (blocked if adjacent else s_x).append(v)
    keep = np.flatnonzero(~table.members[:, blocked].any(axis=1))
    w_mu, w_nu = table.w_mu[keep], table.w_nu[keep]
    return TruncatedConditional(
        tuple(sorted(plus_set)), table.t, tuple(s_x), tuple(table.sets[i] for i in keep),
        w_mu, w_nu, float(math.fsum(w_mu.tolist())), float(math.fsum(w_nu.tolist())),
    )


def truncated_conditional(
    mu: SpinSystem,
    nu: SpinSystem,
    part: BigSmallPartition,
    plus: Iterable[int],
    t: int,
) -> TruncatedConditional:
    """Truncated small-side conditional partition data when the big vertices
    in ``plus`` are +1 and the other big vertices are -1.

    Raises:
        InputError: ``plus`` is not a subset of the big vertices.
        InfeasiblePinningError: ``plus`` is not independent.
    """
    _check_pair(mu, nu)
    return _conditional(mu, part, _small_sets(mu, nu, part, t), plus)


def _field_ratio(mu: SpinSystem, nu: SpinSystem, plus: tuple[int, ...]) -> float:
    if not plus:
        return 1.0
    idx = list(plus)
    return float(np.exp(np.sum(np.log(nu.lam[idx]) - np.log(mu.lam[idx]))))


def _f_hat_from(
    tc: TruncatedConditional, ratio_prod: float, r_tilde: float
) -> float:
    # r_tilde estimates Z_nu/Z_mu; the marginal ratio nu_B(x)/mu_B(x) carries
    # the *reciprocal* partition ratio, so it enters as a divisor
    if r_tilde <= 0:
        raise InputError("partition ratio estimate must be positive")
    scale = ratio_prod * (tc.z_nu / tc.z_mu) / r_tilde
    terms = np.abs(scale * tc.w_nu / tc.z_nu - tc.w_mu / tc.z_mu)
    return 0.5 * float(math.fsum(terms.tolist()))


def _plus_sets(patterns: np.ndarray, cols: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The +1 vertices of each +-1 pattern on ``cols``."""
    return [tuple(cols[i] for i in np.flatnonzero(row > 0)) for row in patterns]


def _project_unique(
    xs: np.ndarray, cols: tuple[int, ...], weights: Optional[np.ndarray] = None
):
    """Big-side +1 sets of the rows ``xs`` with their draw counts (rows
    weighted by ``weights``, see :func:`exact._row_patterns`)."""
    patterns, _, counts = exact._row_patterns(xs, cols, weights)
    return _plus_sets(patterns, cols), counts


def _advanced_draws(
    n: int, kappa: float, t: int, epsilon: float, budget: EstimatorBudget
) -> int:
    """Check the truncation gates, then size T = T' of the advanced path."""
    _, theta = advanced_thresholds(n, epsilon, budget)
    problems = []
    eta = eta_truncation_bound(kappa, t, n)
    if eta > epsilon / 200.0:
        problems.append(f"eta(kappa,t)={eta:.3g} > eps/200={epsilon / 200:.3g}")
    if theta / kappa >= 1.0 / (10.0 * n):
        problems.append(f"theta/kappa={theta / kappa:.3g} >= 1/(10n)")
    if theta + kappa >= 1.0 / (10.0 * n):
        problems.append(f"theta+kappa={theta + kappa:.3g} >= 1/(10n)")
    if problems:
        msg = "; ".join(problems)
        if not budget.override_gates:
            raise GateError(f"advanced-estimator gates failed: {msg}")
        warnings.warn(f"advanced-estimator gates overridden: {msg}", RuntimeWarning)
    return _draw_count(
        budget,
        lambda: (n**3 + n / kappa) / epsilon**2,
        "advanced estimator",
    )


def _tilde_ratio(
    mu: SpinSystem, nu: SpinSystem, big: tuple[int, ...],
    trunc: Callable[[tuple[int, ...]], TruncatedConditional], rt: _Runtime, tprime: int,
) -> float:
    """Z_nu/Z_mu estimated from ``tprime`` draws of mu projected on ``big``;
    ``trunc`` maps a big-side +1 set to its truncated conditional."""
    patterns, counts = rt.patterns(rt.sample_rows(mu, tprime, 1.0 / (1000.0 * tprime)), big)
    total = 0.0
    for plus, cnt in zip(_plus_sets(patterns, big), counts):
        tc = trunc(plus)
        q = _field_ratio(mu, nu, plus) * tc.z_nu / tc.z_mu
        total += cnt * q
    return total / tprime


def advanced_relative_tv(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: EstimatorBudget,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Relative-error estimate for hardcore pairs with tiny parameter distance.

    Mean of the truncated conditional statistic over big-side marginal
    samples; exact for identical pairs and immune to the all-minus collapse
    that defeats the plain weight-ratio estimator when fields are below one
    sample's resolution.  The ratio estimate and the mean share one draw
    count T; the worst-case chain steps of both batches are added up and
    refused above ``MAX_CHAIN_STEPS`` before the first of them runs.
    """
    _check_pair(mu, nu)
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    part = partition_big_small(mu, nu, epsilon, budget)
    t = min(budget.t, len(part.small))
    n = mu.n
    tcount = _advanced_draws(n, part.kappa, t, epsilon, budget)
    sampler = rt.sampler(mu)
    check_budget(
        lambda: sampler.batch_steps(tcount, 1.0 / (1000.0 * tcount))
        + sampler.batch_steps(tcount, 1.0 / (100.0 * tcount)),
        "the advanced estimator", MAX_CHAIN_STEPS, "chain steps",
    )
    table = _small_sets(mu, nu, part, t)
    trunc = functools.cache(lambda plus: _conditional(mu, part, table, plus))
    r_tilde = _tilde_ratio(mu, nu, part.big, trunc, rt, tcount)
    patterns, counts = rt.patterns(rt.sample_rows(mu, tcount, 1.0 / (100.0 * tcount)), part.big)
    total = 0.0
    for plus, cnt in zip(_plus_sets(patterns, part.big), counts):
        tc = trunc(plus)
        total += cnt * _f_hat_from(tc, _field_ratio(mu, nu, plus), r_tilde)
    d = parameter_distance(mu, nu)
    _, theta = advanced_thresholds(n, epsilon, budget)
    report = EstimateReport(
        total / tcount, "relative", "advanced", epsilon,
        d_par=d, theta=theta,
    )
    return rt.finish(report)


# ---------------------------------------------------------------------------
# Dispatcher


def _dispatch_branch(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: EstimatorBudget,
    rng: np.random.Generator,
    gating: dict,
) -> EstimateReport:
    """Run the branch the gates pick; record gating quantities as computed."""
    if mu.n == 0:
        return EstimateReport(0.0, "relative", "empty", epsilon)

    pre = preprocess(mu, nu)
    if pre.status == "resolved":
        return EstimateReport(pre.tv, "relative", "preprocess-resolved", epsilon)
    if pre.status == "big-gap":
        gating["b"] = b = pre.lower_bound
        rep = additive_tv(mu, nu, min(b * epsilon, 0.999), budget, rng)
        return replace(
            rep, error_kind="relative", branch="preprocess-big-gap", epsilon=epsilon
        )

    mu2, nu2 = pre.mu, pre.nu
    n2 = mu2.n
    if budget.mode == "exact" or (budget.mode == "auto" and n2 <= budget.exact_cap):
        cap = max(exact.EXACT_CAP, budget.exact_cap)
        value = exact.exact_tv(mu2, nu2, cap=cap)
        return EstimateReport(value, "relative", "exact", epsilon)

    gating["d_par"] = d = parameter_distance(mu2, nu2)
    if d == 0.0:
        return EstimateReport(0.0, "relative", "identical", epsilon)

    if budget.mode == "additive":
        rep = additive_tv(mu2, nu2, epsilon, budget, rng)
        return replace(rep, branch="additive-forced")

    regime = pair_regime(mu2, nu2)
    gating["b"] = b = regime.marginal_bound
    gating["c_tv_par"] = c_tv = tv_lower_bound_constant(regime)
    gating["theta"] = theta = section_theta(mu2, nu2, b)

    if budget.mode == "auto" and d >= theta:
        rep = additive_tv(mu2, nu2, min(theta * c_tv * epsilon, 0.999), budget, rng)
        return replace(
            rep, error_kind="relative", branch="additive-gated", epsilon=epsilon
        )

    use_advanced = budget.mode == "advanced"
    if budget.mode == "auto" and mu2.kind == "hardcore":
        _, theta_adv = advanced_thresholds(n2, epsilon, budget)
        in_uniqueness = regime.uniqueness_gap is not None
        if in_uniqueness and d < theta_adv:
            use_advanced = True
    if use_advanced:
        return advanced_relative_tv(mu2, nu2, epsilon, budget, rng)

    params = meta_condition_params(mu2, nu2, b, c_tv, d)
    return basic_relative_tv(mu2, nu2, epsilon, params, budget, rng)


def _dispatch_once(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: EstimatorBudget,
    rng: np.random.Generator,
) -> EstimateReport:
    """One dispatch run, stamped with its wall time and the gating fields
    its branch left unset."""
    t0 = time.perf_counter()
    gating: dict = {}
    rep = _dispatch_branch(mu, nu, epsilon, budget, rng, gating)
    for name, value in gating.items():
        if getattr(rep, name) is None:
            setattr(rep, name, value)
    rep.elapsed = time.perf_counter() - t0
    return rep


def dispatch_tv(
    mu: SpinSystem,
    nu: SpinSystem,
    epsilon: float,
    budget: Optional[EstimatorBudget] = None,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Top-level estimator: preprocess, gate on parameter distance, dispatch.

    With ``median_repeats > 1`` the chosen branch runs that many times and
    the median estimate is reported, amplifying the per-run 2/3 success
    probability.
    """
    budget = budget or EstimatorBudget()
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    _check_pair(mu, nu)
    rng = rng if rng is not None else np.random.default_rng()
    k = budget.median_repeats
    if k == 1:
        return _dispatch_once(mu, nu, epsilon, budget, rng)
    reports = [
        _dispatch_once(mu, nu, epsilon, budget, child) for child in rng.spawn(k)
    ]
    estimates = np.array([r.estimate for r in reports])
    median = float(np.median(estimates))
    out = reports[int(np.argmin(np.abs(estimates - median)))]
    out.estimate = median
    out.samples_used = sum(r.samples_used for r in reports)
    out.counter_calls = sum(r.counter_calls for r in reports)
    out.elapsed = sum(r.elapsed for r in reports)
    return out
