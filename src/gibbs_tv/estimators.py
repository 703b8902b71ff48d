"""TV-distance estimators over the sampling/counting oracles, plus dispatch.

Four estimators:

* :func:`additive_tv` -- mean of ``max(0, 1 - nu_hat/mu_hat)`` over oracle
  samples; additive error.
* :func:`marginal_additive_tv` -- same idea on a vertex subset, with
  conditional counting calls boosted to high success probability.
* :func:`basic_relative_tv` -- rewrites TV as ``(Z_mu / 2 Z_nu) * E|E[W]-W|``
  for the weight-ratio variable W and exploits its concentration when the
  parameter distance is small.
* :func:`advanced_relative_tv` -- hardcore-only estimator that conditions on
  the vertices with non-tiny fields and enumerates truncated conditional
  distributions on the rest, so pairs whose fields are far below one sample's
  resolution still get relative accuracy.

:func:`dispatch_tv` glues these behind the preprocessing reductions and the
parameter-distance threshold test.

Several gate constants come straight from asymptotic proofs and are vacuous
or astronomically large at desk scale (e.g. the advanced estimator's
``theta = 1e-10 eps^{1/4} / n^{5/2}``).  The budget therefore exposes
overrides plus a ``paper_strict`` switch that rejects them and enforces the
published constants; sample counts keep their polynomial shape with a
configurable multiplier.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import exact
from .counting import CounterConfig, approx_count, check_budget, counts_exactly
from .errors import GateError, InfeasiblePinningError, InputError
from .models import (
    NEG_INF,
    SpinSystem,
    _check_pair,
    check_uniqueness,
    contract_pinning,
    pair_regime,
    parameter_distance,
    preprocess,
    tv_lower_bound_constant,
)
from .sampling import Sampler, SamplerConfig


@dataclass(frozen=True)
class EstimatorBudget:
    """Every tunable constant the asymptotic statements hide.

    ``t`` is the truncation size of the advanced estimator.  ``c_T``
    multiplies the analytically shaped sample counts; ``T_override`` replaces them
    outright.  ``exact_cap`` is the size below which the dispatcher answers
    from the exact oracle in auto mode.  ``median_repeats`` amplifies the 2/3
    success probability by running the chosen estimator several times and
    taking the median estimate.
    """

    epsilon: float = 0.1
    mode: str = "auto"  # auto | additive | basic-relative | advanced | exact
    seed: Optional[int] = None
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    counter: CounterConfig = field(default_factory=CounterConfig)
    t: int = 4
    kappa_override: Optional[float] = None
    theta_override: Optional[float] = None
    c_T: float = 1.0
    T_override: Optional[int] = None
    override_gates: bool = False
    paper_strict: bool = False
    exact_cap: int = 16
    median_repeats: int = 1
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InputError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.t < 0:
            raise InputError("truncation size t must be >= 0")
        if self.mode not in {"auto", "additive", "basic-relative", "advanced", "exact"}:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.median_repeats < 1 or self.c_T <= 0:
            raise InputError("median_repeats and c_T must be positive")
        if self.T_override is not None and self.T_override < 1:
            raise InputError(f"T_override must be at least 1, got {self.T_override}")
        if self.threads < 1:
            raise InputError(f"threads must be at least 1, got {self.threads}")

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


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

    ``sets`` enumerates the independent sets of the residual small-side graph
    up to the truncation size, with their plain-space weights on both sides.
    """

    x_plus: tuple[int, ...]
    t: int
    s_x: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]
    w_mu: np.ndarray
    w_nu: np.ndarray
    z_mu: float
    z_nu: float


class _Runtime:
    """Per-call bundle of budget, rng, cached samplers, usage counters, and
    the start time."""

    def __init__(self, budget: EstimatorBudget, rng: Optional[np.random.Generator]):
        self.t0 = time.perf_counter()
        self.budget = budget
        self.rng = rng if rng is not None else budget.make_rng()
        self.samples_used = 0
        self.counter_calls = 0
        self._samplers: dict[SpinSystem, Sampler] = {}

    def sample_batch(self, model: SpinSystem, count: int, delta: float) -> np.ndarray:
        if model not in self._samplers:
            self._samplers[model] = Sampler(model, None, self.budget.sampler)
        self.samples_used += count
        return self._samplers[model].sample_batch(
            count, delta, self.rng, self.budget.threads
        )

    def count(
        self,
        model: SpinSystem,
        eps: float,
        pin: Optional[Mapping[int, int]] = None,
        delta: Optional[float] = None,
    ) -> float:
        """log Z^pin-hat: the median of k counts of the contracted model.

        The pinning (and any infinite Ising field) is contracted once.  k is
        1 without ``delta``, else 2 ceil(ln(1/delta)) + 1 for failure
        probability ~delta.  Infeasible pinnings give -inf.
        """
        try:
            reduced, _, log_const = contract_pinning(model, pin)
        except InfeasiblePinningError:
            self.counter_calls += 1
            return NEG_INF
        if delta is None or counts_exactly(reduced, self.budget.counter):
            repeats = 1  # no boosting asked, or a deterministic answer
        else:
            repeats = 2 * math.ceil(math.log(1.0 / delta)) + 1
        self.counter_calls += repeats
        if reduced.n == 0:
            return log_const
        vals = [
            log_const + approx_count(
                reduced, eps, self.budget.counter, self.rng,
                self.budget.sampler, self.budget.threads,
            )
            for _ in range(repeats)
        ]
        return float(np.median(vals))

    def finish(self, report: EstimateReport) -> EstimateReport:
        report.samples_used = self.samples_used
        report.counter_calls = self.counter_calls
        report.elapsed = time.perf_counter() - self.t0
        return report


def _draw_count(
    budget: EstimatorBudget, formula: Callable[[], float], what: str
) -> int:
    """Draw count of one estimator stage, refused above ``MAX_DRAWS``.

    ``T_override`` replaces the analytic ``formula`` unless ``paper_strict``
    is set; the formula is only evaluated when it is used.
    """
    if budget.T_override is not None and not budget.paper_strict:
        return check_budget(lambda: budget.T_override, what)
    return check_budget(formula, f"{what} (set T_override to run at desk scale)")


def _ratio_hat(
    mu: SpinSystem, nu: SpinSystem, configs: np.ndarray, log_shift: float
) -> np.ndarray:
    """exp(log w_nu - log w_mu + log_shift) per row; 0 where w_mu is 0."""
    lwm = mu.log_weight_batch(configs)
    lwn = nu.log_weight_batch(configs)
    out = np.zeros(len(configs))
    ok = lwm > NEG_INF
    live = ok & (lwn > NEG_INF)
    with np.errstate(over="ignore"):  # inf ratios clamp downstream maxima to 0
        out[live] = np.exp(lwn[live] - lwm[live] + log_shift)
    return out


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
    quality is then the caller's responsibility.
    """
    _check_pair(mu, nu)
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    tcount = _draw_count(budget, lambda: 64.0 / epsilon**2, "additive estimator")
    log_zm = rt.count(mu, epsilon / 4)
    log_zn = rt.count(nu, epsilon / 4)
    xs = rt.sample_batch(mu, tcount, epsilon / 4)
    ratio = _ratio_hat(mu, nu, xs, log_zm - log_zn)
    lwm = mu.log_weight_batch(xs)
    x_hat = np.where(lwm > NEG_INF, np.maximum(0.0, 1.0 - ratio), 0.0)
    report = EstimateReport(float(np.mean(x_hat)), "additive", "additive", epsilon)
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
    to 1 - eps^2/320, and T = ceil(64/eps^2) projected samples.
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
    log_zm = rt.count(mu, epsilon / 8, delta=delta_cc)
    log_zn = rt.count(nu, epsilon / 8, delta=delta_cc)
    xs = rt.sample_batch(mu, tcount, epsilon / 8)
    patterns, _, counts = exact._row_patterns(xs, sub)
    total = 0.0
    for row, cnt in zip(patterns, counts):
        pin = {v: int(c) for v, c in zip(sub, row)}
        lzm_s = rt.count(mu, epsilon / 8, pin, delta_cc)
        if lzm_s == NEG_INF:
            continue  # mu_hat restricted to this pattern is 0
        lzn_s = rt.count(nu, epsilon / 8, pin, delta_cc)
        if lzn_s == NEG_INF:
            y_hat = 1.0
        else:
            expo = lzn_s - lzm_s + log_zm - log_zn
            y_hat = 0.0 if expo >= 0 else max(0.0, 1.0 - math.exp(expo))
        total += cnt * y_hat
    report = EstimateReport(
        float(total) / tcount, "additive", "marginal-additive", epsilon
    )
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
        c_tv_par = tv_lower_bound_constant(mu.kind, pair_regime(mu, nu))
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
    """Relative-error estimate (Z_mu / 2 Z_nu) * mean |W_i - W_bar|."""
    _check_pair(mu, nu)
    if not params.holds:
        raise GateError(f"concentration condition gate failed: {params.reason}")
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    tcount = _draw_count(
        budget,
        lambda: budget.c_T * 1e4 * params.L**2 * params.K**2 / epsilon**2,
        "basic estimator",
    )
    log_zm = rt.count(mu, epsilon / 4)
    log_zn = rt.count(nu, epsilon / 4)
    xs = rt.sample_batch(mu, tcount, 1.0 / (100.0 * tcount))
    w_hat = _ratio_hat(mu, nu, xs, 0.0)
    w_bar = float(np.mean(w_hat))
    e_bar = float(np.mean(np.abs(w_hat - w_bar)))
    estimate = math.exp(log_zm - log_zn) / 2.0 * e_bar
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
    if not budget.paper_strict:
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


def _small_sets_up_to(
    graph, vertices: list[int], t: int
) -> list[tuple[int, ...]]:
    """Independent sets of the induced subgraph on ``vertices`` with size <= t."""
    vset = set(vertices)
    order = sorted(vertices)
    out: list[tuple[int, ...]] = [()]
    chosen: list[int] = []
    blocked: set[int] = set()

    def walk(i: int) -> None:
        if len(chosen) == t or i == len(order):
            return
        for j in range(i, len(order)):
            v = order[j]
            if v in blocked:
                continue
            chosen.append(v)
            out.append(tuple(chosen))
            newly = [u for u in graph.neighbors(v) if u in vset and u not in blocked]
            blocked.update(newly)
            blocked.add(v)
            walk(j + 1)
            blocked.difference_update(newly)
            blocked.discard(v)
            chosen.pop()

    if t > 0:
        walk(0)
    return out


def _x_plus(part: BigSmallPartition, x: Mapping[int, int]) -> tuple[int, ...]:
    if set(x.keys()) != set(part.big):
        raise InputError("pinning x must assign exactly the big vertices")
    return tuple(sorted(v for v, c in x.items() if c == 1))


def truncated_conditional(
    mu: SpinSystem,
    nu: SpinSystem,
    part: BigSmallPartition,
    x: Mapping[int, int],
    t: int,
) -> TruncatedConditional:
    """Truncated small-side conditional partition data under big-side pinning x."""
    _check_pair(mu, nu)
    plus = _x_plus(part, x)
    if not mu.graph.is_independent_set(plus):
        raise InfeasiblePinningError("big-side +1 set is not independent")
    t_eff = min(t, len(part.small))
    plus_set = set(plus)
    s_x = [
        v
        for v in part.small
        if not any(int(u) in plus_set for u in mu.graph.neighbors(v))
    ]
    sets = _small_sets_up_to(mu.graph, s_x, t_eff)
    w_mu = np.array([float(np.prod(mu.lam[list(s)])) for s in sets])
    w_nu = np.array([float(np.prod(nu.lam[list(s)])) for s in sets])
    return TruncatedConditional(
        plus, t_eff, tuple(s_x), tuple(sets), w_mu, w_nu,
        float(math.fsum(w_mu.tolist())), float(math.fsum(w_nu.tolist())),
    )


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


def f_hat(
    mu: SpinSystem,
    nu: SpinSystem,
    part: BigSmallPartition,
    t: int,
    r_tilde: float,
    x: Mapping[int, int],
) -> float:
    """Deterministic per-pinning TV contribution given a ratio estimate."""
    tc = truncated_conditional(mu, nu, part, x, t)
    return _f_hat_from(tc, _field_ratio(mu, nu, tc.x_plus), r_tilde)


class _TruncStore:
    """Cache of TruncatedConditional values keyed by the big-side +1 set."""

    def __init__(self, mu, nu, part, t):
        self.mu, self.nu, self.part, self.t = mu, nu, part, t
        self._data: dict[tuple[int, ...], TruncatedConditional] = {}

    def get(self, plus: tuple[int, ...]) -> TruncatedConditional:
        if plus not in self._data:
            x = {v: (1 if v in plus else -1) for v in self.part.big}
            self._data[plus] = truncated_conditional(
                self.mu, self.nu, self.part, x, self.t
            )
        return self._data[plus]


def _project_unique(xs: np.ndarray, cols: tuple[int, ...]):
    patterns, _, counts = exact._row_patterns(xs, cols)
    plus_sets = [
        tuple(cols[i] for i in np.flatnonzero(row > 0)) for row in patterns
    ]
    return plus_sets, counts


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
        if not budget.override_gates or budget.paper_strict:
            raise GateError(f"advanced-estimator gates failed: {msg}")
        warnings.warn(f"advanced-estimator gates overridden: {msg}", RuntimeWarning)
    return _draw_count(
        budget,
        lambda: budget.c_T * (n**3 + n / kappa) / epsilon**2,
        "advanced estimator",
    )


def _tilde_ratio(
    mu: SpinSystem, nu: SpinSystem, store: _TruncStore, rt: _Runtime, tprime: int
) -> float:
    xs = rt.sample_batch(mu, tprime, 1.0 / (1000.0 * tprime))
    plus_sets, counts = _project_unique(xs, store.part.big)
    total = 0.0
    for plus, cnt in zip(plus_sets, counts):
        tc = store.get(plus)
        q = _field_ratio(mu, nu, plus) * tc.z_nu / tc.z_mu
        total += cnt * q
    return total / len(xs)


def tilde_ratio_R(
    mu: SpinSystem,
    nu: SpinSystem,
    part: BigSmallPartition,
    t: int,
    epsilon: float,
    budget: EstimatorBudget,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Estimate Z_nu/Z_mu to additive error (eps/100)*TV via big-side samples."""
    _check_pair(mu, nu)
    tprime = _advanced_draws(mu.n, part.kappa, t, epsilon, budget)
    store = _TruncStore(mu, nu, part, t)
    return _tilde_ratio(mu, nu, store, _Runtime(budget, rng), tprime)


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
    count T.
    """
    _check_pair(mu, nu)
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    rt = _Runtime(budget, rng)
    part = partition_big_small(mu, nu, epsilon, budget)
    t = min(budget.t, len(part.small))
    n = mu.n
    tcount = _advanced_draws(n, part.kappa, t, epsilon, budget)
    store = _TruncStore(mu, nu, part, t)
    r_tilde = _tilde_ratio(mu, nu, store, rt, tcount)
    xs = rt.sample_batch(mu, tcount, 1.0 / (100.0 * tcount))
    plus_sets, counts = _project_unique(xs, part.big)
    total = 0.0
    for plus, cnt in zip(plus_sets, counts):
        tc = store.get(plus)
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
    gating["c_tv_par"] = c_tv = tv_lower_bound_constant(mu2.kind, regime)
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
    epsilon: Optional[float] = None,
    budget: Optional[EstimatorBudget] = None,
    rng: Optional[np.random.Generator] = None,
) -> EstimateReport:
    """Top-level estimator: preprocess, gate on parameter distance, dispatch.

    With ``median_repeats > 1`` the chosen branch runs that many times and
    the median estimate is reported, amplifying the per-run 2/3 success
    probability.
    """
    budget = budget or EstimatorBudget()
    epsilon = budget.epsilon if epsilon is None else epsilon
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    _check_pair(mu, nu)
    rng = rng if rng is not None else budget.make_rng()
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
