"""Approximate counting oracle: telescoping products along an annealing path.

``approx_count`` interpolates from a trivially countable base (hardcore: all
fields zero, Z = 1; Ising: zero couplings and fields, Z = 2^n) to the target
and estimates each level's partition-function ratio by Monte Carlo.  Ratios
are taken in the reverse direction, sampling at level i and averaging
``w_{i-1}(X)/w_i(X)``: every level then has full support over its samples
(the base level of a hardcore path is a point mass, which would break the
forward direction) and the per-sample ratio is bounded by 1 for hardcore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import exact
from .errors import InputError, MustPreprocessError, OracleError, check_number
from .models import HardcoreModel, IsingModel, SpinSystem, contract_pinning
from .sampling import (
    MAX_CHAIN_STEPS,
    Sampler,
    SamplerConfig,
    chain_steps,
    check_budget,
    worst_chain_steps,
)

LEVELS_MULTIPLIER = 4.0  # annealing levels per unit of log-weight span


@dataclass(frozen=True)
class CounterConfig:
    """Tunables of the counting oracle.

    ``samples_per_level`` is the base draw count, scaled by 1/epsilon^2.
    ``boost_repeats`` independent runs are combined by the median of their
    log-estimates.  Instances with at most ``exact_fallback_cap`` vertices
    are counted by enumeration instead.
    """

    samples_per_level: float = 16.0
    boost_repeats: int = 9
    exact_fallback_cap: int = 0

    def __post_init__(self):
        check_number("samples_per_level", self.samples_per_level, 0.0, strict=True)
        check_number("boost_repeats", self.boost_repeats, 1)
        check_number("exact_fallback_cap", self.exact_fallback_cap, 0)


def num_levels(model: SpinSystem) -> int:
    """Annealing path length: scales with the total log-weight budget.

    A span so large that the path would be longer than ``MAX_CHAIN_STEPS``
    (every level takes at least one chain step) is refused.
    """
    if model.kind == "hardcore":
        span = float(np.max(np.log1p(model.lam))) * model.n if model.n else 0.0
    else:
        mag = max(float(np.max(np.abs(model.h))) if model.n else 0.0,
                  float(np.max(np.abs(model.csr_j))) if model.graph.m else 0.0)
        span = (model.n + model.graph.m) * mag
    return max(1, check_budget(
        lambda: LEVELS_MULTIPLIER * (1.0 + span), "the annealing path",
        MAX_CHAIN_STEPS, "levels",
    ))


def _level_model(model: SpinSystem, frac: float) -> SpinSystem:
    if model.kind == "hardcore":
        return HardcoreModel(model.graph, model.lam * frac)
    return IsingModel(
        model.graph,
        {e: v * frac for e, v in model.couplings.items()},
        model.h * frac,
    )


def _single_count(
    model: SpinSystem,
    ell: int,
    delta: float,
    draws: int,
    rng: np.random.Generator,
    sampler_cfg: SamplerConfig,
    threads: int,
) -> float:
    log_base = 0.0 if model.kind == "hardcore" else model.n * math.log(2.0)
    log_z = log_base
    for i in range(1, ell + 1):
        level = _level_model(model, i / ell)
        xs = Sampler(level, cfg=sampler_cfg).sample_batch(draws, delta, rng, threads)
        if model.kind == "hardcore":
            k = (xs > 0).sum(axis=1)
            ratios = ((i - 1) / i) ** k.astype(np.float64)
        else:
            ratios = np.exp(-model.log_weight_batch(xs) / ell)
        r_hat = float(np.mean(ratios))
        if r_hat <= 0.0:
            raise OracleError(
                "annealing level produced a zero ratio estimate; "
                "increase samples_per_level"
            )
        log_z -= math.log(r_hat)
    return log_z


class CountPlan(NamedTuple):
    """How :func:`approx_count` counts one model, fixed before any chain step.

    ``model`` is the model actually counted (forced spins contracted).
    ``levels`` is 0 when no chain runs: the model is empty or enumerated.
    Each level draws ``draws`` samples at TV accuracy ``delta``.  The count
    is the median of ``repeats`` medians of ``boost_repeats`` annealing
    runs; ``repeats`` is ``2 ceil(ln(1/d)) + 1`` for a count boosted to
    failure probability ``d`` (:func:`count_plan`'s ``delta``), else 1, and
    1 whenever no chain runs.  ``chain_steps`` is the whole cost, every
    chain at :func:`sampling.worst_chain_steps`.
    """

    model: SpinSystem
    levels: int = 0
    delta: float = 0.0
    draws: int = 0
    repeats: int = 1
    chain_steps: int = 0


def count_plan(
    model: SpinSystem, epsilon: float, cfg: CounterConfig, sampler_cfg: SamplerConfig,
    delta: Optional[float] = None,
) -> CountPlan:
    """The plan of ``approx_count(model, epsilon, cfg, ..., sampler_cfg,
    delta=delta)``.

    Raises TooLargeError when the draws per level exceed ``MAX_DRAWS``, or
    the path or one chain ``MAX_CHAIN_STEPS``.  Whoever runs the plan guards
    its whole cost, ``chain_steps``: :func:`approx_count` alone, or an
    estimator together with its other counts and samples.
    """
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    if model.kind == "ising" and not model.is_soft:
        raise MustPreprocessError("counting needs a soft Ising model; preprocess first")
    model, _, _ = contract_pinning(model, None)
    if model.n == 0 or model.n <= cfg.exact_fallback_cap:
        return CountPlan(model)
    draws = check_budget(
        lambda: cfg.samples_per_level / epsilon**2, "each annealing level"
    )
    ell = num_levels(model)
    level_delta = min(0.5, epsilon / (20.0 * ell))
    repeats = 1 if delta is None else 2 * math.ceil(math.log(1.0 / delta)) + 1
    # no vertex is pinned
    worst = worst_chain_steps(chain_steps(model.n, model.n, level_delta, sampler_cfg))
    total = repeats * cfg.boost_repeats * ell * draws * worst
    return CountPlan(model, ell, level_delta, draws, repeats, total)


def approx_count(
    model: SpinSystem,
    epsilon: float,
    cfg: Optional[CounterConfig] = None,
    rng: Optional[np.random.Generator] = None,
    sampler_cfg: Optional[SamplerConfig] = None,
    threads: int = 1,
    delta: Optional[float] = None,
) -> float:
    """Estimate log Z with P[(1-eps) Z <= Z_hat <= (1+eps) Z] >= 0.99, or
    >= 1 - delta when ``delta`` is given.

    The guarantee is inherited from the sampler; hardcore zero fields are
    contracted exactly first.  The 0.99 count is the median of
    ``boost_repeats`` annealing runs, and a ``delta`` takes the median of
    ``CountPlan.repeats`` such counts (Jerrum, Valiant and Vazirani 1986).
    Returns the log estimate.  Every refusal of :func:`count_plan`, and of
    a whole cost above ``MAX_CHAIN_STEPS``, comes before any chain step.
    """
    if threads < 1:
        raise InputError(f"threads must be at least 1, got {threads}")
    cfg = cfg or CounterConfig()
    rng = rng if rng is not None else np.random.default_rng()
    sampler_cfg = sampler_cfg or SamplerConfig()
    plan = count_plan(model, epsilon, cfg, sampler_cfg, delta)
    check_budget(lambda: plan.chain_steps, "the annealing counter", MAX_CHAIN_STEPS, "chain steps")
    model = plan.model
    if model.n == 0:
        return 0.0  # Z = 1 either way: empty product / 2^0
    if plan.levels == 0:
        return exact.exact_partition(model, cap=model.n)
    medians = [
        np.median([
            _single_count(model, plan.levels, plan.delta, plan.draws, child, sampler_cfg, threads)
            for child in rng.spawn(cfg.boost_repeats)
        ])
        for _ in range(plan.repeats)
    ]
    return float(np.median(medians))
