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
from typing import Callable, Optional

import numpy as np

from . import exact
from .errors import InfeasiblePinningError, InputError, MustPreprocessError
from .errors import OracleError, TooLargeError
from .models import (
    HardcoreModel,
    IsingModel,
    NEG_INF,
    Pinning,
    SpinSystem,
    contract_pinning,
)
from .sampling import Sampler, SamplerConfig, mixing_steps

MAX_DRAWS = 50_000_000  # refuse draw counts beyond this
MAX_CHAIN_STEPS = 100_000_000_000  # refuse counts whose chains take more steps


def check_budget(
    formula: Callable[[], float], what: str, limit: float = MAX_DRAWS, unit: str = "draws"
) -> int:
    """``ceil(formula())``, refused with TooLargeError above ``limit``.

    The formula is evaluated here so that one overflowing on a tiny epsilon
    (``OverflowError``, or ``ZeroDivisionError`` once ``epsilon**2``
    underflows) counts as an infinite cost rather than escaping.
    """
    try:
        cost = formula()
    except (OverflowError, ZeroDivisionError):
        cost = math.inf
    if not cost <= limit:  # also refuses nan
        raise TooLargeError(f"{what} needs {cost:.3g} {unit}, above the limit of {limit:.3g}")
    return math.ceil(cost)


@dataclass(frozen=True)
class CounterConfig:
    """Tunables of the counting oracle.

    ``samples_per_level`` is the base draw count, scaled by 1/epsilon^2.
    ``boost_repeats`` independent runs are combined by the median of their
    log-estimates.  Instances with at most ``exact_fallback_cap`` vertices
    are counted by enumeration instead.
    """

    levels_multiplier: float = 4.0
    samples_per_level: float = 16.0
    boost_repeats: int = 9
    exact_fallback_cap: int = 0

    def __post_init__(self):
        if min(self.levels_multiplier, self.samples_per_level) <= 0 or self.boost_repeats < 1:
            raise InputError("counter configuration values must be positive")


def _strip_hardcore_zeros(model: HardcoreModel) -> HardcoreModel:
    if model.is_soft:
        return model
    keep = [v for v in range(model.n) if model.lam[v] > 0]
    sub, _ = model.graph.induced_subgraph(keep)
    return HardcoreModel(sub, model.lam[keep])


def counts_exactly(model: SpinSystem, cfg: CounterConfig) -> bool:
    """True when approx_count would serve this model from the exact shortcut."""
    return model.n <= cfg.exact_fallback_cap


def num_levels(model: SpinSystem, cfg: CounterConfig) -> int:
    """Annealing path length: scales with the total log-weight budget."""
    if model.kind == "hardcore":
        span = float(np.max(np.log1p(model.lam))) * model.n if model.n else 0.0
    else:
        mags = [abs(v) for v in model.couplings.values()]
        mag = max([float(np.max(np.abs(model.h))) if model.n else 0.0] + mags)
        span = (model.n + model.graph.m) * mag
    return max(1, math.ceil(cfg.levels_multiplier * (1.0 + span)))


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


def approx_count(
    model: SpinSystem,
    epsilon: float,
    cfg: Optional[CounterConfig] = None,
    rng: Optional[np.random.Generator] = None,
    sampler_cfg: Optional[SamplerConfig] = None,
    threads: int = 1,
) -> float:
    """Estimate log Z with P[(1-eps) Z <= Z_hat <= (1+eps) Z] >= 0.99.

    The guarantee is inherited from the sampler; hardcore zero fields are
    stripped exactly first.  Returns the log estimate.  Raises TooLargeError
    before any chain step when the draws per level exceed ``MAX_DRAWS`` or
    the whole count (repeats x levels x draws x steps per chain) exceeds
    ``MAX_CHAIN_STEPS``.
    """
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0,1), got {epsilon}")
    cfg = cfg or CounterConfig()
    rng = rng if rng is not None else np.random.default_rng()
    sampler_cfg = sampler_cfg or SamplerConfig()
    if model.kind == "ising" and not model.is_soft:
        raise MustPreprocessError("counting needs a soft Ising model; preprocess first")
    if model.kind == "hardcore":
        model = _strip_hardcore_zeros(model)
    if model.n == 0:
        return 0.0  # Z = 1 either way: empty product / 2^0
    if counts_exactly(model, cfg):
        return exact.exact_partition(model, cap=model.n)
    draws = check_budget(
        lambda: cfg.samples_per_level / epsilon**2, "each annealing level"
    )
    ell = num_levels(model, cfg)
    delta = min(0.5, epsilon / (20.0 * ell))
    # no vertex is pinned, so every level's sampler enumerates when n is small
    enumerates = model.n <= sampler_cfg.exact_fallback_cap
    steps = 0 if enumerates else mixing_steps(model.n, delta, sampler_cfg)
    check_budget(
        lambda: cfg.boost_repeats * ell * draws * steps, "the annealing counter",
        MAX_CHAIN_STEPS, "chain steps",
    )
    runs = [
        _single_count(model, ell, delta, draws, child, sampler_cfg, threads)
        for child in rng.spawn(cfg.boost_repeats)
    ]
    return float(np.median(runs))


def conditional_count(
    model: SpinSystem,
    pin: Optional[Pinning],
    epsilon: float,
    cfg: Optional[CounterConfig] = None,
    rng: Optional[np.random.Generator] = None,
    sampler_cfg: Optional[SamplerConfig] = None,
    threads: int = 1,
) -> float:
    """Estimate log Z^pin by contracting the pinning and counting the rest.

    Infeasible pinnings yield -inf deterministically.
    """
    try:
        reduced, _, log_const = contract_pinning(model, pin)
    except InfeasiblePinningError:
        return NEG_INF
    if reduced.n == 0:
        return log_const
    return log_const + approx_count(reduced, epsilon, cfg, rng, sampler_cfg, threads)
