"""Estimate the TV distance between two Gibbs distributions on the same graph.

The public surface mirrors the pipeline: build models (:mod:`gibbs_tv.models`),
check regimes, then either query the exact oracle (:mod:`gibbs_tv.exact`) at
small scale or run the sampling/counting-backed estimators
(:mod:`gibbs_tv.estimators`).
"""

__version__ = "0.1.0"

from .graph import Graph
from .models import (
    HardcoreModel,
    IsingModel,
    MarginalBound,
    PreprocessOutcome,
    RegimeReport,
    check_ising_condition,
    check_uniqueness,
    marginal_lower_bound,
    pair_regime,
    parameter_distance,
    preprocess,
    tv_lower_bound_constant,
)
from .exact import (
    exact_marginal_tv,
    exact_partition,
    exact_tv,
    count_via_tv_queries,
)
from .sampling import Sampler, SamplerConfig, active_kernel
from .counting import CounterConfig, approx_count
from .estimators import (
    BigSmallPartition,
    EstimateReport,
    EstimatorBudget,
    MetaConditionParams,
    TruncatedConditional,
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
from .instances import RunRecord, emit_instance, instance_hash, load_instance, parse_instance

__all__ = [
    "BigSmallPartition",
    "CounterConfig",
    "EstimateReport",
    "EstimatorBudget",
    "MetaConditionParams",
    "RunRecord",
    "TruncatedConditional",
    "additive_tv",
    "advanced_relative_tv",
    "approx_count",
    "basic_relative_tv",
    "dispatch_tv",
    "emit_instance",
    "eta_truncation_bound",
    "instance_hash",
    "load_instance",
    "marginal_additive_tv",
    "meta_condition_params",
    "parse_instance",
    "partition_big_small",
    "truncated_conditional",
    "Graph",
    "HardcoreModel",
    "IsingModel",
    "MarginalBound",
    "PreprocessOutcome",
    "RegimeReport",
    "Sampler",
    "SamplerConfig",
    "active_kernel",
    "check_ising_condition",
    "check_uniqueness",
    "count_via_tv_queries",
    "exact_marginal_tv",
    "exact_partition",
    "exact_tv",
    "marginal_lower_bound",
    "pair_regime",
    "parameter_distance",
    "preprocess",
    "tv_lower_bound_constant",
]
