"""Brute-force ground truth for small instances.

Everything here is deterministic and works in log space; linear-space sums
(TV distances, probability masses) use compensated summation via
``math.fsum``.  Hardcore supports are enumerated over independent sets
(:meth:`Graph.independent_sets`) rather than all 2^n configurations, which
raises the practical cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, TooLargeError
from .graph import Graph
from .models import (
    HardcoreModel,
    NEG_INF,
    Pinning,
    SpinSystem,
    _check_pair,
    pin_array,
)

EXACT_CAP = 20


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise TooLargeError(f"exact enumeration needs n <= {cap}, got {n}")


def _independent_configs(graph: Graph, allow_plus: np.ndarray, pins: np.ndarray) -> np.ndarray:
    """All +-1 configurations whose +1 set is independent, honoring pins.

    ``allow_plus[v]`` False forces v to -1 (unless pinned +1, which yields an
    empty result only if it conflicts with independence; zero-weight pins are
    the caller's concern).  Returns an int8 matrix with one row per
    configuration, in the order of :meth:`Graph.independent_sets` over the
    vertices that may still turn +1.
    """
    n = graph.n
    pinned_plus = np.flatnonzero(pins == 1)
    if not graph.is_independent_set(pinned_plus):
        return np.empty((0, n), dtype=np.int8)
    eligible = (pins == 0) & allow_plus
    for v in pinned_plus:
        eligible[graph.neighbors(v)] = False
    sizes: list[int] = []
    cols: list[int] = []
    for s in graph.independent_sets(np.flatnonzero(eligible)):
        sizes.append(len(s))
        cols.extend(s)
    configs = np.tile(np.where(pins == 1, 1, -1).astype(np.int8), (len(sizes), 1))
    configs[np.repeat(np.arange(len(sizes)), sizes), cols] = 1
    return configs


def _all_configs(n: int, pins: np.ndarray) -> np.ndarray:
    free = [v for v in range(n) if pins[v] == 0]
    k = len(free)
    configs = np.tile(pins, (1 << k, 1)).astype(np.int8)
    if k:
        bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
        configs[:, free] = (2 * bits - 1).astype(np.int8)
    return configs


def support_configs(
    model: SpinSystem,
    pin: Optional[Pinning] = None,
    cap: int = EXACT_CAP,
) -> np.ndarray:
    """Configurations that can carry positive weight (a superset for Ising)."""
    _check_cap(model.n, cap)
    pins = pin_array(pin, model.n)
    if model.kind == "hardcore":
        return _independent_configs(model.graph, model.forced == 0, pins)
    return _all_configs(model.n, pins)


@dataclass(frozen=True)
class ExactDistribution:
    """Explicit support, log-probabilities, and log partition function."""

    configs: np.ndarray  # (k, n) int8, rows with positive weight
    log_probs: np.ndarray
    log_z: float


def distribution(
    model: SpinSystem, pin: Optional[Pinning] = None, cap: int = EXACT_CAP
) -> ExactDistribution:
    """The distribution conditioned on ``pin``; its ``log_z`` is log of the
    total weight of extensions of ``pin`` (-inf if there are none)."""
    configs = support_configs(model, pin, cap)
    if len(configs) == 0:
        return ExactDistribution(configs, np.empty(0), NEG_INF)
    logw = model.log_weight_batch(configs)
    finite = logw > NEG_INF
    configs, logw = configs[finite], logw[finite]
    if len(configs) == 0:
        return ExactDistribution(configs, np.empty(0), NEG_INF)
    log_z = float(np.logaddexp.reduce(logw))
    return ExactDistribution(configs, logw - log_z, log_z)


def exact_partition(model: SpinSystem, cap: int = EXACT_CAP) -> float:
    """log Z by exhaustive enumeration."""
    return distribution(model, None, cap).log_z


def _union_support(mu: SpinSystem, nu: SpinSystem, cap: int) -> np.ndarray:
    _check_pair(mu, nu)
    _check_cap(mu.n, cap)
    if mu.kind == "hardcore":
        allow = (mu.forced == 0) | (nu.forced == 0)
        return _independent_configs(mu.graph, allow, np.zeros(mu.n, dtype=np.int8))
    return _all_configs(mu.n, np.zeros(mu.n, dtype=np.int8))


def _probs(model: SpinSystem, configs: np.ndarray) -> np.ndarray:
    logw = model.log_weight_batch(configs)
    finite = logw > NEG_INF
    if not finite.any():
        raise InputError("model has empty support")
    log_z = float(np.logaddexp.reduce(logw[finite]))
    p = np.zeros(len(configs))
    p[finite] = np.exp(logw[finite] - log_z)
    return p


def exact_tv(mu: SpinSystem, nu: SpinSystem, cap: int = EXACT_CAP) -> float:
    """Half the l1 distance over the union of supports."""
    if mu.n == 0:
        _check_pair(mu, nu)
        return 0.0
    configs = _union_support(mu, nu, cap)
    pm = _probs(mu, configs)
    pn = _probs(nu, configs)
    return 0.5 * math.fsum(np.abs(pm - pn).tolist())


def _row_patterns(
    xs: np.ndarray, cols: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of the +-1 matrix ``xs[:, cols]``, with inverse and counts.

    Same output, in the same order, as numpy's row-wise ``unique`` with
    inverse and counts: each row is packed into bits (first column most
    significant) and compared as one void field, which sorts like the rows
    themselves at a fraction of the cost.  A leading 1 bit keeps zero-width
    rows from packing to zero bytes.
    """
    k = len(cols)
    bits = np.ones((len(xs), k + 1), dtype=bool)
    bits[:, 1:] = xs[:, list(cols)] > 0
    packed = np.packbits(bits, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rows = np.unpackbits(
        uniq.view(np.uint8).reshape(len(uniq), packed.shape[1]), axis=1, count=k + 1
    )
    return rows[:, 1:].astype(np.int8) * 2 - 1, inverse, counts


def exact_marginal_tv(
    mu: SpinSystem, nu: SpinSystem, subset: Iterable[int], cap: int = EXACT_CAP
) -> float:
    """TV distance between the two marginal distributions on ``subset``.

    Computed via conditional partition functions: full-support weights are
    grouped by their restriction to ``subset``.
    """
    sub = sorted(set(int(v) for v in subset))
    if not sub:
        _check_pair(mu, nu)
        return 0.0
    if any(not 0 <= v < mu.n for v in sub):
        raise InputError("subset references vertices outside the graph")
    configs = _union_support(mu, nu, cap)
    _, ids, _ = _row_patterns(configs, sub)
    pm = np.bincount(ids, weights=_probs(mu, configs))
    pn = np.bincount(ids, weights=_probs(nu, configs))
    return 0.5 * math.fsum(np.abs(pm - pn).tolist())


# ---------------------------------------------------------------------------
# Transfer-matrix shortcut for graphs of maximum degree <= 2


def _deg2_scaled(graph: Graph, lam: np.ndarray) -> tuple[float, int]:
    """Hardcore partition function of a disjoint union of paths and cycles,
    as ``(m, e)`` with ``Z = m * 2**e``.

    The path recursion and the cycle's transfer-matrix product are rescaled
    by a power of two at every step, which is exact, so ``m`` carries the
    same rounding as the unscaled product and never overflows.
    """
    if graph.max_degree() > 2:
        raise InputError("transfer-matrix evaluation needs max degree <= 2")
    seen = np.zeros(graph.n, dtype=bool)
    total, total_exp = 1.0, 0
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(int(u))
                    frontier.append(int(u))
        degs = [graph.degree(v) for v in comp]
        if len(comp) == 1:
            total *= 1.0 + lam[comp[0]]
        elif max(degs) == 1:  # single edge
            u, v = comp
            total *= 1.0 + lam[u] + lam[v]
        elif min(degs) == 1:  # path: walk from an endpoint
            end = comp[degs.index(1)]
            order = [end]
            prev = -1
            cur = end
            while True:
                nxt = [int(u) for u in graph.neighbors(cur) if u != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                order.append(cur)
            z_minus, z_plus = 1.0, lam[order[0]]
            for v in order[1:]:
                z_minus, z_plus = z_minus + z_plus, lam[v] * z_minus
                _, e = math.frexp(max(z_minus, z_plus))
                z_minus, z_plus = math.ldexp(z_minus, -e), math.ldexp(z_plus, -e)
                total_exp += e
            total *= z_minus + z_plus
        else:  # cycle: trace of the transfer-matrix product
            order = [comp[0]]
            prev = -1
            cur = comp[0]
            while len(order) < len(comp):
                nxt = [int(u) for u in graph.neighbors(cur) if u != prev]
                prev, cur = cur, nxt[0]
                order.append(cur)
            mat = np.eye(2)
            for v in order:
                mat = mat @ np.array([[1.0, lam[v]], [1.0, 0.0]])
                _, e = math.frexp(np.max(mat))
                mat = np.ldexp(mat, -e)
                total_exp += e
            total *= np.trace(mat)
        total, e = math.frexp(total)
        total_exp += e
    return float(total), total_exp


def deg2_partition(graph: Graph, lam: np.ndarray) -> float:
    """Hardcore partition function of a disjoint union of paths and cycles;
    ``inf`` past the largest double."""
    m, e = _deg2_scaled(graph, lam)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def deg2_plus_marginal(graph: Graph, lam: np.ndarray, v: int) -> float:
    """P(v in the random independent set) on a max-degree-<=2 graph, at any
    size: the two partition functions meet as mantissas and exponents."""
    closed = {v} | {int(u) for u in graph.neighbors(v)}
    keep = [u for u in range(graph.n) if u not in closed]
    sub, _ = graph.induced_subgraph(keep)
    m_sub, e_sub = _deg2_scaled(sub, lam[keep])
    m, e = _deg2_scaled(graph, lam)
    return math.ldexp(lam[v] * m_sub / m, e_sub - e)


# ---------------------------------------------------------------------------
# Counting independent sets through high-accuracy TV queries


def count_via_tv_queries(g: Graph, cap: int = EXACT_CAP) -> int:
    """Exact independent-set count recovered from iterated exact TV queries.

    Runs the bisection-free marginal-recovery loop: for each vertex i the
    marginal P(i in set) of the uniform independent-set distribution on
    G[{i..n-1}] is recovered by repeatedly querying the exact marginal-TV
    oracle against a single-vertex reference model, with dyadic rounding to
    100n fractional bits.  Vertices whose residual graph has maximum degree
    <= 2 use the transfer-matrix shortcut instead.
    """
    if g.max_degree() > 3:
        raise InputError("counting reduction requires max degree <= 3")
    _check_cap(g.n, cap)
    n = g.n
    if n == 0:
        return 1
    rounds = 50 * n
    # Rounding up to a dyadic grid coarser than the oracle's float noise keeps
    # the iteration from drifting below the true marginal (grid spacing 2^-48
    # >> 1e-15 jitter); 48 fractional bits is also "bit length at most 100n".
    frac_bits = min(100 * n, 48)
    inv_prob_minus: list[Fraction] = []
    for i in range(n):
        keep = list(range(i, n))
        sub, old_to_new = g.induced_subgraph(keep)
        idx = old_to_new[i]
        lam_ones = np.ones(sub.n)
        if sub.max_degree() <= 2:
            q = Fraction(deg2_plus_marginal(sub, lam_ones, idx))
        else:
            mu_i = HardcoreModel(sub, lam_ones)
            alpha = Fraction(1, 2)
            for _ in range(rounds):
                a = float(alpha)
                ref_lam = np.zeros(sub.n)
                ref_lam[idx] = a / (1.0 - a)
                nu_alpha = HardcoreModel(sub, ref_lam)
                d_hat = exact_marginal_tv(mu_i, nu_alpha, [idx], cap)
                alpha = alpha - Fraction(d_hat)
                num = -((-alpha.numerator * (1 << frac_bits)) // alpha.denominator)
                alpha = Fraction(num, 1 << frac_bits)  # round up to 100n bits
            q = alpha
        inv_prob_minus.append(1 / (1 - q))
    z = Fraction(1)
    for f in inv_prob_minus:
        z *= f
    return round(z)
