"""Pure-Python twin of the compiled chain kernels.

Selected at import time when the extension is unavailable.  Consumes the same
pre-drawn site/uniform arrays in the same order, so trajectories match the
compiled kernel bit for bit; ``coalesce_*`` is the early exit of
``chain_kernel.c``, window for window, and spends the same steps.
"""

from __future__ import annotations

from math import exp

import numpy as np

KERNEL_NAME = "python"


def run_hardcore(indptr, indices, p_plus, state, sites, us):
    """Advance a hardcore heat-bath chain; mutates ``state`` in place."""
    for t in range(len(sites)):
        v = sites[t]
        occupied = False
        for k in range(indptr[v], indptr[v + 1]):
            if state[indices[k]] == 1:
                occupied = True
                break
        if (not occupied) and us[t] < p_plus[v]:
            state[v] = 1
        else:
            state[v] = -1


def _plus_probability(c):
    a = -2.0 * c
    if a > 709.0:
        return 0.0
    if a < -709.0:
        return 1.0
    return 1.0 / (1.0 + exp(a))


def run_ising(indptr, indices, csr_j, h, state, sites, us):
    """Advance a soft-Ising heat-bath chain; mutates ``state`` in place."""
    for t in range(len(sites)):
        v = sites[t]
        c = h[v]
        for k in range(indptr[v], indptr[v + 1]):
            c += csr_j[k] * state[indices[k]]
        state[v] = 1 if us[t] < _plus_probability(c) else -1


def bind(indptr, indices, weights, pins, state, sites, us):
    """The early exit's arguments for chains that reuse these arrays."""
    kind = "hardcore" if len(weights) == 1 else "ising"
    return (kind, indptr, indices, weights, pins, state, sites, us, np.empty(len(state), np.int8))


def _windows(steps, w0, limit):
    """The tail windows w0, 2 w0, ... whose running total stays within limit."""
    limit = min(limit, steps)
    out, used, w = [], 0, w0
    while 0 < w <= limit - used:
        out.append(w)
        used += w
        w *= 2
    return out


def _hardcore_bound(indptr, indices, p_plus, bound, v, u):
    if not u < p_plus[v]:
        return -1
    x = 1
    for k in range(indptr[v], indptr[v + 1]):
        b = bound[indices[k]]
        if b == 1:
            return -1
        if b == 0:
            x = 0
    return x


def _ising_bound(indptr, indices, csr_j, h, bound, v, u):
    lo = hi = h[v]
    for k in range(indptr[v], indptr[v + 1]):
        b = bound[indices[k]]
        if b != 0:
            lo += csr_j[k] * b
            hi += csr_j[k] * b
        else:
            lo -= abs(csr_j[k])
            hi += abs(csr_j[k])
    if lo == hi:
        return 1 if u < _plus_probability(lo) else -1
    p_lo, p_hi = _plus_probability(lo), _plus_probability(hi)
    if u < p_lo - p_lo * 2.0**-40:
        return 1
    if u >= p_hi + p_hi * 2.0**-40:
        return -1
    return 0


def _coalesce(kind, update, bound_args, w0, limit):
    have, indptr, indices, weights, pins, state, sites, us, bound = bound_args
    if have != kind:
        raise TypeError(f"arguments bound for a {have} chain")
    steps, spent = len(sites), 0
    for w in _windows(steps, w0, limit):
        bound[:] = pins
        unknown = int(np.count_nonzero(pins == 0))
        for t in range(steps - w, steps):
            v = sites[t]
            x = update(indptr, indices, *weights, bound, v, us[t])
            unknown += (x == 0) - (int(bound[v]) == 0)
            bound[v] = x
        spent += w
        if unknown == 0:
            state[:] = bound
            return spent, True
    return spent, False


def coalesce_hardcore(bound_args, w0, limit):
    """Early exit of a hardcore chain: ``(steps spent, coalesced)``; the
    bound ``state`` holds the chain's result when it coalesced."""
    return _coalesce("hardcore", _hardcore_bound, bound_args, w0, limit)


def coalesce_ising(bound_args, w0, limit):
    """Early exit of a soft-Ising chain; see :func:`coalesce_hardcore`."""
    return _coalesce("ising", _ising_bound, bound_args, w0, limit)
