"""Pure-Python twin of the compiled chain kernels.

Selected at import time when the extension is unavailable.  ``run_*``
consume the same pre-drawn site/uniform arrays in the same order as the
compiled kernel, so trajectories match it bit for bit.  ``sample_chunk`` is
``chain_kernel.c``'s, window for window, and spends the same steps: for each
chain it materialises the sites and uniforms of the steps it reads with
:func:`stream` (the tail the early exit reads, and the whole chain only when
no window coalesces), from ``np.random.Philox``, the reference
implementation of the generator, and runs the Python step loops on them.
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


def _blocks(key, counter: int, count: int) -> np.ndarray:
    """The ``4 count`` words of the Philox4x64-10 blocks at 256-bit counters
    ``counter``, ``counter + 1``, ... under ``key`` (two uint64)."""
    # numpy increments the counter before it generates a block
    bits = np.random.Philox(key=int(key[0]) | int(key[1]) << 64,
                            counter=(counter - 1) % 2**256)
    return bits.random_raw(4 * count)


def stream(key, chain: int, t0: int, t1: int, free):
    """Sites and uniforms of steps ``t0 .. t1 - 1`` of chain ``chain``.

    Step ``t`` reads words ``2 (t & 1)`` and ``2 (t & 1) + 1`` of the block
    at counter ``(t >> 1, chain, 0, 0)``.  A word ``x`` becomes the site
    ``free[(x * len(free)) >> 64]`` and the uniform ``(x >> 11) * 2**-53``.
    """
    b0 = t0 >> 1
    words = _blocks(key, b0 | chain << 64, max(0, (t1 + 1) // 2 - b0)).reshape(-1, 2)
    words = words[t0 - 2 * b0:t1 - 2 * b0]
    picks = (words[:, 0].astype(object) * len(free)) >> 64
    return free[picks.astype(np.int64)], (words[:, 1] >> np.uint64(11)) * 2.0**-53


def start_spins(key, chain: int, n_free: int) -> np.ndarray:
    """Ising start spins of chain ``chain``'s free vertices: bit ``k & 63``
    of word ``k >> 6`` of the blocks at ``(0, chain, 1, 0)``, ``(1, chain,
    1, 0)``, ... is +1 for 1 and -1 for 0."""
    words = _blocks(key, chain << 64 | 1 << 128, (n_free + 255) >> 8)
    k = np.arange(n_free, dtype=np.uint64)
    bits = (words[k >> np.uint64(6)] >> (k & np.uint64(63))) & np.uint64(1)
    return np.where(bits == 1, 1, -1).astype(np.int8)


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
    p_lo = _plus_probability(lo)
    if u < p_lo - p_lo * 2.0**-40:
        return 1
    p_hi = _plus_probability(hi)
    if u >= p_hi + p_hi * 2.0**-40:
        return -1
    return 0


def sample_chunk(indptr, indices, weights, pins, free, key, out, first, size, steps, w0, limit):
    """Chains ``first .. first + size - 1`` of a batch into those rows of
    ``out``; returns ``(steps run, chains that ran the plain chain)``.  See
    the compiled kernel's ``sample_chunk``."""
    hardcore = len(weights) == 1
    run, bound = (run_hardcore, _hardcore_bound) if hardcore else (run_ising, _ising_bound)
    windows = _windows(steps, w0, limit)
    spent = fallbacks = 0
    for chain in range(first, first + size):
        row = out[chain]
        if windows:
            sites, us = stream(key, chain, steps - windows[-1], steps, free)
        for w in windows:
            row[:] = pins
            unknown = int(np.count_nonzero(pins == 0))
            for t in range(len(sites) - w, len(sites)):
                v = sites[t]
                x = bound(indptr, indices, *weights, row, v, us[t])
                unknown += (x == 0) - (int(row[v]) == 0)
                row[v] = x
            spent += w
            if unknown == 0:
                break
        else:
            row[:] = pins
            row[free] = -1 if hardcore else start_spins(key, chain, len(free))
            run(indptr, indices, *weights, row, *stream(key, chain, 0, steps, free))
            spent += steps
            fallbacks += 1
    return spent, fallbacks
