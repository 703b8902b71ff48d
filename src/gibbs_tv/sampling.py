"""Sampling oracle: random-scan Glauber dynamics with an exact-sampling fallback.

The single-site chain is the hot loop of the whole package; it runs in a C
kernel compiled with ``cc`` on first import, with a pure-Python twin when
that cannot be built (``active_kernel()`` reports which).  Randomness is
pre-drawn per chain, so the two kernels produce identical trajectories, and
chains of a batch can be run on worker threads without changing the output.

The Glauber guarantee (a sample within TV distance ``delta`` of the target
after ``T = C_mix * n * ln(n/delta)`` steps) holds in the uniqueness /
spectral regimes covered by the regime checks; elsewhere sampling is best
effort.  For ``n_free <= exact_fallback_cap`` the sampler switches to
enumeration plus inverse-CDF lookup, which is exact and leaves no mixing
error.

Each chain first tries to stop early by coupling from the past (Propp and
Wilson 1996).  A bounding chain (hardcore: states {-1, +1, unknown}, Huber
2004; Ising: an interval of the local field) runs over the last ``W0``,
``2 W0``, ``4 W0``, ... of the chain's ``T`` pre-drawn updates, from every
free vertex unknown.  A window that ends with every vertex known has found
the state at step ``T`` from every start state, so it is the plain chain's
output bit for bit, and the chain stops there.  ``W0 = ceil(n_free
H(n_free))`` is the coupon-collector time, below which some free vertex is
almost surely never updated.  The windows stop before their total passes
``T / 2``, and when none coalesces the plain chain runs all ``T`` steps, so
a chain costs at most ``1.5 T`` steps (:func:`worst_chain_steps`, which the
whole-cost guards count).  Chains with ``T < 8 W0`` skip the early exit: at
so few steps per coupon-collector time a window rarely coalesces within
``T / 2``, and trying would only add work.  Samples, and everything drawn
from them, are the same as without the early exit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, TooLargeError, check_number
from .models import Pinning, SpinSystem, contract_pinning, pin_array

try:
    from . import _chain as _kernel
except ImportError:  # no compiler or no writable cache; use the twin
    from . import _chain_py as _kernel


def active_kernel() -> str:
    """Name of the chain kernel in use: "compiled" or "python"."""
    return _kernel.KERNEL_NAME


_CHUNK = 64  # chains per worker task; fixed so results are thread-count independent
_SPINS = np.array([-1, 1], dtype=np.int8)
EARLY_EXIT_MIN_SPAN = 8  # chains shorter than this many first windows skip the early exit

MAX_DRAWS = 50_000_000  # refuse draw counts beyond this
MAX_CHAIN_STEPS = 100_000_000_000  # refuse work whose chains take more steps


def check_budget(
    formula: Callable[[], float], what: str, limit: float = MAX_DRAWS, unit: str = "draws"
) -> int:
    """``ceil(formula())``, refused with TooLargeError above ``limit``.

    The formula is evaluated here so that one overflowing on a tiny epsilon
    or a huge constant (``OverflowError``, or ``ZeroDivisionError`` once
    ``epsilon**2`` underflows) counts as an infinite cost rather than
    escaping.
    """
    try:
        cost = formula()
    except (OverflowError, ZeroDivisionError):
        cost = math.inf
    if not cost <= limit:  # also refuses nan
        raise TooLargeError(f"{what} needs {cost:.3g} {unit}, above the limit of {limit:.3g}")
    return math.ceil(cost)


@dataclass(frozen=True)
class SamplerConfig:
    """Tunables of the sampling oracle.

    ``mixing_multiplier`` is exposed because the chain's mixing constant is
    hidden in the oracle cost bounds of the literature; 20 is a conservative
    default validated empirically by the test suite.
    """

    mixing_multiplier: float = 20.0
    exact_fallback_cap: int = 0

    def __post_init__(self):
        check_number("mixing_multiplier", self.mixing_multiplier, 0.0, strict=True)
        check_number("exact_fallback_cap", self.exact_fallback_cap, 0)


def chain_steps(n: int, n_free: int, delta: float, cfg: SamplerConfig) -> int:
    """Glauber steps per sample on ``n`` vertices, ``n_free`` of them free.

    0 when nothing is free or the sampler enumerates instead
    (``n_free <= exact_fallback_cap``); else ``ceil(C * n * ln(n/delta))``,
    at least n.  A chain longer than ``MAX_CHAIN_STEPS`` is refused.
    """
    if n_free == 0 or n_free <= cfg.exact_fallback_cap:
        return 0
    return check_budget(
        lambda: max(n, cfg.mixing_multiplier * n * math.log(n / delta)),
        "each Glauber chain", MAX_CHAIN_STEPS, "chain steps",
    )


@functools.lru_cache(maxsize=256)
def _first_window(n_free: int) -> int:
    """``ceil(n_free H(n_free))``, H the harmonic number (asymptotic
    expansion past 4096 terms, where it is exact to double precision)."""
    if n_free <= 4096:
        h = math.fsum(1.0 / k for k in range(1, n_free + 1))
    else:
        h = math.log(n_free) + 0.5772156649015329 + 0.5 / n_free - 1.0 / (12.0 * n_free**2)
    return math.ceil(n_free * h)


def early_exit(n_free: int, steps: int) -> tuple[int, int]:
    """``(W0, budget)`` of the early exit of a ``steps``-step chain over
    ``n_free`` free vertices: its first window, and the most steps its
    windows may take together (``steps // 2``).  ``(0, 0)`` when the chain
    skips it (``steps < EARLY_EXIT_MIN_SPAN * W0``)."""
    w0 = _first_window(n_free) if n_free > 0 else 0
    if w0 == 0 or steps < EARLY_EXIT_MIN_SPAN * w0:
        return 0, 0
    return w0, steps // 2


def worst_chain_steps(n_free: int, steps: int) -> int:
    """Most steps a chain of length ``steps`` can take: ``steps``, plus the
    window budget of an early exit that never coalesces."""
    return steps + early_exit(n_free, steps)[1]


def conditional_plus_probability(model: SpinSystem, sigma: np.ndarray, v: int) -> float:
    """Heat-bath probability that ``v`` flips to +1 given the rest of ``sigma``."""
    if model.kind == "hardcore":
        if any(sigma[u] == 1 for u in model.graph.neighbors(v)):
            return 0.0
        lam = model.lam[v]
        return lam / (1.0 + lam)
    lo, hi = model.graph.indptr[v], model.graph.indptr[v + 1]
    c = model.h[v] + float(
        np.dot(model.csr_j[lo:hi], sigma[model.graph.indices[lo:hi]])
    )
    a = -2.0 * c
    if a > 709.0:
        return 0.0
    if a < -709.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(a))


class Sampler:
    """Reusable sampling oracle for one model under one pinning."""

    def __init__(
        self,
        model: SpinSystem,
        pin: Optional[Pinning] = None,
        cfg: Optional[SamplerConfig] = None,
    ):
        self.cfg = cfg or SamplerConfig()
        self.model = model
        self.pins = pin_array(pin, model.n)
        # validates feasibility of the pinning (incl. against infinite fields)
        contract_pinning(model, pin)
        if model.kind == "ising" and not model.is_soft:
            # infinite fields pin their vertices; the chain then only ever
            # reads finite field entries
            h = model.h
            for v in range(model.n):
                if not math.isfinite(h[v]):
                    self.pins[v] = 1 if h[v] > 0 else -1
        self.free = np.flatnonzero(self.pins == 0).astype(np.int64)
        self._exact = None
        if len(self.free) <= self.cfg.exact_fallback_cap:
            from . import exact  # deferred: exact imports models only

            dist = exact.distribution(model, pin, cap=max(model.n, 1))
            probs = np.exp(dist.log_probs)
            self._exact = (dist.configs, probs / probs.sum())
        self._start = self.pins.copy()  # each chain's state before its Ising spins
        if model.kind == "hardcore":
            self._p_plus = model.lam / (1.0 + model.lam)
            self._weights = (self._p_plus,)
            self._start[self.free] = -1
        else:
            self._weights = (model.csr_j, model.h)

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    def steps_for(self, delta: float) -> int:
        """Chain length for target accuracy delta (see :func:`chain_steps`)."""
        if not 0 < delta < 1:
            raise InputError(f"delta must be in (0,1), got {delta}")
        return chain_steps(self.model.n, len(self.free), delta, self.cfg)

    def _run_chain(self, rng, state, sites, us, bound, w0: int, budget: int) -> None:
        """One chain of ``len(sites)`` steps into ``state``, drawing its
        randomness into the chunk's ``sites`` and ``us``.  ``bound`` binds
        these buffers for the early exit (:func:`early_exit` gives ``w0`` and
        ``budget``), or is None when the chain skips it."""
        np.copyto(state, self._start)
        if self.model.kind == "ising":
            state[self.free] = _SPINS[rng.integers(0, 2, size=len(self.free))]
        steps = len(sites)
        if steps == 0:
            return
        np.take(self.free, rng.integers(0, len(self.free), size=steps), out=sites)
        rng.random(out=us)
        g = self.model.graph
        if self.model.kind == "hardcore":
            if bound is None or not _kernel.coalesce_hardcore(bound, w0, budget)[1]:
                _kernel.run_hardcore(g.indptr, g.indices, *self._weights, state, sites, us)
        elif bound is None or not _kernel.coalesce_ising(bound, w0, budget)[1]:
            _kernel.run_ising(g.indptr, g.indices, *self._weights, state, sites, us)

    def sample_batch(
        self, count: int, delta: float, rng: np.random.Generator, threads: int = 1
    ) -> np.ndarray:
        """``count`` independent samples as a (count, n) int8 array.

        Work is split into fixed-size chunks with generators spawned per
        chunk, so the result depends only on ``rng`` and ``count`` -- not on
        ``threads``.  A batch whose chains could take more than
        ``MAX_CHAIN_STEPS`` steps in all (:func:`worst_chain_steps` each) is
        refused before any of them runs.
        """
        if threads < 1:
            raise InputError(f"threads must be at least 1, got {threads}")
        if count < 0:
            raise InputError(f"sample count must be nonnegative, got {count}")
        steps = self.steps_for(delta)  # validates delta on every path
        worst = worst_chain_steps(len(self.free), steps)
        check_budget(lambda: count * worst, "the sample batch", MAX_CHAIN_STEPS, "chain steps")
        n = self.model.n
        if count == 0:
            return np.empty((0, n), dtype=np.int8)
        if self._exact is not None:
            configs, probs = self._exact
            idx = rng.choice(len(probs), size=count, p=probs)
            return configs[idx]
        n_chunks = (count + _CHUNK - 1) // _CHUNK
        children = rng.spawn(n_chunks)

        w0, budget = early_exit(len(self.free), steps)
        g = self.model.graph

        def run_chunk(args):
            i, child = args
            size = min(_CHUNK, count - i * _CHUNK)
            out = np.empty((size, n), dtype=np.int8)
            state, sites, us = np.empty(n, np.int8), np.empty(steps, np.int64), np.empty(steps)
            bound = None
            if w0:
                bound = _kernel.bind(g.indptr, g.indices, self._weights, self.pins,
                                     state, sites, us)
            for j in range(size):
                self._run_chain(child, state, sites, us, bound, w0, budget)
                out[j] = state
            return out

        tasks = list(enumerate(children))
        if threads > 1 and n_chunks > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(run_chunk, tasks))
        else:
            parts = [run_chunk(t) for t in tasks]
        return np.vstack(parts)
