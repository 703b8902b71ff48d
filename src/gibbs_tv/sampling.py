"""Sampling oracle: random-scan Glauber dynamics with an exact-sampling fallback.

The single-site chain is the hot loop of the whole package; it runs in a C
kernel compiled with ``cc`` on first import, with a pure-Python twin when
that cannot be built (``active_kernel()`` reports which).  Randomness is
pre-drawn per chain, so the two kernels produce identical trajectories, and
chains of a batch can be run on worker threads without changing the output.

The Glauber guarantee (a sample within TV distance ``delta`` of the target
after ``C_mix * n * ln(n/delta)`` steps) holds in the uniqueness / spectral
regimes covered by the regime checks; elsewhere sampling is best effort.  For
``n_free <= exact_fallback_cap`` the sampler switches to enumeration plus
inverse-CDF lookup, which is exact and leaves no mixing error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, TooLargeError
from .models import Pinning, SpinSystem, contract_pinning, pin_array

try:
    from . import _chain as _kernel
except ImportError:  # no compiler or no writable cache; use the twin
    from . import _chain_py as _kernel


def active_kernel() -> str:
    """Name of the chain kernel in use: "compiled" or "python"."""
    return _kernel.KERNEL_NAME


_CHUNK = 64  # chains per worker task; fixed so results are thread-count independent

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
        if self.mixing_multiplier <= 0:
            raise InputError("mixing_multiplier must be positive")


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
        if model.kind == "hardcore":
            self._p_plus = model.lam / (1.0 + model.lam)

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    def steps_for(self, delta: float) -> int:
        """Chain length for target accuracy delta (see :func:`chain_steps`)."""
        if not 0 < delta < 1:
            raise InputError(f"delta must be in (0,1), got {delta}")
        return chain_steps(self.model.n, len(self.free), delta, self.cfg)

    def _init_state(self, rng: np.random.Generator) -> np.ndarray:
        state = self.pins.copy()
        if self.model.kind == "hardcore":
            state[self.free] = -1
        else:
            state[self.free] = rng.choice(np.array([-1, 1], dtype=np.int8), len(self.free))
        return state

    def _run_chain(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        state = self._init_state(rng)
        if steps == 0 or len(self.free) == 0:
            return state
        sites = self.free[rng.integers(0, len(self.free), size=steps)]
        us = rng.random(steps)
        g = self.model.graph
        if self.model.kind == "hardcore":
            _kernel.run_hardcore(g.indptr, g.indices, self._p_plus, state, sites, us)
        else:
            _kernel.run_ising(g.indptr, g.indices, self.model.csr_j, self.model.h, state, sites, us)
        return state

    def sample_batch(
        self, count: int, delta: float, rng: np.random.Generator, threads: int = 1
    ) -> np.ndarray:
        """``count`` independent samples as a (count, n) int8 array.

        Work is split into fixed-size chunks with generators spawned per
        chunk, so the result depends only on ``rng`` and ``count`` -- not on
        ``threads``.  A batch whose chains take more than ``MAX_CHAIN_STEPS``
        steps in all is refused before any of them runs.
        """
        if threads < 1:
            raise InputError(f"threads must be at least 1, got {threads}")
        if count < 0:
            raise InputError(f"sample count must be nonnegative, got {count}")
        steps = self.steps_for(delta)  # validates delta on every path
        check_budget(lambda: count * steps, "the sample batch", MAX_CHAIN_STEPS, "chain steps")
        n = self.model.n
        if count == 0:
            return np.empty((0, n), dtype=np.int8)
        if self._exact is not None:
            configs, probs = self._exact
            idx = rng.choice(len(probs), size=count, p=probs)
            return configs[idx]
        n_chunks = (count + _CHUNK - 1) // _CHUNK
        children = rng.spawn(n_chunks)

        def run_chunk(args):
            i, child = args
            size = min(_CHUNK, count - i * _CHUNK)
            out = np.empty((size, n), dtype=np.int8)
            for j in range(size):
                out[j] = self._run_chain(steps, child)
            return out

        tasks = list(enumerate(children))
        if threads > 1 and n_chunks > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(run_chunk, tasks))
        else:
            parts = [run_chunk(t) for t in tasks]
        return np.vstack(parts)
