"""Sampling oracle: random-scan Glauber dynamics with an exact-sampling fallback.

The single-site chain is the hot loop of the whole package; it runs in a C
kernel compiled with ``cc`` on first import, with a pure-Python twin when
that cannot be built (``active_kernel()`` reports which).  A batch's chains
run 64 to a kernel call, and the kernel draws their randomness itself from
a counter-based generator, Philox4x64-10 (Salmon et al. 2011), under one
key per batch: chain ``c``'s update at step ``t`` comes from the block at
counter ``(t >> 1, c, 0, 0)``.  Any step can therefore be drawn alone, each
chain draws only the steps it runs, the result depends neither on
``threads`` nor on the chunking, and the two kernels produce identical
samples.  A site is ``free[(x * n_free) >> 64]`` for a 64-bit word ``x``,
within ``n_free / 2**64`` of uniform in total variation, and a uniform is
``(x >> 11) * 2**-53``.

The Glauber guarantee (a sample within TV distance ``delta`` of the target
after ``T = C_mix * n * ln(n/delta)`` steps) holds in the uniqueness /
spectral regimes covered by the regime checks; elsewhere sampling is best
effort.  A vertex is free unless a pin or the model fixes its spin: forced
spins (``model.forced``) are pins, so no chain spends an update on them.
For ``n_free <= exact_fallback_cap`` the sampler switches to enumeration
plus inverse-CDF lookup, which is exact and leaves no mixing error.  Such
a sampler keeps its enumerated support (:attr:`Sampler.support`, rows with
their log weights), and the estimators read a batch as the support rows it
drew with their multiplicities (:meth:`Sampler.sample_indices`): the same
draws from the same uniforms, counted by searching the support's CDF in the
sorted uniforms, so a batch of T costs one sort of T doubles rather than T
rows of n spins.  An estimator call enumerates each model once, here or in
its runtime, and reads counts, row weights and patterns from that support.

Each chain first tries to stop early by coupling from the past (Propp and
Wilson 1996).  A bounding chain (hardcore: states {-1, +1, unknown}, Huber
2004; Ising: an interval of the local field) runs over the last ``W0``,
``2 W0``, ``4 W0``, ... of the chain's ``T`` updates, from every free vertex
unknown, and only these tail updates are drawn.  A window that ends with
every vertex known has found the state at step ``T`` from every start
state, so it is the plain chain's output bit for bit, and the chain stops
there.  ``W0 = ceil(n_free H(n_free))`` is the coupon-collector time, below
which some free vertex is almost surely never updated.  The windows stop
before their total passes ``T / 2``, and when none coalesces the plain
chain draws and runs all ``T`` steps, so a chain costs at most ``1.5 T``
steps.  Chains with ``T < 8 W0`` skip the early exit: at so few steps per
coupon-collector time a window rarely coalesces within ``T / 2``, and trying
would only add work.  The whole-cost guards charge every chain ``1.5 T``
(:func:`worst_chain_steps`), those that skip the early exit included.
Samples, and everything drawn from them, are the same as without the early
exit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, TooLargeError, check_number
from .models import Pinning, SpinSystem, effective_pins

try:
    from . import _chain as _kernel
except ImportError:  # no compiler or no writable cache; use the twin
    from . import _chain_py as _kernel


def active_kernel() -> str:
    """Name of the chain kernel in use: "compiled" or "python"."""
    return _kernel.KERNEL_NAME


_CHUNK = 64  # chains per kernel call and worker task
EARLY_EXIT_MIN_SPAN = 8  # chains shorter than this many first windows skip the early exit

MAX_DRAWS = 50_000_000  # refuse draw counts beyond this
MAX_CHAIN_STEPS = 100_000_000_000  # refuse work whose chains take more steps


def check_budget(
    formula: Callable[[], float], what: str, limit: float = MAX_DRAWS, unit: str = "draws"
) -> int:
    """``ceil(formula())``, refused with TooLargeError above ``limit``.

    The formula is evaluated, and its value taken as a float, here so that
    one overflowing on a tiny epsilon or a huge constant (``OverflowError``,
    also from an integer too large for a double, or ``ZeroDivisionError``
    once ``epsilon**2`` underflows) counts as an infinite cost rather than
    escaping.
    """
    try:
        cost = float(formula())
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

    def enumerates(self, n_free: int) -> bool:
        """Whether the sampler enumerates, rather than runs chains, over
        ``n_free`` free vertices: always when nothing is free."""
        return n_free <= self.exact_fallback_cap


def chain_steps(n: int, n_free: int, delta: float, cfg: SamplerConfig) -> int:
    """Glauber steps per sample on ``n`` vertices, ``n_free`` of them free.

    0 when the sampler enumerates instead (:meth:`SamplerConfig.enumerates`,
    which nothing free implies); else ``ceil(C * n * ln(n/delta))``, at
    least n.  A chain longer than ``MAX_CHAIN_STEPS`` is refused.
    """
    if cfg.enumerates(n_free):
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


def worst_chain_steps(steps: int) -> int:
    """Steps the whole-cost guards charge a chain of length ``steps``:
    ``steps``, plus the window budget of an early exit that never coalesces
    (``steps // 2``), whether or not the chain tries one."""
    return steps + steps // 2


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
        # checks the pinning's feasibility; forced spins are pins, so the
        # chain never updates them and only ever reads finite field entries
        self.pins = effective_pins(model, pin)
        self.free = np.flatnonzero(self.pins == 0).astype(np.int64)
        # the enumerated distribution (an exact.ExactDistribution), if any,
        # and the (rows, CDF) pair that sample_batch draws from
        self.support = None
        self._exact = None
        if self.cfg.enumerates(len(self.free)):
            from . import exact  # deferred: exact imports this module

            self.support = exact.distribution(model, pin, cap=max(model.n, 1))
            probs = np.exp(self.support.log_probs)
            # the CDF Generator.choice builds from probs / probs.sum(), so
            # inverting it takes exactly the draws choice would
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            self._exact = (self.support.configs, cdf)
        if model.kind == "hardcore":
            self._p_plus = model.lam / (1.0 + model.lam)
            self._weights = (self._p_plus,)
        else:
            self._weights = (model.csr_j, model.h)

    @property
    def is_exact(self) -> bool:
        return self.support is not None

    def steps_for(self, delta: float) -> int:
        """Chain length for target accuracy delta (see :func:`chain_steps`)."""
        if not 0 < delta < 1:
            raise InputError(f"delta must be in (0,1), got {delta}")
        return chain_steps(self.model.n, len(self.free), delta, self.cfg)

    def batch_steps(self, count: int, delta: float) -> int:
        """Most chain steps ``sample_batch(count, delta, ...)`` can take:
        ``count`` chains at :func:`worst_chain_steps` each."""
        return count * worst_chain_steps(self.steps_for(delta))

    def _check_batch(self, count: int, delta: float, threads: int) -> int:
        """Chain length of a batch of ``count`` at ``delta``, after checking
        the request.

        Invalid arguments raise InputError.  A batch whose chains could take
        more than ``MAX_CHAIN_STEPS`` steps in all (:meth:`batch_steps`) is
        refused with TooLargeError, and so is one of more than ``MAX_DRAWS``
        enumerated samples.
        """
        if threads < 1:
            raise InputError(f"threads must be at least 1, got {threads}")
        if count < 0:
            raise InputError(f"sample count must be nonnegative, got {count}")
        steps = self.steps_for(delta)  # validates delta on every path
        check_budget(lambda: self.batch_steps(count, delta), "the sample batch",
                     MAX_CHAIN_STEPS, "chain steps")
        if self._exact is not None:
            check_budget(lambda: count, "the sample batch")
        return steps

    def sample_rows(
        self, count: int, delta: float, rng: np.random.Generator, threads: int = 1
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``count`` independent samples as ``(rows, mult)``: sample row
        ``rows[i]`` drawn ``mult[i]`` times.

        On chains this is ``(sample_batch(...), None)``, every draw its own
        row.  On enumeration ``rows`` are the support rows drawn at least
        once and ``mult`` their positive counts, as
        :meth:`sample_indices` draws them.
        """
        if self.support is None:
            return self.sample_batch(count, delta, rng, threads), None
        idx, mult = self.sample_indices(count, delta, rng, threads)
        return self.support.configs[idx], mult

    def sample_indices(
        self, count: int, delta: float, rng: np.random.Generator, threads: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` independent samples of an enumerating sampler as
        ``(idx, mult)``: row ``idx[i]`` of ``support.configs`` drawn
        ``mult[i] > 0`` times, in support order.

        These are the counts of ``sample_batch``'s draws, taken from the
        same ``count`` uniforms of ``rng``, which ends in the same state.
        A sampler that runs chains raises InputError.
        """
        if self.support is None:
            raise InputError("only an enumerating sampler draws support rows")
        self._check_batch(count, delta, threads)
        _, cdf = self._exact
        u = np.sort(rng.random(count))
        mult = np.diff(np.searchsorted(u, cdf, "left"), prepend=0)
        idx = np.flatnonzero(mult)
        return idx, mult[idx]

    def sample_batch(
        self, count: int, delta: float, rng: np.random.Generator, threads: int = 1
    ) -> np.ndarray:
        """``count`` independent samples as a (count, n) int8 array.

        One 128-bit key drawn from ``rng`` keys the batch's Philox stream,
        in which each chain reads its own counters, so the result depends
        only on ``rng`` and ``count`` -- not on ``threads`` or the chunking.
        Chains run ``_CHUNK`` to a kernel call, each call on a worker thread
        when ``threads > 1``.  Every request is checked by
        :meth:`_check_batch` before any of the chains runs.  Enumerated
        samples are the draws of ``rng.choice`` over the support.
        """
        steps = self._check_batch(count, delta, threads)
        n = self.model.n
        if count == 0:
            return np.empty((0, n), dtype=np.int8)
        if self._exact is not None:
            configs, cdf = self._exact
            return configs[np.searchsorted(cdf, rng.random(count), "right")]
        key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
        w0, budget = early_exit(len(self.free), steps)
        g = self.model.graph
        out = np.empty((count, n), dtype=np.int8)

        def run_chunk(first):
            return _kernel.sample_chunk(g.indptr, g.indices, self._weights, self.pins, self.free,
                                        key, out, first, min(_CHUNK, count - first), steps, w0,
                                        budget)

        firsts = range(0, count, _CHUNK)
        if threads > 1 and len(firsts) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run_chunk, firsts))
        else:
            for first in firsts:
                run_chunk(first)
        return out
