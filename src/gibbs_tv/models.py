"""Hardcore and Ising models: weights, parameter distance, regime checks.

All weights live in log space (an Ising weight ``exp(H)`` overflows for
modest ``n`` otherwise); ``-inf`` encodes weight zero.

Some fields fix a vertex's spin in every configuration of positive weight:
a hardcore zero field fixes it at -1, an infinite Ising field at the field's
sign.  Each model names these spins once, in its read-only int8 array
``forced`` (0 where the spin is free to move), and everything that handles
hard constraints reads it.  An infinite field's contribution to the
Hamiltonian is a constant shared by every consistent configuration and is
dropped from ``log_weight``, which therefore returns the log weight of the
*conditioned* distribution.  :func:`contract_pinning` is the one
contraction: it removes forced spins together with any pins by
self-reducibility, and :func:`preprocess` uses it to reduce a pair to soft
models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasiblePinningError,
    InputError,
    InvalidPairError,
    MustPreprocessError,
    NoLowerBoundError,
    TooLargeError,
)
from .graph import Graph

NEG_INF = float("-inf")

Pinning = Mapping[int, int]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def pin_array(pin: Optional[Pinning], n: int) -> np.ndarray:
    """Pinning as an int8 array: 0 = free, otherwise the pinned spin."""
    arr = np.zeros(n, dtype=np.int8)
    if pin:
        for v, c in pin.items():
            v = int(v)
            if not 0 <= v < n:
                raise InputError(f"pinned vertex {v} outside 0..{n - 1}")
            if c not in (-1, 1):
                raise InputError(f"pinned value must be +1 or -1, got {c}")
            arr[v] = c
    return arr


class HardcoreModel:
    """Hardcore model (G, lambda): weight prod(lambda_v) over independent +1 sets."""

    kind = "hardcore"
    __slots__ = ("graph", "lam", "forced", "_log_lam")

    def __init__(self, graph: Graph, lam: Union[np.ndarray, Iterable[float]]):
        self.graph = graph
        arr = np.asarray(lam, dtype=np.float64).copy()
        if arr.shape != (graph.n,):
            raise DimensionMismatchError(
                f"lambda has shape {arr.shape}, expected ({graph.n},)"
            )
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise InputError("hardcore fields must be finite and nonnegative")
        self.lam = _read_only(arr)
        self.forced = _read_only(np.where(arr == 0, -1, 0).astype(np.int8))
        # 0 at forced spins, whose +1 rows log_weight_batch sets to -inf
        self._log_lam = np.log(np.where(arr == 0, 1.0, arr))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_soft(self) -> bool:
        return not self.forced.any()

    def log_weight_batch(self, configs: np.ndarray) -> np.ndarray:
        """Log weights for a (batch, n) array of +-1 configurations."""
        if configs.ndim != 2 or configs.shape[1] != self.n:
            raise DimensionMismatchError(
                f"batch has shape {configs.shape}, expected (*, {self.n})"
            )
        plus = configs > 0
        out = plus @ self._log_lam
        bad = np.zeros(len(configs), dtype=bool)
        g = self.graph
        if g.m:
            bad |= np.any(plus[:, g.eu] & plus[:, g.ev], axis=1)
        zero = self.forced != 0
        if zero.any():
            bad |= np.any(plus[:, zero], axis=1)
        out[bad] = NEG_INF
        return out

    def __repr__(self) -> str:
        return f"HardcoreModel(n={self.n}, m={self.graph.m})"


class IsingModel:
    """Ising model (G, J, h); h entries may be +-inf (forced spins)."""

    kind = "ising"
    __slots__ = ("graph", "h", "forced", "_jw", "csr_j")

    def __init__(
        self,
        graph: Graph,
        couplings: Mapping[tuple[int, int], float],
        fields: Union[np.ndarray, Iterable[float]],
    ):
        self.graph = graph
        h = np.asarray(fields, dtype=np.float64).copy()
        if h.shape != (graph.n,):
            raise DimensionMismatchError(f"h has shape {h.shape}, expected ({graph.n},)")
        if h.size and np.any(np.isnan(h)):
            raise InputError("Ising fields must not be NaN")
        self.h = _read_only(h)
        self.forced = _read_only(np.where(np.isinf(h), np.sign(h), 0).astype(np.int8))

        jmap: dict[tuple[int, int], float] = {}
        for (u, v), val in couplings.items():
            u, v = int(u), int(v)
            key = (u, v) if u < v else (v, u)
            if not graph.has_edge(*key):
                raise InputError(f"coupling on non-edge ({u},{v})")
            if key in jmap and jmap[key] != float(val):
                raise InputError(f"conflicting coupling values for edge {key}")
            if not math.isfinite(val):
                raise InputError(f"coupling J[{key}] must be finite")
            jmap[key] = float(val)
        # couplings aligned with graph.edges, and with graph.indices for the
        # chain kernels
        self._jw = _read_only(np.array([jmap.get(e, 0.0) for e in graph.edges],
                                       dtype=np.float64))
        self.csr_j = _read_only(self._jw[graph.csr_edge])

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_soft(self) -> bool:
        return not self.forced.any()

    @property
    def couplings(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.graph.edges, self._jw.tolist()))

    def log_weight_batch(self, configs: np.ndarray) -> np.ndarray:
        if configs.ndim != 2 or configs.shape[1] != self.n:
            raise DimensionMismatchError(
                f"batch has shape {configs.shape}, expected (*, {self.n})"
            )
        spins = configs.astype(np.float64)
        finite = self.forced == 0
        out = spins[:, finite] @ self.h[finite]
        g = self.graph
        if g.m:
            out += (spins[:, g.eu] * spins[:, g.ev]) @ self._jw
        pinned = ~finite
        if pinned.any():
            bad = np.any(spins[:, pinned] != self.forced[pinned], axis=1)
            out[bad] = NEG_INF
        return out

    def __repr__(self) -> str:
        return f"IsingModel(n={self.n}, m={self.graph.m})"


SpinSystem = Union[HardcoreModel, IsingModel]


def _check_pair(mu: SpinSystem, nu: SpinSystem) -> None:
    if mu.kind != nu.kind:
        raise InvalidPairError(f"model kinds differ: {mu.kind} vs {nu.kind}")
    if mu.graph != nu.graph:
        raise InvalidPairError("models are defined on different graphs")


def parameter_distance(mu: SpinSystem, nu: SpinSystem) -> float:
    """Sup-norm distance between parameters (degree-weighted for Ising fields)."""
    _check_pair(mu, nu)
    if mu.n == 0:
        return 0.0
    if mu.kind == "hardcore":
        return float(np.max(np.abs(mu.lam - nu.lam)))
    if not (mu.is_soft and nu.is_soft):
        raise MustPreprocessError("parameter distance needs soft Ising models")
    d = 0.0
    if mu.graph.m:
        d = float(np.max(np.abs(mu._jw - nu._jw)))
    degs = mu.graph.degrees()
    d_h = float(np.max(np.abs(mu.h - nu.h) / (degs + 1.0)))
    return max(d, d_h)


def lambda_c(delta: int) -> float:
    """Hardcore uniqueness threshold (Delta-1)^(Delta-1)/(Delta-2)^Delta."""
    if delta < 3:
        return float("inf")
    return (delta - 1) ** (delta - 1) / float((delta - 2) ** delta)


def check_uniqueness(model: HardcoreModel) -> Optional[float]:
    """Largest gap eta with lambda_v <= (1-eta)*lambda_c for all v, else None.

    Graphs with max degree <= 2 are always unique: eta = 1.
    """
    if model.kind != "hardcore":
        raise InputError("uniqueness check applies to hardcore models")
    delta = model.graph.max_degree()
    if delta <= 2:
        return 1.0
    lc = lambda_c(delta)
    lam_max = float(np.max(model.lam)) if model.n else 0.0
    if lam_max > lc:
        return None
    return min(1.0, 1.0 - lam_max / lc)


@dataclass(frozen=True)
class IsingCondition:
    """Which tractability condition an Ising model satisfies, with a witness."""

    tag: str  # "spectral" | "ferromagnetic-consistent" | "antiferro-uniqueness"
    witness: float


SPECTRAL_TOL = 1e-9


def check_ising_condition(model: IsingModel) -> Optional[IsingCondition]:
    """First satisfied tractability condition for a soft Ising model."""
    if model.kind != "ising":
        raise InputError("condition check applies to Ising models")
    if not model.is_soft:
        raise MustPreprocessError("condition check needs a soft Ising model")
    n, g, jw = model.n, model.graph, model._jw
    jmat = np.zeros((n, n))
    jmat[g.eu, g.ev] = jmat[g.ev, g.eu] = jw
    if n:
        eig = np.linalg.eigvalsh(jmat)
        spread = float(eig[-1] - eig[0])
    else:
        spread = 0.0
    gap = 1.0 - spread
    if gap > SPECTRAL_TOL:
        return IsingCondition("spectral", gap)
    if bool(np.all(jw >= 0)) and bool(np.all(model.h >= 0)):
        return IsingCondition("ferromagnetic-consistent", float(np.min(model.h)) if n else 0.0)
    jvals = set(jw.tolist())
    if len(jvals) <= 1:
        beta = jvals.pop() if jvals else 0.0
        delta = model.graph.max_degree()
        thresh = (delta - 2) / delta if delta >= 1 else 0.0
        if beta <= 0 and math.exp(2 * beta) >= thresh:
            return IsingCondition("antiferro-uniqueness", math.exp(2 * beta) - thresh)
    return None


@dataclass(frozen=True)
class MarginalBound:
    """Tight marginal lower bound b and the worst-case minus marginal behind it."""

    b: float
    minus_bound: float  # worst-case P(v = -1): 1/(1+max lambda) or Ising analogue


FREE_DEGREE_CAP = 24


def _neighborhood_partition(graph: Graph, lam: Sequence[float], v: int) -> float:
    """Total hardcore weight of independent subsets of N(v), empty set included."""
    total = 0.0
    for s in graph.independent_sets(graph.neighbors(v)):
        weight = 1.0
        for u in s:
            weight *= lam[u]
        total += weight
    return total


def effective_pins(model: SpinSystem, pin: Optional[Pinning]) -> np.ndarray:
    """``pin`` as an int8 array (0 = free) with the model's forced spins
    folded in as pins, once the pinning is checked feasible.

    Raises:
        InfeasiblePinningError: no extension of ``pin`` has positive weight
            for reasons visible locally (a pin against a forced spin, or
            hardcore +1 on adjacent vertices).
    """
    eff = pin_array(pin, model.n)
    forced = model.forced
    clash = np.flatnonzero(eff * forced == -1)
    if len(clash):
        v = clash[0]
        raise InfeasiblePinningError(
            f"vertex {v} pinned {eff[v]:+d} against its forced spin {forced[v]:+d}"
        )
    if model.kind == "hardcore":
        plus = np.flatnonzero(eff == 1)
        if len(plus) and not model.graph.is_independent_set(plus):
            raise InfeasiblePinningError("pinned +1 set is not independent")
    return np.where(forced != 0, forced, eff)


def contract_pinning(
    model: SpinSystem, pin: Optional[Pinning]
) -> tuple[SpinSystem, list[int], float]:
    """Fold a pinning and the forced spins into the model by
    self-reducibility.

    Returns ``(reduced, kept, log_const)`` with
    ``log Z^pin(model) = log_const + log Z(reduced)`` and ``kept`` the original
    labels of the reduced model's vertices; the reduced model is soft.  A
    hardcore +1 pin also removes its neighbours, which it forces to -1.
    With nothing pinned or forced, ``reduced`` is ``model`` itself.

    Raises:
        InfeasiblePinningError: as :func:`effective_pins`.
    """
    n = model.n
    eff = effective_pins(model, pin)
    if not eff.any():
        return model, list(range(n)), 0.0
    g = model.graph
    if model.kind == "hardcore":
        plus = np.flatnonzero(eff == 1)
        drop = eff != 0
        for v in plus:
            drop[g.neighbors(v)] = True
        kept = np.flatnonzero(~drop).tolist()
        sub, _ = g.induced_subgraph(kept)
        log_const = float(np.sum(np.log(model.lam[plus]))) if len(plus) else 0.0
        return HardcoreModel(sub, model.lam[kept]), kept, log_const

    h = model.h
    kept = np.flatnonzero(eff == 0).tolist()
    sub, old_to_new = g.induced_subgraph(kept)
    new_h = h[kept]
    log_const = 0.0
    for v in np.flatnonzero((eff != 0) & (model.forced == 0)):
        log_const += h[v] * eff[v]
    new_j: dict[tuple[int, int], float] = {}
    spin = eff.tolist()
    for u, v, val in zip(g.eu.tolist(), g.ev.tolist(), model._jw.tolist()):
        pu, pv = spin[u], spin[v]
        if pu != 0 and pv != 0:
            log_const += val * pu * pv
        elif pu != 0:
            new_h[old_to_new[v]] += val * pu
        elif pv != 0:
            new_h[old_to_new[u]] += val * pv
        else:
            new_j[(old_to_new[u], old_to_new[v])] = val
    return IsingModel(sub, new_j, new_h), kept, log_const


def marginal_lower_bound(model: SpinSystem) -> MarginalBound:
    """Tight b such that every positive conditional marginal is >= b.

    Forced spins are contracted first.  Hardcore: b = min(1/(1+max lambda),
    min_v m_v) where m_v is the +1 marginal of v under the all-minus boundary
    outside N(v).  Ising: the extremal pinning assigns each neighbor against
    the coupling sign.
    """
    work, _, _ = contract_pinning(model, None)
    if work.n == 0:
        return MarginalBound(1.0, 1.0)
    if work.kind == "hardcore":
        lam = work.lam
        minus_bound = 1.0 / (1.0 + float(np.max(lam)))
        b = minus_bound
        lam_list = lam.tolist()  # float products, without numpy scalar overhead
        for v in range(work.n):
            if work.graph.degree(v) > FREE_DEGREE_CAP:
                raise TooLargeError(
                    f"free degree {work.graph.degree(v)} exceeds enumeration cap "
                    f"{FREE_DEGREE_CAP}"
                )
            z_n = _neighborhood_partition(work.graph, lam_list, v)
            b = min(b, lam[v] / (lam[v] + z_n))
        return MarginalBound(b, minus_bound)

    b = worst_minus = 1.0
    for v in range(work.n):
        j_abs = float(np.sum(np.abs(work.csr_j[work.graph.indptr[v] : work.graph.indptr[v + 1]])))
        for c in (1, -1):
            x = work.h[v] * c - j_abs  # log g(v, c)
            p = 1.0 / (1.0 + math.exp(-2.0 * x)) if x > -350 else 0.0
            b = min(b, p)
            if c == -1:
                worst_minus = min(worst_minus, p)
    return MarginalBound(b, worst_minus)


@dataclass(frozen=True)
class RegimeReport:
    """Tractability summary for a model pair."""

    kind: str
    uniqueness_gap: Optional[float]
    marginal_bound: float


def pair_regime(mu: SpinSystem, nu: SpinSystem) -> RegimeReport:
    """Regime quantities holding for *both* models (min of gaps and bounds)."""
    _check_pair(mu, nu)
    b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
    gap = None
    if mu.kind == "hardcore":
        g1, g2 = check_uniqueness(mu), check_uniqueness(nu)
        gap = min(g1, g2) if (g1 is not None and g2 is not None) else None
    return RegimeReport(mu.kind, gap, b)


UNIQUENESS_TV_CONSTANT = 1.0 / 5000.0


def tv_lower_bound_constant(regime: RegimeReport) -> float:
    """Largest applicable constant C with TV >= C * parameter distance."""
    candidates = []
    if regime.kind == "hardcore":
        if regime.uniqueness_gap is not None:
            candidates.append(UNIQUENESS_TV_CONSTANT)
        if regime.marginal_bound > 0:
            candidates.append(regime.marginal_bound**3)
    elif regime.kind == "ising":
        if regime.marginal_bound > 0:
            candidates.append(regime.marginal_bound**2 / 2.0)
    else:
        raise InputError(f"unknown pair kind {regime.kind!r}")
    if not candidates:
        raise NoLowerBoundError(f"no TV lower bound case applies for {regime.kind}")
    return max(candidates)


@dataclass(frozen=True)
class PreprocessOutcome:
    """Result of reducing a pair to a soft pair, or resolving it outright.

    ``status`` is one of:
      * ``"resolved"``  -- TV distance known exactly (``tv``);
      * ``"big-gap"``   -- TV >= ``lower_bound``; use the additive estimator;
      * ``"soft-pair"`` -- ``mu``/``nu`` are soft models on the kept vertices,
        with the same TV distance as the original pair.
    """

    status: str
    tv: Optional[float] = None
    lower_bound: Optional[float] = None
    mu: Optional[SpinSystem] = None
    nu: Optional[SpinSystem] = None
    kept: Optional[list[int]] = None


def preprocess(mu: SpinSystem, nu: SpinSystem) -> PreprocessOutcome:
    """Eliminate the hard constraints of a pair (the paper's reductions).

    Opposite forced spins on one vertex give disjoint supports, TV = 1.  A
    spin forced in one model only gives TV >= b, the smaller marginal lower
    bound.  Otherwise both models have the same forced spins, and
    contracting them leaves a soft pair with the same TV distance, or an
    empty one, TV = 0.
    """
    _check_pair(mu, nu)
    fm, fn = mu.forced, nu.forced
    if bool(np.any(fm * fn == -1)):
        return PreprocessOutcome("resolved", tv=1.0)
    if bool(np.any(fm != fn)):
        b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
        return PreprocessOutcome("big-gap", lower_bound=b)
    red_mu, kept, _ = contract_pinning(mu, None)
    red_nu, _, _ = contract_pinning(nu, None)
    if red_mu.n == 0:
        return PreprocessOutcome("resolved", tv=0.0)
    return PreprocessOutcome("soft-pair", mu=red_mu, nu=red_nu, kept=kept)
