"""Hardcore and Ising models: weights, parameter distance, regime checks.

All weights live in log space (an Ising weight ``exp(H)`` overflows for
modest ``n`` otherwise); ``-inf`` encodes weight zero.  Infinite external
fields in an Ising model pin a vertex; their contribution to the Hamiltonian
is a constant shared by every consistent configuration and is dropped from
``log_weight``, which therefore returns the log weight of the *conditioned*
distribution.  Estimators never see such models: :func:`preprocess`
eliminates infinite fields (and hardcore zero fields) first.
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
    __slots__ = ("graph", "lam", "_log_lam", "_eu", "_ev")

    def __init__(self, graph: Graph, lam: Union[np.ndarray, Iterable[float]]):
        self.graph = graph
        arr = np.asarray(lam, dtype=np.float64).copy()
        if arr.shape != (graph.n,):
            raise DimensionMismatchError(
                f"lambda has shape {arr.shape}, expected ({graph.n},)"
            )
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise InputError("hardcore fields must be finite and nonnegative")
        arr.flags.writeable = False
        self.lam = arr
        with np.errstate(divide="ignore"):
            log_lam = np.log(arr)
        self._log_lam = log_lam  # -inf where lam == 0
        edges = graph.edges
        self._eu = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
        self._ev = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_soft(self) -> bool:
        return bool(np.all(self.lam > 0))

    def log_weight_batch(self, configs: np.ndarray) -> np.ndarray:
        """Log weights for a (batch, n) array of +-1 configurations."""
        if configs.ndim != 2 or configs.shape[1] != self.n:
            raise DimensionMismatchError(
                f"batch has shape {configs.shape}, expected (*, {self.n})"
            )
        plus = configs > 0
        out = plus @ np.where(np.isneginf(self._log_lam), 0.0, self._log_lam)
        bad = np.zeros(len(configs), dtype=bool)
        if len(self._eu):
            bad |= np.any(plus[:, self._eu] & plus[:, self._ev], axis=1)
        zero = self.lam == 0
        if zero.any():
            bad |= np.any(plus[:, zero], axis=1)
        out[bad] = NEG_INF
        return out

    def __repr__(self) -> str:
        return f"HardcoreModel(n={self.n}, m={self.graph.m})"


class IsingModel:
    """Ising model (G, J, h); h entries may be +-inf (pinned vertices)."""

    kind = "ising"
    __slots__ = ("graph", "h", "_j", "_eu", "_ev", "_jw", "csr_j")

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
        h.flags.writeable = False
        self.h = h

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
        self._j = {e: jmap.get(e, 0.0) for e in graph.edges}

        edges = graph.edges
        self._eu = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
        self._ev = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
        self._jw = np.array([self._j[e] for e in edges], dtype=np.float64)
        # couplings aligned with graph.indices, for the chain kernels
        csr_j = np.zeros(len(graph.indices), dtype=np.float64)
        for v in range(graph.n):
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            for k in range(lo, hi):
                u = int(graph.indices[k])
                csr_j[k] = self._j[(min(u, v), max(u, v))]
        csr_j.flags.writeable = False
        self.csr_j = csr_j

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_soft(self) -> bool:
        return bool(np.all(np.isfinite(self.h)))

    @property
    def couplings(self) -> dict[tuple[int, int], float]:
        return dict(self._j)

    def log_weight_batch(self, configs: np.ndarray) -> np.ndarray:
        if configs.ndim != 2 or configs.shape[1] != self.n:
            raise DimensionMismatchError(
                f"batch has shape {configs.shape}, expected (*, {self.n})"
            )
        spins = configs.astype(np.float64)
        finite = np.isfinite(self.h)
        out = spins[:, finite] @ self.h[finite]
        if len(self._eu):
            out += (spins[:, self._eu] * spins[:, self._ev]) @ self._jw
        pinned = ~finite
        if pinned.any():
            want = np.sign(self.h[pinned])
            bad = np.any(spins[:, pinned] != want[None, :], axis=1)
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
    n = model.n
    jmat = np.zeros((n, n))
    for (u, v), val in model._j.items():
        jmat[u, v] = jmat[v, u] = val
    if n:
        eig = np.linalg.eigvalsh(jmat)
        spread = float(eig[-1] - eig[0])
    else:
        spread = 0.0
    gap = 1.0 - spread
    if gap > SPECTRAL_TOL:
        return IsingCondition("spectral", gap)
    if all(val >= 0 for val in model._j.values()) and bool(np.all(model.h >= 0)):
        return IsingCondition("ferromagnetic-consistent", float(np.min(model.h)) if n else 0.0)
    jvals = set(model._j.values())
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
    """``pin`` as an int8 array (0 = free) with every infinite Ising field
    folded in as a pin on its sign, once the pinning is checked feasible.

    Raises:
        InfeasiblePinningError: no extension of ``pin`` has positive weight
            for reasons visible locally (hardcore +1 on a zero field or on
            adjacent vertices; Ising pin against an infinite field).
    """
    eff = pin_array(pin, model.n)
    if model.kind == "hardcore":
        plus = np.flatnonzero(eff == 1)
        for v in plus:
            if model.lam[v] == 0:
                raise InfeasiblePinningError(f"vertex {v} pinned +1 but lambda is 0")
        if len(plus) and not model.graph.is_independent_set(plus):
            raise InfeasiblePinningError("pinned +1 set is not independent")
        return eff
    h = model.h
    for v in np.flatnonzero(~np.isfinite(h)):
        forced = 1 if h[v] > 0 else -1
        if eff[v] not in (0, forced):
            raise InfeasiblePinningError(f"vertex {v} pinned {eff[v]:+d} against infinite field")
        eff[v] = forced
    return eff


def contract_pinning(
    model: SpinSystem, pin: Optional[Pinning]
) -> tuple[SpinSystem, list[int], float]:
    """Fold a pinning into the model by self-reducibility.

    Returns ``(reduced, kept, log_const)`` with
    ``log Z^pin(model) = log_const + log Z(reduced)`` and ``kept`` the original
    labels of the reduced model's vertices.  Infinite Ising fields count as
    pins; a contradiction between them and ``pin`` is infeasible.

    Raises:
        InfeasiblePinningError: as :func:`effective_pins`.
    """
    n = model.n
    eff = effective_pins(model, pin)
    if model.kind == "hardcore":
        lam = model.lam
        plus = [v for v in range(n) if eff[v] == 1]
        forced_minus = set()
        for v in plus:
            forced_minus.update(int(u) for u in model.graph.neighbors(v))
        drop = set(plus) | forced_minus | {v for v in range(n) if eff[v] == -1}
        kept = [v for v in range(n) if v not in drop]
        sub, old_to_new = model.graph.induced_subgraph(kept)
        log_const = float(np.sum(np.log(lam[plus]))) if plus else 0.0
        return HardcoreModel(sub, lam[kept]), kept, log_const

    # Ising: infinite fields behave as pins
    h = model.h
    kept = [v for v in range(n) if eff[v] == 0]
    sub, old_to_new = model.graph.induced_subgraph(kept)
    new_h = np.array([h[v] for v in kept], dtype=np.float64)
    log_const = 0.0
    for v in range(n):
        if eff[v] != 0 and math.isfinite(h[v]):
            log_const += h[v] * eff[v]
    new_j: dict[tuple[int, int], float] = {}
    for (u, v), val in model._j.items():
        pu, pv = eff[u], eff[v]
        if pu != 0 and pv != 0:
            log_const += val * pu * pv
        elif pu != 0:
            new_h[old_to_new[v]] += val * pu
        elif pv != 0:
            new_h[old_to_new[u]] += val * pv
        else:
            new_j[(old_to_new[u], old_to_new[v])] = val
    return IsingModel(sub, new_j, new_h), kept, log_const


def drop_zero_fields(model: HardcoreModel) -> tuple[HardcoreModel, list[int]]:
    """The hardcore model on its nonzero-field vertices, and their labels.

    Zero-field vertices are -1 in every configuration of positive weight, so
    dropping them leaves the distribution on the rest and Z unchanged.  A
    model with no zero field is returned as it is.
    """
    kept = [v for v in range(model.n) if model.lam[v] > 0]
    if len(kept) == model.n:
        return model, kept
    sub, _ = model.graph.induced_subgraph(kept)
    return HardcoreModel(sub, model.lam[kept]), kept


def marginal_lower_bound(
    model: SpinSystem, free_degree_cap: int = FREE_DEGREE_CAP
) -> MarginalBound:
    """Tight b such that every positive conditional marginal is >= b.

    Hardcore: zero-field vertices are stripped first (they are fixed to -1 by
    self-reducibility); then b = min(1/(1+max lambda), min_v m_v) where m_v is
    the +1 marginal of v under the all-minus boundary outside N(v).  Ising:
    infinite fields are contracted first; the extremal pinning assigns each
    neighbor against the coupling sign.
    """
    if model.kind == "hardcore":
        work, _ = drop_zero_fields(model)
        if work.n == 0:
            return MarginalBound(1.0, 1.0)
        lam = work.lam
        minus_bound = 1.0 / (1.0 + float(np.max(lam)))
        b = minus_bound
        lam_list = lam.tolist()  # float products, without numpy scalar overhead
        for v in range(work.n):
            if work.graph.degree(v) > free_degree_cap:
                raise TooLargeError(
                    f"free degree {work.graph.degree(v)} exceeds enumeration cap "
                    f"{free_degree_cap}"
                )
            z_n = _neighborhood_partition(work.graph, lam_list, v)
            b = min(b, lam[v] / (lam[v] + z_n))
        return MarginalBound(b, minus_bound)

    work, _, _ = contract_pinning(model, None)
    if work.n == 0:
        return MarginalBound(1.0, 1.0)
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
    ising_condition: Optional[IsingCondition]
    marginal_bound: float


def pair_regime(mu: SpinSystem, nu: SpinSystem) -> RegimeReport:
    """Regime quantities holding for *both* models (min of gaps and bounds)."""
    _check_pair(mu, nu)
    b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
    if mu.kind == "hardcore":
        g1, g2 = check_uniqueness(mu), check_uniqueness(nu)
        gap = min(g1, g2) if (g1 is not None and g2 is not None) else None
        return RegimeReport("hardcore", gap, None, b)
    c1, c2 = check_ising_condition(mu), check_ising_condition(nu)
    cond = c1 if (c1 is not None and c2 is not None) else None
    return RegimeReport("ising", None, cond, b)


UNIQUENESS_TV_CONSTANT = 1.0 / 5000.0


def tv_lower_bound_constant(pair_kind: str, regime: RegimeReport) -> float:
    """Largest applicable constant C with TV >= C * parameter distance."""
    candidates = []
    if pair_kind == "hardcore":
        if regime.uniqueness_gap is not None:
            candidates.append(UNIQUENESS_TV_CONSTANT)
        if regime.marginal_bound > 0:
            candidates.append(regime.marginal_bound**3)
    elif pair_kind == "ising":
        if regime.marginal_bound > 0:
            candidates.append(regime.marginal_bound**2 / 2.0)
    else:
        raise InputError(f"unknown pair kind {pair_kind!r}")
    if not candidates:
        raise NoLowerBoundError(f"no TV lower bound case applies for {pair_kind}")
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
    """Eliminate hard constraints shared structure allows (paper's reductions).

    Ising: opposite infinite fields force TV = 1; a one-sided infinite field
    forces TV >= b; agreeing infinite fields are contracted into neighbor
    fields on both sides.  Hardcore analogues with zero fields.
    """
    _check_pair(mu, nu)
    n = mu.n
    if mu.kind == "hardcore":
        zm = mu.lam == 0
        zn = nu.lam == 0
        if bool(np.any(zm != zn)):
            b = min(marginal_lower_bound(mu).b, marginal_lower_bound(nu).b)
            return PreprocessOutcome("big-gap", lower_bound=b)
        if bool(np.all(zm)):
            return PreprocessOutcome("resolved", tv=0.0)
        mu2, kept = drop_zero_fields(mu)
        if mu2 is not mu:
            nu = HardcoreModel(mu2.graph, nu.lam[kept])
        return PreprocessOutcome("soft-pair", mu=mu2, nu=nu, kept=kept)

    hm, hn = mu.h, nu.h
    inf_m, inf_n = ~np.isfinite(hm), ~np.isfinite(hn)
    both = inf_m & inf_n
    if bool(np.any(both & (np.sign(hm) != np.sign(hn)) & both)):
        return PreprocessOutcome("resolved", tv=1.0)
    if bool(np.any(inf_m != inf_n)):
        b_m = marginal_lower_bound(mu).b
        b_n = marginal_lower_bound(nu).b
        return PreprocessOutcome("big-gap", lower_bound=min(b_m, b_n))
    if not bool(np.any(inf_m)):
        return PreprocessOutcome("soft-pair", mu=mu, nu=nu, kept=list(range(n)))
    red_mu, kept, _ = contract_pinning(mu, None)
    red_nu, kept_n, _ = contract_pinning(nu, None)
    assert kept == kept_n
    if red_mu.n == 0:
        return PreprocessOutcome("resolved", tv=0.0)
    return PreprocessOutcome("soft-pair", mu=red_mu, nu=red_nu, kept=kept)
