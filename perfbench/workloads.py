"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload builds a list of operations in ``setup`` (timed as set-up),
runs them one after another in the timed phase (one client, closed loop),
and checks every answer against ground truth computed after the timed
phase: ``check`` marks each wrong answer on its operation and returns the
failures of the run as a whole, such as a mean error too large.  Instance
sizes are fixed per workload and only the structure and parameters come
from the seed, so the cost of a run hardly depends on it.

Why these workloads:

* ``glauber-tv`` -- the ``gibbs-tv tv`` command with both exact caps at 0:
  every sample and every count comes from Glauber chains and the annealing
  counter.  The chains are short (n <= 10), so per-chain Python and RNG
  overhead is a large share.  ``exact`` does no work inside an operation.
* ``sample-long`` -- ``Sampler.sample_batch`` on long chains (n = 200, 300):
  bound by the kernel, no counting and no enumeration, and the only
  workload in which threads split work.
* ``exact-tv`` -- enumeration-backed estimator calls on n <= 10, as the
  coverage criteria run them: ``exact``, ``models`` and ``estimators`` do
  all the work and the chain does none.  Calls take milliseconds, so a run
  has enough of them for a tail percentile.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np

# Entry points are called through their modules, so that the tracer's
# wrappers, installed on the modules at run time, see the calls.
from gibbs_tv import cli, estimators, exact, instances
from gibbs_tv.counting import CounterConfig
from gibbs_tv.estimators import EstimatorBudget, meta_condition_params, section_theta
from gibbs_tv.graph import Graph, cycle_graph
from gibbs_tv.models import (
    HardcoreModel,
    IsingModel,
    contract_pinning,
    pair_regime,
    parameter_distance,
)
from gibbs_tv.sampling import Sampler, SamplerConfig
from gibbs_tv.suites import ADVANCED_KAPPA, ADVANCED_THETA


class Op:
    """One operation: what to call, and what its answer is checked against."""

    __slots__ = ("kind", "args", "samples", "answer", "error", "failure")

    def __init__(self, kind, args):
        self.kind, self.args = kind, args
        self.samples = 0  # samples the operation delivered
        self.answer = None
        self.error = None  # |answer - truth| in units of the operation's target
        self.failure = None  # reason the answer is wrong, if it is


def _graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Random simple graph with exactly m edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pick = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, [pairs[k] for k in sorted(pick)])


def _op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# glauber-tv


def hardcore_additive_pair(rng, n=8, m=9):
    g = _graph(n, m, rng)
    lam = rng.uniform(0.3, 1.0, n)
    lam2 = np.clip(lam + rng.uniform(-0.4, 0.4, n), 0.05, 1.0)
    lam[0] = lam2[0] = 1.0  # the largest field sets the annealing length
    return HardcoreModel(g, lam), HardcoreModel(g, lam2)


def hardcore_basic_pair(rng, n=8, m=9):
    """Pair one field apart by half the relative-branch threshold theta."""
    while True:
        g = _graph(n, m, rng)
        lam = rng.uniform(0.3, 1.0, n)
        lam[0] = 1.0
        mu = HardcoreModel(g, lam)
        b = pair_regime(mu, mu).marginal_bound
        lam2 = lam.copy()
        lam2[1 + int(rng.integers(0, n - 1))] -= 0.5 * section_theta(mu, mu, b)
        nu = HardcoreModel(g, lam2)
        b = pair_regime(mu, nu).marginal_bound
        if parameter_distance(mu, nu) < section_theta(mu, nu, b):
            return mu, nu


def ising_basic_pair(rng, n=6, m=6):
    g = _graph(n, m, rng)
    couplings = {e: float(rng.uniform(-0.3, 0.3)) for e in g.edges}
    h = rng.uniform(-0.5, 0.5, n)
    h[0] = 0.5  # the largest parameter sets the annealing length
    mu = IsingModel(g, couplings, h)
    i = 1 + int(rng.integers(0, n - 1))
    h2 = h.copy()
    step = 0.5 * section_theta(mu, mu, 0.5) * (g.degree(i) + 1)
    h2[i] += -step if h[i] >= 0 else step
    return mu, IsingModel(g, couplings, h2)


class GlauberTV:
    name = "glauber-tv"
    # kind -> (pair generator, --mode, branch dispatch must take)
    KINDS = {
        "hardcore-additive": (hardcore_additive_pair, "additive", "additive-forced"),
        "hardcore-basic": (hardcore_basic_pair, "auto", "basic"),
        "ising-basic": (ising_basic_pair, "auto", "basic"),
    }
    FLAGS = [
        "--eps", "0.5", "--samples-per-level", "0.25", "--boost-repeats", "1",
        "--t-override", "200", "--exact-cap", "0", "--exact-sampler-cap", "0",
        "--exact-counter-cap", "0", "--threads", "1", "--json",
    ]
    # Errors are in targets: epsilon for additive estimates, epsilon * TV for
    # relative ones.  The reduced counter budget carries no guarantee, so the
    # gates come from calibration over 102 estimates of each kind, whose
    # largest errors were 0.73 (hardcore-additive), 2.0 (hardcore-basic) and
    # 0.40 (ising-basic).  An estimate above TOLERANCE targets is a wrong answer;
    # at epsilon 0.5 an additive estimate cannot be more than 2 off, and an
    # estimate of 0 is exactly 2 off on the relative kinds.
    TOLERANCE = {"hardcore-additive": 1.5, "hardcore-basic": 4.0, "ising-basic": 1.5}
    # The mean error of a run's estimates of one kind must stay below
    # base + spread / sqrt(estimates), with base the kind's calibrated mean
    # error.  Over 200000 runs of 1 to 10 rounds resampled from the
    # calibration estimates, (largest mean - base) * sqrt(estimates) reached
    # 0.93, 2.7 and 0.51; each spread is 1.2 to 1.3 times that.  An estimator
    # that returns 0 is 2 targets off on every ising-basic estimate.
    MEAN_TOLERANCE = {"hardcore-additive": (0.15, 1.2), "hardcore-basic": (0.47, 3.2),
                      "ising-basic": (0.12, 0.65)}

    def __init__(self, workdir, threads):
        self.workdir = workdir
        self.budget = {"cli_flags": " ".join(self.FLAGS), "threads": 1}

    def setup(self, rng, rounds):
        ops = []
        for r in range(rounds):
            for kind, (make, mode, _) in self.KINDS.items():
                mu, nu = make(rng)
                paths = []
                for side, model in (("mu", mu), ("nu", nu)):
                    path = os.path.join(self.workdir, f"{r}-{kind}-{side}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(instances.emit_instance(model))
                    paths.append(path)
                argv = ["tv", *paths, "--mode", mode, "--seed", str(_op_seed(rng))] + self.FLAGS
                ops.append(Op(kind, (argv, mu, nu)))
        return ops

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.args[0])
        if code != 0:
            op.failure = f"exit code {code}"
            return
        op.answer = json.loads(out.getvalue())
        op.samples = op.answer["samples_used"]

    def check(self, ops):
        self._check_each(ops)
        failures = []
        for kind, (base, spread) in self.MEAN_TOLERANCE.items():
            errors = [op.error for op in ops if op.kind == kind and op.error is not None]
            if not errors:
                continue
            mean, bound = sum(errors) / len(errors), base + spread / math.sqrt(len(errors))
            if mean > bound:
                failures.append(f"{kind}: mean error {mean:.3g} targets over "
                                f"{len(errors)} estimates, above {bound:.3g}")
        return failures

    def _check_each(self, ops):
        for op in ops:
            _, mu, nu = op.args
            rec = op.answer
            truth = exact.exact_tv(mu, nu)
            target = rec["epsilon"] * (1.0 if rec["error_kind"] == "additive" else truth)
            est = rec["estimate"]
            want = self.KINDS[op.kind][2]
            if rec["branch"] != want:
                op.failure = f"branch {rec['branch']!r}, expected {want!r}"
            elif not (math.isfinite(est) and est >= 0.0):
                op.failure = f"estimate {est!r}"
            else:
                op.error = abs(est - truth) / target
                if op.error > self.TOLERANCE[op.kind]:
                    op.failure = (f"error {op.error:.3g} targets "
                                  f"(estimate {est:.6g}, TV {truth:.6g})")


# ---------------------------------------------------------------------------
# sample-long


def _pinning(model, rng, share=0.1):
    """Pin a tenth of the vertices; hardcore +1 pins form an independent set."""
    n = model.n
    pin = {}
    for v in sorted(int(v) for v in rng.choice(n, size=int(share * n), replace=False)):
        plus = rng.random() < 0.5
        if model.kind == "hardcore":
            plus = plus and all(pin.get(int(u)) != 1 for u in model.graph.neighbors(v))
        pin[v] = 1 if plus else -1
    return pin


class SampleLong:
    name = "sample-long"
    # Hardcore on a cycle of 300 and Ising on a random graph of 200: at the
    # pure-Python kernel's speeds a batch of either costs about the same
    # (1.2-1.5 s), so the median latency does not sit between two costs.
    N = {"hardcore-cycle": 300, "ising-random": 200}
    CHAINS = 128  # two 64-chain chunks per batch
    DELTA = 0.05
    # Chains of C_MIX * n * ln(n / delta) steps: 3 gives about 25 sweeps,
    # which still mixes both models at these parameters (the marginal check
    # below holds), and keeps a batch short enough for a run to hold 26 of
    # them at --seconds 30.  At the default 20 a batch takes 5-10 s, and a
    # run of a few such batches spreads too widely from run to run.
    C_MIX = 3.0
    # Per-vertex marginal errors are in units of 1/(2 sqrt(chains)), which
    # bounds their standard deviation; the chain's own TV bias delta adds up
    # to 2 sqrt(chains) delta = 1.13 units at every vertex.  The worst free
    # vertex may be 6 s.d. off on top of the bias, which catches single-vertex
    # faults.  The mean over the ~270 free vertices may be sqrt(2/pi) (the
    # mean of the absolute value of a standard normal) plus the bias plus
    # 0.25, about 3 standard errors of that mean with neighbouring vertices
    # correlated: 2.18 units, or 0.096 in marginal, catches a bias spread
    # over all vertices.
    BIAS = 2.0 * math.sqrt(CHAINS) * DELTA
    TOLERANCE = 6.0 + BIAS
    MEAN_TOLERANCE = math.sqrt(2.0 / math.pi) + BIAS + 0.25

    def __init__(self, workdir, threads):
        self.threads = threads
        self.budget = {"chains": self.CHAINS, "delta": self.DELTA, "c_mix": self.C_MIX,
                       "n": self.N, "threads": threads}

    def setup(self, rng, rounds):
        cfg = SamplerConfig(mixing_multiplier=self.C_MIX)
        n = self.N["hardcore-cycle"]
        hardcore = HardcoreModel(cycle_graph(n), rng.uniform(0.5, 1.5, n))
        n = self.N["ising-random"]
        g = _graph(n, n, rng)
        ising = IsingModel(g, {e: float(rng.uniform(-0.25, 0.25)) for e in g.edges},
                           rng.uniform(-0.3, 0.3, n))
        samplers = {}
        for kind, model in (("hardcore-cycle", hardcore), ("ising-random", ising)):
            pin = _pinning(model, rng)
            samplers[kind] = (Sampler(model, pin, cfg), pin)
        self.samplers = samplers
        return [Op(kind, (sampler, pin, np.random.default_rng(_op_seed(rng))))
                for _ in range(rounds) for kind, (sampler, pin) in samplers.items()]

    def run(self, op):
        sampler, _, rng = op.args
        op.answer = sampler.sample_batch(self.CHAINS, self.DELTA, rng, self.threads)
        op.samples = len(op.answer)

    def _cycle_marginals(self, model, pin):
        p = np.zeros(model.n)
        for v, s in pin.items():
            p[v] = 1.0 if s == 1 else 0.0
        reduced, kept, _ = contract_pinning(model, pin)
        for j, v in enumerate(kept):
            p[v] = exact.deg2_plus_marginal(reduced.graph, reduced.lam, j)
        return p

    def check(self, ops):
        truth = {}
        for op in ops:
            sampler, pin, _ = op.args
            xs, model = op.answer, sampler.model
            if xs.shape != (self.CHAINS, model.n):
                op.failure = f"shape {xs.shape}"
                continue
            if not np.all(np.abs(xs) == 1):
                op.failure = "spin outside {-1, +1}"
                continue
            cols = sorted(pin)
            if not np.array_equal(xs[:, cols], np.tile([pin[v] for v in cols], (len(xs), 1))):
                op.failure = "pinning not honoured"
                continue
            if model.kind != "hardcore":
                continue
            plus = xs > 0
            eu, ev = np.array(model.graph.edges).T
            if np.any(plus[:, eu] & plus[:, ev]):
                op.failure = "occupied neighbours in a hardcore sample"
                continue
            if op.kind not in truth:
                truth[op.kind] = self._cycle_marginals(model, pin)
            units = np.abs(plus.mean(axis=0) - truth[op.kind]) * 2.0 * math.sqrt(self.CHAINS)
            free = sampler.free
            op.error = float(units[free].mean())
            worst = float(units[free].max())
            if worst > self.TOLERANCE:
                v = int(free[units[free].argmax()])
                op.failure = f"marginal error {worst:.3g} units at vertex {v}"
            elif op.error > self.MEAN_TOLERANCE:
                op.failure = f"mean marginal error {op.error:.3g} units over free vertices"
        self.kernel_identity = kernel_identity(self.samplers)
        return []


def kernel_identity(samplers, steps=20000):
    """Bit-identity of the compiled and Python kernels, when both import."""
    try:
        from gibbs_tv import _chain
    except ImportError:
        return "skipped: compiled kernel not built"
    from gibbs_tv import _chain_py

    rng = np.random.default_rng(0)
    for sampler, _ in samplers.values():
        model, g = sampler.model, sampler.model.graph
        sites = rng.integers(0, model.n, size=steps)
        us = rng.random(steps)
        states = []
        for kernel in (_chain, _chain_py):
            state = np.full(model.n, -1, dtype=np.int8)
            if model.kind == "hardcore":
                kernel.run_hardcore(g.indptr, g.indices, model.lam / (1.0 + model.lam),
                                    state, sites, us)
            else:
                kernel.run_ising(g.indptr, g.indices, model.csr_j, model.h, state, sites, us)
            states.append(state)
        if not np.array_equal(*states):
            return f"FAILED: kernels diverge on {model.kind}"
    return "identical"


# ---------------------------------------------------------------------------
# exact-tv


def ising_pair(rng, n=10, m=14):
    """Ising pair at moderate distance; enumeration cost depends only on n."""
    g = _graph(n, m, rng)
    couplings = {e: float(rng.uniform(-0.5, 0.5)) for e in g.edges}
    h = rng.uniform(-1.0, 1.0, n)
    couplings2 = {e: v + float(rng.uniform(-0.2, 0.2)) for e, v in couplings.items()}
    return IsingModel(g, couplings, h), IsingModel(g, couplings2, h + rng.uniform(-0.2, 0.2, n))


def advanced_pair(rng, n=8, m=8):
    """Hardcore pair for the truncated estimator (as the coverage suite builds them)."""
    g = _graph(n, m, rng)
    big = np.zeros(n, dtype=bool)
    big[rng.choice(n, size=5, replace=False)] = True
    lam = np.where(big, rng.uniform(0.1, 0.4, n), rng.uniform(1e-5, 0.5 * ADVANCED_KAPPA, n))
    d = float(rng.uniform(0.3, 0.8)) * ADVANCED_THETA
    signs = rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.7)
    signs[int(np.flatnonzero(big)[0])] = 1.0  # so the pair always differs
    return HardcoreModel(g, lam), HardcoreModel(g, np.clip(lam + signs * d, 1e-9, None))


class ExactTV:
    name = "exact-tv"
    POOL = 48  # pairs of each family, cycled through by the rounds
    EPS = {"dispatch-exact": 0.1, "additive": 0.05, "marginal-additive": 0.05,
           "basic": 0.25, "advanced": 0.25}
    BASIC_T = 30000
    # Errors in units of the target (epsilon, or epsilon * TV).  The exact
    # branch must be exact; with enumeration-backed oracles the largest
    # estimator error seen while calibrating over 1920 calls was 0.16.
    TOLERANCE = {"dispatch-exact": 1e-9, "additive": 1.0, "marginal-additive": 1.0,
                 "basic": 1.0, "advanced": 1.0}

    def __init__(self, workdir, threads):
        scfg, ccfg = SamplerConfig(exact_fallback_cap=20), CounterConfig(exact_fallback_cap=20)
        self.plain = EstimatorBudget(sampler=scfg, counter=ccfg)
        self.basic = EstimatorBudget(sampler=scfg, counter=ccfg, T_override=self.BASIC_T)
        self.advanced = EstimatorBudget(
            sampler=scfg, counter=ccfg, kappa_override=ADVANCED_KAPPA,
            theta_override=ADVANCED_THETA, override_gates=True, t=4,
        )
        self.budget = {"eps": self.EPS, "exact_fallback_cap": 20, "basic_T_override": self.BASIC_T,
                       "advanced_kappa": ADVANCED_KAPPA, "advanced_theta": ADVANCED_THETA,
                       "t": 4, "threads": 1}
        warnings.filterwarnings("ignore", message="advanced-estimator gates overridden")

    def setup(self, rng, rounds):
        soft = [ising_pair(rng) for _ in range(self.POOL)]
        subsets = [sorted(int(v) for v in rng.choice(mu.n, size=2, replace=False))
                   for mu, _ in soft]
        basic = [hardcore_basic_pair(rng) for _ in range(self.POOL)]
        params = [meta_condition_params(mu, nu, pair_regime(mu, nu).marginal_bound)
                  for mu, nu in basic]
        adv = [advanced_pair(rng) for _ in range(self.POOL)]
        self.subsets, self.params = subsets, params
        ops = []
        for r in range(rounds):
            i = r % self.POOL
            for kind, pair in (("dispatch-exact", soft[i]), ("additive", soft[i]),
                               ("marginal-additive", soft[i]), ("basic", basic[i]),
                               ("advanced", adv[i])):
                ops.append(Op(kind, (i, pair, np.random.default_rng(_op_seed(rng)))))
        return ops

    def run(self, op):
        i, (mu, nu), rng = op.args
        kind, eps = op.kind, self.EPS[op.kind]
        if kind == "dispatch-exact":
            rep = estimators.dispatch_tv(mu, nu, eps, self.plain, rng)
        elif kind == "additive":
            rep = estimators.additive_tv(mu, nu, eps, self.plain, rng)
        elif kind == "marginal-additive":
            rep = estimators.marginal_additive_tv(mu, nu, self.subsets[i], eps, self.plain, rng)
        elif kind == "basic":
            rep = estimators.basic_relative_tv(mu, nu, eps, self.params[i], self.basic, rng)
        else:
            rep = estimators.advanced_relative_tv(mu, nu, eps, self.advanced, rng)
        op.answer = rep
        op.samples = rep.samples_used

    def check(self, ops):
        truth = {}
        for op in ops:
            i, (mu, nu), _ = op.args
            family = "soft" if op.kind in ("dispatch-exact", "additive") else op.kind
            key = (family, i)
            if key not in truth:
                if op.kind == "marginal-additive":
                    truth[key] = exact.exact_marginal_tv(mu, nu, self.subsets[i])
                else:
                    truth[key] = exact.exact_tv(mu, nu)
            tv = truth[key]
            rep = op.answer
            want = "exact" if op.kind == "dispatch-exact" else op.kind
            if rep.branch != want:
                op.failure = f"branch {rep.branch!r}, expected {want!r}"
                continue
            target = rep.epsilon * (1.0 if rep.error_kind == "additive" else tv)
            if not (math.isfinite(rep.estimate) and target > 0):
                op.failure = f"estimate {rep.estimate!r}, target {target!r}"
                continue
            op.error = abs(rep.estimate - tv) / target
            if op.error > self.TOLERANCE[op.kind]:
                op.failure = (f"error {op.error:.3g} targets "
                              f"(estimate {rep.estimate:.6g}, TV {tv:.6g})")
        return []


WORKLOADS = {w.name: w for w in (GlauberTV, SampleLong, ExactTV)}
