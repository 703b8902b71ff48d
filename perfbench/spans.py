"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces public entry points of ``gibbs_tv`` modules with thin
wrappers that record a span (layer, tag, start, end, parent) and a
few counts.  Nothing under ``src/`` is edited: every wrapper is installed at
run time, in every loaded module that holds the wrapped object, so a name
imported with ``from .x import f`` is traced in its caller too.  An entry
point that no longer exists is reported as absent instead of failing.

Spans stay in memory until the run ends.  A layer's self time is the time
during which one of its spans is the innermost active span; when spans in
worker threads overlap, the overlapping time is split among the innermost
spans, so the self times of all layers add up to the time covered by the
root spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Dispatch branches the workloads take, reported as estimators.branch.<name>.
BRANCHES = ("additive-forced", "basic", "exact", "additive", "marginal-additive", "advanced")


class Span:
    __slots__ = ("sid", "parent", "layer", "tag", "t0", "t1", "exact_hit")

    def __init__(self, sid, parent, layer, tag, t0):
        self.sid, self.parent, self.layer, self.tag = sid, parent, layer, tag
        self.t0, self.t1 = t0, None
        self.exact_hit = False


class Tracer:
    """Records spans and counts while ``active``; passes calls through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.count_models: list = []  # (model, log_z) of outermost approx_count calls
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._next = 0
        self._lock = threading.Lock()

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, tag: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread: its work belongs to the span that waits for it
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, parent, layer, tag, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, value: float) -> None:
        with self._lock:  # hooks also run on the sampler's worker threads
            self.counts[key] += value

    def ancestors(self, span: Span):
        p = span.parent
        while p is not None:
            yield p
            p = p.parent

    def under(self, span: Span, layer: str) -> bool:
        return any(a.layer == layer for a in self.ancestors(span))

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, layer, tag, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(layer, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module, name, layer, tag=None, hook=None) -> None:
        """Trace ``module.name`` in every gibbs_tv module that holds it."""
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        traced = self._wrapper(fn, layer, tag or name, hook)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("gibbs_tv"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)

    def wrap_method(self, cls, name, layer, tag=None, hook=None) -> None:
        fn = cls.__dict__.get(name) if cls is not None else None
        if fn is None:
            owner = getattr(cls, "__name__", "?")
            self.absent.append(f"{owner}.{name}")
            return
        setattr(cls, name, self._wrapper(fn, layer, tag or name, hook))

    # -- aggregation --------------------------------------------------------

    def self_times(self, spans: list[Span]) -> dict[str, float]:
        """Innermost-span time per layer (see the module docstring)."""
        events = []
        for s in spans:
            events.append((s.t0, 1, s))
            events.append((s.t1, 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        out: dict[str, float] = defaultdict(float)
        active: dict[int, Span] = {}
        children: dict[int, int] = defaultdict(int)
        leaves: set[int] = set()
        prev = None
        for t, kind, s in events:
            if prev is not None and leaves:
                share = (t - prev) / len(leaves)
                for sid in leaves:
                    out[active[sid].layer] += share
            prev = t
            parent = s.parent.sid if s.parent is not None else None
            if kind == 1:
                active[s.sid] = s
                leaves.add(s.sid)
                if parent in active:
                    children[parent] += 1
                    leaves.discard(parent)
            else:
                del active[s.sid]
                leaves.discard(s.sid)
                if parent in active:
                    children[parent] -= 1
                    if children[parent] == 0:
                        leaves.add(parent)
        return out

    def tag_time(self, spans: list[Span], tags: set[str]) -> float:
        """Inclusive time of spans with one of ``tags``, outermost ones only."""
        total = 0.0
        for s in spans:
            if s.tag in tags and not any(a.tag in tags for a in self.ancestors(s)):
                total += s.t1 - s.t0
        return total

    def outermost(self, spans: list[Span], layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer and not self.under(s, layer)]


# ---------------------------------------------------------------------------
# Hooks: counts taken at the layer boundaries


def _chain_hook(tr, span, args, kwargs, result):
    steps = len(args[-2])  # run_hardcore/run_ising(..., state, sites, us)
    tr.add("chain.calls", 1)
    tr.add("chain.steps", steps)


def _sample_batch_hook(tr, span, args, kwargs, result):
    sampler, count = args[0], len(result)
    tr.add("sampling.batches", 1)
    if sampler.is_exact:
        tr.add("sampling.exact_batches", 1)
        return
    delta = args[2] if len(args) > 2 else kwargs["delta"]
    steps = count * sampler.steps_for(delta)
    tr.add("sampling.chains", count)
    tr.add("sampling.chain_steps", steps)
    if tr.under(span, "counting"):
        tr.add("counting.draws", count)
        tr.add("counting.chain_steps", steps)


def _num_levels_hook(tr, span, args, kwargs, result):
    if tr.under(span, "counting"):
        tr.add("counting.levels", result)


def _approx_count_hook(tr, span, args, kwargs, result):
    tr.add("counting.calls", 1)
    if span.exact_hit:
        tr.add("counting.exact_hits", 1)
    if not any(a.tag == "approx_count" for a in tr.ancestors(span)):
        tr.count_models.append((args[0], float(result)))


def _exact_hook(tr, span, args, kwargs, result):
    for a in tr.ancestors(span):
        if a.tag == "approx_count":
            a.exact_hit = True
            break


def _rows_hook(tr, span, args, kwargs, result):
    tr.add("exact.rows", len(result))


def _log_weight_hook(tr, span, args, kwargs, result):
    tr.add("models.log_weight_rows", len(result))


def _report_hook(tr, span, args, kwargs, result):
    if tr.under(span, "estimators") or not hasattr(result, "branch"):
        return
    tr.add("estimators.samples_used", result.samples_used)
    tr.add("estimators.counter_calls", result.counter_calls)
    tr.add(f"estimators.branch.{result.branch}", 1)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of gibbs_tv."""
    from gibbs_tv import cli, counting, estimators, exact, graph, instances, models, sampling

    kernel = getattr(sampling, "_kernel", None)
    for name in ("run_hardcore", "run_ising"):
        if kernel is None:
            tracer.absent.append(f"sampling._kernel.{name}")
        else:
            tracer.wrap_function(kernel, name, "chain", hook=_chain_hook)

    sampler = getattr(sampling, "Sampler", None)
    tracer.wrap_method(sampler, "__init__", "sampling", "sampler_init")
    tracer.wrap_method(sampler, "sample_batch", "sampling", hook=_sample_batch_hook)

    tracer.wrap_function(counting, "approx_count", "counting", hook=_approx_count_hook)
    tracer.wrap_function(counting, "conditional_count", "counting")
    tracer.wrap_function(counting, "ratio_estimate", "counting")
    tracer.wrap_function(counting, "num_levels", "counting", hook=_num_levels_hook)

    for name in ("dispatch_tv", "additive_tv", "marginal_additive_tv",
                 "basic_relative_tv", "advanced_relative_tv", "tilde_ratio_R",
                 "meta_condition_params", "partition_big_small"):
        tracer.wrap_function(estimators, name, "estimators", hook=_report_hook)

    for name, value in list(vars(exact).items()):
        if (callable(value) and not name.startswith("_") and not isinstance(value, type)
                and getattr(value, "__module__", None) == exact.__name__):
            tracer.wrap_function(exact, name, "exact", hook=_exact_hook)
    for name in ("_independent_configs", "_all_configs"):  # enumeration rows
        tracer.wrap_function(exact, name, "exact", hook=_rows_hook)

    tracer.wrap_function(models, "preprocess", "models", "preprocess")
    for name in ("pair_regime", "marginal_lower_bound"):
        tracer.wrap_function(models, name, "models", "regime")
    for name in ("contract_pinning", "parameter_distance", "check_uniqueness",
                 "check_ising_condition", "tv_lower_bound_constant"):
        tracer.wrap_function(models, name, "models")
    for cls in (getattr(models, "HardcoreModel", None), getattr(models, "IsingModel", None)):
        tracer.wrap_method(cls, "log_weight_batch", "models", "log_weight",
                           hook=_log_weight_hook)

    tracer.wrap_function(cli, "main", "cli")
    tracer.wrap_function(instances, "load_instance", "instances", "load")
    tracer.wrap_function(instances, "parse_instance", "instances")
    tracer.wrap_function(instances, "emit_instance", "instances", "emit")
    tracer.wrap_method(getattr(graph, "Graph", None), "__init__", "graph", "graph_build")


def layer_metrics(tracer: Tracer, timed: list[Span], every: list[Span]) -> dict[str, float]:
    """Per-layer numbers from the timed-phase spans (``every`` adds set-up)."""
    self_t = tracer.self_times(timed)
    c = tracer.counts
    chain_busy = self_t.get("chain", 0.0)
    batch_time = tracer.tag_time(timed, {"sample_batch"})
    sampling_self = batch_time - chain_busy
    batches = c.get("sampling.batches", 0.0)
    out = {
        "chain.busy_s": chain_busy,
        "chain.calls": c.get("chain.calls", 0.0),
        "chain.steps": c.get("chain.steps", 0.0),
        "chain.steps_per_s": c.get("chain.steps", 0.0) / chain_busy if chain_busy else 0.0,
        "sampling.self_s": sampling_self,
        "sampling.overhead_share": sampling_self / batch_time if batch_time else 0.0,
        "sampling.chains": c.get("sampling.chains", 0.0),
        "sampling.chain_steps": c.get("sampling.chain_steps", 0.0),
        "sampling.init_s": tracer.tag_time(timed, {"sampler_init"}),
        "sampling.exact_frac": c.get("sampling.exact_batches", 0.0) / batches if batches else 0.0,
        "counting.self_s": self_t.get("counting", 0.0),
        "counting.calls": c.get("counting.calls", 0.0),
        "counting.exact_hits": c.get("counting.exact_hits", 0.0),
        "counting.levels": c.get("counting.levels", 0.0),
        "counting.draws": c.get("counting.draws", 0.0),
        "counting.chain_steps": c.get("counting.chain_steps", 0.0),
        "estimators.self_s": self_t.get("estimators", 0.0),
        "estimators.samples_used": c.get("estimators.samples_used", 0.0),
        "estimators.counter_calls": c.get("estimators.counter_calls", 0.0),
    }
    for b in BRANCHES:
        out[f"estimators.branch.{b}"] = c.get(f"estimators.branch.{b}", 0.0)
    out.update({
        "exact.self_s": self_t.get("exact", 0.0),
        "exact.calls": float(len(tracer.outermost(timed, "exact"))),
        "exact.rows": c.get("exact.rows", 0.0),
        "models.preprocess_s": tracer.tag_time(timed, {"preprocess"}),
        "models.regime_s": tracer.tag_time(timed, {"regime"}),
        "models.log_weight_s": tracer.tag_time(timed, {"log_weight"}),
        "models.log_weight_rows": c.get("models.log_weight_rows", 0.0),
        "cli.self_s": self_t.get("cli", 0.0),
        "instances.load_s": tracer.tag_time(every, {"load"}),
        "instances.emit_s": tracer.tag_time(every, {"emit"}),
        "graph.build_s": tracer.tag_time(every, {"graph_build"}),
        "harness.self_s": self_t.get("harness", 0.0),
    })
    out["_self_sum"] = sum(self_t.values())
    return out
