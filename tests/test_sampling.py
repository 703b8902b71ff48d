import itertools
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gibbs_tv
from gibbs_tv import _chain_py
from gibbs_tv import models as models_mod
from gibbs_tv import sampling as sampling_mod
from gibbs_tv.errors import InfeasiblePinningError, InputError, TooLargeError
from gibbs_tv.exact import distribution
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel, contract_pinning
from gibbs_tv.sampling import (
    Sampler,
    SamplerConfig,
    active_kernel,
    chain_steps,
    early_exit,
    worst_chain_steps,
)


@pytest.fixture(scope="module")
def compiled_chain():
    """The C kernel; skipped only where it cannot be built (no ``cc``)."""
    return pytest.importorskip("gibbs_tv._chain")


def test_config_validation(rng):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="mixing_multiplier"):
            SamplerConfig(mixing_multiplier=bad)
    for bad in (-1, math.nan):
        with pytest.raises(InputError, match="exact_fallback_cap"):
            SamplerConfig(exact_fallback_cap=bad)
    with pytest.raises(InputError, match="threads"):
        Sampler(HardcoreModel(Graph(1), [1.0])).sample_batch(4, 0.1, rng, threads=0)
    for cap in (0, 20):  # the chain and the enumeration sampler check alike
        cfg = SamplerConfig(exact_fallback_cap=cap)
        s = Sampler(HardcoreModel(path_graph(3), np.ones(3)), cfg=cfg)
        with pytest.raises(InputError, match="delta"):
            s.sample_batch(4, 5.0, rng)
        with pytest.raises(InputError, match="nonnegative"):
            s.sample_batch(-3, 0.1, rng)
        assert s.sample_batch(0, 0.1, rng).shape == (0, 3)


def test_steps_at_least_n():
    model = HardcoreModel(path_graph(5), np.ones(5))
    s = Sampler(model, cfg=SamplerConfig(mixing_multiplier=1e-6))
    assert s.steps_for(0.5) >= 5
    with pytest.raises(InputError):
        s.steps_for(1.5)
    # no chain where the sampler enumerates or nothing is free
    cfg = SamplerConfig(exact_fallback_cap=3)
    assert chain_steps(5, 3, 0.5, cfg) == 0 and chain_steps(5, 4, 0.5, cfg) > 0
    assert Sampler(model, {0: -1, 1: -1}, cfg).steps_for(0.5) == 0
    assert Sampler(model, {0: -1}, cfg).steps_for(0.5) == chain_steps(5, 4, 0.5, cfg)
    assert Sampler(model, {v: -1 for v in range(5)}).steps_for(0.5) == 0


def test_single_vertex_marginal(rng):
    s = Sampler(HardcoreModel(Graph(1), [1.0]))
    batch = s.sample_batch(100_000, 0.01, rng)
    assert (batch > 0).mean() == pytest.approx(0.5, abs=0.01)


def test_pinned_vertices_never_flip(rng):
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    s = Sampler(edge, pin={0: 1})
    batch = s.sample_batch(2000, 0.05, rng)
    assert np.all(batch[:, 0] == 1)
    assert np.all(batch[:, 1] == -1)  # hard constraint


def test_infeasible_pin_rejected():
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    with pytest.raises(InfeasiblePinningError):
        Sampler(edge, pin={0: 1, 1: 1})


def test_p3_distribution_close_to_uniform(rng):
    model = HardcoreModel(path_graph(3), np.ones(3))
    s = Sampler(model)
    batch = s.sample_batch(100_000, 0.01, rng)
    keys = (batch > 0) @ np.array([1, 2, 4])
    counts = np.bincount(keys, minlength=8) / len(batch)
    expected = np.zeros(8)
    for k in (0, 1, 2, 4, 5):  # the 5 independent sets of P3
        expected[k] = 0.2
    tv = 0.5 * np.abs(counts - expected).sum()
    assert tv < 0.02


def test_sample_marginal(rng):
    model = HardcoreModel(path_graph(3), np.ones(3))
    n_draws = 100_000
    s = Sampler(model)
    batch = s.sample_batch(n_draws, 0.01, rng)
    hits = (batch[:, 1] > 0).mean()
    assert hits == pytest.approx(0.2, abs=0.01)


def test_ising_chain_statistics(rng):
    g = Graph(2, [(0, 1)])
    model = IsingModel(g, {(0, 1): 0.5}, [0.2, -0.1])
    s = Sampler(model)
    batch = s.sample_batch(60_000, 0.01, rng)
    dist = distribution(model)
    keys = (batch > 0) @ np.array([1, 2])
    counts = np.bincount(keys, minlength=4) / len(batch)
    truth = np.zeros(4)
    for cfg, lp in zip(dist.configs, dist.log_probs):
        truth[(cfg > 0) @ np.array([1, 2])] = math.exp(lp)
    assert 0.5 * np.abs(counts - truth).sum() < 0.02


def test_infinite_field_pins_vertex(rng):
    g = Graph(2, [(0, 1)])
    model = IsingModel(g, {(0, 1): 0.3}, [math.inf, 0.0])
    s = Sampler(model)
    batch = s.sample_batch(3000, 0.05, rng)
    assert np.all(batch[:, 0] == 1)


def test_zero_field_pins_vertex(rng):
    """A hardcore zero field pins its vertex at -1: the chains never update
    it, and the other marginals match exact enumeration."""
    model = HardcoreModel(path_graph(4), [1.0, 0.0, 2.0, 0.5])
    s = Sampler(model)
    assert s.free.tolist() == [0, 2, 3] and s.pins.tolist() == [0, -1, 0, 0]
    assert not s.is_exact
    batch = s.sample_batch(4000, 0.05, rng)
    assert np.all(batch[:, 1] == -1)
    dist = distribution(model)
    exact_plus = np.exp(dist.log_probs) @ (dist.configs > 0)
    assert np.abs((batch > 0).mean(axis=0) - exact_plus).max() < 0.04


def conditional_plus_probability(model, sigma, v):
    """Heat-bath probability that ``v`` flips to +1 given the rest of ``sigma``:
    the closed form the chain kernels are checked against."""
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


def test_detailed_balance_closed_form(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_graph(n, 0.5, rng)
        if rng.random() < 0.5:
            model = HardcoreModel(g, rng.uniform(0.2, 2.0, n))
        else:
            model = IsingModel(
                g,
                {e: float(rng.uniform(-0.8, 0.8)) for e in g.edges},
                rng.uniform(-1, 1, n),
            )
        dist = distribution(model)
        for cfg, lp in zip(dist.configs[:20], dist.log_probs[:20]):
            for v in range(n):
                tau = cfg.copy()
                tau[v] = -tau[v]
                p_plus = conditional_plus_probability(model, cfg, v)
                p_sigma_tau = p_plus if tau[v] == 1 else 1.0 - p_plus
                p_tau_sigma = (
                    conditional_plus_probability(model, tau, v)
                    if cfg[v] == 1
                    else 1.0 - conditional_plus_probability(model, tau, v)
                )
                lw_tau = model.log_weight_batch(tau[None])[0]
                lhs = math.exp(lp) * p_sigma_tau
                rhs = math.exp(lw_tau - dist.log_z) * p_tau_sigma
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_one_step_stationarity_chi_square(rng):
    # exact sample + one chain step should leave the law unchanged
    model = HardcoreModel(path_graph(3), np.ones(3))
    s_exact = Sampler(model, cfg=SamplerConfig(exact_fallback_cap=10))
    draws = 200_000
    batch = s_exact.sample_batch(draws, 0.5, rng).copy()
    chain = Sampler(model)
    sites = chain.free[rng.integers(0, len(chain.free), size=draws)]
    us = rng.random(draws)
    for i in range(draws):
        chain_state = batch[i]
        from gibbs_tv.sampling import _kernel

        _kernel.run_hardcore(
            model.graph.indptr, model.graph.indices, chain._p_plus,
            chain_state, sites[i : i + 1].astype(np.int64), us[i : i + 1],
        )
    keys = (batch > 0) @ np.array([1, 2, 4])
    counts = np.bincount(keys, minlength=8)
    expected = np.zeros(8)
    for k in (0, 1, 2, 4, 5):
        expected[k] = draws / 5.0
    live = expected > 0
    chi2 = float(np.sum((counts[live] - expected[live]) ** 2 / expected[live]))
    assert counts[~live].sum() == 0
    assert chi2 < 18.467  # 99.9% quantile, 4 degrees of freedom


def test_reproducibility_same_seed():
    model = IsingModel(path_graph(4), {e: 0.2 for e in path_graph(4).edges},
                       [0.1, -0.2, 0.3, 0.0])
    s = Sampler(model)
    a = s.sample_batch(50, 0.05, np.random.default_rng(99))
    b = s.sample_batch(50, 0.05, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_threads_do_not_change_output(monkeypatch):
    """A batch is bit-identical at 1, 2 and 3 threads and at any chunk size,
    on early-exit and on plain chains: each chain reads its own counters of
    the batch's stream."""
    g = path_graph(6)
    for model in (HardcoreModel(g, np.full(6, 0.7)),
                  IsingModel(g, {e: 0.3 for e in g.edges}, np.linspace(-0.5, 0.5, 6))):
        for cfg in (SamplerConfig(), SamplerConfig(mixing_multiplier=1.0)):
            s = Sampler(model, cfg=cfg)
            a = s.sample_batch(300, 0.05, np.random.default_rng(4), threads=1)
            for threads in (2, 3):
                b = s.sample_batch(300, 0.05, np.random.default_rng(4), threads=threads)
                assert np.array_equal(a, b)
            with monkeypatch.context() as m:
                m.setattr(sampling_mod, "_CHUNK", 7)
                assert np.array_equal(a, s.sample_batch(300, 0.05, np.random.default_rng(4), 2))


def _walk_both(compiled_chain, kind, args, state, sites, us, segments=5):
    """Run both kernels from ``state`` segment by segment; assert they agree
    after every segment."""
    s1, s2 = state.copy(), state.copy()
    for part in np.array_split(np.arange(len(sites)), segments):
        si, u = sites[part], us[part]
        getattr(compiled_chain, kind)(*args, s1, si, u)
        getattr(_chain_py, kind)(*args, s2, si, u)
        assert np.array_equal(s1, s2)
    return s1


def test_kernels_walk_identical_trajectories(rng, compiled_chain):
    n = 8
    g = random_graph(n, 0.4, np.random.default_rng(3))
    lam = np.random.default_rng(4).uniform(0.2, 1.5, n)
    p_plus = lam / (1 + lam)
    steps = 5000
    sites = rng.integers(0, n, size=steps)
    us = rng.random(steps)
    _walk_both(compiled_chain, "run_hardcore", (g.indptr, g.indices, p_plus),
               np.full(n, -1, dtype=np.int8), sites, us)

    j = {e: float(np.random.default_rng(5).uniform(-0.5, 0.5)) for e in g.edges}
    h = np.random.default_rng(6).uniform(-1, 1, n)
    ising = IsingModel(g, j, h)
    _walk_both(compiled_chain, "run_ising", (g.indptr, g.indices, ising.csr_j, h),
               np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8), sites, us)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the twin at 1e308
def test_kernels_agree_on_edge_cases(rng, compiled_chain):
    # vertices 5..7 are isolated
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    steps = 4000
    sites = rng.integers(0, g.n, size=steps)
    us = rng.random(steps)
    # occupation probabilities 0 and 1 next to ordinary ones
    p_plus = np.array([0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 0.0, 0.3])
    end = _walk_both(compiled_chain, "run_hardcore", (g.indptr, g.indices, p_plus),
                     np.full(g.n, -1, dtype=np.int8), sites, us)
    assert end[5] == 1 and end[6] == -1  # isolated, p = 1 and p = 0
    # fields that saturate the heat-bath probability (|a| > 709 either way),
    # fields just inside the cut-off, and couplings that push sums past it
    h = np.array([800.0, -800.0, 354.4, -354.4, 354.6, -354.6, 1e308, -1e308])
    for scale in (0.0, 1.0, 400.0):
        csr_j = IsingModel(g, {e: scale * (-1) ** k for k, e in enumerate(g.edges)},
                           np.zeros(g.n)).csr_j
        for start in (1, -1):
            _walk_both(compiled_chain, "run_ising", (g.indptr, g.indices, csr_j, h),
                       np.full(g.n, start, dtype=np.int8), sites, us)


def _record_chunks(monkeypatch, kernel) -> list:
    """Record each ``kernel.sample_chunk`` call as ``(first, size, steps
    run, chains that ran the plain chain)``."""
    calls = []
    chunk = kernel.sample_chunk

    def recorded(*args):
        spent, fallbacks = chunk(*args)
        calls.append((args[7], args[8], spent, fallbacks))
        return spent, fallbacks

    monkeypatch.setattr(kernel, "sample_chunk", recorded)
    return calls


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_batch_identical_on_both_kernels(monkeypatch, compiled_chain, threads):
    """Both kernels give the same bits, with and without pins, on early-exit
    and on plain chains, and spend the same steps in each chunk with as many
    chains falling back to the plain chain."""
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])  # 5, 6 isolated
    j = {e: 0.4 * (-1) ** k for k, e in enumerate(g.edges)}
    models = [
        (HardcoreModel(g, np.linspace(0.2, 2.0, g.n)), None),
        (HardcoreModel(g, np.linspace(0.2, 2.0, g.n)), {1: 1}),
        (IsingModel(g, j, np.linspace(-1.0, 1.0, g.n)), None),
        (IsingModel(g, j, np.linspace(-1.0, 1.0, g.n)), {4: -1}),
    ]
    for model, pin in models:
        for cfg in (SamplerConfig(), SamplerConfig(mixing_multiplier=1.0)):
            outcomes = []
            for kernel in (compiled_chain, _chain_py):
                with monkeypatch.context() as m:
                    m.setattr(sampling_mod, "_kernel", kernel)
                    calls = _record_chunks(m, kernel)
                    sampler = sampling_mod.Sampler(model, pin, cfg)
                    batch = sampler.sample_batch(150, 0.05, np.random.default_rng(8), threads)
                outcomes.append((batch, sorted(calls)))
            assert np.array_equal(outcomes[0][0], outcomes[1][0])
            assert outcomes[0][1] == outcomes[1][1]
            assert [c[:2] for c in outcomes[0][1]] == [(0, 64), (64, 64), (128, 22)]


def _src_dir() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(gibbs_tv.__file__)))


def test_compiled_wrappers_validate_arrays(compiled_chain):
    g = path_graph(4)
    model = IsingModel(g, {e: 0.2 for e in g.edges}, np.zeros(4))
    good = dict(indptr=g.indptr, indices=g.indices, p_plus=np.full(4, 0.5),
                state=np.full(4, -1, dtype=np.int8),
                sites=np.arange(4, dtype=np.int64), us=np.full(4, 0.25))
    bad = [
        (TypeError, "sites", np.arange(4, dtype=np.int32)),
        (TypeError, "us", np.full(4, 0.25, dtype=np.float32)),
        (TypeError, "state", np.full(4, -1, dtype=np.int64)),
        (TypeError, "state", [-1, -1, -1, -1]),
        (TypeError, "indptr", g.indptr.astype(np.int64)),
        (TypeError, "p_plus", np.full((2, 2), 0.5)),
        (ValueError, "sites", np.arange(8, dtype=np.int64)[::2]),
        (ValueError, "us", np.full(8, 0.25)[::2]),
        (ValueError, "state", np.full(8, -1, dtype=np.int8)[::2]),
        (ValueError, "us", np.full(3, 0.25)),  # fewer uniforms than sites
        (ValueError, "us", np.full(5, 0.25)),
        (ValueError, "p_plus", np.full(3, 0.5)),
        (ValueError, "indices", g.indices[:-1]),
        (ValueError, "sites", np.array([0, 1, 4, 2], dtype=np.int64)),  # off the graph
        (ValueError, "sites", np.array([0, -1, 2, 3], dtype=np.int64)),
    ]
    for error, name, value in bad:
        args = dict(good, **{name: value})
        state_before = args["state"].copy() if name != "state" else None
        with pytest.raises(error):
            compiled_chain.run_hardcore(*args.values())
        if state_before is not None:
            assert np.array_equal(args["state"], state_before)
    frozen = good["state"].copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        compiled_chain.run_hardcore(*dict(good, state=frozen).values())
    ising = [g.indptr, g.indices, model.csr_j, model.h, good["state"], good["sites"], good["us"]]
    for i, value in ((2, model.csr_j[:-1]), (3, np.zeros(5)), (6, np.full(2, 0.5))):
        with pytest.raises(ValueError):
            compiled_chain.run_ising(*ising[:i], value, *ising[i + 1:])
    # the checks are not asserts: they hold under python -O as well
    code = ("import numpy as np; from gibbs_tv import _chain; from gibbs_tv.graph import "
            "path_graph; g = path_graph(2)\n"
            "try: _chain.run_hardcore(g.indptr, g.indices, np.ones(2), np.ones(2, np.int8), "
            "np.zeros(3, np.int64), np.ones(2))\nexcept ValueError: print('refused')")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_src_dir()), check=True)
    assert out.stdout.strip() == "refused"


def _kernel_in_copy(tmp_path, path_env=None, cache_blocked=False, source=None) -> str:
    """``active_kernel()`` reported by a fresh interpreter importing a copy of
    the package (with an empty kernel cache) from ``tmp_path``."""
    pkg = tmp_path / "gibbs_tv"
    if not pkg.exists():
        shutil.copytree(os.path.dirname(gibbs_tv.__file__), pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if cache_blocked:
        (pkg / "__pycache__").write_text("a file where the cache directory would go")
    if source is not None:
        (pkg / "chain_kernel.c").write_text(source)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    if path_env is not None:
        env["PATH"] = path_env
    out = subprocess.run(
        [sys.executable, "-c", "import gibbs_tv.sampling as s; print(s.active_kernel())"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True, timeout=300,
    )
    return out.stdout.strip()


def test_kernel_falls_back_when_it_cannot_be_built(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler to build the kernel with")
    empty = tmp_path / "empty-path"
    empty.mkdir()
    # no cc on PATH
    assert _kernel_in_copy(tmp_path / "a", path_env=str(empty)) == "python"
    # the cache directory cannot be created
    assert _kernel_in_copy(tmp_path / "b", cache_blocked=True) == "python"
    # the compile fails
    assert _kernel_in_copy(tmp_path / "c", source="not C\n") == "python"
    # a warm cache needs no compiler, and the atomic write leaves no temp file
    assert _kernel_in_copy(tmp_path / "d") == "compiled"
    assert _kernel_in_copy(tmp_path / "d", path_env=str(empty)) == "compiled"
    built = [f for f in os.listdir(tmp_path / "d" / "gibbs_tv" / "__pycache__")
             if not f.endswith(".pyc")]
    assert len(built) == 1 and built[0].startswith("chain_kernel-") and built[0].endswith(".so")


def test_exact_fallback_matches_distribution(rng):
    model = HardcoreModel(path_graph(4), np.full(4, 1.2))
    s = Sampler(model, cfg=SamplerConfig(exact_fallback_cap=10))
    assert s.is_exact
    batch = s.sample_batch(200_000, 0.5, rng)
    dist = distribution(model)
    keys = (batch > 0) @ (1 << np.arange(4))
    counts = np.bincount(keys, minlength=16) / len(batch)
    truth = np.zeros(16)
    for cfg, lp in zip(dist.configs, dist.log_probs):
        truth[(cfg > 0) @ (1 << np.arange(4))] = math.exp(lp)
    assert 0.5 * np.abs(counts - truth).sum() < 0.01


def test_active_kernel_reports_something():
    assert active_kernel() in ("compiled", "python")


def test_fallback_kernel_selected_when_extension_missing():
    """Reloading the sampling module with the extension blocked selects the
    pure-Python kernel and produces the same samples."""
    import importlib

    model = HardcoreModel(path_graph(4), np.full(4, 0.9))
    with_ext = Sampler(model).sample_batch(40, 0.05, np.random.default_rng(12))

    saved = sys.modules.pop("gibbs_tv._chain", None)
    sys.modules["gibbs_tv._chain"] = None  # halts the module import
    saved_attr = gibbs_tv.__dict__.pop("_chain", None)  # and the getattr fallback
    try:
        importlib.reload(sampling_mod)
        assert sampling_mod.active_kernel() == "python"
        s = sampling_mod.Sampler(model)
        without_ext = s.sample_batch(40, 0.05, np.random.default_rng(12))
    finally:
        del sys.modules["gibbs_tv._chain"]
        if saved is not None:
            sys.modules["gibbs_tv._chain"] = saved
        if saved_attr is not None:
            gibbs_tv._chain = saved_attr
        importlib.reload(sampling_mod)
    assert np.array_equal(with_ext, without_ext)
    assert sampling_mod.active_kernel() in ("compiled", "python")


# ---------------------------------------------------------------------------
# Early exit by coupling from the past

_LAMBDAS = st.sampled_from([0.0, 1e-3, 0.3, 1.0, 4.0, 1e3, 1e12]) | st.floats(0.0, 1e6)
# couplings and fields that saturate the heat-bath probability (|2c| > 709),
# sit just inside the cut-off, or push a sum across it, next to ordinary ones
_COUPLINGS = st.sampled_from([0.0, -0.0, 400.0, -400.0, 177.3]) | st.floats(-3.0, 3.0)
_FIELDS = st.sampled_from([800.0, -800.0, 354.4, -354.6, 1e308, -1e308]) | st.floats(-2.0, 2.0)


@st.composite
def _chain_cases(draw):
    """A small graph with pins, a hardcore or Ising model on it, a Philox
    key, a chunk of a batch's chains and an early-exit schedule."""
    n = draw(st.integers(1, 7))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    g = Graph(n, edges)
    pins = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=n, max_size=n)),
                    dtype=np.int8)
    if not (pins == 0).any():
        pins[draw(st.integers(0, n - 1))] = 0
    if draw(st.booleans()):
        lam = np.array(draw(st.lists(_LAMBDAS, min_size=n, max_size=n)))
        kind, weights = "hardcore", (lam / (1.0 + lam),)
    else:
        j = {e: draw(_COUPLINGS) for e in edges}
        h = np.array(draw(st.lists(_FIELDS, min_size=n, max_size=n)))
        kind, weights = "ising", (IsingModel(g, j, h).csr_j, h)
    key = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2)),
                   dtype=np.uint64)
    first, size = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    steps = draw(st.integers(1, 300))
    w0 = draw(st.integers(0, 40))
    limit = draw(st.integers(0, steps + 5))
    return kind, g, weights, pins, key, first, size, steps, w0, limit


def _plain_chain(kernel, kind, g, weights, start, key, chain, steps, free):
    """``start`` after ``run_*`` of all ``steps`` updates of ``chain``'s
    materialised stream."""
    state = start.copy()
    sites, us = _chain_py.stream(key, chain, 0, steps, free)
    getattr(kernel, f"run_{kind}")(g.indptr, g.indices, *weights, state, sites, us)
    return state


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the twin at 1e308
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_chain_cases())
def test_early_exit_equals_the_plain_chain(compiled_chain, case):
    """Each row of a chunk is the plain chain run on the whole materialised
    stream of its chain, from its start state, bit for bit, on both kernels,
    which spend the same steps and fall back to the plain chain equally
    often; rows outside the chunk stay untouched.  When every chain of the
    chunk coalesced, its row is where the plain chain ends from every start
    state."""
    kind, g, weights, pins, key, first, size, steps, w0, limit = case
    free = np.flatnonzero(pins == 0).astype(np.int64)
    chains = range(first, first + size)
    plain = {}
    for c in chains:
        start = pins.copy()
        start[free] = -1 if kind == "hardcore" else _chain_py.start_spins(key, c, len(free))
        plain[c] = _plain_chain(compiled_chain, kind, g, weights, start, key, c, steps, free)
    outcomes = []
    for kernel in (compiled_chain, _chain_py):
        out = np.zeros((first + size + 1, g.n), dtype=np.int8)
        spent, fallbacks = kernel.sample_chunk(g.indptr, g.indices, weights, pins, free, key,
                                               out, first, size, steps, w0, limit)
        for c in chains:
            assert np.array_equal(out[c], plain[c])
        assert not out[:first].any() and not out[first + size:].any()
        assert fallbacks * steps <= spent <= size * min(limit, steps) + fallbacks * steps
        outcomes.append((spent, fallbacks))
    assert outcomes[0] == outcomes[1]
    fallbacks = outcomes[0][1]
    event(f"{kind}, chains that fell back: {fallbacks} of {size}")
    if fallbacks == 0 and len(free) <= 5:
        for c in chains:
            for spins in itertools.product((-1, 1), repeat=len(free)):
                start = pins.copy()
                start[free] = spins
                other = _plain_chain(compiled_chain, kind, g, weights, start, key, c, steps, free)
                assert np.array_equal(other, plain[c])


def test_philox_block_matches_numpy(compiled_chain):
    """The kernel's Philox4x64-10 block is numpy's, for several keys and for
    counters with nonzero upper words; and the twin's blocks, which numpy
    draws by incrementing a 256-bit counter, carry across words as the
    kernel's counters do."""
    rng = np.random.default_rng(1)
    keys = [(0, 0), (2**64 - 1, 2**64 - 1), *rng.integers(0, 2**64, (3, 2), np.uint64)]
    top = 2**64 - 1
    counters = [(0, 0, 0, 0), (5, 3, 1, 0), (0, 7, 0, 0), (0, 0, 0, 1), (top, top, 0, 2),
                (top, top, top, top), tuple(rng.integers(0, 2**64, 4, np.uint64))]

    def block(key, counter):
        out = np.empty(4, dtype=np.uint64)
        compiled_chain._lib.philox4x64_10(np.array(counter, dtype=np.uint64).ctypes.data,
                                          np.array(key, dtype=np.uint64).ctypes.data,
                                          out.ctypes.data)
        return out

    def as_int(counter):
        return sum(int(w) << (64 * i) for i, w in enumerate(counter))

    for key in keys:
        k = int(key[0]) | int(key[1]) << 64
        for counter in counters:
            c = as_int(counter)
            ref = np.random.Philox(key=k, counter=(c - 1) % 2**256).random_raw(4)
            assert np.array_equal(block(key, counter), ref)
            following = [block(key, [(c + i) % 2**256 >> (64 * w) & top for w in range(4)])
                         for i in range(3)]
            assert np.array_equal(_chain_py._blocks(key, c, 3), np.concatenate(following))


def test_streams_of_a_batch():
    """The site map stays inside ``free`` and hits every free vertex;
    uniforms lie in [0, 1); a window reads the tail of its chain's stream;
    and two chains of one batch read different streams and start spins."""
    key = np.array([7, 2**63 + 9], dtype=np.uint64)
    free = np.arange(3, 1000, 7, dtype=np.int64)  # 143 free vertices
    sites, us = _chain_py.stream(key, 0, 0, 20000, free)
    assert set(sites.tolist()) == set(free.tolist())
    assert np.all((0.0 <= us) & (us < 1.0))
    tail = _chain_py.stream(key, 0, 12345, 20000, free)
    assert np.array_equal(tail[0], sites[12345:]) and np.array_equal(tail[1], us[12345:])
    other_sites, other_us = _chain_py.stream(key, 1, 0, 20000, free)
    assert np.mean(sites == other_sites) < 0.05 and not np.any(us == other_us)
    spins = [_chain_py.start_spins(key, c, 600) for c in (0, 1)]
    assert 0.4 < np.mean(spins[0] == spins[1]) < 0.6
    assert all(0.4 < np.mean(s == 1) < 0.6 for s in spins)


@pytest.mark.parametrize("kind", ["hardcore", "ising"])
def test_default_chains_stop_early(monkeypatch, kind):
    """At the default multiplier every chain here coalesces, within the
    windows' budget T // 2 < T, and none runs the plain chain."""
    g = random_graph(8, 0.35, np.random.default_rng(2))
    if kind == "hardcore":
        model = HardcoreModel(g, np.linspace(0.3, 1.0, 8))
    else:
        model = IsingModel(g, {e: 0.25 * (-1) ** k for k, e in enumerate(g.edges)},
                           np.linspace(-0.5, 0.5, 8))
    sampler = Sampler(model, {3: -1})
    steps = sampler.steps_for(0.05)
    w0, budget = early_exit(7, steps)
    assert w0 == math.ceil(7 * sum(1 / k for k in range(1, 8))) and budget == steps // 2
    calls = _record_chunks(monkeypatch, sampling_mod._kernel)
    sampler.sample_batch(200, 0.05, np.random.default_rng(3))
    assert [(first, size) for first, size, _, _ in calls] == [(0, 64), (64, 64), (128, 64),
                                                                (192, 8)]
    assert all(fallbacks == 0 and 0 < spent <= size * budget
               for _, size, spent, fallbacks in calls)
    assert worst_chain_steps(steps) == steps + steps // 2


def test_short_chains_skip_the_early_exit(monkeypatch):
    """At mixing multiplier 3 a 300-cycle with 30 pins has T < 8 W0: its
    chains run the plain kernel only and cost T, though the whole-cost
    guards charge them 1.5 T like every chain."""
    g = cycle_graph(300)
    model = HardcoreModel(g, np.full(300, 1.0))
    sampler = Sampler(model, {v: -1 for v in range(0, 300, 10)},
                      SamplerConfig(mixing_multiplier=3.0))
    steps = sampler.steps_for(0.05)
    assert early_exit(270, steps) == (0, 0)
    assert sampler.batch_steps(3, 0.05) == 3 * (steps + steps // 2)
    calls = _record_chunks(monkeypatch, sampling_mod._kernel)
    sampler.sample_batch(3, 0.05, np.random.default_rng(0))
    assert calls == [(0, 3, 3 * steps, 3)]


def test_batch_guard_counts_the_worst_case(monkeypatch):
    """1e8 chains of 813 steps are 8.1e10 steps, under MAX_CHAIN_STEPS, but
    1.2e11 once each may also spend its window budget: refused up front."""
    model = HardcoreModel(random_graph(8, 0.35, np.random.default_rng(2)), np.ones(8))
    sampler = Sampler(model)
    assert sampler.steps_for(0.05) == 813
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk",
                        lambda *a: pytest.fail("a chain ran"))
    with pytest.raises(TooLargeError, match="sample batch"):
        sampler.sample_batch(100_000_000, 0.05, np.random.default_rng(0))


def test_compiled_chunk_entry_validates_arrays(compiled_chain):
    """Bad arrays raise TypeError or ValueError before any step, and leave
    ``out`` untouched: the C entry refuses a neighbour, free vertex or pin
    out of range itself."""
    g = path_graph(4)
    model = IsingModel(g, {e: 0.2 for e in g.edges}, np.zeros(4))
    p_plus, pins = np.full(4, 0.5), np.zeros(4, dtype=np.int8)
    free, key = np.arange(4, dtype=np.int64), np.array([1, 2], dtype=np.uint64)
    out = np.zeros((3, 4), dtype=np.int8)
    good = dict(indptr=g.indptr, indices=g.indices, weights=(p_plus,), pins=pins, free=free,
                key=key, out=out, first=1, size=2, steps=40, w0=4, limit=20)
    frozen = np.zeros((3, 4), dtype=np.int8)
    frozen.flags.writeable = False
    bad = [
        (TypeError, "pins", pins.astype(np.int64)),
        (TypeError, "key", key.astype(np.int64)),
        (TypeError, "free", free.astype(np.int32)),
        (TypeError, "indptr", g.indptr.astype(np.int64)),
        (TypeError, "weights", (p_plus, p_plus, p_plus)),
        (TypeError, "weights", (p_plus.astype(np.float32),)),
        (TypeError, "out", np.zeros((3, 4), dtype=np.int64)),
        (TypeError, "out", np.zeros(12, dtype=np.int8)),
        (ValueError, "key", np.arange(3, dtype=np.uint64)),
        (ValueError, "weights", (np.full(3, 0.5),)),
        (ValueError, "weights", (model.csr_j[:-1], model.h)),
        (ValueError, "weights", (model.csr_j, np.zeros(5))),
        (ValueError, "pins", pins[:3]),
        (ValueError, "indptr", g.indptr[:-1]),
        (ValueError, "out", np.zeros((3, 5), dtype=np.int8)),
        (ValueError, "out", np.zeros((2, 4), dtype=np.int8)),  # no row 2
        (ValueError, "out", np.zeros((3, 8), dtype=np.int8)[:, ::2]),
        (ValueError, "out", frozen),
        (ValueError, "first", -1),
        (ValueError, "size", -1),
        (ValueError, "steps", -1),
        (ValueError, "w0", -1),
        # refused by the C entry
        (ValueError, "indices", g.indices + 1),  # a neighbour off the graph
        (ValueError, "free", np.array([0, 4], dtype=np.int64)),
        (ValueError, "free", np.array([-1, 2], dtype=np.int64)),
        (ValueError, "free", np.empty(0, dtype=np.int64)),  # steps, but nothing free
        (ValueError, "pins", np.array([0, 2, 0, 0], dtype=np.int8)),
    ]
    for error, name, value in bad:
        args = dict(good, **{name: value})
        with pytest.raises(error):
            compiled_chain.sample_chunk(**args)
        assert not out.any()
    spent, fallbacks = compiled_chain.sample_chunk(**good)
    assert spent > 0 and not out[0].any() and np.all(out[1:] != 0)
    ising = dict(good, weights=(model.csr_j, model.h))
    assert compiled_chain.sample_chunk(**ising)[0] > 0


def test_sampler_checks_pins_without_contracting(monkeypatch):
    """A Sampler checks its pinning without building the contracted model,
    folds forced spins in as pins, and refuses an infeasible pinning with
    contract_pinning's error."""
    def no_contraction(*args, **kwargs):
        pytest.fail("the Sampler contracted its pinning")

    g = path_graph(4)
    ising = IsingModel(g, {e: 0.2 for e in g.edges}, [math.inf, 0.0, -math.inf, 0.1])
    hardcore = HardcoreModel(g, [0.0, 1.0, 1.0, 1.0])
    with monkeypatch.context() as m:
        m.setattr(models_mod, "contract_pinning", no_contraction)
        m.setattr(sampling_mod, "contract_pinning", no_contraction, raising=False)
        assert Sampler(ising, {1: 1}).pins.tolist() == [1, 1, -1, 0]
        assert Sampler(hardcore, {1: 1, 2: -1}).pins.tolist() == [-1, 1, -1, 0]
    for model, pin in ((hardcore, {0: 1}), (hardcore, {1: 1, 2: 1}), (ising, {0: -1}),
                       (ising, {2: 1})):
        with pytest.raises(InfeasiblePinningError) as contracted:
            contract_pinning(model, pin)
        with pytest.raises(InfeasiblePinningError) as sampled:
            Sampler(model, pin)
        assert str(sampled.value) == str(contracted.value)
