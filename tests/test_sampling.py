import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gibbs_tv
from gibbs_tv import _chain_py
from gibbs_tv import sampling as sampling_mod
from gibbs_tv.errors import InfeasiblePinningError, InputError
from gibbs_tv.exact import distribution
from gibbs_tv.graph import Graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel
from gibbs_tv.sampling import (
    Sampler,
    SamplerConfig,
    active_kernel,
    chain_steps,
    conditional_plus_probability,
)


@pytest.fixture(scope="module")
def compiled_chain():
    """The C kernel; skipped only where it cannot be built (no ``cc``)."""
    return pytest.importorskip("gibbs_tv._chain")


def test_config_validation(rng):
    with pytest.raises(InputError):
        SamplerConfig(mixing_multiplier=0.0)
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


def test_threads_do_not_change_output():
    model = HardcoreModel(path_graph(6), np.full(6, 0.7))
    s = Sampler(model)
    a = s.sample_batch(300, 0.05, np.random.default_rng(4), threads=1)
    b = s.sample_batch(300, 0.05, np.random.default_rng(4), threads=3)
    assert np.array_equal(a, b)


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


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_batch_identical_on_both_kernels(monkeypatch, compiled_chain, threads):
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])  # 5, 6 isolated
    j = {e: 0.4 * (-1) ** k for k, e in enumerate(g.edges)}
    models = [
        (HardcoreModel(g, np.linspace(0.2, 2.0, g.n)), None),
        (HardcoreModel(g, np.linspace(0.2, 2.0, g.n)), {1: 1}),
        (IsingModel(g, j, np.linspace(-1.0, 1.0, g.n)), {4: -1}),
    ]
    for model, pin in models:
        batches = []
        for kernel in (compiled_chain, _chain_py):
            monkeypatch.setattr(sampling_mod, "_kernel", kernel)
            sampler = sampling_mod.Sampler(model, pin)
            batches.append(sampler.sample_batch(150, 0.05, np.random.default_rng(8), threads))
        assert np.array_equal(*batches)


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
