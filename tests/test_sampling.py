import importlib.util
import math
import os
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from gibbs_tv import _chain_py
from gibbs_tv.errors import InfeasiblePinningError, InputError
from gibbs_tv.exact import distribution
from gibbs_tv.graph import Graph, path_graph, random_graph
from gibbs_tv.models import HardcoreModel, IsingModel
from gibbs_tv.sampling import (
    Sampler,
    SamplerConfig,
    active_kernel,
    conditional_plus_probability,
    sample_marginal,
)


@pytest.fixture(scope="module")
def compiled_chain(tmp_path_factory):
    """The compiled kernel; when no extension is installed, the tracked
    ``_chain.c`` is built with ``cc`` into a temp dir and loaded from there
    without registering it as ``gibbs_tv._chain``."""
    try:
        from gibbs_tv import _chain

        return _chain
    except ImportError:
        pass
    cc = shutil.which("cc")
    py_include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.isfile(os.path.join(py_include, "Python.h")):
        pytest.skip("no C compiler or Python headers to build the kernel")
    source = os.path.join(os.path.dirname(_chain_py.__file__), "_chain.c")
    lib = tmp_path_factory.mktemp("kernel") / (
        "_chain" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{py_include}", f"-I{np.get_include()}",
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION", source, "-o", str(lib)],
        check=True, capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("gibbs_tv._chain", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the Cython module adds itself to sys.modules; the sampler must keep
    # the kernel it chose at import
    sys.modules.pop("gibbs_tv._chain", None)
    return module


def test_config_validation():
    with pytest.raises(InputError):
        SamplerConfig(mixing_multiplier=0.0)


def test_steps_at_least_n():
    model = HardcoreModel(path_graph(5), np.ones(5))
    s = Sampler(model, cfg=SamplerConfig(mixing_multiplier=1e-6))
    assert s.steps_for(0.5) >= 5
    with pytest.raises(InputError):
        s.steps_for(1.5)


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
    assert sample_marginal(model, [], 0.1, rng=rng) == {}
    hits = 0
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
                lw_tau = model.log_weight(tau)
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


def test_kernels_walk_identical_trajectories(rng, compiled_chain):
    n = 8
    g = random_graph(n, 0.4, np.random.default_rng(3))
    lam = np.random.default_rng(4).uniform(0.2, 1.5, n)
    model = HardcoreModel(g, lam)
    p_plus = lam / (1 + lam)
    steps = 5000
    sites = rng.integers(0, n, size=steps)
    us = rng.random(steps)
    s1 = np.full(n, -1, dtype=np.int8)
    s2 = np.full(n, -1, dtype=np.int8)
    compiled_chain.run_hardcore(g.indptr, g.indices, p_plus, s1, sites, us)
    _chain_py.run_hardcore(g.indptr, g.indices, p_plus, s2, sites, us)
    assert np.array_equal(s1, s2)

    j = {e: float(np.random.default_rng(5).uniform(-0.5, 0.5)) for e in g.edges}
    h = np.random.default_rng(6).uniform(-1, 1, n)
    ising = IsingModel(g, j, h)
    s1 = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    s2 = s1.copy()
    compiled_chain.run_ising(g.indptr, g.indices, ising.csr_j, h, s1, sites, us)
    _chain_py.run_ising(g.indptr, g.indices, ising.csr_j, h, s2, sites, us)
    assert np.array_equal(s1, s2)


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
    import sys

    import gibbs_tv.sampling as sampling_mod

    model = HardcoreModel(path_graph(4), np.full(4, 0.9))
    with_ext = Sampler(model).sample_batch(40, 0.05, np.random.default_rng(12))

    import gibbs_tv

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
