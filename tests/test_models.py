import itertools
import math

import numpy as np
import pytest

from gibbs_tv.errors import (
    DimensionMismatchError,
    InfeasiblePinningError,
    InputError,
    InvalidPairError,
    TooLargeError,
)
from gibbs_tv.exact import distribution, exact_partition, exact_tv
from gibbs_tv.graph import Graph, cycle_graph, path_graph, random_graph
from gibbs_tv.models import (
    HardcoreModel,
    IsingModel,
    RegimeReport,
    check_ising_condition,
    check_uniqueness,
    contract_pinning,
    lambda_c,
    marginal_lower_bound,
    pair_regime,
    parameter_distance,
    preprocess,
    tv_lower_bound_constant,
)
from oracles import brute_force_marginal_bound, random_hardcore_pair, random_ising_pair


def log_weight(model, sigma):
    """Log weight of one configuration through the batch method."""
    return model.log_weight_batch(np.asarray(sigma, dtype=np.int8)[None])[0]


def test_log_weight_examples():
    tri = HardcoreModel(cycle_graph(3), [1.0, 1.0, 1.0])
    assert log_weight(tri, [-1, -1, -1]) == 0.0
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    assert log_weight(edge, [1, 1]) == -math.inf
    ising = IsingModel(Graph(2, [(0, 1)]), {(0, 1): 0.5}, [0.0, 0.0])
    assert log_weight(ising, [1, 1]) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatchError):
        log_weight(tri, [1, -1])


def test_log_weight_zero_field_and_infinite_field():
    m = HardcoreModel(Graph(1), [0.0])
    assert log_weight(m, [1]) == -math.inf
    assert log_weight(m, [-1]) == 0.0
    ising = IsingModel(Graph(1), {}, [math.inf])
    assert log_weight(ising, [-1]) == -math.inf
    assert log_weight(ising, [1]) == 0.0  # infinite-field term dropped


def test_log_weight_matches_direct_product(rng):
    for _ in range(30):
        n = int(rng.integers(1, 10))
        g = random_graph(n, 0.4, rng)
        lam = rng.uniform(0.0, 2.0, n)
        model = HardcoreModel(g, lam)
        sigma = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        lw = log_weight(model, sigma)
        plus = [v for v in range(n) if sigma[v] > 0]
        if not g.is_independent_set(plus) or any(lam[v] == 0 for v in plus):
            assert lw == -math.inf
        else:
            direct = float(np.prod(lam[plus])) if plus else 1.0
            assert math.exp(lw) == pytest.approx(direct, rel=1e-12)

        j = {e: float(rng.uniform(-1, 1)) for e in g.edges}
        h = rng.uniform(-1, 1, n)
        ising = IsingModel(g, j, h)
        lw = log_weight(ising, sigma)
        direct = math.exp(
            sum(j[e] * sigma[e[0]] * sigma[e[1]] for e in g.edges)
            + float(h @ sigma)
        )
        assert math.exp(lw) == pytest.approx(direct, rel=1e-12)


def test_parameter_distance_examples():
    edge = Graph(2, [(0, 1)])
    mu = HardcoreModel(edge, [0.5, 0.5])
    nu = HardcoreModel(edge, [0.5, 0.7])
    assert parameter_distance(mu, nu) == pytest.approx(0.2)
    assert parameter_distance(mu, mu) == 0.0

    g = path_graph(3)  # middle vertex has degree 2
    j = {e: 0.1 for e in g.edges}
    a = IsingModel(g, j, [0.0, 0.0, 0.0])
    b = IsingModel(g, j, [0.0, 0.3, 0.0])
    assert parameter_distance(a, b) == pytest.approx(0.1)

    with pytest.raises(InvalidPairError):
        parameter_distance(mu, a)
    with pytest.raises(InvalidPairError):
        parameter_distance(mu, HardcoreModel(Graph(2), [0.5, 0.5]))


def test_parameter_distance_pseudometric(rng):
    g = random_graph(5, 0.5, rng)
    models = [HardcoreModel(g, rng.uniform(0.1, 2, 5)) for _ in range(3)]
    a, b, c = models
    assert parameter_distance(a, b) == parameter_distance(b, a)
    assert (
        parameter_distance(a, c)
        <= parameter_distance(a, b) + parameter_distance(b, c) + 1e-15
    )


def test_check_uniqueness():
    assert lambda_c(3) == pytest.approx(4.0)
    k4 = Graph(4, itertools.combinations(range(4), 2))  # max degree 3
    assert check_uniqueness(HardcoreModel(k4, [2.0] * 4)) == pytest.approx(0.5)
    assert check_uniqueness(HardcoreModel(k4, [5.0, 1.0, 1.0, 1.0])) is None
    # max degree <= 2 is always unique
    assert check_uniqueness(HardcoreModel(path_graph(3), [9.0] * 3)) == 1.0
    # boundary accepted non-strictly
    assert check_uniqueness(HardcoreModel(k4, [4.0] * 4)) == pytest.approx(0.0)


def test_check_ising_condition():
    g = path_graph(3)
    zero = IsingModel(g, {}, [0.0] * 3)
    cond = check_ising_condition(zero)
    assert cond.tag == "spectral" and cond.witness == pytest.approx(1.0)

    # K4 with J = 0.3 has spectral spread 1.2, all couplings/fields >= 0
    k4 = Graph(4, itertools.combinations(range(4), 2))
    ferro = IsingModel(k4, {e: 0.3 for e in k4.edges}, [0.1] * 4)
    assert check_ising_condition(ferro).tag == "ferromagnetic-consistent"

    # K5: degree 4, uniform negative coupling at the uniqueness boundary
    k5 = Graph(5, itertools.combinations(range(5), 2))
    beta = math.log(0.5) / 2.0
    anti = IsingModel(k5, {e: beta for e in k5.edges}, [-0.2] * 5)
    got = check_ising_condition(anti)
    assert got.tag == "antiferro-uniqueness"
    assert got.witness == pytest.approx(0.0, abs=1e-12)

    # beyond the threshold: nothing applies
    beta_bad = math.log(0.4) / 2.0
    bad = IsingModel(k5, {e: beta_bad for e in k5.edges}, [-0.2] * 5)
    assert check_ising_condition(bad) is None


def test_marginal_lower_bound_examples():
    iso = HardcoreModel(Graph(1), [1.0])
    assert marginal_lower_bound(iso).b == pytest.approx(0.5)
    edge = HardcoreModel(Graph(2, [(0, 1)]), [1.0, 1.0])
    assert marginal_lower_bound(edge).b == pytest.approx(1.0 / 3.0)
    ising_iso = IsingModel(Graph(1), {}, [0.0])
    assert marginal_lower_bound(ising_iso).b == pytest.approx(0.5)
    # zero-field vertices are stripped first
    all_zero = HardcoreModel(Graph(2, [(0, 1)]), [0.0, 0.0])
    assert marginal_lower_bound(all_zero).b == 1.0


def test_marginal_lower_bound_cap():
    star = Graph(26, [(0, i) for i in range(1, 26)])
    model = HardcoreModel(star, np.ones(26))
    with pytest.raises(TooLargeError):
        marginal_lower_bound(model)


def test_marginal_lower_bound_matches_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = random_graph(n, 0.45, rng)
        if rng.random() < 0.5:
            lam = rng.uniform(0.05, 2.0, n)
            if rng.random() < 0.3:
                lam[int(rng.integers(0, n))] = 0.0
            model = HardcoreModel(g, lam)
        else:
            model = IsingModel(
                g,
                {e: float(rng.uniform(-0.8, 0.8)) for e in g.edges},
                rng.uniform(-1.0, 1.0, n),
            )
        assert marginal_lower_bound(model).b == pytest.approx(
            brute_force_marginal_bound(model), abs=1e-10
        )


def test_tv_lower_bound_constant_cases():
    r = RegimeReport("hardcore", uniqueness_gap=0.5, marginal_bound=1e-3)
    assert tv_lower_bound_constant(r) == pytest.approx(1 / 5000)
    r = RegimeReport("hardcore", None, 1.0 / 3.0)
    assert tv_lower_bound_constant(r) == pytest.approx(1.0 / 27.0)
    r = RegimeReport("ising", None, 0.5)
    assert tv_lower_bound_constant(r) == pytest.approx(1.0 / 8.0)
    # both hardcore cases apply: the larger constant wins
    r = RegimeReport("hardcore", 0.5, 0.5)
    assert tv_lower_bound_constant(r) == pytest.approx(0.125)


def test_tv_lower_bound_constant_holds_on_random_pairs():
    """TV >= C d_par with C from tv_lower_bound_constant(pair_regime),
    the constant the dispatcher uses, on the three pair classes in turn:
    hardcore in uniqueness, hardcore with bounded fields, and Ising."""
    rng = np.random.default_rng(2)
    for i in range(12):
        crng = np.random.default_rng(int(rng.integers(0, 2**31)))
        if i % 3 == 0:
            mu, nu = random_hardcore_pair(crng, style="uniqueness")
            assert check_uniqueness(mu) is not None and check_uniqueness(nu) is not None
        elif i % 3 == 1:
            mu, nu = random_hardcore_pair(crng, style="bounded")
        else:
            mu, nu = random_ising_pair(crng)
        c = tv_lower_bound_constant(pair_regime(mu, nu))
        assert exact_tv(mu, nu) + 1e-12 >= c * parameter_distance(mu, nu), i


def test_contract_pinning_hardcore():
    g = path_graph(3)
    m = HardcoreModel(g, [1.0, 1.0, 1.0])
    reduced, kept, const = contract_pinning(m, {0: 1})
    assert kept == [2] and const == 0.0 and reduced.n == 1
    with pytest.raises(InfeasiblePinningError):
        contract_pinning(HardcoreModel(Graph(2, [(0, 1)]), [1, 1]), {0: 1, 1: 1})
    with pytest.raises(InfeasiblePinningError):
        contract_pinning(HardcoreModel(Graph(1), [0.0]), {0: 1})


def test_contraction_removes_pins_and_forced_spins():
    """On both kinds, with some spins forced (lambda 0, h +-inf) and a random
    pinning: log Z^pin = log_const + log Z(reduced), the reduced model is
    soft and keeps no pinned or forced vertex, and a pinning the contraction
    refuses has no extension of positive weight.  With nothing pinned or
    forced, the model comes back as it is."""
    rng = np.random.default_rng(24)
    feasible = 0
    for i in range(120):
        n = int(rng.integers(1, 9))
        g = random_graph(n, 0.4, rng)
        hit = rng.random(n) < 0.3
        if i % 2:
            m = HardcoreModel(g, np.where(hit, 0.0, rng.uniform(0.1, 2.0, n)))
        else:
            h = np.where(hit, rng.choice([-math.inf, math.inf], n), rng.uniform(-1, 1, n))
            m = IsingModel(g, {e: float(rng.uniform(-0.8, 0.8)) for e in g.edges}, h)
        if not hit.any():
            same, kept, log_const = contract_pinning(m, None)
            assert same is m and kept == list(range(n)) and log_const == 0.0
        pinned = np.flatnonzero(rng.random(n) < 0.3)
        pin = {int(v): int(rng.choice([-1, 1])) for v in pinned}
        try:
            reduced, kept, log_const = contract_pinning(m, pin)
        except InfeasiblePinningError:
            assert distribution(m, pin).log_z == -math.inf
            continue
        feasible += 1
        assert reduced.is_soft
        assert not set(kept) & (set(pin) | set(np.flatnonzero(hit).tolist()))
        assert distribution(m, pin).log_z == pytest.approx(
            log_const + exact_partition(reduced), abs=1e-10
        )
    assert feasible >= 60


def test_preprocess_ising_cases():
    g = Graph(2, [(0, 1)])
    j = {(0, 1): 0.4}
    case1 = preprocess(
        IsingModel(g, j, [math.inf, 0.0]), IsingModel(g, j, [-math.inf, 0.0])
    )
    assert case1.status == "resolved" and case1.tv == 1.0

    case2 = preprocess(
        IsingModel(g, j, [math.inf, 0.0]), IsingModel(g, j, [0.0, 0.0])
    )
    assert case2.status == "big-gap" and 0 < case2.lower_bound <= 0.5

    gp = path_graph(3)
    jp = {e: 0.4 if e == (0, 1) else 0.1 for e in gp.edges}
    mu = IsingModel(gp, jp, [math.inf, 0.2, 0.0])
    nu = IsingModel(gp, jp, [math.inf, -0.1, 0.0])
    out = preprocess(mu, nu)
    assert out.status == "soft-pair" and out.kept == [1, 2]
    assert out.mu.h[0] == pytest.approx(0.2 + 0.4)
    assert out.nu.h[0] == pytest.approx(-0.1 + 0.4)


def test_preprocess_hardcore_cases():
    g = path_graph(3)
    mu = HardcoreModel(g, [0.0, 1.0, 1.0])
    nu = HardcoreModel(g, [0.0, 2.0, 1.0])
    out = preprocess(mu, nu)
    assert out.status == "soft-pair" and out.kept == [1, 2]

    one_sided = preprocess(HardcoreModel(g, [0.0, 1, 1]), HardcoreModel(g, [1, 1, 1]))
    assert one_sided.status == "big-gap"

    both_empty = preprocess(
        HardcoreModel(Graph(1), [0.0]), HardcoreModel(Graph(1), [0.0])
    )
    assert both_empty.status == "resolved" and both_empty.tv == 0.0


def test_preprocess_preserves_tv(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = random_graph(n, 0.4, rng)
        kind = rng.random() < 0.5
        if kind:
            lam1 = rng.uniform(0.1, 1.5, n)
            lam2 = np.clip(lam1 + rng.uniform(-0.3, 0.3, n), 0.05, None)
            drop = rng.random(n) < 0.3
            lam1[drop] = 0.0
            lam2[drop] = 0.0
            mu, nu = HardcoreModel(g, lam1), HardcoreModel(g, lam2)
        else:
            j1 = {e: float(rng.uniform(-0.5, 0.5)) for e in g.edges}
            h1 = rng.uniform(-1, 1, n)
            h2 = h1 + rng.uniform(-0.3, 0.3, n)
            pin = rng.random(n) < 0.3
            sign = rng.choice([-math.inf, math.inf], n)
            h1 = np.where(pin, sign, h1)
            h2 = np.where(pin, sign, h2)
            mu, nu = IsingModel(g, j1, h1), IsingModel(g, j1, h2)
        out = preprocess(mu, nu)
        if out.status != "soft-pair":
            continue
        assert exact_tv(mu, nu) == pytest.approx(
            exact_tv(out.mu, out.nu), abs=1e-10
        )


def test_pair_regime_reports_min_bound():
    mu, nu = random_ising_pair(np.random.default_rng(5))
    r = pair_regime(mu, nu)
    assert 0 < r.marginal_bound <= 0.5
    assert r.kind == "ising"


def test_hardcore_rejects_bad_fields():
    with pytest.raises(InputError):
        HardcoreModel(Graph(1), [-0.5])
    with pytest.raises(InputError):
        HardcoreModel(Graph(1), [math.inf])
    with pytest.raises(InputError):
        IsingModel(Graph(2, [(0, 1)]), {(0, 1): math.nan}, [0.0, 0.0])
    with pytest.raises(InputError):
        IsingModel(Graph(2), {(0, 1): 0.5}, [0.0, 0.0])  # coupling on non-edge
