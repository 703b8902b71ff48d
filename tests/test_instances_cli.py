import json
import math
import time

import numpy as np
import pytest

from gibbs_tv.cli import build_parser, main
from gibbs_tv.errors import InstanceFormatError
from gibbs_tv.exact import exact_tv
from gibbs_tv.graph import Graph, path_graph, random_graph
from gibbs_tv.instances import emit_instance, instance_hash, parse_instance
from gibbs_tv.models import HardcoreModel, IsingModel
from gibbs_tv.sampling import Sampler


MINIMAL_HARDCORE = json.dumps(
    {
        "format": 1,
        "model": "hardcore",
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "lambda": {"a": 1.0, "b": 1.0},
    }
)


def test_parse_minimal_hardcore():
    model = parse_instance(MINIMAL_HARDCORE)
    assert model.kind == "hardcore" and model.n == 2 and model.graph.m == 1
    assert list(model.lam) == [1.0, 1.0]


def test_parse_ising_with_infinite_tokens():
    doc = {
        "format": 1,
        "model": "ising",
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "J": [["a", "b", 0.25]],
        "h": {"a": "inf", "b": 0.0},
    }
    model = parse_instance(doc)
    assert model.kind == "ising"
    assert math.isinf(model.h[0]) and model.h[0] > 0
    assert model.couplings[(0, 1)] == 0.25


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda d: d.update({"lambda": {"a": -1.0, "b": 1.0}}), "lambda[a]"),
        (lambda d: d.update({"edges": [["a", "zzz"]]}), "zzz"),
        (lambda d: d.update({"format": 2}), "format"),
        (lambda d: d.update({"vertices": ["a", "a"]}), "unique"),
        (lambda d: d.update({"edges": [["a", "a"]]}), "self-loop"),
    ],
)
def test_parse_rejections_name_the_field(mutation, needle):
    doc = json.loads(MINIMAL_HARDCORE)
    mutation(doc)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(doc)
    assert needle in str(err.value)


def test_parse_rejects_conflicting_couplings():
    doc = {
        "format": 1,
        "model": "ising",
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "J": [["a", "b", 0.25], ["b", "a", 0.5]],
        "h": {"a": 0.0, "b": 0.0},
    }
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)


def test_round_trip_is_identity(rng):
    for _ in range(10):
        n = int(rng.integers(1, 8))
        g = random_graph(n, 0.4, rng)
        if rng.random() < 0.5:
            model = HardcoreModel(g, rng.uniform(0, 2, n))
        else:
            h = rng.uniform(-1, 1, n)
            if rng.random() < 0.5 and n > 1:
                h[0] = math.inf
            model = IsingModel(
                g, {e: float(rng.uniform(-1, 1)) for e in g.edges}, h
            )
        text = emit_instance(model)
        again = parse_instance(text)
        assert emit_instance(again) == text
        assert instance_hash(model) == instance_hash(again)
        assert exact_tv(model, again) == 0.0


def _write_pair(tmp_path):
    g = path_graph(3)
    mu = HardcoreModel(g, [1.0, 1.0, 1.0])
    nu = HardcoreModel(g, [1.0, 2.0, 1.0])
    pa = tmp_path / "mu.json"
    pb = tmp_path / "nu.json"
    pa.write_text(emit_instance(mu, ["a", "b", "c"]))
    pb.write_text(emit_instance(nu, ["a", "b", "c"]))
    return str(pa), str(pb), mu, nu


def test_cli_tv_json(tmp_path, capsys):
    pa, pb, mu, nu = _write_pair(tmp_path)
    rc = main(["tv", pa, pb, "--seed", "7", "--eps", "0.2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    record = json.loads(out)
    assert record["branch"] == "exact"
    assert record["estimate"] == pytest.approx(exact_tv(mu, nu))
    assert record["seed"] == 7 and record["mu_hash"] != record["nu_hash"]


def test_cli_reproducible_runs(tmp_path, capsys):
    pa, pb, *_ = _write_pair(tmp_path)
    args = ["tv", pa, pb, "--seed", "3", "--eps", "0.2", "--mode", "additive",
            "--exact-sampler-cap", "20", "--exact-counter-cap", "20", "--json"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b


def test_cli_marginal_tv(tmp_path, capsys):
    pa, pb, mu, nu = _write_pair(tmp_path)
    rc = main([
        "marginal-tv", pa, pb, "--subset", "b", "--eps", "0.1", "--seed", "1",
        "--exact-sampler-cap", "20", "--exact-counter-cap", "20", "--json",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["branch"] == "marginal-additive"


def test_cli_check_sample_count(tmp_path, capsys):
    pa, *_ = _write_pair(tmp_path)
    assert main(["check", pa, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "hardcore" and info["uniqueness_gap"] == 1.0

    assert main(["sample", pa, "--num", "3", "--seed", "5", "--pin", "a=+1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(row[0] == "+" for row in lines)

    assert main(["count", pa, "--eps", "0.2", "--seed", "2",
                 "--exact-counter-cap", "20", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == pytest.approx(5.0)


def test_cli_reduce_demo(tmp_path, capsys):
    pa, *_ = _write_pair(tmp_path)
    assert main(["reduce-demo", pa, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tv_query_count"] == 5 and payload["match"]


def test_cli_suite_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    rc = main(["suite", "variance-guard", "--cases", "3", "--seed", "0",
               "--out", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "suite,case_id,seed,budget,estimate,truth,abs_err,rel_err,pass"


def test_cli_exit_codes(tmp_path, capsys):
    pa, pb, *_ = _write_pair(tmp_path)
    assert main(["tv", pa, str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tv", pa, str(bad)]) == 2
    capsys.readouterr()

    # gate failure: advanced mode on a pair with too-large parameter distance
    assert main(["tv", pa, pb, "--mode", "advanced", "--exact-cap", "0"]) == 3
    capsys.readouterr()

    # oracle failure: exact mode beyond the enumeration cap
    big = Graph(22)
    inst = tmp_path / "big.json"
    inst.write_text(emit_instance(HardcoreModel(big, np.ones(22))))
    assert main(["tv", str(inst), str(inst), "--mode", "exact"]) == 4
    capsys.readouterr()


def test_cli_refuses_non_finite_numbers(tmp_path, capsys, monkeypatch):
    """A NaN or infinite number in a budget is invalid input (exit 2) before
    any chain step: --c-mix nan once shortened every chain to n steps."""
    pa, pb, *_ = _write_pair(tmp_path)
    monkeypatch.setattr(Sampler, "_run_chain", lambda *a: pytest.fail("a chain ran"))
    for argv in (["sample", pa, "--c-mix", "nan", "--exact-sampler-cap", "0"],
                 ["sample", pa, "--c-mix", "inf"], ["sample", pa, "--c-mix", "-1"],
                 ["count", pa, "--samples-per-level", "nan"],
                 ["count", pa, "--samples-per-level", "inf"],
                 ["tv", pa, pb, "--kappa", "nan"], ["tv", pa, pb, "--theta", "inf"],
                 ["tv", pa, pb, "--exact-cap", "-1"]):
        assert main(argv) == 2, argv
        assert "must be a finite number" in capsys.readouterr().err


def test_cli_marginal_refuses_its_whole_cost(tmp_path, capsys, monkeypatch):
    """On chains, marginal-tv at the default eps 0.1 makes 92 conditional
    counts that are each allowed but take 5.1e11 steps together: refused in
    one line before the first chain step."""
    pa, pb, *_ = _write_pair(tmp_path)
    monkeypatch.setattr(Sampler, "_run_chain", lambda *a: pytest.fail("a chain ran"))
    t0 = time.perf_counter()
    assert main(["marginal-tv", pa, pb, "--subset", "a,c", "--exact-cap", "0",
                 "--exact-sampler-cap", "0", "--exact-counter-cap", "0"]) == 4
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "marginal estimator" in err and len(err.splitlines()) == 1


def test_cli_rejects_budgets_it_cannot_run(tmp_path, capsys, monkeypatch):
    pa, pb, *_ = _write_pair(tmp_path)
    # the counter's draws per level exceed MAX_DRAWS: a typed oracle failure
    assert main(["count", pa, "--eps", "1e-12"]) == 4
    # chains of 1.2e13 steps, a chain length or an annealing path that
    # overflows: refused in one line before any chain step, not a
    # MemoryError or an OverflowError traceback
    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(Sampler, "_run_chain", no_chains)
    p3 = IsingModel(path_graph(3), {(0, 1): 0.1, (1, 2): 0.1}, [1e308, 0.0, 0.0])
    huge_field = tmp_path / "huge_field.json"
    huge_field.write_text(emit_instance(p3))
    capsys.readouterr()
    for argv in (["sample", pa, "--c-mix", "1e12"], ["sample", pa, "--c-mix", "1e308"],
                 ["count", str(huge_field)]):
        t0 = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - t0 < 1.0
        assert len(capsys.readouterr().err.splitlines()) == 1
    # zero draws or zero threads are invalid input, not NaN or a traceback
    assert main(["marginal-tv", pa, pb, "--subset", "b", "--t-override", "0"]) == 2
    assert main(["tv", pa, pb, "--mode", "additive", "--t-override", "0"]) == 2
    assert main(["tv", pa, pb, "--threads", "0"]) == 2
    assert main(["sample", pa, "--threads", "0"]) == 2
    # the enumeration sampler checks --delta too; a negative --num is invalid
    assert main(["sample", pa, "--exact-sampler-cap", "20", "--delta", "5"]) == 2
    assert main(["sample", pa, "--num", "-3"]) == 2
    assert main(["count", pa, "--exact-counter-cap", "20", "--threads", "0"]) == 2
    capsys.readouterr()
    # subcommands register only the flags they read
    for argv in (["check", pa, "--eps", "0.1"], ["sample", pa, "--mode", "advanced"],
                 ["sample", pa, "--eps", "0.1"], ["count", pa, "--t-override", "5"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert build_parser().parse_args(["tv", "a", "b"]).threads == 1


def test_run_record_fields(tmp_path, capsys):
    pa, pb, *_ = _write_pair(tmp_path)
    main(["tv", pa, pb, "--seed", "9", "--json"])
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "estimate", "error_kind", "branch", "epsilon", "d_par", "theta", "b",
        "c_tv_par", "samples_used", "counter_calls", "elapsed", "mu_hash",
        "nu_hash", "seed", "config", "version",
    }
    assert set(record["config"]) == {
        "mode", "sampler", "counter", "t", "kappa_override", "theta_override",
        "T_override", "override_gates", "exact_cap", "median_repeats", "threads",
    }
    assert record["config"]["sampler"]["mixing_multiplier"] == 20.0


def test_parse_instance_accepts_stream():
    import io

    model = parse_instance(io.StringIO(MINIMAL_HARDCORE))
    assert model.kind == "hardcore" and model.n == 2


def test_cli_literal_constants_and_bad_subset(tmp_path, capsys):
    g = Graph(2, [(0, 1)])
    paths = []
    for name, lam in (("mu", [0.5, 0.5]), ("nu", [0.5001, 0.5])):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(emit_instance(HardcoreModel(g, lam)))
    args = ["tv", *paths, "--mode", "advanced", "--exact-cap", "0",
            "--exact-sampler-cap", "20", "--exact-counter-cap", "20"]
    overrides = ["--theta", "1e-3", "--kappa", "1e-2", "--override-gates",
                 "--t-override", "100"]
    with pytest.warns(RuntimeWarning, match="gates overridden"):
        assert main(args + overrides) == 0
    rc = main(args)
    capsys.readouterr()
    assert rc == 3  # without overrides the literal advanced threshold gates the pair out

    pa, pb, *_ = _write_pair(tmp_path)

    rc = main(["marginal-tv", pa, pb, "--subset", "zzz"])
    capsys.readouterr()
    assert rc == 2
