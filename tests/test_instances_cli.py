import copy
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gibbs_tv import sampling as sampling_mod
from gibbs_tv.cli import build_parser, main
from gibbs_tv.errors import InstanceFormatError
from gibbs_tv.exact import exact_tv
from gibbs_tv.graph import Graph, path_graph, random_graph
from gibbs_tv.instances import emit_instance, instance_hash, parse_instance
from gibbs_tv.models import HardcoreModel, IsingModel


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


def test_cli_builds_one_parser(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser on the first call and reuses it, and one
    call's flags do not leak into the next; ``build_parser`` still returns
    a new parser."""
    from gibbs_tv import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    pa, pb, *_ = _write_pair(tmp_path)
    try:
        assert main(["tv", pa, pb, "--mode", "exact", "--t-override", "5", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["tv", pa, pb, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert (first["config"]["mode"], first["config"]["T_override"]) == ("exact", 5)
    assert (second["config"]["mode"], second["config"]["T_override"]) == ("auto", None)
    assert build_parser() is not build_parser()


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


def test_cli_count_past_the_largest_double(tmp_path, capsys):
    """log Z = 2 log(2 cosh 400) > 709.78: Z does not fit in a double, so it
    prints as null in JSON and as inf in text, next to log Z."""
    path = tmp_path / "wide.json"
    path.write_text(emit_instance(IsingModel(Graph(2), {}, [400.0, 400.0])))
    log_z = 2 * (400.0 + math.log1p(math.exp(-800.0)))
    args = ["count", str(path), "--exact-counter-cap", "2"]
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] is None and payload["log_z"] == pytest.approx(log_z)
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0].split("=")[1]) == pytest.approx(log_z)
    assert out[1] == "Z     = inf"


def test_cli_unexpected_error_is_one_line(tmp_path, capsys, monkeypatch):
    """An exception outside the package's own exits 1 with one line naming
    it; KeyboardInterrupt still propagates."""
    from gibbs_tv import cli

    pa, *_ = _write_pair(tmp_path)

    def boom(args):
        raise RuntimeError("kernel\nexploded")

    monkeypatch.setattr(cli, "cmd_check", boom)
    assert main(["check", pa]) == 1
    captured = capsys.readouterr()
    assert captured.err == "unexpected error: RuntimeError: kernel exploded\n"
    assert captured.out == ""

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_check", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["check", pa])


def test_cli_reduce_demo(tmp_path, capsys):
    pa, *_ = _write_pair(tmp_path)
    assert main(["reduce-demo", pa, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tv_query_count"] == 5 and payload["match"]


def test_cli_exit_codes(tmp_path, capsys):
    pa, pb, *_ = _write_pair(tmp_path)
    assert main(["tv", pa, str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tv", pa, str(bad)]) == 2
    capsys.readouterr()

    # malformed documents: unhashable labels, numbers past a double, numeric
    # infinities (infinite fields are the strings "inf"/"-inf"), integers
    # past Python's digit limit, nesting past the recursion limit, non-UTF-8
    doc = ('{"format": 1, "model": "ising", "vertices": ["a", "b"], '
           '"edges": [%s], "J": [%s], "h": {"a": %s, "b": 0}}')
    for text in (doc % ('[["a"], "b"]', '["a", "b", 0.5]', "0"),
                 doc % ('["a", "b"]', '[{"a": 1}, "b", 0.5]', "0"),
                 doc % ('["a", "b"]', '["a", "b", 0.5]', "1" * 330),
                 doc % ('["a", "b"]', '["a", "b", 0.5]', "1e400"),
                 doc % ('["a", "b"]', '["a", "b", 0.5]', "Infinity"),
                 doc % ('["a", "b"]', '["a", "b", 0.5]', "-Infinity"),
                 doc % ('["a", "b"]', '["a", "b", 0.5]', "1" * 5000),
                 "[" * 100000 + "]" * 100000):
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2, text[:80]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "unexpected" not in err, err
    bad.write_bytes(b'{"format": 1, "vertices": ["\xff"]}')
    assert main(["check", str(bad)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1

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
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk",
                        lambda *a: pytest.fail("a chain ran"))
    for argv in (["sample", pa, "--c-mix", "nan", "--exact-sampler-cap", "0"],
                 ["sample", pa, "--c-mix", "inf"], ["sample", pa, "--c-mix", "-1"],
                 ["count", pa, "--samples-per-level", "nan"],
                 ["count", pa, "--samples-per-level", "inf"],
                 ["tv", pa, pb, "--kappa", "nan"], ["tv", pa, pb, "--theta", "inf"],
                 ["tv", pa, pb, "--exact-cap", "-1"]):
        assert main(argv) == 2, argv
        assert "must be a finite number" in capsys.readouterr().err


def test_cli_refuses_numbers_past_a_double(tmp_path, capsys, monkeypatch):
    """An integer flag too large for a double is infinite: an invalid budget
    (exit 2), or a sample batch too large to run (exit 4).  An enumerated
    batch of more than MAX_DRAWS samples is refused too, before it is
    allocated.  Each refusal is one line, and no chain runs."""
    pa, *_ = _write_pair(tmp_path)
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk",
                        lambda *a: pytest.fail("a chain ran"))
    huge = "1" + "0" * 400
    for argv, code in ((["sample", pa, "--num", huge], 4),
                       (["count", pa, "--boost-repeats", huge], 2),
                       (["tv", pa, pa, "--t-override", huge], 2),
                       (["sample", pa, "--exact-sampler-cap", "20", "--num", "10" + "0" * 12], 4)):
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "unexpected" not in err, (argv, err)


def test_cli_refuses_enumerations_past_max_draws(tmp_path, capsys, monkeypatch):
    """Each enumeration cap at or above n asks for 2^n rows on an Ising
    model: at n 26 and 64 that is above MAX_DRAWS, and each command exits 4
    with one line on stderr, before any row is allocated or a chain runs."""
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk",
                        lambda *a: pytest.fail("a chain ran"))
    paths = {}
    for n in (26, 64):
        g = path_graph(n)
        for side, coupling in (("mu", 0.1), ("nu", 0.2)):
            path = tmp_path / f"{side}{n}.json"
            path.write_text(emit_instance(IsingModel(g, {e: coupling for e in g.edges},
                                                     np.zeros(n))))
            paths[side, n] = str(path)
    for n in (26, 64):
        cap = str(n)
        pa, pb = paths["mu", n], paths["nu", n]
        for argv in (["sample", pa, "--exact-sampler-cap", cap],
                     ["count", pa, "--exact-counter-cap", cap],
                     ["tv", pa, pb, "--mode", "exact", "--exact-cap", cap],
                     ["tv", pa, pb, "--mode", "additive", "--t-override", "100",
                      "--exact-sampler-cap", cap, "--exact-counter-cap", cap],
                     ["marginal-tv", pa, pb, "--subset", "0", "--exact-sampler-cap", cap,
                      "--exact-counter-cap", cap, "--t-override", "100"]):
            t0 = time.perf_counter()
            assert main(argv) == 4, argv
            assert time.perf_counter() - t0 < 1.0, argv
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "exact enumeration needs" in err, (argv, err)


def test_package_needs_only_numpy():
    """Every gibbs_tv module imports with networkx, hypothesis and pytest
    blocked, and the CLI offers exactly the pipeline's six subcommands."""
    import gibbs_tv

    code = (
        "import importlib, pkgutil, sys\n"
        "for name in ('networkx', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "import gibbs_tv\n"
        "for info in pkgutil.iter_modules(gibbs_tv.__path__):\n"
        "    if info.name != '_chain' or gibbs_tv.active_kernel() == 'compiled':\n"
        "        importlib.import_module('gibbs_tv.' + info.name)\n"
        "from gibbs_tv.cli import main\n"
        "main(['--help'])\n"
    )
    src = os.path.dirname(os.path.dirname(gibbs_tv.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    commands = proc.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert commands == ["tv", "marginal-tv", "count", "sample", "check", "reduce-demo"]


def test_cli_marginal_refuses_its_whole_cost(tmp_path, capsys, monkeypatch):
    """On chains, marginal-tv at the default eps 0.1 makes 92 conditional
    counts that are each allowed but take 5.1e11 steps together: refused in
    one line before the first chain step."""
    pa, pb, *_ = _write_pair(tmp_path)
    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk",
                        lambda *a: pytest.fail("a chain ran"))
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

    monkeypatch.setattr(sampling_mod._kernel, "sample_chunk", no_chains)
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


FUZZ_BASES = (
    {"format": 1, "model": "hardcore", "vertices": ["a", "b", "c"],
     "edges": [["a", "b"], ["b", "c"]], "lambda": {"a": 0.5, "b": 1.0, "c": 0.0}},
    {"format": 1, "model": "ising", "vertices": ["a", "b", "c"],
     "edges": [["a", "b"], ["b", "c"]], "J": [["a", "b", 0.3], ["b", "c", -0.2]],
     "h": {"a": 0.1, "b": "inf", "c": -0.4}},
)
BIG_FLOAT = "<1e400>"  # written to the document as the bare number 1e400


def _node_paths(doc, path=()):
    """The path to every node of a JSON document, the root's included."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_scalars = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                     st.booleans(), st.none(), st.text(max_size=3))
_FUZZ_VALUES = st.one_of(
    st.recursive(_scalars, lambda c: st.lists(c, max_size=3)
                 | st.dictionaries(st.text(max_size=3), c, max_size=3), max_leaves=6)
    .filter(lambda v: isinstance(v, (list, dict))),  # nested lists and maps
    st.integers(min_value=10**308, max_value=10**400) | st.just(-10**400),  # huge integers
    st.just(BIG_FLOAT), st.just(math.nan), st.booleans(),
    st.text(min_size=1, max_size=4),  # an unknown (or, rarely, a known) label
)


@st.composite
def _mutated_documents(draw):
    base = draw(st.sampled_from(FUZZ_BASES))
    path = draw(st.sampled_from(list(_node_paths(base))))
    return _replaced(base, path, draw(_FUZZ_VALUES))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_documents())
def test_cli_fuzzed_documents_exit_cleanly(tmp_path, capsys, doc):
    """A valid document with one node replaced by nested lists and maps, a
    huge integer, 1e400, NaN, a bool or an unknown label is checked and
    compared exactly with exit code 0, 2, 3 or 4, and at most one line on
    stderr."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace(json.dumps(BIG_FLOAT), "1e400"))
    for argv in (["check", str(path)], ["tv", str(path), str(path), "--mode", "exact"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv[0], code, err)
        assert len(err.splitlines()) <= 1, err
