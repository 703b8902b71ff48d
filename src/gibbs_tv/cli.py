"""Command-line driver: estimate TV distances, count, sample, report an
instance's regime, and count independent sets through TV queries."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, exact
from .counting import CounterConfig, approx_count
from .errors import GateError, GibbsTVError, InputError, OracleError
from .estimators import EstimateReport, EstimatorBudget, dispatch_tv, marginal_additive_tv
from .instances import RunRecord, instance_hash, load_instance
from .models import (
    HardcoreModel,
    check_ising_condition,
    check_uniqueness,
    marginal_lower_bound,
)
from .sampling import Sampler, SamplerConfig, active_kernel


def _sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--c-mix", type=float, default=20.0,
                        help="Glauber mixing multiplier")
    parser.add_argument("--exact-sampler-cap", type=int, default=0,
                        help="use enumeration sampling up to this many free vertices")
    _json_flag(parser)


def _counter_flags(parser: argparse.ArgumentParser) -> None:
    _sampler_flags(parser)
    parser.add_argument("--eps", type=float, default=0.1, help="target error")
    parser.add_argument("--samples-per-level", type=float, default=16.0,
                        help="annealing draws per level before the 1/eps^2 scale")
    parser.add_argument("--boost-repeats", type=int, default=9,
                        help="median-of-k repeats inside the counting oracle")
    parser.add_argument("--exact-counter-cap", type=int, default=0,
                        help="use enumeration counting up to this many vertices")


def _estimator_flags(parser: argparse.ArgumentParser) -> None:
    _counter_flags(parser)
    parser.add_argument("--mode", default="auto",
                        choices=["auto", "additive", "basic-relative", "advanced", "exact"])
    parser.add_argument("--t", type=int, default=4, help="truncation size")
    parser.add_argument("--kappa", type=float, default=None,
                        help="override the big/small field threshold")
    parser.add_argument("--theta", type=float, default=None,
                        help="override the advanced-path distance threshold")
    parser.add_argument("--t-override", type=int, default=None,
                        help="replace relative-estimator sample counts outright")
    parser.add_argument("--override-gates", action="store_true",
                        help="demote truncation-gate failures to warnings")
    parser.add_argument("--exact-cap", type=int, default=16,
                        help="resolve pairs up to this size exactly in auto mode")
    parser.add_argument("--median-repeats", type=int, default=1,
                        help="amplify success probability by median-of-k runs")


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _sampler_cfg(args) -> SamplerConfig:
    return SamplerConfig(
        mixing_multiplier=args.c_mix,
        exact_fallback_cap=args.exact_sampler_cap,
    )


def _counter_cfg(args) -> CounterConfig:
    return CounterConfig(
        samples_per_level=args.samples_per_level,
        boost_repeats=args.boost_repeats,
        exact_fallback_cap=args.exact_counter_cap,
    )


def _budget(args) -> EstimatorBudget:
    return EstimatorBudget(
        mode=args.mode,
        sampler=_sampler_cfg(args),
        counter=_counter_cfg(args),
        t=args.t,
        kappa_override=args.kappa,
        theta_override=args.theta,
        T_override=args.t_override,
        override_gates=args.override_gates,
        exact_cap=args.exact_cap,
        median_repeats=args.median_repeats,
        threads=args.threads,
    )


def _record(
    report: EstimateReport, mu, nu, budget: EstimatorBudget, seed: Optional[int]
) -> RunRecord:
    return RunRecord(
        **dataclasses.asdict(report),
        mu_hash=instance_hash(mu),
        nu_hash=instance_hash(nu) if nu is not None else None,
        seed=seed,
        config=dataclasses.asdict(budget),
    )


def _labels_of(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["vertices"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        raise InputError(f"cannot read vertex labels from {path}: {e}") from e


def _parse_pin(text: Optional[str], labels: list[str]) -> dict[int, int]:
    if not text:
        return {}
    index = {lbl: i for i, lbl in enumerate(labels)}
    pin: dict[int, int] = {}
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"--pin entries look like label=+1, got {item!r}")
        lbl, val = item.split("=", 1)
        lbl, val = lbl.strip(), val.strip()
        if lbl not in index:
            raise InputError(f"--pin references unknown vertex {lbl!r}")
        if val in ("+", "+1", "1"):
            pin[index[lbl]] = 1
        elif val in ("-", "-1"):
            pin[index[lbl]] = -1
        else:
            raise InputError(f"--pin value must be +1 or -1, got {val!r}")
    return pin


def cmd_tv(args) -> int:
    mu = load_instance(args.mu)
    nu = load_instance(args.nu)
    budget = _budget(args)
    report = dispatch_tv(mu, nu, args.eps, budget, np.random.default_rng(args.seed))
    record = _record(report, mu, nu, budget, args.seed)
    sys.stdout.write(record.to_json() if args.json else record.to_text())
    return 0


def cmd_marginal_tv(args) -> int:
    mu = load_instance(args.mu)
    nu = load_instance(args.nu)
    labels = _labels_of(args.mu)
    index = {lbl: i for i, lbl in enumerate(labels)}
    subset = []
    for lbl in args.subset.split(","):
        lbl = lbl.strip()
        if lbl not in index:
            raise InputError(f"--subset references unknown vertex {lbl!r}")
        subset.append(index[lbl])
    budget = _budget(args)
    rng = np.random.default_rng(args.seed)
    report = marginal_additive_tv(mu, nu, subset, args.eps, budget, rng)
    record = _record(report, mu, nu, budget, args.seed)
    sys.stdout.write(record.to_json() if args.json else record.to_text())
    return 0


def cmd_count(args) -> int:
    model = load_instance(args.instance)
    log_z = approx_count(
        model, args.eps, _counter_cfg(args), np.random.default_rng(args.seed),
        _sampler_cfg(args), args.threads,
    )
    try:
        z = math.exp(log_z)
    except OverflowError:  # Z past the largest double: log Z carries it
        z = None
    payload = {"log_z": log_z, "z": z, "epsilon": args.eps}
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"log Z = {log_z!r}\nZ     = {math.inf if z is None else z!r}\n")
    return 0


def cmd_sample(args) -> int:
    model = load_instance(args.instance)
    labels = _labels_of(args.instance)
    pin = _parse_pin(args.pin, labels)
    sampler = Sampler(model, pin, _sampler_cfg(args))
    rng = np.random.default_rng(args.seed)
    batch = sampler.sample_batch(args.num, args.delta, rng, args.threads)
    if args.json:
        rows = [
            {labels[v]: int(row[v]) for v in range(model.n)} for row in batch
        ]
        sys.stdout.write(json.dumps(rows) + "\n")
    else:
        for row in batch:
            sys.stdout.write("".join("+" if s > 0 else "-" for s in row) + "\n")
    return 0


def cmd_check(args) -> int:
    model = load_instance(args.instance)
    info: dict = {
        "kind": model.kind,
        "n": model.n,
        "m": model.graph.m,
        "max_degree": model.graph.max_degree(),
        "soft": model.is_soft,
    }
    if model.kind == "hardcore":
        info["uniqueness_gap"] = check_uniqueness(model)
    else:
        cond = check_ising_condition(model) if model.is_soft else None
        info["ising_condition"] = (
            {"tag": cond.tag, "witness": cond.witness} if cond else None
        )
    bound = marginal_lower_bound(model)
    info["marginal_bound"] = bound.b
    info["minus_bound"] = bound.minus_bound
    if args.json:
        sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    else:
        for key, value in info.items():
            sys.stdout.write(f"{key:<16} {value}\n")
    return 0


def cmd_reduce_demo(args) -> int:
    model = load_instance(args.instance)
    g = model.graph
    counted = exact.count_via_tv_queries(g)
    truth = len(exact.support_configs(HardcoreModel(g, np.ones(g.n))))
    payload = {"tv_query_count": counted, "enumeration_count": truth,
               "match": counted == truth}
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(
            f"independent sets via TV queries: {counted}\n"
            f"independent sets by enumeration: {truth}\n"
            f"match: {counted == truth}\n"
        )
    return 0 if counted == truth else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbs-tv",
        description="TV distance between two Gibbs distributions "
                    "(hardcore / Ising) via sampling and approximate counting",
    )
    parser.add_argument("--version", action="version",
                        version=f"gibbs-tv {__version__} (kernel: {active_kernel()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tv", help="estimate the TV distance between two instances")
    p.add_argument("mu")
    p.add_argument("nu")
    _estimator_flags(p)

    p = sub.add_parser("marginal-tv", help="additive TV estimate on a vertex subset")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--subset", required=True, help="comma list of vertex labels")
    _estimator_flags(p)

    p = sub.add_parser("count", help="approximate the partition function")
    p.add_argument("instance")
    _counter_flags(p)

    p = sub.add_parser("sample", help="draw configurations")
    p.add_argument("instance")
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--pin", default=None, help="comma list label=+1|-1")
    p.add_argument("--delta", type=float, default=0.05, help="sampling accuracy")
    _sampler_flags(p)

    p = sub.add_parser("check", help="print the regime report of one instance")
    p.add_argument("instance")
    _json_flag(p)

    p = sub.add_parser("reduce-demo",
                       help="count independent sets through exact TV queries")
    p.add_argument("instance")
    _json_flag(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: building one
    takes ten times as long as parsing a command line."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # "marginal-tv" runs cmd_marginal_tv, looked up here so the shared parser
    # holds no function
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except GateError as e:
        sys.stderr.write(f"gate failure: {e}\n")
        return 3
    except OracleError as e:
        sys.stderr.write(f"oracle failure: {e}\n")
        return 4
    except GibbsTVError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # a bug, reported in one line rather than a traceback
        msg = str(e).replace("\n", " ")
        sys.stderr.write(f"unexpected error: {type(e).__name__}: {msg}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
