#!/usr/bin/env python3
"""gibbs-tv benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a source checkout (nothing needs building; the package
is imported from ``src/``):

    python3 perfbench/run.py --workload glauber-tv --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``glauber-tv``  -- ``gibbs-tv tv`` in-process, every oracle on Glauber
  chains and the annealing counter, reduced counter budget, 1 thread;
* ``sample-long`` -- ``Sampler.sample_batch``: 128 long chains per call,
  hardcore on a pinned cycle (n = 300) and Ising on a pinned random graph
  (n = 200), ``min(2, nproc)`` threads;
* ``exact-tv``    -- the four estimators and ``dispatch_tv`` on n <= 10 with
  enumeration-backed oracles (``exact_fallback_cap=20``).

Load is one client in a closed loop.  ``--seconds`` sets the amount of work:
a run does ``round(seconds * ROUNDS_PER_S)`` rounds of the workload's
operations (at least one), so it does the same work on every commit.  Each process is fresh, so
set-up includes the imports and memory belongs to this run alone.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``setup_s``       -- process start to first operation (median of
  ``SETUP_REPEATS`` fresh processes); ground truth is not included;
* ``wall_s``        -- the timed phase, all operations of the run;
* ``op_s.p50/p90``  -- percentiles of the latencies of the run's operations
  (one estimate, or one ``sample_batch`` call); p90 is a tail only on
  exact-tv (500 calls at ``--seconds 30``), and near the slowest operation
  on the others;
* ``ops_per_s``, ``samples_per_s`` -- operations, and samples delivered to
  the caller, per second of the timed phase;
* ``peak_rss_mb``   -- peak resident memory of the run's process.

``--trace 1`` runs half the rounds twice, untraced and then traced, and
prints the per-layer metrics of the traced run (``spans.py``) with the
tracing overhead.  Every answer is checked against ground truth computed after the
timed phase; a wrong answer counts as failed and the exit code is 1.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with the environment, go to
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Rounds per second of --seconds.  The few long operations of glauber-tv get
# the longest run and the many short ones of exact-tv the shortest, so that
# each averages the machine's slow spells about equally.  At --seconds 30, on
# a shared 2-core x86 VM with the pure-Python kernel, a run measures about
# 40 s (glauber-tv, 5 rounds), 40 s (sample-long, 13) and 19 s (exact-tv, 100).
ROUNDS_PER_S = {"glauber-tv": 1 / 6, "sample-long": 13 / 30, "exact-tv": 10 / 3}
SETUP_REPEATS = 11
DEADLINE_S = 170.0  # the whole command must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = min(2, nproc()) if args.workload == "sample-long" else 1
        self.rounds = max(1, round(args.seconds * ROUNDS_PER_S[args.workload]))
        if args.trace:  # two runs of half the work each
            self.rounds = max(1, self.rounds // 2)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.count = 0

    def spawn(self, mode: str) -> dict:
        """Run one worker process to completion and return its result."""
        a = self.args
        self.count += 1
        out = os.path.join(OUT, f"{a.workload}-seed{a.seed}-{mode}-{os.getpid()}-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--rounds", str(self.rounds),
               "--threads", str(self.threads), "--mode", mode, "--out", out,
               "--spans", os.path.join(OUT, f"{a.workload}-seed{a.seed}-spans.jsonl")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
            raise BenchError(f"{mode} worker exceeded the time limit") from e
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        return result


def kind_means(run: dict) -> dict:
    """Mean latency of each kind of operation in the run."""
    by_kind = {}
    for kind, t in zip(run["kinds"], run["latencies"]):
        by_kind.setdefault(kind, []).append(t)
    return {kind: statistics.fmean(ts) for kind, ts in by_kind.items()}


def end_to_end(run: dict, setups: list) -> dict:
    lat, wall = run["latencies"], run["wall_s"]
    if len(lat) > 1:
        cuts = statistics.quantiles(lat, n=10, method="inclusive")
        p50, p90 = cuts[4], cuts[8]
    else:
        p50 = p90 = lat[0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_s.p50": p50,
        "op_s.p90": p90,
        "ops_per_s": len(lat) / wall,
        "samples_per_s": sum(run["samples"]) / wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    self_sum = layers.pop("_self_sum")
    layers["err.mean"] = _mean(traced["errors"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.self_sum_share"] = self_sum / traced["wall_s"]
    return layers


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gibbs-tv benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gibbs_tv", "__init__.py")):
        sys.stderr.write(f"error: no gibbs_tv sources under {ROOT}/src; "
                         "run from the root of a gibbs-tv checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)  # metric names and units
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args)
    try:
        if args.trace:
            plain = runner.spawn("run")
            traced = runner.spawn("trace")
            runs = [plain, traced]
            metrics, units = per_layer(plain, traced), per_layer_units
        else:
            setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            run = runner.spawn("run")
            runs = [run]
            metrics, units = end_to_end(run, setups + [run["setup_s"]]), end_to_end_units
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3

    info = runs[-1]
    failures = [f for r in runs for f in r["failures"]]
    failed_ops = len(failures)
    attempted = sum(len(r["latencies"]) for r in runs)
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": runner.rounds, "kernel": info["kernel"], "threads": runner.threads,
        "nproc": nproc(), "python": info["python"], "numpy": info["numpy"],
        "gibbs_tv": info["version"], "commit": git_commit(), "budget": info["budget"],
        "kernel_identity": info["kernel_identity"],
    }
    if args.trace:
        share = metrics["trace.self_sum_share"]
        if not 0.98 <= share <= 1.0 + 1e-9:
            failures.append(f"trace: layer self times sum to {share:.4f} of wall_s")
        if info["absent"]:
            env["absent_entry_points"] = info["absent"]
    failures += [f for r in runs for f in r["run_failures"]]
    if info["kernel_identity"].startswith("FAILED"):
        failures.append(f"kernel identity: {info['kernel_identity']}")

    by_kind = {k: {"ops": info["kinds"].count(k), "mean_s": m} for k, m in kind_means(info).items()}
    print("# " + json.dumps(env, sort_keys=True))
    print("# latency by operation kind: " + json.dumps(by_kind))
    errors = [e for r in runs for e in r["errors"]]
    print(f"# operations {attempted}, failed {failed_ops}, "
          f"err.mean {_mean(errors):.4g} targets over {len(errors)} checked answers")
    for f in failures:
        print(f"# FAILED {f}")
    for name, unit in units.items():
        extra = f"  (over {len(info['latencies'])} operations)" if name.startswith("op_s.") else ""
        print(f"{name:<36} {metrics[name]:>14.6g} {unit}{extra}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": failures, "by_kind": by_kind, **result}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
