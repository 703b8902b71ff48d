"""One run of one workload, in a fresh process started by ``run.py``.

Modes:

* ``setup`` -- import, build the inputs, report the set-up time, exit;
* ``run``   -- also run the timed phase untraced, then check every answer;
* ``trace`` -- the same with the span tracer installed (see ``spans.py``).

Set-up time runs from the parent's clock reading just before it started
this process (``--spawned``, on the system-wide monotonic clock) to the
first operation, so it includes interpreter start-up and imports.  The
result goes to the JSON file named by ``--out``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import gibbs_tv
from gibbs_tv import exact
from gibbs_tv.sampling import active_kernel

import spans
import workloads


def _log_z_errors(tracer):
    """|log Z-hat - log Z| of every outermost counting call, by enumeration."""
    errs = [abs(log_z - exact.exact_partition(model, cap=model.n))
            for model, log_z in tracer.count_models if model.n <= exact.EXACT_CAP]
    return float(np.mean(errs)) if errs else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans")
    args = p.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True

    workdir = os.path.join(os.path.dirname(args.out), f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        index = sorted(workloads.WORKLOADS).index(args.workload)
        wl = workloads.WORKLOADS[args.workload](workdir, args.threads)
        ops = wl.setup(np.random.default_rng([args.seed % 2**63, index]), args.rounds)
        setup_s = time.monotonic() - args.spawned
        payload = {"setup_s": setup_s}
        if args.mode != "setup":
            payload.update(_timed(wl, ops, tracer))
            if tracer is not None:
                _write_spans(tracer, args.spans)
            payload.update(
                kernel=active_kernel(), budget=wl.budget, version=gibbs_tv.__version__,
                python=platform.python_version(), numpy=np.__version__,
                kernel_identity=getattr(wl, "kernel_identity", "not checked here"),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


def _write_spans(tracer, path):
    """One JSON list per span: id, parent id, layer, tag, start, end (seconds)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            parent = s.parent.sid if s.parent is not None else None
            fh.write(json.dumps([s.sid, parent, s.layer, s.tag, s.t0, s.t1]) + "\n")


def _timed(wl, ops, tracer):
    if tracer is not None:
        tracer.counts.clear()  # counts cover the timed phase only
    latencies = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        span = tracer.open("harness", "op") if tracer is not None else None
        try:
            wl.run(op)
        except Exception as e:  # an operation that raises is a failed answer
            op.failure = f"{type(e).__name__}: {e}"
            traceback.print_exc()
        finally:
            if span is not None:
                tracer.close(span)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False

    run_failures = wl.check([op for op in ops if op.failure is None])  # ground truth, untimed
    out = {
        "wall_s": wall,
        "latencies": latencies,
        "kinds": [op.kind for op in ops],
        "samples": [op.samples for op in ops],
        "errors": [op.error for op in ops if op.error is not None],
        "failures": [f"{op.kind}: {op.failure}" for op in ops if op.failure is not None],
        "run_failures": run_failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        timed = [s for s in tracer.spans if s.t0 >= start]
        layers = spans.layer_metrics(tracer, timed, tracer.spans)
        layers["counting.log_z_err"] = _log_z_errors(tracer)
        out["layers"] = layers
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
