"""One fresh benchmark process: import sqglab, make the inputs, run calls.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and reads the JSON it writes to ``--result``. Roles:

``--role setup``
    time ``import sqglab`` plus input generation, then exit.
``--role run --trace 0``
    one cold call, then warm calls until ``--seconds`` after the process
    started (set-up and the cold call count against it), and at least one;
    every call is checked.
``--role run --trace 1``
    one cold counted call, then pairs of an untraced (counted) and a
    traced call until ``--seconds`` after the process started, and at
    least one pair; on workloads that reach the sweep thread
    pool, one more traced call with ``SQG_THREADS=1``.

Calls run one after another in this process's main thread: the next
experiment call starts only after the previous one returned (closed loop,
one caller).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from statistics import median
import time
import traceback
from pathlib import Path

t_start = time.perf_counter()
import sqglab  # noqa: E402  (the import is what setup_s measures)
import sqglab.experiments  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _one_call(name, fn_name, config, outdir: Path, mode: str, call_id: int, state: dict, smoke: bool):
    """Run and check one experiment call; returns (wall, cpu, recorder, failures)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    cfg = dict(config, outdir=str(outdir))
    rc = None
    fails: list[str] = []
    with tracer.instrument(mode, call_id) as rec:
        fn = getattr(sqglab.experiments, fn_name)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = fn(cfg)
        except Exception as exc:  # a failed call is counted, not fatal to the run
            fails.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    if not fails:
        fails = workloads.check_outputs(name, config, rc, outdir, rec, state, smoke)
    return wall, cpu, rec, fails


def _run_untraced(args, fn_name, config, work: Path) -> dict:
    # what the output checks keep from the first call, handed on from the
    # run's first process so that later processes are checked against it
    state: dict = json.loads(args.state)
    calls = []
    i = 0
    while i < 2 or time.perf_counter() - t_start < args.seconds:
        wall, _, _, fails = _one_call(args.workload, fn_name, config, work / "call", "capture", i, state, args.smoke)
        calls.append({"wall_s": wall, "cold": i == 0, "failures": fails})
        i += 1
    return {"calls": calls, "state": state}


def _run_traced(args, fn_name, config, work: Path) -> dict:
    state: dict = {}
    calls = []
    spans = []
    per_call = []
    count_fails = []

    def call(mode, i):
        wall, cpu, rec, fails = _one_call(args.workload, fn_name, config, work / "call", mode, i, state, args.smoke)
        calls.append({"wall_s": wall, "cpu_s": cpu, "mode": mode, "failures": fails})
        return wall, cpu, rec

    _, _, cold = call("count", 0)
    reference = tracer.deterministic_counts(cold)
    untraced, traced = [], []
    i = 1
    while i == 1 or time.perf_counter() - t_start < args.seconds:
        u_wall, _, u_rec = call("count", i)
        t_wall, t_cpu, rec = call("trace", i + 1)
        i += 2
        untraced.append(u_wall)
        traced.append(t_wall)
        for kind, r in (("untraced", u_rec), ("traced", rec)):
            got = tracer.deterministic_counts(r)
            if got != reference:
                count_fails.append(f"call {r.call_id} ({kind}) counts {got} differ from the cold call's {reference}")
        m = tracer.layer_metrics(rec)
        m["experiments.cpu_per_wall"] = t_cpu / t_wall
        per_call.append(m)
        spans.extend(sp.to_json() for sp in rec.spans)

    metrics = {k: median([m[k] for m in per_call]) for k in per_call[0]}
    uses_pool = any(s["name"] == "experiments.parallel_map" for s in spans)
    if uses_pool:
        saved = os.environ["SQG_THREADS"]
        os.environ["SQG_THREADS"] = "1"
        try:
            one_wall, _, rec1 = call("trace", i)
        finally:
            os.environ["SQG_THREADS"] = saved
        spans.extend(sp.to_json() for sp in rec1.spans)
        metrics["experiments.thread_speedup"] = one_wall / median(traced)
    else:
        # SQG_THREADS reaches no code on this workload: one thread or two
        # run the same instructions
        metrics["experiments.thread_speedup"] = 1.0
    metrics["trace.overhead"] = median(traced) / median(untraced) - 1.0
    return {
        "calls": calls,
        "metrics": metrics,
        "counts": reference,
        "count_failures": count_fails,
        "uses_thread_pool": uses_pool,
        "spans": spans,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--state", default="{}", help="JSON check state of an earlier process (untraced runs)")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    fn_name, config = workloads.make_config(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t_start
    out = {"setup_s": setup_s}
    if args.role != "setup":
        import numpy
        import scipy

        work = Path(args.workdir)
        work.mkdir(parents=True, exist_ok=True)
        body = _run_traced if args.trace else _run_untraced
        out.update(body(args, fn_name, config, work))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["config"] = config
        out["driver"] = fn_name
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sqglab": sqglab.__version__,
        }
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
