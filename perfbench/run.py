"""sqglab benchmark: time to a checked experiment result, plus a per-module trace.

    python3 perfbench/run.py --workload carrier_torus --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The program is the checkout's own
``src/sqglab``; nothing is installed. Each run starts fresh worker
processes (see worker.py), checks every experiment call's outputs, and
prints as its last stdout line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON report with the machine and environment
block, the per-call samples and every check failure. The full report, and
with ``--trace 1`` the spans, are also written under ``.perfbench_work/``.

``--smoke`` runs every workload at tiny sizes in both modes and fails
unless every named metric is emitted and every output check passes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# The host's speed drifts by +-20% over tens of seconds, so samples taken
# close together agree with each other more than with the next run. An
# untraced run therefore spreads its calls over --seconds in up to
# CALL_PROCESSES fresh processes, each with a set-up, a cold call and warm
# calls for an equal share of --seconds; wall_s, first_call_s and
# peak_rss_mb are medians over them. Set-up-only processes then bring the
# set-up samples up to SETUP_SAMPLES; setup_s is their median.
CALL_PROCESSES = 5
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_block(seed: int, env: dict, versions: dict) -> dict:
    """CPU, caches (read from /sys, read only), versions and thread settings."""
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        fields = [(_read(str(idx / f)) or "").strip() for f in ("level", "type", "size")]
        caches.append({"level": fields[0], "type": fields[1], "size": fields[2]})
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "platform": platform.platform(),
        "versions": versions,
        "SQG_THREADS": env["SQG_THREADS"],
        "blas_threads": {k: env[k] for k in _BLAS_VARS},
        "git_commit": commit,
        "seed": seed,
        "notes": [
            "fft.gflop_computed and fft.gbytes_computed are computed from transform sizes "
            "(5 N log2 N flop per complex transform of N points, half that for real ones; "
            "bytes = input plus output array sizes), not measured by hardware counters",
            "the largest cache reported above exceeds every working set here, so no roofline "
            "or memory-bandwidth claim is made",
        ],
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SQG_THREADS"] = str(workloads.SQG_THREADS)
    # one BLAS thread: the sweep pool's two threads already fill the 2 CPUs
    for k in _BLAS_VARS:
        env[k] = "1"
    return env


def _worker(role: str, args, seconds: float, work: Path, env: dict, deadline: float, tag: str,
            state: dict | None = None) -> dict:
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(work / tag), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    if state:
        cmd += ["--state", json.dumps(state)]
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_once(args) -> dict:
    """One benchmark run; returns {"report": ..., "result": ...}."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec = _benchmark_spec()
    env = worker_env()
    work = ROOT / ".perfbench_work" / f"tmp-{os.getpid()}"
    out_dir = ROOT / ".perfbench_work" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runs = [_worker("run", args, args.seconds, work, env, deadline, "run")]
        else:
            runs = []
            t0 = time.perf_counter()
            while len(runs) < CALL_PROCESSES:
                state = runs[0]["state"] if runs else None
                runs.append(_worker("run", args, args.seconds / CALL_PROCESSES, work, env, deadline, f"p{len(runs)}",
                                    state))
                elapsed = time.perf_counter() - t0
                # stop when another process would overrun --seconds by more
                # than half its length (one cold plus one warm call can take
                # longer than a share)
                if args.seconds - elapsed < elapsed / len(runs) / 2:
                    break
            setups = [r["setup_s"] for r in runs]
            while len(setups) < SETUP_SAMPLES:
                setups.append(_worker("setup", args, 0.0, work, env, deadline, f"s{len(setups)}")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run = runs[0]
    calls = [c for r in runs for c in r["calls"]]

    fails = [{"call": i, "failures": c["failures"]} for i, c in enumerate(calls) if c["failures"]]
    attempted, failed = len(calls), len(fails)
    correct = failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "driver": f"sqglab.experiments.{run['driver']}",
        "config": run["config"],
        "machine": machine_block(args.seed, env, run["versions"]),
        "failed_ratio": failed / attempted,
        "failures": fails,
        "calls": calls,
    }
    if args.trace:
        correct = correct and not run["count_failures"]
        report["deterministic_counts"] = run["counts"]
        report["count_failures"] = run["count_failures"]
        report["uses_thread_pool"] = run["uses_thread_pool"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: _metric(run["metrics"][name], unit) for name, unit in units.items()}
    else:
        warm = [c["wall_s"] for c in calls if not c["cold"]]
        passed = [c["wall_s"] for c in calls if not c["cold"] and not c["failures"]] or warm
        colds = [c["wall_s"] for c in calls if c["cold"]]
        rss = [r["peak_rss_mb"] for r in runs]
        report["samples"] = {"setup_s": setups, "first_call_s": colds, "wall_s": warm, "wall_s_passed": len(passed),
                             "peak_rss_mb": rss}
        values = {
            "wall_s": statistics.median(passed),
            "first_call_s": statistics.median(colds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    if args.trace:
        (out_dir / "spans.json").write_text(json.dumps(run["spans"]) + "\n")
    return {"report": report, "result": result}


def smoke(args) -> int:
    """Every workload, both modes, tiny sizes: all metrics present, all checks pass."""
    spec = _benchmark_spec()
    problems = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            sub = argparse.Namespace(workload=name, seed=args.seed, seconds=0.0, trace=trace, smoke=True)
            t0 = time.perf_counter()
            res = run_once(sub)["result"]
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            missing = want - set(res["metrics"])
            bad = [k for k, v in res["metrics"].items() if not isinstance(v["value"], float)]
            ok = res["correct"] and res["failed"] == 0 and not missing and not bad
            print(f"smoke {name:20s} trace={trace} {'ok' if ok else 'FAILED'} ({time.perf_counter() - t0:.1f} s)")
            if not ok:
                problems.append((name, trace, res, sorted(missing)))
    for name, trace, res, missing in problems:
        print(f"  {name} trace={trace}: correct={res['correct']} failed={res['failed']} missing={missing}",
              file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sqglab" / "__init__.py").is_file():
        print(f"error: no sqglab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        out = run_once(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
