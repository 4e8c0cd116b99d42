"""hmaxwell benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload sweep-n8 --seed 1 --seconds 30 --trace 0

Run from the repository root; see README.md in this directory for the
workloads, the metrics and what each one should move. Each measured run is
a closed loop: one fresh interpreter (worker.py) runs the workload's CLI
steps, one run at a time, until the next run would overrun --seconds (at
least one run). Before that, the set-up (a fresh interpreter importing
hmaxwell.cli with numpy and scipy and making one small BLAS call) is timed
SETUP_REPEATS times. With --trace 1 the workload runs once untraced and once
traced, and the per-layer metrics come from the traced run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Per-run details (machine and BLAS metadata,
every sample, failures with their exception type, the output fingerprint
and, when tracing, the largest spans) go to .bench_out/ under the root.
Exit code 0 when the benchmark ran (even if workload runs failed), 2 when it
cannot run here.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import (CLI_PHASES, layer_metrics, module_self_times,
                     per_layer_metric_units, self_times)
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_out"
SETUP_REPEATS = 3
MAX_BLAS_THREADS = 2
RUN_DEADLINE_S = 170.0      # every worker is stopped by then
SETUP_CODE = ("import numpy, scipy.linalg, hmaxwell.cli; "
              "numpy.linalg.svd(numpy.ones((8, 8)))")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
REQUIRED = [os.path.join("src", "hmaxwell", "cli.py"),
            os.path.join("tests", "data", "baselines.json")]


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(root: str, env: dict, repeats: int = SETUP_REPEATS) -> list:
    """Wall seconds of fresh interpreters doing the set-up. The first one
    in a new checkout also writes the bytecode caches; the median skips it."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def run_once(root, env, workload, seed, out, log, trace_path=None,
             deadline=None) -> dict:
    """One workload run in a fresh worker interpreter. The result always
    has "failure" (None or {"type", "message"}) and "elapsed_s"."""
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(workload.to_spec(seed), f)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
           workdir, result_path] + ([trace_path] if trace_path else [])
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        else:
            result = {"failure": {"type": f"worker exit {proc.returncode}",
                                  "message": "worker wrote no result"}}
    except subprocess.TimeoutExpired:
        result = {"failure": {"type": "TimeoutExpired",
                              "message": f"stopped after {timeout:.0f} s"}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def failure_counts(results) -> tuple:
    failed = sum(1 for r in results if r["failure"] is not None)
    return len(results), failed


def median_of(results, key):
    vals = [r[key] for r in results if key in r]
    return (statistics.median(vals) if vals else 0.0), len(vals)


def src_line_count(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine_info(root: str) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads_set": blas_threads(),
            "git_commit": git_commit(root),
            "src_lines": src_line_count(root)}


def traced_metrics(trace_path, traced, untraced) -> dict:
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    values = layer_metrics(trace)
    phases = traced.get("phases", {})
    for phase in CLI_PHASES:
        values[f"cli.phase.{phase}_s"] = phases.get(phase, 0.0)
    values["trace.overhead_s"] = traced.get("wall_s", 0.0) - untraced.get("wall_s", 0.0)
    self_s, _, inclusive = self_times(trace["spans"])
    detail = {"module_self_s": module_self_times(trace),
              "top_self_s": dict(self_s.most_common(12)),
              "top_inclusive_s": dict(inclusive.most_common(12)),
              "n_spans": len(trace["spans"]), "run_id": trace["run_id"]}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"cannot run: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    out = os.path.join(ROOT, OUT)
    os.makedirs(out, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    env = child_env(ROOT)
    info = machine_info(ROOT)
    setup = measure_setup(ROOT, env)

    results, per_layer, trace_detail = [], None, None
    with open(os.path.join(out, f"{tag}.log"), "w", encoding="utf-8") as log:
        if args.trace:
            untraced = run_once(ROOT, env, workload, args.seed, out, log,
                                deadline=deadline)
            trace_path = os.path.join(out, f"{tag}.spans.json")
            traced = run_once(ROOT, env, workload, args.seed, out, log,
                              trace_path=trace_path, deadline=deadline)
            results = [untraced, traced]
            if traced["failure"] is None:
                per_layer, trace_detail = traced_metrics(trace_path, traced,
                                                         untraced)
        else:
            t0 = time.perf_counter()
            while True:
                res = run_once(ROOT, env, workload, args.seed, out, log,
                               deadline=deadline)
                results.append(res)
                spent = time.perf_counter() - t0
                if (spent + res["elapsed_s"] > args.seconds
                        or time.monotonic() + res["elapsed_s"] > deadline):
                    break

    attempted, failed = failure_counts(results)
    info.update(next((r["machine"] for r in results if "machine" in r), {}))
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    if args.trace:
        metrics = {name: {"value": (per_layer or {}).get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_metric_units().items()}
    else:
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            if name == "setup_s":
                val, n = statistics.median(setup), len(setup)
            else:
                val, n = median_of(results, name)
            metrics[name] = {"value": val, "unit": unit}
            print(f"{name:12s} = {val:.6g} {unit}  (median of {n})")
    print(f"{workload.name} seed {args.seed}: attempted {attempted}, failed "
          f"{failed}, failed_frac {failed / attempted:.3f}")
    for res in results:
        if res["failure"] is not None:
            print(f"  failed: {res['failure']['type']}: "
                  f"{res['failure']['message'][:200]}")

    record = {"workload": workload.name, "seed": args.seed,
              "cli_seed": workload.cli_seed(args.seed), "trace": args.trace,
              "seconds": args.seconds, "machine": info, "setup_s": setup,
              "runs": results, "failed_frac": failed / attempted,
              "metrics": metrics, "trace_detail": trace_detail}
    record_path = os.path.join(out, f"{tag}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(f"details in {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and (per_layer is not None
                                                  or not args.trace),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
