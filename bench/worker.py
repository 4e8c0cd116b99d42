"""One run of one workload, in a fresh interpreter.

Started by run.py as

    python3 bench/worker.py SPEC_JSON WORKDIR RESULT_JSON [TRACE_JSON]

SPEC_JSON holds the CLI steps (see workloads.Workload.to_spec). Every step
runs through ``hmaxwell.cli.main`` with its artifacts under WORKDIR; then
the outputs are checked. The timed region runs from the first CLI call to
the checked outputs; importing the package is not part of it. The result
(timings, CPU, peak RSS, failure, fingerprint and the versions of Python,
numpy, scipy and BLAS) goes to RESULT_JSON. With TRACE_JSON the package is
traced and the spans are written there at the end.
"""

import json
import os
import resource
import sys
import time
import traceback

import machine
from tracing import Tracer
from workloads import CHECKS, OutputCheckFailed

import hmaxwell.cli


def phase_times(outdirs):
    """Per-phase seconds from each step's manifest, summed over steps, with
    spaces in phase names mapped to underscores."""
    phases = {}
    for outdir in outdirs:
        path = os.path.join(outdir, "manifest.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            timings = json.load(f)["timings_seconds"]
        for name, sec in timings.items():
            key = name.replace(" ", "_")
            phases[key] = phases.get(key, 0.0) + sec
    return phases


def run_steps(spec, workdir):
    """Run every CLI step and the output check. Returns (failure, outdirs,
    fingerprint); failure is None or {"type", "message"}. The first failing
    step ends the run."""
    outdirs = []
    config_args = []
    if spec["config"] is not None:
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as f:
            json.dump(spec["config"], f)
        config_args = ["--config", cfg_path]
    for i, step in enumerate(spec["steps"]):
        name = f"step{i}"
        argv = [*step, "--seed", str(spec["cli_seed"]), "--out", workdir,
                "--name", name, *config_args]
        outdirs.append(os.path.join(workdir, name))
        try:
            code = hmaxwell.cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed run
            return ({"type": type(exc).__name__, "message": str(exc),
                     "step": step[0],
                     "traceback": traceback.format_exc()}, outdirs, None)
        if code != 0:
            return ({"type": f"exit {code}", "message": f"{step[0]} exited {code}",
                     "step": step[0]}, outdirs, None)
    if spec["check"] is None:
        return None, outdirs, None
    root = os.getcwd()
    try:
        fingerprint = CHECKS[spec["check"]](outdirs, root)
    except (OutputCheckFailed, OSError, KeyError, ValueError) as exc:
        return ({"type": type(exc).__name__, "message": str(exc),
                 "step": "output check"}, outdirs, None)
    return None, outdirs, fingerprint


def main(argv):
    spec_path, workdir, result_path = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = None
    if trace_path:
        tracer = Tracer(os.path.basename(workdir))
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    failure, outdirs, fingerprint = run_steps(spec, workdir)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "failure": failure,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,   # Linux reports KiB
        "phases": phase_times(outdirs),
        "fingerprint": fingerprint,
        "machine": machine.collect(),
    }
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
