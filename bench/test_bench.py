"""The benchmark's own tests: failure accounting, tracing and the metric
list in BENCHMARK.json. Not part of the package's suite; run with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import layer_metrics, per_layer_metric_units, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


@pytest.fixture()
def runner(tmp_path):
    env = run.child_env(run.ROOT)
    log = open(tmp_path / "worker.log", "w", encoding="utf-8")
    yield lambda workload, **kw: run.run_once(run.ROOT, env, workload, 0,
                                              str(tmp_path), log, **kw)
    log.close()


def test_failed_runs_are_counted_and_do_not_stop_the_others(runner):
    check_exit = Workload("verify-fails", [["verify", "--n", "2", "--n-leaf", "8"]],
                          config={"tolerances": {"commuting": 0.0}})
    bound_raise = Workload("sweep-raises", [["rank-sweep", "--n", "2", "--n-leaf",
                                             "8", "--ranks", "1,2"]],
                           config={"tolerances": {"bound_slack": -1.0}})
    passing = Workload("mesh-info", [["mesh-info", "--n", "2"]])
    results = [runner(w) for w in (check_exit, bound_raise, passing)]
    assert results[0]["failure"]["type"] == "exit 1"
    assert results[1]["failure"]["type"] == "RuntimeError"
    assert "block-to-global" in results[1]["failure"]["message"]
    assert results[2]["failure"] is None
    attempted, failed = run.failure_counts(results)
    assert (attempted, failed) == (3, 2)


def test_output_check_failure_counts_as_failed(runner):
    # exits 0 but writes no verify.json
    broken = Workload("missing-file", [["mesh-info", "--n", "2"]],
                      check="verify-n3c")
    res = runner(broken)
    assert res["failure"]["type"] == "FileNotFoundError"
    assert res["failure"]["step"] == "output check"


def test_trace_catches_calls_between_modules(runner, tmp_path):
    sweep = Workload("small-sweep", [["rank-sweep", "--n", "2", "--n-leaf", "8",
                                      "--ranks", "1,2"]])
    trace_path = str(tmp_path / "spans.json")
    res = runner(sweep, trace_path=trace_path)
    assert res["failure"] is None
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    metrics = layer_metrics(trace)
    # reached only through cli.rank_sweep -> inverse_lab.spectral_error
    assert metrics["inverse_lab.rank_sweep.calls"] == 1
    assert metrics["hmatrix.spectral_error.calls"] == 2
    assert metrics["hmatrix.matvec.calls"] > 0
    assert metrics["lapack.svd.calls"] > 0        # includes norm(binv, 2)
    assert metrics["lapack.lu.calls"] >= 2
    assert metrics["mesh.n_tets"] == 48
    assert metrics["whitney.TetElement.built"] == 48
    assert metrics["report.bytes_written"] > 0
    assert 0.0 < metrics["hmatrix.matvec_rmatvec.share_of_rank_sweep"] < 1.0
    ids = {s[0] for s in trace["spans"]}
    assert all(s[4] == -1 or s[4] in ids for s in trace["spans"])
    added_by_run = {n for n in per_layer_metric_units()
                    if n.startswith(("cli.phase.", "trace."))}
    assert set(metrics) == set(per_layer_metric_units()) - added_by_run


def test_self_time_subtracts_direct_children():
    spans = [(0, "a", 0.0, 10.0, -1), (1, "b", 1.0, 4.0, 0),
             (2, "c", 2.0, 3.0, 1), (3, "b", 5.0, 6.0, 0)]
    self_s, calls, inclusive = self_times(spans)
    assert self_s["a"] == pytest.approx(6.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["c"] == pytest.approx(1.0)
    assert calls["b"] == 2 and inclusive["b"] == pytest.approx(4.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_metric_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep-n8", "--seed", "1", "--seconds", "10",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
