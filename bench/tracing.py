"""Spans and counts around the package's public functions, installed from
outside the package.

``install`` replaces each traced function by a wrapper in the module that
defines it and in every ``hmaxwell`` module that imported it by name (so
``inverse_lab.spectral_error`` and ``cli.rank_sweep`` are caught as well as
``hmatrix.spectral_error``), and the LAPACK entry points in numpy and scipy
in the module that defines them (so ``numpy.linalg.norm(x, 2)`` counts as an
SVD). Spans are (id, name, start, end, parent) with one run id per trace;
they are kept in memory and written once when the run ends. ``layer_metrics``
turns a written trace into per-layer self times and counts.
"""

import inspect
import json
import os
import sys
import time
from collections import Counter
from importlib import import_module

# layer -> (defining module, traced public functions)
SPAN_TARGETS = {
    "mesh": ("hmaxwell.mesh", ["build_box_mesh"]),
    "fem": ("hmaxwell.fem", [
        "assemble_system", "build_nodal_space", "discrete_gradient",
        "assemble_region_matrix", "region_nodal_space", "pi_nabla_project",
        "dual_basis", "dual_norms", "riesz_rhs", "apply_dual_functionals",
        "solve_system"]),
    "cluster": ("hmaxwell.cluster", [
        "build_cluster_tree", "build_block_partition", "tiling_defect"]),
    "hmatrix": ("hmaxwell.hmatrix", [
        "spectral_error", "matvec", "rmatvec", "compress_dense"]),
    "inverse_lab": ("hmaxwell.inverse_lab", [
        "dense_inverse", "rank_sweep", "theorem_transfer_check"]),
    "harmonic": ("hmaxwell.harmonic", [
        "tets_intersecting_box", "tets_inside_box", "harmonic_space",
        "caccioppoli_ratio", "helmholtz_report",
        "gradient_part_harmonic_check", "exact_sequence_recover"]),
    "checks": ("hmaxwell.checks", [
        "check_symmetry", "check_gradient_kernel", "check_partition_tiles",
        "check_commuting", "check_dual_biorthogonality",
        "check_dual_norm_scaling", "check_bound", "check_transfer",
        "check_helmholtz", "check_gradient_part", "check_exact_sequence"]),
}

# span name -> (owner, attribute) pairs that share it
GROUPED_SPANS = {
    "report.write": [("hmaxwell.report", "write_json"),
                     ("hmaxwell.report", "write_csv"),
                     ("hmaxwell.report", "svg_decay_plot"),
                     ("hmaxwell.report:RunManifest", "write")],
    "lapack.svd": [("numpy.linalg", "svd")],
    "lapack.eigh": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                    ("scipy.linalg", "eigh")],
    "lapack.lu": [("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve")],
    "lapack.lstsq": [("numpy.linalg", "lstsq")],
}

# count name -> TetElement methods whose calls it counts (no spans: these run
# hundreds of thousands of times and take microseconds each)
WHITNEY_COUNTS = {
    "whitney.TetElement.built": ["__init__"],
    "whitney.local_matrix.calls": ["curl_curl_matrix", "mass_matrix",
                                   "grad_mixed_matrix", "nodal_stiffness",
                                   "nodal_mass"],
}

CLI_PHASES = ["assemble", "sweep", "fit", "solve", "structure", "commuting",
              "dual_basis", "transfer", "harmonic", "exact_sequence", "write"]

FIRST_CALL_COUNTS = ["mesh.n_tets", "fem.n_dofs", "fem.nnz_A", "cluster.n_far",
                     "cluster.n_near", "cluster.c_sp", "cluster.depth"]


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = import_module(module)
    return getattr(owner, cls) if cls else owner


def _replace_everywhere(owner, attr, new):
    """Point every name bound to owner.attr at new."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name.partition(".")[0] == "hmaxwell"]
    defining = getattr(inspect.unwrap(old), "__globals__", None)
    if defining is not None:
        namespaces.append(defining)
    for ns in namespaces:
        for key, val in list(ns.items()):
            if val is old:
                ns[key] = new


def _dense_inverse_gflop(binv):
    """LU (2/3 N^3), N triangular solve pairs (2 N^3) and the residual
    product A @ A^{-1} (2 N^3); complex arithmetic costs four real flops."""
    n = binv.shape[0]
    per = 4.0 if binv.dtype.kind == "c" else 1.0
    return per * (14.0 / 3.0) * n ** 3 / 1e9


def _observe_first(counts, **values):
    for key, val in values.items():
        counts.setdefault(key, val)


def _observers():
    import numpy as np
    from hmaxwell.cluster import sparsity_constant

    def partition(p, counts):
        _observe_first(counts, **{"cluster.n_far": len(p.far),
                                  "cluster.n_near": len(p.near),
                                  "cluster.c_sp": sparsity_constant(p),
                                  "cluster.depth": p.tree.depth})

    def spectral_error(result, counts):
        counts["hmatrix.spectral_error.converged"] += int(result[1])

    def dense_inverse(binv, counts):
        counts["inverse_lab.dense_inverse.gflop_computed"] += \
            _dense_inverse_gflop(binv)

    return {
        "mesh.build_box_mesh": lambda m, c: _observe_first(
            c, **{"mesh.n_tets": m.n_tets}),
        "fem.assemble_system": lambda s, c: _observe_first(
            c, **{"fem.n_dofs": s.n_dofs,
                  "fem.nnz_A": int(np.count_nonzero(s.A))}),
        "cluster.build_block_partition": partition,
        "hmatrix.spectral_error": spectral_error,
        "inverse_lab.dense_inverse": dense_inverse,
    }


class Tracer:
    """Records spans for one run; not thread-safe (the package is
    single-threaded apart from BLAS)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced

    def count(self, name, fn):
        counter = self.counts

        def counted(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target; call after importing hmaxwell.cli."""
        observers = _observers()
        for layer, (module, names) in SPAN_TARGETS.items():
            owner = import_module(module)
            for fname in names:
                span = f"{layer}.{fname}"
                _replace_everywhere(owner, fname, self.wrap(
                    span, getattr(owner, fname), observers.get(span)))

        def add_bytes(path, counts):
            counts["report.bytes_written"] += os.path.getsize(path)

        for span, targets in GROUPED_SPANS.items():
            observe = add_bytes if span == "report.write" else None
            for path, attr in targets:
                owner = _resolve(path)
                _replace_everywhere(owner, attr, self.wrap(
                    span, getattr(owner, attr), observe))
        element = _resolve("hmaxwell.whitney:TetElement")
        for name, methods in WHITNEY_COUNTS.items():
            for meth in methods:
                setattr(element, meth, self.count(name, getattr(element, meth)))

    def dump(self, path):
        payload = {"run_id": self.run_id,
                   "fields": ["id", "name", "start", "end", "parent"],
                   "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def span_names():
    names = [f"{layer}.{fname}" for layer, (_, fnames) in SPAN_TARGETS.items()
             for fname in fnames]
    return names + [n for n in GROUPED_SPANS if n != "report.write"]


def per_layer_metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["report.write.self_s"] = "s"
    units["report.bytes_written"] = "bytes"
    for name in FIRST_CALL_COUNTS + list(WHITNEY_COUNTS):
        units[name] = "count"
    units["hmatrix.spectral_error.converged_frac"] = "fraction"
    units["inverse_lab.dense_inverse.gflop_computed"] = "GFLOP"
    units["inverse_lab.rank_sweep.span_s"] = "s"
    units["hmatrix.matvec_rmatvec.share_of_rank_sweep"] = "fraction"
    for phase in CLI_PHASES:
        units[f"cli.phase.{phase}_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def self_times(spans):
    """(self seconds, calls, inclusive seconds) per span name."""
    child = Counter()
    for sid, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, inclusive = Counter(), Counter(), Counter()
    for sid, name, start, end, parent in spans:
        self_s[name] += (end - start) - child[sid]
        calls[name] += 1
        inclusive[name] += end - start
    return self_s, calls, inclusive


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values (no units) from one written trace; phases and
    the tracing overhead are added by the caller."""
    self_s, calls, inclusive = self_times(trace["spans"])
    counts = trace["counts"]
    out = {}
    for name in span_names() + ["report.write"]:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    del out["report.write.calls"]
    out["report.bytes_written"] = counts.get("report.bytes_written", 0)
    for name in FIRST_CALL_COUNTS + list(WHITNEY_COUNTS):
        out[name] = counts.get(name, 0)
    n_err = calls["hmatrix.spectral_error"]
    out["hmatrix.spectral_error.converged_frac"] = (
        counts.get("hmatrix.spectral_error.converged", 0) / n_err if n_err else 0.0)
    out["inverse_lab.dense_inverse.gflop_computed"] = counts.get(
        "inverse_lab.dense_inverse.gflop_computed", 0.0)
    sweep = inclusive["inverse_lab.rank_sweep"]
    out["inverse_lab.rank_sweep.span_s"] = sweep
    out["hmatrix.matvec_rmatvec.share_of_rank_sweep"] = (
        (self_s["hmatrix.matvec"] + self_s["hmatrix.rmatvec"]) / sweep
        if sweep else 0.0)
    return out


def module_self_times(trace: dict) -> dict:
    """Self seconds summed per module (the part of a span name before the
    first dot), largest first."""
    self_s, _, _ = self_times(trace["spans"])
    per = Counter()
    for name, val in self_s.items():
        per[name.partition(".")[0]] += val
    return dict(per.most_common())
