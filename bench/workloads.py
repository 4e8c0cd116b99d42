"""The benchmark's workloads and the output checks each run must pass.

A workload is a list of CLI invocations that one fresh interpreter runs
through ``hmaxwell.cli.main`` in order, followed by a check of the files
they wrote against references computed independently of the code under
test. README.md in this directory says why each workload is in the set.
"""

import csv
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
BASELINES = os.path.join("tests", "data", "baselines.json")  # under the root

SWEEP_RANKS = "1,2,4,8,12,16,20"
SWEEP_ARGS = ["--n", "8", "--ranks", SWEEP_RANKS, "--eta", "2",
              "--n-leaf", "32", "--kappa-re", "1"]
# rank-sweep's --seed only picks the power-iteration start vector, and that
# sets how many iterations run: over CLI seeds 0-19 at n=8 the product count
# ranges from 176 to 348 (interquartile range 23% of the median). Passing the
# benchmark seed there would make wall_s measure the seed, not the code, so
# the sweep always starts from CLI seed 0.
SWEEP_CLI_SEED = 0

RANK_REL_TOL = 2e-3       # today's estimate is biased low by <= 8.2e-4
BOUND_SLACK = 1e-6
GEOMETRY_REL_TOL = 1e-9   # sigma_{r+1} maxima and bounds: same SVDs, two codes
BASELINE_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-10
VERIFY_N_CHECKS = 14


class OutputCheckFailed(Exception):
    """A run finished but its outputs disagree with the reference."""


@dataclass
class Workload:
    name: str
    steps: list                   # CLI argv lists, without --seed/--out/--name
    seeded: bool = True           # pass the benchmark seed to the CLI
    config: dict = None           # written to a --config file when set
    check: str = None             # key into CHECKS; None checks exit codes only

    def cli_seed(self, seed: int) -> int:
        return seed if self.seeded else SWEEP_CLI_SEED

    def to_spec(self, seed: int) -> dict:
        return {"name": self.name, "steps": self.steps, "config": self.config,
                "check": self.check, "cli_seed": self.cli_seed(seed)}


WORKLOADS = {
    # far-field rank sweep at the headline size: hmatrix, inverse_lab and
    # cluster; never touches harmonic
    "sweep-n8": Workload("sweep-n8", [["rank-sweep", *SWEEP_ARGS]],
                         seeded=False, check="sweep-n8"),
    # local theory in bulk, once per box at large N: harmonic and the region
    # code in fem; never touches hmatrix or inverse_lab
    "local-n8": Workload("local-n8", [["caccioppoli", "--n", "8"],
                                      ["helmholtz", "--n", "8"]],
                         check="local-n8"),
    # the whole verify battery on a complex-symmetric A: many small repeated
    # region and per-DOF calls, and the complex dtype paths
    "verify-n3c": Workload("verify-n3c", [["verify", "--n", "3", "--n-leaf",
                                           "16", "--kappa-im", "0.5"]],
                           check="verify-n3c"),
}


def _read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _require(cond, message):
    if not cond:
        raise OutputCheckFailed(message)


def check_sweep(outdirs, root):
    """rel_err per rank within RANK_REL_TOL of the exact LAPACK norm, and
    every row under its block-to-global bound."""
    ref = _read_json(REFERENCE)["sweep-n8"]
    (outdir,) = outdirs
    with open(os.path.join(outdir, "sweep.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    fit = _read_json(os.path.join(outdir, "fit.json"))
    _require(fit["N"] == ref["N"], f"N = {fit['N']}, reference {ref['N']}")
    _require(fit["c_sp"] == ref["c_sp"] and fit["depth"] == ref["depth"],
             f"C_sp/depth {fit['c_sp']}/{fit['depth']}, reference "
             f"{ref['c_sp']}/{ref['depth']}")
    ranks = [int(row["r"]) for row in rows]
    _require(ranks == [r["r"] for r in ref["ranks"]], f"ranks {ranks}")
    fingerprint = {"rel_err": {}, "rel_err_over_exact": {}}
    for row, want in zip(rows, ref["ranks"]):
        r = int(row["r"])
        rel_err, abs_err = float(row["rel_err"]), float(row["abs_err"])
        bound = float(row["bound_value"])
        sigma = float(row["max_block_sigma"])
        _require(_rel(rel_err, want["rel_exact"]) <= RANK_REL_TOL,
                 f"r={r}: rel_err {rel_err:.9e} vs exact {want['rel_exact']:.9e}")
        _require(abs_err <= bound * (1.0 + BOUND_SLACK),
                 f"r={r}: abs_err {abs_err:.6e} above bound {bound:.6e}")
        _require(_rel(sigma, want["max_block_sigma"]) <= GEOMETRY_REL_TOL,
                 f"r={r}: max sigma_(r+1) {sigma:.9e} vs {want['max_block_sigma']:.9e}")
        fingerprint["rel_err"][str(r)] = rel_err
        fingerprint["rel_err_over_exact"][str(r)] = rel_err / want["rel_exact"]
    return fingerprint


def check_local(outdirs, root):
    """Interior-pair Caccioppoli values against the frozen n=8 baselines,
    and Helmholtz residuals at rounding level."""
    base = _read_json(os.path.join(root, BASELINES))["criterion6"]
    cacc_dir, helm_dir = outdirs
    cacc = _read_json(os.path.join(cacc_dir, "caccioppoli.json"))
    interior = cacc["pairs"]["interior"]
    fingerprint = {"caccioppoli": {}, "helmholtz": {}}
    for variant in ("curl", "grad"):
        got, want = interior[variant], base[variant]["8"]
        _require(got["dim"] == want["dim"],
                 f"{variant}: dim {got['dim']}, baseline {want['dim']}")
        _require(_rel(got["normalized"], want["normalized"]) <= BASELINE_REL_TOL,
                 f"{variant}: normalized {got['normalized']!r}, baseline "
                 f"{want['normalized']!r}")
        fingerprint["caccioppoli"][variant] = {
            "normalized": got["normalized"], "dim": got["dim"]}
    helm = _read_json(os.path.join(helm_dir, "helmholtz.json"))
    for label, rep in sorted(helm["regions"].items()):
        for key in ("orthogonality_residual", "pythagoras_defect"):
            _require(rep[key] <= RESIDUAL_TOL,
                     f"helmholtz {label}: {key} {rep[key]:.3e}")
        fingerprint["helmholtz"][label] = {
            key: rep[key] for key in ("orthogonality_residual",
                                      "pythagoras_defect")}
    return fingerprint


def check_verify(outdirs, root):
    """All fourteen checks of the verify battery present and passing."""
    (outdir,) = outdirs
    rep = _read_json(os.path.join(outdir, "verify.json"))
    checks = rep["checks"]
    _require(len(checks) == VERIFY_N_CHECKS,
             f"{len(checks)} checks, expected {VERIFY_N_CHECKS}")
    failing = [c["name"] for c in checks if not c["passed"]]
    _require(rep["passed"] and not failing, f"failing checks: {failing}")
    return {"checks": {c["name"]: c["measured"] for c in checks}}


CHECKS = {
    "sweep-n8": check_sweep,
    "local-n8": check_local,
    "verify-n3c": check_verify,
}
