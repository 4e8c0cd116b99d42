"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test prints `PASS criterion k: ...` or `FAIL criterion k: ...` with the
measured numbers before asserting, so a red run still reports what was seen.
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines live.

Criteria 1 and 6 compare against tests/data/baselines.json, frozen from the
first oracle run of this code (values recorded at full precision).
"""

import json
import os
import time

import numpy as np
import pytest

from hmaxwell import (assemble_system, build_block_partition, build_box_mesh,
                      build_cluster_tree, build_nodal_space, discrete_gradient,
                      fit_decay)
from hmaxwell.checks import (check_commuting, check_dual_biorthogonality,
                             check_exact_sequence, check_gradient_kernel,
                             check_gradient_part, check_helmholtz,
                             check_transfer)
from hmaxwell.cluster import sparsity_constant, tiling_defect
from hmaxwell.fem import dual_basis, dual_norms, sparse_operator
from hmaxwell.harmonic import (Region, caccioppoli_ratio, default_pairs,
                               harmonic_space)
from hmaxwell.hmatrix import truncated_svd
from hmaxwell.inverse_lab import dense_inverse, rank_sweep

HERE = os.path.dirname(__file__)
RANKS = [1, 2, 4, 8, 12, 16, 20]


def report(k: int, passed: bool, detail: str):
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {k}: {detail}")


@pytest.fixture(scope="module")
def baselines():
    with open(os.path.join(HERE, "data", "baselines.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def sweep5():
    """The headline experiment: n=5, kappa=1, eta=2, n_leaf=32."""
    t0 = time.perf_counter()
    mesh = build_box_mesh(5)
    system = assemble_system(mesh, kappa=1.0)
    tree = build_cluster_tree(mesh, system.dofmap, n_leaf=32)
    partition = build_block_partition(tree, eta=2.0)
    binv = dense_inverse(sparse_operator(system), tree.perm)
    rows = rank_sweep(binv, partition, RANKS, seed=0)
    fit = fit_decay([r.r for r in rows], [r.rel_err for r in rows])
    elapsed = time.perf_counter() - t0
    return {"system": system, "partition": partition, "rows": rows,
            "fit": fit, "elapsed": elapsed}


@pytest.fixture(scope="module")
def lab4():
    mesh = build_box_mesh(4)
    system = assemble_system(mesh, kappa=1.0)
    tree = build_cluster_tree(mesh, system.dofmap, n_leaf=32)
    partition = build_block_partition(tree, eta=2.0)
    binv = dense_inverse(sparse_operator(system), tree.perm)
    return {"system": system, "partition": partition, "binv": binv}


def test_criterion_1_root_exponential_sweep(sweep5, baselines):
    rows, fit = sweep5["rows"], sweep5["fit"]
    rel = np.array([row.rel_err for row in rows])
    base = baselines["criterion1"]

    decreasing = bool(np.all(np.diff(rel) < 0))
    span = float(np.log10(rel[0] / rel[-1]))
    base_dev = max(abs(row.rel_err / base["rel_err"][str(row.r)] - 1.0)
                   for row in rows)

    failures = []
    if not decreasing:
        failures.append("relative error is not strictly decreasing")
    if span < 5.0:
        failures.append(f"error span {span:.4f} orders < 5")
    if not fit.b > 0:
        failures.append(f"root-exponential fit b = {fit.b:.4f} <= 0")
    if base_dev > 0.05:
        failures.append(f"baseline deviation {base_dev:.2%} > 5%")
    if sweep5["elapsed"] >= 600.0:
        failures.append(f"runtime {sweep5['elapsed']:.0f}s >= 600s")

    report(1, not failures,
           f"decreasing={decreasing}, span={span:.4f} orders, "
           f"b={fit.b:.4f} (resid {fit.resid_root:.3e}), "
           f"baseline dev {base_dev:.2e}, {sweep5['elapsed']:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_2_block_to_global_bound(sweep5):
    rows, partition = sweep5["rows"], sweep5["partition"]
    worst = max(row.abs_err / (row.bound_value * 1.000001) for row in rows)
    report(2, worst <= 1.0,
           f"max error/bound ratio {worst:.6f} over {len(rows)} ranks "
           f"(C_sp {sparsity_constant(partition)}, "
           f"depth {partition.tree.depth})")
    assert worst <= 1.0, f"bound violated, ratio {worst}"


def test_criterion_3_eckart_young():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        m, n = rng.integers(5, 41, size=2)
        a = rng.standard_normal((m, n))
        if trial % 3 == 0:
            a = a + 1j * rng.standard_normal((m, n))
        r = int(rng.integers(0, min(m, n)))
        u, s, vh = truncated_svd(a, r)
        err = np.linalg.norm(a - (u * s[:r]) @ vh, 2)
        sigma = s[r] if r < len(s) else 0.0
        worst = max(worst, abs(err - sigma))
    report(3, worst <= 1e-10, f"max |error - sigma_(r+1)| = {worst:.3e} "
           f"over 20 random matrices")
    assert worst <= 1e-10


def test_criterion_4_commuting_diagram():
    res = check_commuting(tol=1e-12, seed=3)
    report(4, res.passed, f"residual {res.measured:.3e} ({res.detail})")
    assert res.passed, res.line()


def test_criterion_5_dual_basis():
    worst_bio = 0.0
    scaled = {}
    for n in (2, 3, 4, 6):
        system = assemble_system(build_box_mesh(n), kappa=1.0)
        dual = dual_basis(system)
        if n in (2, 3, 4):
            res = check_dual_biorthogonality(system, dual, tol=1e-12)
            worst_bio = max(worst_bio, res.measured)
        norms = dual_norms(system, dual)
        scaled[n] = float(norms.max()) * system.h ** 0.5
    factor = max(scaled.values()) / min(scaled.values())
    passed = worst_bio <= 1e-12 and factor <= 2.0
    report(5, passed, f"biorthogonality dev {worst_bio:.3e}, scaled norm "
           f"ratio {factor:.4f} across n=2,3,4,6")
    assert worst_bio <= 1e-12
    assert factor <= 2.0


def test_criterion_6_caccioppoli_constants(baselines):
    pair = default_pairs(1.0)["interior"]
    measured = {"curl": {}, "grad": {}}
    for n in (4, 6, 8):
        system = assemble_system(build_box_mesh(n), kappa=1.0)
        for variant in ("curl", "grad"):
            space = harmonic_space(Region(system, pair.outer), variant)
            measured[variant][n] = caccioppoli_ratio(space, pair).normalized
    failures = []
    detail = []
    for variant in ("curl", "grad"):
        frozen = max(baselines["criterion6"][variant][str(n)]["normalized"]
                     for n in (4, 6, 8))
        vals = measured[variant]
        detail.append(f"{variant}: c={frozen:.4f}, "
                      + ", ".join(f"n{n}={v:.4f}" for n, v in vals.items()))
        for n, v in vals.items():
            if v > 1.25 * frozen:
                failures.append(f"{variant} n={n}: {v:.4f} > 1.25*{frozen:.4f}")
        if not 0.75 * frozen <= max(vals.values()) <= 1.25 * frozen:
            failures.append(f"{variant}: max {max(vals.values()):.4f} drifted "
                            f"from frozen {frozen:.4f}")
    report(6, not failures, "; ".join(detail))
    assert not failures, "; ".join(failures)


def test_criterion_7_exact_sequence():
    region = default_pairs(1.0)["interior"].outer
    worst = 0.0
    for n in (3, 4):
        system = assemble_system(build_box_mesh(n), kappa=1.0)
        grad = discrete_gradient(build_nodal_space(system))
        res = check_exact_sequence(grad, Region(system, region), tol=1e-10,
                                   seed=n)
        worst = max(worst, res.measured)
    report(7, worst <= 1e-10,
           f"max potential recovery residual {worst:.3e} (n=3,4)")
    assert worst <= 1e-10


def test_criterion_8_helmholtz_and_gradient_parts():
    system = assemble_system(build_box_mesh(4), kappa=1.0)
    worst_pyth = worst_grad = 0.0
    for label, pair in default_pairs(1.0).items():
        region = Region(system, pair.outer)
        ortho, pyth = check_helmholtz(region, pythagoras_tol=1e-10,
                                      orthogonality_tol=1e-10, seed=11)
        gpart = check_gradient_part(harmonic_space(region, "curl"), tol=1e-9)
        worst_pyth = max(worst_pyth, pyth.measured, ortho.measured)
        worst_grad = max(worst_grad, gpart.measured)
    passed = worst_pyth <= 1e-10 and worst_grad <= 1e-9
    report(8, passed, f"Pythagoras/orthogonality {worst_pyth:.3e}, "
           f"gradient-part residual {worst_grad:.3e} (both regions)")
    assert worst_pyth <= 1e-10
    assert worst_grad <= 1e-9


def test_criterion_9_transfer_identity(lab4):
    res = check_transfer(lab4["system"], lab4["partition"], lab4["binv"],
                         dual_basis(lab4["system"]), tol=1e-8, seed=5)
    report(9, res.passed, f"max mismatch {res.measured:.3e} "
           f"({res.detail}, 10 rhs each)")
    assert res.passed, res.line()
    assert len(lab4["partition"].far) > 0


def test_criterion_10_structural_invariants(lab4, tmp_path):
    system = lab4["system"]
    sym_exact = bool(np.array_equal(system.A, system.A.T))
    kernel = check_gradient_kernel(system, discrete_gradient(build_nodal_space(system)),
                                   tol=1e-12, seed=9)
    defect = tiling_defect(lab4["partition"])

    from hmaxwell.cli import main
    argv = ["rank-sweep", "--n", "2", "--n-leaf", "8", "--ranks", "1,2,4",
            "--seed", "0", "--name", "det"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    assert main(argv + ["--out", str(tmp_path / "two")]) == 0
    d1, d2 = tmp_path / "one" / "det", tmp_path / "two" / "det"
    identical = all(
        (d1 / p.name).read_bytes() == (d2 / p.name).read_bytes()
        for p in d1.iterdir() if p.name != "manifest.json")

    passed = sym_exact and kernel.passed and defect == 0 and identical
    report(10, passed, f"A=A^T exact: {sym_exact}, K(Gp) residual "
           f"{kernel.measured:.3e}, tiling defect {defect}, "
           f"rerun byte-identical: {identical}")
    assert sym_exact
    assert kernel.passed, kernel.line()
    assert defect == 0
    assert identical
