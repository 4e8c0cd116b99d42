"""Named property checks shared by the verify command and the test suite.

Each check returns a CheckResult carrying the measured quantity and the
tolerance it was held against, so reports can show margins instead of
bare booleans; worst values are taken with np.max, which, unlike max,
keeps a NaN and so fails the check. Tolerances arrive as a dict (see
default_tolerances) and can be overridden from a config file, which is
also the hook used to exercise the failure paths deliberately.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import BlockPartition, sparsity_constant, tiling_defect
from .fem import (DualBasis, GalerkinSystem, assemble_system, dual_basis,
                  dual_norms, gradient_edge_coeffs, sparse_operator)
from .harmonic import (BoxRegion, HarmonicSpace, exact_sequence_recover,
                       gradient_part_harmonic_check, helmholtz_report)
from .inverse_lab import theorem_transfer_check
from .mesh import build_box_mesh
from .whitney import TetElement, make_polynomial_field

COMMUTING_TETS = 50      # random tets per commuting-diagram check
COMMUTING_DEGREE = 3     # total degree of the random polynomial fields


def default_tolerances() -> dict:
    return {
        "gradient_kernel": 1e-12,
        "commuting": 1e-12,
        "biorthogonality": 1e-12,
        "dual_norm_factor": 2.0,
        "pythagoras": 1e-10,
        "helmholtz_orthogonality": 1e-10,
        "gradient_part": 1e-9,
        "exact_sequence": 1e-10,
        "transfer": 1e-8,
        "bound_slack": 1e-6,
    }


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{status} {self.name}: measured {self.measured:.3e}, "
                f"tolerance {self.tolerance:.3e}{extra}")


def check_symmetry(system: GalerkinSystem) -> CheckResult:
    """A != A.T must store no entry: equal bitwise, and a NaN never is."""
    a = sparse_operator(system)
    return CheckResult("system matrix symmetric (exact)", (a != a.T).nnz == 0,
                       float(abs(a - a.T).max()), 0.0)


def check_gradient_kernel(system: GalerkinSystem, grad, tol: float = 1e-12,
                          seed: int = 0) -> CheckResult:
    """curl(grad p) = 0: K annihilates five random discrete gradients; grad
    is the whole-mesh discrete gradient."""
    name = "discrete gradients lie in the curl kernel"
    if grad.shape[1] == 0:
        return CheckResult(name, True, 0.0, tol, "no discrete gradient to test")
    k_fro = float(np.linalg.norm(system.K.data))
    rng = np.random.default_rng(seed)
    gps = [grad @ rng.standard_normal(grad.shape[1]) for _ in range(5)]
    worst = float(np.max([np.linalg.norm(system.K @ gp)
                          / (k_fro * np.linalg.norm(gp)) for gp in gps]))
    return CheckResult(name, worst <= tol, worst, tol)


def random_tet(rng) -> np.ndarray:
    """Four random points in the unit cube, rejected until well-shaped
    (|det| of the edge vectors at least 0.05)."""
    while True:
        pts = rng.random((4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) >= 0.05:
            return pts


def random_poly_field(rng, degree: int = 3):
    """Random vector polynomial of total degree <= degree, with its curl."""
    monos = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
             for k in range(degree + 1) if i + j + k <= degree]
    comps = [{m: float(rng.standard_normal()) for m in monos} for _ in range(3)]
    return make_polynomial_field(*comps)


def check_commuting(tol: float = 1e-12, seed: int = 0) -> CheckResult:
    """Face interpolant of the curl vs curl of the edge interpolant."""
    rng = np.random.default_rng(seed)
    res = []
    for _ in range(COMMUTING_TETS):
        el = TetElement(random_tet(rng))
        field, curl_field = random_poly_field(rng, COMMUTING_DEGREE)
        res.append(el.commuting_residual(field, curl_field))
    worst = float(np.max(res))
    return CheckResult("commuting diagram on random tets", worst <= tol,
                       worst, tol,
                       f"{COMMUTING_TETS} tets, degree {COMMUTING_DEGREE}")


def check_dual_biorthogonality(system: GalerkinSystem, dual: DualBasis,
                               tol: float = 1e-12) -> CheckResult:
    """<lambda_i, Psi_j> = delta_ij, integrated over the carrier tets."""
    mesh, dofmap = system.mesh, system.dofmap
    t = dual.carrier_tet
    pair = np.einsum("ti,tij->tj", dual.coeffs, system.local.mass[t])
    dofs = dofmap.edge_to_dof[mesh.tet_edges[t]]
    expected = dofs == np.arange(dofmap.n_dofs)[:, None]
    worst = float(np.abs(pair - expected)[dofs >= 0].max())
    return CheckResult("dual basis biorthogonality", worst <= tol, worst, tol)


def dual_norm_scale(n: int) -> float:
    """max_i ||lambda_i|| * h^(1/2) on the n-subdivision mesh."""
    system = assemble_system(build_box_mesh(n))
    return float(dual_norms(system, dual_basis(system)).max() * np.sqrt(system.h))


def check_dual_norm_scaling(ns=(2, 3, 4, 6), factor: float = 2.0) -> CheckResult:
    """||lambda_i|| ~ h^(-1/2): the scaled max varies little across n."""
    vals = [dual_norm_scale(n) for n in ns]
    ratio = float(np.max(vals) / np.min(vals))
    return CheckResult("dual norm h^(-1/2) scaling", ratio <= factor, ratio,
                       factor, "scaled maxima " + ", ".join(f"{v:.4f}" for v in vals))


def random_field(system: GalerkinSystem, seed: int = 0) -> np.ndarray:
    """Random coefficients, complex when kappa is."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(system.n_dofs)
    if np.iscomplexobj(system.kappa):
        coeffs = coeffs + 1j * rng.standard_normal(system.n_dofs)
    return coeffs


def check_helmholtz(system: GalerkinSystem, region: BoxRegion,
                    pythagoras_tol: float = 1e-10,
                    orthogonality_tol: float = 1e-10,
                    seed: int = 0) -> tuple:
    """Pythagoras identity and gradient orthogonality of the local split."""
    rep = helmholtz_report(system, region, random_field(system, seed))
    ortho = CheckResult("local Helmholtz gradient orthogonality",
                        rep["orthogonality_residual"] <= orthogonality_tol,
                        rep["orthogonality_residual"], orthogonality_tol)
    pyth = CheckResult("local Helmholtz Pythagoras identity",
                       rep["pythagoras_defect"] <= pythagoras_tol,
                       rep["pythagoras_defect"], pythagoras_tol)
    return ortho, pyth


def check_gradient_part(system: GalerkinSystem, space: HarmonicSpace,
                        tol: float = 1e-9) -> CheckResult:
    """Gradient parts of the columns of a curl harmonic space are harmonic
    on its region; the unit columns off O vanish there and are skipped."""
    local = space.local_basis
    cols = np.zeros((system.n_dofs, local.shape[1]), dtype=local.dtype)
    cols[space.dofs] = local
    worst = (gradient_part_harmonic_check(system, space.region, space.tets, cols)
             if cols.size else 0.0)
    return CheckResult("gradient parts of harmonic columns are harmonic",
                       worst <= tol, worst, tol,
                       f"{local.shape[1]} columns, dim {space.dim}")


def check_exact_sequence(system: GalerkinSystem, grad, region: BoxRegion,
                         tol: float = 1e-10, n_instances: int = 10,
                         seed: int = 0) -> CheckResult:
    """Potentials of discrete gradients are recovered on the region, all
    instances in one block; grad is the whole-mesh discrete gradient."""
    name = "local exact sequence recovery"
    mesh = system.mesh
    tets = region.conforming_tets(mesh)
    rows = np.unique(system.dofmap.edge_to_dof[mesh.tet_edges[tets]])
    rows = rows[rows >= 0]
    q = np.random.default_rng(seed).standard_normal((n_instances, grad.shape[1]))
    v = grad @ q.T
    if not v[rows].any():
        return CheckResult(name, True, 0.0, tol, "no discrete gradient to test")
    phi = exact_sequence_recover(system, tets, v)
    recon = gradient_edge_coeffs(system, phi)[rows]
    worst = float((np.linalg.norm(recon - v[rows], axis=0)
                   / np.linalg.norm(v[rows], axis=0)).max(initial=0.0))
    return CheckResult(name, worst <= tol, worst, tol, f"{n_instances} instances")


def check_transfer(system: GalerkinSystem, partition: BlockPartition,
                   binv: np.ndarray, dual: DualBasis, tol: float = 1e-8,
                   n_rhs: int = 10, seed: int = 0) -> CheckResult:
    """Coefficient-transfer identity on every admissible pair."""
    worst = float(np.max([theorem_transfer_check(system, dual, t, s, binv,
                                                 n_rhs=n_rhs, seed=seed)
                          for t, s in partition.far], initial=0.0))
    return CheckResult("dual-basis transfer identity", worst <= tol, worst,
                       tol, f"{len(partition.far)} admissible pairs")


def check_bound(rows, n_far: int, slack: float = 1e-6) -> CheckResult:
    """Measured global error against C_sp*(depth+1)*sigma_{r+1} per rank;
    n_far is the partition's far-block count. With no far block every
    block is kept whole and there is nothing to bound."""
    name, tol = "block-to-global spectral bound", 1.0 + slack
    if not rows or not n_far:
        return CheckResult(name, True, 0.0, tol, "no far blocks to bound")
    worst = float(np.max([row.abs_err / row.bound_value if row.bound_value > 0
                          else np.inf if row.abs_err > 0 else 0.0 for row in rows]))
    return CheckResult(name, worst <= tol, worst, tol, f"{len(rows)} ranks")


def check_partition_tiles(partition: BlockPartition) -> CheckResult:
    defect = tiling_defect(partition)
    return CheckResult("partition tiles the index set exactly", defect == 0,
                       float(defect), 0.0,
                       f"C_sp {sparsity_constant(partition)}")
