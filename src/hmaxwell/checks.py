"""Named property checks shared by the verify command and the test suite.

Each check returns a CheckResult carrying the measured quantity and the
tolerance it was held against, so reports can show margins instead of
bare booleans. Tolerances arrive as a dict (see default_tolerances) and
can be overridden from a config file, which is also the hook used to
exercise the failure paths deliberately.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import BlockPartition, sparsity_constant
from .fem import (GalerkinSystem, build_nodal_space, discrete_gradient,
                  dual_basis, dual_norms)
from .harmonic import (BoxRegion, exact_sequence_recover,
                       gradient_part_harmonic_check, harmonic_space,
                       helmholtz_report)
from .inverse_lab import theorem_transfer_check
from .mesh import build_box_mesh
from .whitney import TetElement, make_polynomial_field


def default_tolerances() -> dict:
    return {
        "symmetry": 0.0,
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
    """A must equal its transpose bitwise, not just to rounding."""
    exact = bool(np.array_equal(system.A, system.A.T))
    diff = float(np.abs(system.A - system.A.T).max())
    return CheckResult("system matrix symmetric (exact)", exact, diff, 0.0)


def check_gradient_kernel(system: GalerkinSystem, tol: float = 1e-12,
                          n_trials: int = 5, seed: int = 0) -> CheckResult:
    """curl(grad p) = 0: K annihilates every discrete gradient."""
    nodal = build_nodal_space(system)
    g = discrete_gradient(system.mesh, system.dofmap, nodal)
    k_fro = float(np.linalg.norm(system.K))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        gp = g @ rng.standard_normal(nodal.n_dofs)
        worst = max(worst, float(np.linalg.norm(system.K @ gp)
                                 / (k_fro * np.linalg.norm(gp))))
    return CheckResult("discrete gradients lie in the curl kernel",
                       worst <= tol, worst, tol)


def random_tet(rng, min_det: float = 0.05) -> np.ndarray:
    """Four random points in the unit cube, rejected until well-shaped."""
    while True:
        pts = rng.random((4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) >= min_det:
            return pts


def random_poly_field(rng, degree: int = 3):
    """Random vector polynomial of total degree <= degree, with its curl."""
    monos = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
             for k in range(degree + 1) if i + j + k <= degree]
    comps = [{m: float(rng.standard_normal()) for m in monos} for _ in range(3)]
    return make_polynomial_field(*comps)


def check_commuting(tol: float = 1e-12, n_tets: int = 50, degree: int = 3,
                    seed: int = 0) -> CheckResult:
    """Face interpolant of the curl vs curl of the edge interpolant."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_tets):
        el = TetElement(random_tet(rng))
        field, curl_field = random_poly_field(rng, degree)
        worst = max(worst, el.commuting_residual(field, curl_field))
    return CheckResult("commuting diagram on random tets", worst <= tol,
                       worst, tol, f"{n_tets} tets, degree {degree}")


def check_dual_biorthogonality(system: GalerkinSystem,
                               tol: float = 1e-12) -> CheckResult:
    """<lambda_i, Psi_j> = delta_ij, integrated over the carrier tets."""
    mesh, dofmap = system.mesh, system.dofmap
    dual = dual_basis(mesh, dofmap)
    t = dual.carrier_tet
    pair = np.einsum("ti,tij->tj", dual.coeffs, system.local.mass[t])
    dofs = dofmap.edge_to_dof[mesh.tet_edges[t]]
    expected = dofs == np.arange(dofmap.n_dofs)[:, None]
    worst = float(np.abs(pair - expected)[dofs >= 0].max())
    return CheckResult("dual basis biorthogonality", worst <= tol, worst, tol)


def dual_norm_scale(n: int) -> float:
    """max_i ||lambda_i|| * h^(1/2) on the n-subdivision mesh."""
    mesh = build_box_mesh(n)
    from .fem import assemble_system
    system = assemble_system(mesh)
    dual = dual_basis(mesh, system.dofmap)
    return float(dual_norms(system, dual).max() * np.sqrt(mesh.h))


def check_dual_norm_scaling(ns=(2, 3, 4, 6), factor: float = 2.0) -> CheckResult:
    """||lambda_i|| ~ h^(-1/2): the scaled max varies little across n."""
    vals = [dual_norm_scale(n) for n in ns]
    ratio = max(vals) / min(vals)
    return CheckResult("dual norm h^(-1/2) scaling", ratio <= factor, ratio,
                       factor, "scaled maxima " + ", ".join(f"{v:.4f}" for v in vals))


def check_helmholtz(system: GalerkinSystem, region: BoxRegion,
                    pythagoras_tol: float = 1e-10,
                    orthogonality_tol: float = 1e-10,
                    seed: int = 0) -> tuple:
    """Pythagoras identity and gradient orthogonality of the local split."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(system.n_dofs)
    if np.iscomplexobj(system.A):
        coeffs = coeffs + 1j * rng.standard_normal(system.n_dofs)
    rep = helmholtz_report(system, region, coeffs)
    ortho = CheckResult("local Helmholtz gradient orthogonality",
                        rep["orthogonality_residual"] <= orthogonality_tol,
                        rep["orthogonality_residual"], orthogonality_tol)
    pyth = CheckResult("local Helmholtz Pythagoras identity",
                       rep["pythagoras_defect"] <= pythagoras_tol,
                       rep["pythagoras_defect"], pythagoras_tol)
    return ortho, pyth


def check_gradient_part(system: GalerkinSystem, region: BoxRegion,
                        tol: float = 1e-9, max_columns: int = None) -> CheckResult:
    """Gradient parts of discretely L-harmonic columns are themselves
    discretely harmonic on the region."""
    space = harmonic_space(system, region, "curl")
    cols = space.dim if max_columns is None else min(space.dim, max_columns)
    worst = (gradient_part_harmonic_check(system, region, space.basis[:, :cols])
             if cols else 0.0)
    return CheckResult("gradient parts of harmonic columns are harmonic",
                       worst <= tol, worst, tol,
                       f"{cols} columns, dim {space.dim}")


def check_exact_sequence(system: GalerkinSystem, region: BoxRegion,
                         tol: float = 1e-10, n_instances: int = 10,
                         seed: int = 0) -> CheckResult:
    """Potentials of discrete gradients are recovered on the region."""
    mesh, dofmap = system.mesh, system.dofmap
    nodal = build_nodal_space(system)
    g = discrete_gradient(mesh, dofmap, nodal)
    tets = region.conforming_tets(mesh)
    rows = np.unique(dofmap.edge_to_dof[mesh.tet_edges[tets]])
    rows = rows[rows >= 0]
    edges = mesh.edges[dofmap.interior_edges[rows]]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        q = rng.standard_normal(nodal.n_dofs)
        v = g @ q
        phi = exact_sequence_recover(mesh, region, v, dofmap)
        recon = phi[edges[:, 1]] - phi[edges[:, 0]]
        worst = max(worst, float(np.linalg.norm(recon - v[rows])
                                 / np.linalg.norm(v[rows])))
    return CheckResult("local exact sequence recovery", worst <= tol, worst,
                       tol, f"{n_instances} instances")


def check_transfer(system: GalerkinSystem, partition: BlockPartition,
                   binv: np.ndarray, tol: float = 1e-8, n_rhs: int = 10,
                   seed: int = 0) -> CheckResult:
    """Coefficient-transfer identity on every admissible pair."""
    dual = dual_basis(system.mesh, system.dofmap)
    worst = 0.0
    for t, s in partition.far:
        rep = theorem_transfer_check(system, dual, t, s, binv,
                                     n_rhs=n_rhs, seed=seed, tol=tol)
        worst = max(worst, rep["max_mismatch"])
    return CheckResult("dual-basis transfer identity", worst <= tol, worst,
                       tol, f"{len(partition.far)} admissible pairs")


def check_bound(rows, slack: float = 1e-6) -> CheckResult:
    """Measured global error against C_sp*(depth+1)*sigma_{r+1} per rank."""
    if not rows:
        return CheckResult("block-to-global spectral bound", True, 0.0, slack,
                           "no far blocks to bound")
    worst = max((row.abs_err / row.bound_value if row.bound_value > 0
                 else float(row.abs_err > 0)) for row in rows)
    return CheckResult("block-to-global spectral bound", worst <= 1.0 + slack,
                       worst, 1.0 + slack, f"{len(rows)} ranks")


def check_partition_tiles(partition: BlockPartition) -> CheckResult:
    from .cluster import tiling_defect
    defect = tiling_defect(partition)
    return CheckResult("partition tiles the index set exactly", defect == 0,
                       float(defect), 0.0,
                       f"C_sp {sparsity_constant(partition)}")
