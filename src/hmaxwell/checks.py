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
                  dual_norms, sparse_operator)
from .harmonic import (HarmonicSpace, Region, exact_sequence_recover,
                       gradient_part_harmonic_check, helmholtz_report)
from .hmatrix import TILE
from .inverse_lab import theorem_transfer_check
from .mesh import build_box_mesh
from .whitney import commuting_residual, polynomial_field

COMMUTING_TETS = 50      # random tets per commuting-diagram check
COMMUTING_DEGREE = 3     # total degree of the random polynomial fields
DUAL_NORM_NS = (2, 3, 4, 6)  # mesh sizes of the dual-norm scaling check
EXACT_SEQUENCE_INSTANCES = 10  # random discrete gradients recovered per check

# every check's default tolerance, factor or slack, by config key
TOLERANCES = {
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

# max |constraint row . local basis column| of a harmonic space: the
# nullspace's own accuracy, so it has no config key
HARMONIC_CONSTRAINT_TOL = 1e-10


def default_tolerances() -> dict:
    return dict(TOLERANCES)


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


def check_gradient_kernel(system: GalerkinSystem, grad,
                          tol: float = TOLERANCES["gradient_kernel"],
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


def commuting_sample(seed: int = 0):
    """check_commuting's (coords (T, 4, 3), exps (M, 3), coef (T, 3, M)),
    monomials of degree <= COMMUTING_DEGREE sorted. Per tet: 4 points in the
    unit cube until |det(edges)| >= 0.05, then the 3 x M coefficients."""
    exps = np.array([e for e in np.ndindex((COMMUTING_DEGREE + 1,) * 3)
                     if sum(e) <= COMMUTING_DEGREE])
    rng = np.random.default_rng(seed)
    coords, coef = [], []
    for _ in range(COMMUTING_TETS):
        pts = rng.random((4, 3))
        while abs(np.linalg.det(pts[1:] - pts[0])) < 0.05:
            pts = rng.random((4, 3))
        coords.append(pts)
        coef.append(rng.standard_normal((3, len(exps))))
    return np.array(coords), exps, np.array(coef)


def check_commuting(tol: float = TOLERANCES["commuting"],
                    seed: int = 0) -> CheckResult:
    """Face interpolant of the curl vs curl of the edge interpolant, on all
    random tets of commuting_sample at once, each with its own field."""
    coords, exps, coef = commuting_sample(seed)
    field, curl_field = polynomial_field(exps, coef)
    worst = float(np.max(commuting_residual(coords, field, curl_field)))
    return CheckResult("commuting diagram on random tets", worst <= tol, worst,
                       tol, f"{COMMUTING_TETS} tets, degree {COMMUTING_DEGREE}")


def check_dual_biorthogonality(system: GalerkinSystem, dual: DualBasis,
                               tol: float = TOLERANCES["biorthogonality"]
                               ) -> CheckResult:
    """<lambda_i, Psi_j> = delta_ij, integrated over the carrier tets."""
    t = dual.carrier_tet
    pair = np.einsum("ti,tij->tj", dual.coeffs, system.local.mass[t])
    dofs = system.dofmap.tet_dofs[t]
    expected = dofs == np.arange(system.n_dofs)[:, None]
    worst = float(np.abs(pair - expected)[dofs >= 0].max())
    return CheckResult("dual basis biorthogonality", worst <= tol, worst, tol)


def dual_norm_scale(n: int) -> float:
    """max_i ||lambda_i|| * h^(1/2) on the n-subdivision mesh."""
    system = assemble_system(build_box_mesh(n))
    return float(dual_norms(system, dual_basis(system)).max() * np.sqrt(system.h))


def check_dual_norm_scaling(factor: float = TOLERANCES["dual_norm_factor"]
                            ) -> CheckResult:
    """||lambda_i|| ~ h^(-1/2): the scaled max varies little across the n
    of DUAL_NORM_NS."""
    vals = [dual_norm_scale(n) for n in DUAL_NORM_NS]
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


def check_helmholtz(region: Region,
                    pythagoras_tol: float = TOLERANCES["pythagoras"],
                    orthogonality_tol: float = TOLERANCES["helmholtz_orthogonality"],
                    seed: int = 0) -> tuple:
    """Pythagoras identity and gradient orthogonality of the local split."""
    rep = helmholtz_report(region, random_field(region.system, seed))
    ortho = CheckResult("local Helmholtz gradient orthogonality",
                        rep["orthogonality_residual"] <= orthogonality_tol,
                        rep["orthogonality_residual"], orthogonality_tol)
    pyth = CheckResult("local Helmholtz Pythagoras identity",
                       rep["pythagoras_defect"] <= pythagoras_tol,
                       rep["pythagoras_defect"], pythagoras_tol)
    return ortho, pyth


def check_gradient_part(space: HarmonicSpace,
                        tol: float = TOLERANCES["gradient_part"]) -> CheckResult:
    """Gradient parts of the columns of a curl harmonic space are harmonic
    on its region, tested at its hat_vertices; the unit columns off O vanish
    there and are skipped. The local basis columns, N's on O[hit] and then
    the unit vectors of O[free], are built at full length and checked TILE
    at a time on one region build, so no N x d block is formed."""
    null, m = space.null, space.null.shape[1]
    on_hit, on_free = space.dofs[space.hit], space.dofs[space.free]
    d, n = m + on_free.size, space.region.system.n_dofs

    def tiles():
        for j in range(0, d, TILE):
            cols = np.zeros((n, min(TILE, d - j)), dtype=null.dtype)
            cols[on_hit, :max(m - j, 0)] = null[:, j:j + TILE]
            k = np.arange(max(m, j), min(d, j + TILE))
            cols[on_free[k - m], k - j] = 1
            yield cols

    worst = gradient_part_harmonic_check(space.region, tiles())
    tested = space.region.hat_vertices.size
    return CheckResult("gradient parts of harmonic columns are harmonic", worst <= tol,
                       worst, tol, f"{d} columns, dim {space.dim}, {tested} vertices tested"
                       if tested else "no interior-supported vertex to test")


def check_exact_sequence(grad, region: Region,
                         tol: float = TOLERANCES["exact_sequence"],
                         seed: int = 0) -> CheckResult:
    """Potentials of discrete gradients are recovered on the region, all
    instances in one block; grad is the whole-mesh discrete gradient. The
    measure is the recovery's own residual on the region's DOF rows,
    relative to each instance."""
    name = "local exact sequence recovery"
    if grad.shape[1] == 0:
        return CheckResult(name, True, 0.0, tol, "no discrete gradient to test")
    q = np.random.default_rng(seed).standard_normal(
        (EXACT_SEQUENCE_INSTANCES, grad.shape[1]))
    _, resid = exact_sequence_recover(region.nodal, grad @ q.T)
    worst = float(resid.max())
    return CheckResult(name, worst <= tol, worst, tol,
                       f"{EXACT_SEQUENCE_INSTANCES} instances")


def check_transfer(system: GalerkinSystem, partition: BlockPartition,
                   binv: np.ndarray, dual: DualBasis,
                   tol: float = TOLERANCES["transfer"],
                   seed: int = 0) -> CheckResult:
    """Coefficient-transfer identity on every admissible pair, with one
    solve per column cluster."""
    groups = {}
    for t, s in partition.far:
        groups.setdefault(s.id, (s, []))[1].append(t)
    worst = float(np.max([v for s, taus in groups.values()
                          for v in theorem_transfer_check(
                              system, dual, taus, s, binv, seed)],
                         initial=0.0))
    return CheckResult("dual-basis transfer identity", worst <= tol, worst,
                       tol, f"{len(partition.far)} admissible pairs")


def check_bound(rows, n_far: int,
                slack: float = TOLERANCES["bound_slack"]) -> CheckResult:
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
