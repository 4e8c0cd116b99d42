"""Global edge-element spaces and the Maxwell bilinear form on a box mesh,
and one nodal (P1 hat) space type for the whole mesh and for tet unions,
mapped into the edge space by the system's signed edge-vertex incidence.

The Galerkin system uses the bilinear (not sesquitilinear) form

    a(E, Psi) = <curl E, curl Psi> - kappa <E, Psi>,

assembled over the basis functions of interior edges (tangential trace zero
on the box boundary). A = K - kappa M is complex symmetric, i.e. A equals
its transpose without conjugation; it is kept real when kappa is real.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .mesh import Mesh
from .whitney import ElementTensors, element_tensors


@dataclass(frozen=True)
class DofMap:
    interior_edges: np.ndarray  # (N,) edge ids carrying DOFs, ascending
    edge_to_dof: np.ndarray     # (E,) DOF index or -1 for boundary edges
    tet_dofs: np.ndarray        # (T, 6) DOF of each tet's local edges, or -1
    n_dofs: int


def build_dof_map(mesh: Mesh) -> DofMap:
    ids = np.flatnonzero(~mesh.boundary_edge)
    edge_to_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
    edge_to_dof[ids] = np.arange(ids.size)
    return DofMap(ids, edge_to_dof, edge_to_dof[mesh.tet_edges], int(ids.size))


@dataclass
class GalerkinSystem:
    """K and M are CSR arrays on one shared pattern; the package reads A only as
    sparse_operator(self) and lu, its SuperLU factor, formed on first solve. The
    cached dense A is read only by the benchmark's tracer and reference builder.
    nodal, the whole-mesh nodal space, and incidence are built on first use."""
    mesh: Mesh
    dofmap: DofMap
    kappa: complex
    K: scipy.sparse.csr_array  # (N, N) curl-curl part, real symmetric PSD
    M: scipy.sparse.csr_array  # (N, N) mass part, real symmetric PD, K's pattern
    local: ElementTensors = field(repr=False, default=None)  # every tet, global edge signs

    @property
    def n_dofs(self):
        return self.dofmap.n_dofs

    @property
    def h(self):
        return self.mesh.h

    @cached_property
    def A(self) -> np.ndarray:
        return sparse_operator(self).toarray()

    @cached_property
    def lu(self):
        from scipy.sparse.linalg import splu  # imported on use: slow to load
        return splu(sparse_operator(self).tocsc())

    @cached_property
    def nodal(self) -> "NodalSpace":
        return build_nodal_space(self)

    @cached_property
    def incidence(self) -> scipy.sparse.csr_array:
        """Signed edge-vertex incidence of the DOF edges, (N, V) CSR, the one
        gradient operator: grad(p) integrates to p(hi) - p(lo) along edge (lo,
        hi), so row i holds -1 at the lo and +1 at the hi vertex of DOF i's edge
        and maps nodal values (V,) or (V, m) to their gradient's edge coefficients."""
        n, mesh = self.n_dofs, self.mesh
        return scipy.sparse.csr_array(
            (np.tile([-1.0, 1.0], n), mesh.edges[self.dofmap.interior_edges].ravel(),
             np.arange(0, 2 * n + 1, 2)), shape=(n, mesh.n_vertices))


def assemble_system(mesh: Mesh, kappa: complex = 1.0) -> GalerkinSystem:
    """Assemble sparse K and M over the interior-edge DOFs; kappa, and so
    A = K - kappa M, is real when Im(kappa) = 0."""
    if kappa == 0:
        raise ValueError("kappa must be nonzero (gradients lie in the curl kernel)")
    dofmap = build_dof_map(mesh)
    n = dofmap.n_dofs
    local = element_tensors(mesh.vertices[mesh.tets], mesh.tet_edge_signs)
    dofs = dofmap.tet_dofs
    kappa = complex(kappa)
    if kappa.imag == 0.0:
        kappa = kappa.real
    return GalerkinSystem(mesh, dofmap, kappa, scatter(local.curl, dofs, n),
                          scatter(local.mass, dofs, n), local)


def sparse_operator(system: GalerkinSystem) -> scipy.sparse.csr_array:
    """K - kappa M as a CSR array on the pattern K and M share."""
    vals = -system.kappa * system.M.data
    vals += system.K.data
    return scipy.sparse.csr_array((vals, system.M.indices, system.M.indptr),
                                  shape=system.M.shape)


def scatter(local: np.ndarray, index: np.ndarray, n: int):
    """Sum real per-tet local matrices (T, k, k) into an n x n CSR array.

    index (T, k) maps each local slot to its global one; slots mapped to -1
    are dropped. Each entry is 0.0 plus its contributions in tet order, so
    bitwise symmetric local matrices sum to a bitwise symmetric global one,
    and two calls with the same index give the same pattern.
    """
    keep = index >= 0
    pair = keep[:, :, None] & keep[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(index[:, None, :], pair.shape)[pair]
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(slot, weights=local[pair], minlength=keys.size)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # keys ascend
    return scipy.sparse.csr_array((data, keys % n, indptr), shape=(n, n))


def _scatter_rows(local: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Sum per-tet local rows (T, k, ...) into (n, ...) with index as in
    scatter, each column summed in tet order."""
    keep = index >= 0
    out = np.zeros((n,) + local.shape[2:], dtype=local.dtype)
    np.add.at(out, index[keep], local[keep])
    return out


def _gather(u: np.ndarray, index: np.ndarray) -> np.ndarray:
    """u at the global slots index (T, k), 0 where index is -1; a trailing
    column axis of u, (n, m), gives (T, k, m)."""
    vals = u[np.clip(index, 0, None)]
    vals[index < 0] = 0
    return vals


def solve_system(system: GalerkinSystem, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs by the SuperLU factor, which keeps A's dtype: a complex rhs
    against a real A is solved as its real and imaginary parts."""
    if np.iscomplexobj(rhs) and not np.iscomplexobj(system.kappa):
        return system.lu.solve(rhs.real) + 1j * system.lu.solve(rhs.imag)
    return system.lu.solve(rhs)


# nodal space ------------------------------------------------------------

@dataclass
class NodalSpace:
    """Hat functions of the vertices of a union of tets, less those on the
    box boundary and, when the tets do not touch it, less one grounded
    vertex (the constants would lie in the space). Over every tet, no vertex
    is grounded and the columns number the interior vertices in order."""
    system: GalerkinSystem
    tet_ids: np.ndarray
    free_vertices: np.ndarray   # (nf,) vertex ids carrying unknowns, ascending
    col_of_vertex: np.ndarray   # (V,) column or -1
    gram: scipy.sparse.csr_array  # (nf, nf) gradient Gram: stiffness of the hats

    @cached_property
    def solve(self):
        """r -> gram^-1 r: Cholesky, or least squares if the Gram is singular."""
        gram = self.gram.toarray()
        try:
            c = scipy.linalg.cho_factor(gram)
        except np.linalg.LinAlgError:
            return lambda r: np.linalg.lstsq(gram, r, rcond=None)[0]
        return lambda r: scipy.linalg.cho_solve(c, r)


def region_nodal_space(system: GalerkinSystem, tet_ids) -> NodalSpace:
    """The nodal space of the given tets, its Gram scattered from the
    system's element tensors."""
    mesh = system.mesh
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    verts = np.unique(mesh.tets[tet_ids])
    free = verts[~mesh.boundary_vertex[verts]]
    if free.size == verts.size and free.size > 0:
        # region does not touch the box boundary: constants are in the
        # space, ground the lowest vertex (the gradient is unaffected)
        free = free[1:]
    col = np.full(mesh.n_vertices, -1, dtype=np.int64)
    col[free] = np.arange(free.size)
    return NodalSpace(system, tet_ids, free, col, scatter(
        system.local.nodal_stiffness[tet_ids], col[mesh.tets[tet_ids]], free.size))


def build_nodal_space(system: GalerkinSystem) -> NodalSpace:
    """The nodal space of the whole mesh: hats of the interior vertices."""
    return region_nodal_space(system, np.arange(system.mesh.n_tets))


def discrete_gradient(nodal: NodalSpace):
    """G maps the space's nodal values to edge coefficients of the gradient:
    the columns of the system's incidence at its free vertices, (N, nf) CSR.
    """
    return nodal.system.incidence[:, nodal.free_vertices]


# dual basis -------------------------------------------------------------

@dataclass
class DualBasis:
    carrier_tet: np.ndarray  # (N,) tet id whose element carries lambda_i
    coeffs: np.ndarray       # (N, 6) coefficients in the carrier's signed basis


def dual_basis(system: GalerkinSystem) -> DualBasis:
    """Single-tet dual functions lambda_i with <lambda_i, Psi_j> = delta_ij.

    For DOF i on edge e, the carrier is the first tet sharing e; the local
    coefficients solve the carrier's 6x6 edge mass system against the unit
    vector of e's local slot, using globally signed local basis functions.
    Biorthogonality to every other basis function is automatic because any
    edge overlapping the carrier tet is one of its six edges.
    """
    # tet_edges lists every edge, tet by tet, so the first occurrence of
    # edge e sits in its lowest-numbered tet
    first = np.unique(system.mesh.tet_edges.ravel(), return_index=True)[1]
    carrier, slot = np.divmod(first[system.dofmap.interior_edges], 6)
    coeffs = np.linalg.solve(system.local.mass[carrier],
                             np.eye(6)[slot][:, :, None])[:, :, 0]
    return DualBasis(carrier, coeffs)


def dual_norms(system: GalerkinSystem, dual: DualBasis) -> np.ndarray:
    """L2 norms of the dual functions."""
    c = dual.coeffs
    return np.sqrt(np.einsum("ti,tij,tj->t", c, system.local.mass[dual.carrier_tet], c))


def apply_dual_functionals(system: GalerkinSystem, dual: DualBasis,
                           indices, u: np.ndarray) -> np.ndarray:
    """<lambda_i, E_h> for i in indices, integrated over the carrier tets.

    Both lambda_i and u_h are expanded in the carrier's globally signed
    basis, whose Gram matrix is the signed local mass matrix; the expansion
    coefficients of u_h in that basis are the raw global DOF values. A block
    of fields u (N, m) gives one column of functionals per field, (|idx|, m).
    """
    idx = np.asarray(indices, dtype=np.int64)
    t = dual.carrier_tet[idx]
    vals = _gather(u, system.dofmap.tet_dofs[t])
    return np.einsum("pi,pij,pj...->p...", dual.coeffs[idx],
                     system.local.mass[t], vals)


def riesz_rhs(system: GalerkinSystem, dual: DualBasis, indices, b) -> np.ndarray:
    """Load vector of F_b = sum_i b_i lambda_i, i.e. f_j = <F_b, Psi_j>.
    A block b (|idx|, m) gives one load vector per column, (N, m)."""
    idx = np.asarray(indices, dtype=np.int64)
    t = dual.carrier_tet[idx]
    weights = np.einsum("pij,pj->pi", system.local.mass[t], dual.coeffs[idx])
    local = np.einsum("pi,p...->pi...", weights, np.asarray(b))
    return _scatter_rows(local, system.dofmap.tet_dofs[t], system.n_dofs)


# region machinery -------------------------------------------------------

def pi_nabla_project(space: NodalSpace, u: np.ndarray) -> np.ndarray:
    """L2(region) projection of the edge field u onto discrete gradients.

    Returns the full-length nodal vector p with p = 0 at box-boundary
    vertices and at the grounded vertex; grad(p) restricted to the region is
    the projection. The projection is a contraction in L2 of the region.
    A block of fields u (N, m) is projected column by column in one solve,
    giving p (V, m).
    """
    system = space.system
    mesh = system.mesh
    tets = space.tet_ids
    local = np.einsum("tk...,tkv->tv...", _gather(u, system.dofmap.tet_dofs[tets]),
                      system.local.grad_mixed[tets])
    rhs = _scatter_rows(local, space.col_of_vertex[mesh.tets[tets]],
                        space.free_vertices.size)
    p = np.zeros((mesh.n_vertices,) + u.shape[1:], dtype=u.dtype)
    if space.free_vertices.size:
        solve = space.solve
        p[space.free_vertices] = (solve(rhs.real) + 1j * solve(rhs.imag)
                                  if np.iscomplexobj(u) else solve(rhs))
    return p


def assemble_region_matrix(system: GalerkinSystem, tet_ids, kind: str):
    """Sparse Gram matrix over DOFs integrating only over the given tets;
    kind is 'mass' or 'curl'."""
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    local = system.local.mass if kind == "mass" else system.local.curl
    return scatter(local[tet_ids], system.dofmap.tet_dofs[tet_ids], system.n_dofs)


# matrix dump ------------------------------------------------------------

def matrix_to_coordinate_text(mat: scipy.sparse.csr_array) -> str:
    """Coordinate text of a CSR array: a 'row col re im' line per stored nonzero,
    0-based, in row-major order, with shortest round-trip float text."""
    mat = mat.sorted_indices()
    i, j = mat.nonzero()
    vals = mat.data[mat.data != 0].astype(complex)
    line = i.astype(str)
    for col in (j, vals.real, vals.imag):
        line = np.char.add(np.char.add(line, " "), col.astype(str))
    return "".join(np.char.add(line, "\n").tolist())
