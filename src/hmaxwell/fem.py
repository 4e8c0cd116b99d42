"""Global edge-element spaces and the Maxwell bilinear form on a box mesh.

The Galerkin system uses the bilinear (not sesquitilinear) form

    a(E, Psi) = <curl E, curl Psi> - kappa <E, Psi>,

assembled over the basis functions of interior edges (tangential trace zero
on the box boundary). A = K - kappa M is complex symmetric, i.e. A equals
its transpose without conjugation; it is kept real when kappa is real.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .mesh import Mesh
from .quadrature import tet_rule
from .whitney import ElementTensors, element_tensors, whitney_values


@dataclass(frozen=True)
class DofMap:
    interior_edges: np.ndarray  # (N,) edge ids carrying DOFs, ascending
    edge_to_dof: np.ndarray     # (E,) DOF index or -1 for boundary edges
    n_dofs: int


def build_dof_map(mesh: Mesh) -> DofMap:
    ids = np.flatnonzero(~mesh.boundary_edge)
    edge_to_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
    edge_to_dof[ids] = np.arange(ids.size)
    return DofMap(ids, edge_to_dof, int(ids.size))


@dataclass
class GalerkinSystem:
    mesh: Mesh
    dofmap: DofMap
    kappa: complex
    K: np.ndarray  # (N, N) curl-curl part, real symmetric PSD
    M: np.ndarray  # (N, N) mass part, real symmetric PD
    A: np.ndarray  # K - kappa M
    local: ElementTensors = field(repr=False, default=None)  # every tet, global edge signs
    _lu: tuple = field(repr=False, default=None, compare=False)

    @property
    def n_dofs(self):
        return self.dofmap.n_dofs

    @property
    def h(self):
        return self.mesh.h

    def lu(self):
        if self._lu is None:
            self._lu = scipy.linalg.lu_factor(self.A)
        return self._lu


def assemble_system(mesh: Mesh, dofmap: DofMap = None, kappa: complex = 1.0) -> GalerkinSystem:
    """Assemble K, M and A = K - kappa M over the interior-edge DOFs."""
    if kappa == 0:
        raise ValueError("kappa must be nonzero (gradients lie in the curl kernel)")
    if dofmap is None:
        dofmap = build_dof_map(mesh)
    n = dofmap.n_dofs
    local = element_tensors(mesh.vertices[mesh.tets], mesh.tet_edge_signs)
    dofs = dofmap.edge_to_dof[mesh.tet_edges]
    K = scatter(local.curl, dofs, n).toarray()
    M = scatter(local.mass, dofs, n).toarray()
    kappa = complex(kappa)
    if kappa.imag == 0.0:
        kappa = kappa.real
    # K - kappa M bitwise, without a second N x N temporary
    A = -kappa * M
    A += K
    return GalerkinSystem(mesh, dofmap, kappa, K, M, A, local)


def scatter(local: np.ndarray, index: np.ndarray, n: int):
    """Sum per-tet local vectors (T, k) into a length-n vector, or per-tet
    local matrices (T, k, k) into an n x n sparse COO array.

    index (T, k) maps each local slot to its global one; slots mapped to -1
    are dropped. Contributions are added in tet order (also by the COO
    array's toarray), so bitwise symmetric local matrices sum to a bitwise
    symmetric global one.
    """
    keep = index >= 0
    if local.ndim == 2:
        out = np.zeros(n, dtype=local.dtype)
        np.add.at(out, index[keep], local[keep])
        return out
    pair = keep[:, :, None] & keep[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(index[:, None, :], pair.shape)[pair]
    return scipy.sparse.coo_array((local[pair], (rows, cols)), shape=(n, n))


def _gather(u: np.ndarray, index: np.ndarray) -> np.ndarray:
    """u at the global slots index (T, k), 0 where index is -1; a trailing
    column axis of u, (n, m), gives (T, k, m)."""
    vals = u[np.clip(index, 0, None)]
    vals[index < 0] = 0
    return vals


def solve_system(system: GalerkinSystem, rhs: np.ndarray) -> np.ndarray:
    return scipy.linalg.lu_solve(system.lu(), rhs)


def hcurl_norm(system: GalerkinSystem, u: np.ndarray) -> float:
    """Norm with square <curl u, curl u> + <u, u>."""
    return float(np.sqrt(np.real(np.vdot(u, (system.K + system.M) @ u))))


# nodal space ------------------------------------------------------------

@dataclass
class NodalSpace:
    interior_vertices: np.ndarray  # (Nv,) vertex ids
    vertex_to_dof: np.ndarray      # (V,) column or -1
    n_dofs: int
    laplacian: np.ndarray          # (Nv, Nv) stiffness of the hat functions
    mass: np.ndarray               # (Nv, Nv)


def build_nodal_space(system: GalerkinSystem) -> NodalSpace:
    """Hat functions of the interior vertices, with their stiffness and mass
    matrices scattered from the system's element tensors."""
    mesh, local = system.mesh, system.local
    ids = np.flatnonzero(~mesh.boundary_vertex)
    v2d = np.full(mesh.n_vertices, -1, dtype=np.int64)
    v2d[ids] = np.arange(ids.size)
    d = v2d[mesh.tets]
    L = scatter(local.nodal_stiffness, d, ids.size).toarray()
    Mn = scatter(local.nodal_mass, d, ids.size).toarray()
    return NodalSpace(ids, v2d, int(ids.size), L, Mn)


def edge_incidence(mesh: Mesh, dofmap: DofMap):
    """Signed edge-vertex incidence of the DOF edges, (N, V) sparse CSR.

    The tangential integral of grad(p) along edge (lo, hi) is p(hi) - p(lo),
    so row i holds -1 at the lo and +1 at the hi vertex of DOF i's edge and
    the matrix maps nodal values to the edge coefficients of their gradient.
    """
    n = dofmap.n_dofs
    return scipy.sparse.csr_array(
        (np.tile([-1.0, 1.0], n), mesh.edges[dofmap.interior_edges].ravel(),
         np.arange(0, 2 * n + 1, 2)), shape=(n, mesh.n_vertices))


def discrete_gradient(mesh: Mesh, dofmap: DofMap, nodal_space: NodalSpace) -> np.ndarray:
    """G maps interior nodal values to edge coefficients of the gradient:
    the columns of edge_incidence at the interior vertices, as a dense array.
    Rows for boundary edges would vanish identically (both endpoints sit on
    the boundary) and are not stored.
    """
    return edge_incidence(mesh, dofmap)[:, nodal_space.interior_vertices].toarray()


# projections ------------------------------------------------------------

def rhs_vector(system: GalerkinSystem, fld, degree: int = 4) -> np.ndarray:
    """Load vector f_i = <fld, Psi_i> by tet quadrature of the given degree."""
    bary, w = tet_rule(degree)
    mesh, local = system.mesh, system.local
    pts = bary @ mesh.vertices[mesh.tets]  # (T, Q, 3)
    vals = np.array([np.asarray(fld(p)) for p in pts.reshape(-1, 3)])
    psi = whitney_values(bary, local.grads)
    f_loc = np.einsum("q,tqd,tqkd->tk", w, vals.reshape(pts.shape), psi)
    f_loc *= local.volume[:, None] * mesh.tet_edge_signs
    return scatter(f_loc, system.dofmap.edge_to_dof[mesh.tet_edges], system.n_dofs)


def l2_project(system: GalerkinSystem, fld, degree: int = 4) -> np.ndarray:
    """Coefficients of the L2 projection of a callable field onto the space."""
    f = rhs_vector(system, fld, degree)
    u = scipy.linalg.solve(system.M, f, assume_a="pos")
    resid = np.linalg.norm(system.M @ u - f)
    if resid > 1e-10 * max(np.linalg.norm(f), 1e-300):
        raise RuntimeError(f"mass solve residual {resid:.3e} too large")
    return u


# dual basis -------------------------------------------------------------

@dataclass
class DualBasis:
    carrier_tet: np.ndarray  # (N,) tet id whose element carries lambda_i
    coeffs: np.ndarray       # (N, 6) coefficients in the carrier's signed basis


def dual_basis(mesh: Mesh, dofmap: DofMap) -> DualBasis:
    """Single-tet dual functions lambda_i with <lambda_i, Psi_j> = delta_ij.

    For DOF i on edge e, the carrier is the first tet sharing e; the local
    coefficients solve the carrier's 6x6 edge mass system against the unit
    vector of e's local slot, using globally signed local basis functions.
    Biorthogonality to every other basis function is automatic because any
    edge overlapping the carrier tet is one of its six edges.
    """
    # tet_edges lists every edge, tet by tet, so the first occurrence of
    # edge e sits in its lowest-numbered tet
    first = np.unique(mesh.tet_edges.ravel(), return_index=True)[1]
    carrier, slot = np.divmod(first[dofmap.interior_edges], 6)
    mass = element_tensors(mesh.vertices[mesh.tets[carrier]],
                           mesh.tet_edge_signs[carrier]).mass
    coeffs = np.linalg.solve(mass, np.eye(6)[slot][:, :, None])[:, :, 0]
    return DualBasis(carrier, coeffs)


def dual_norms(system: GalerkinSystem, dual: DualBasis) -> np.ndarray:
    """L2 norms of the dual functions."""
    c = dual.coeffs
    return np.sqrt(np.einsum("ti,tij,tj->t", c, system.local.mass[dual.carrier_tet], c))


def _tet_dofs(system: GalerkinSystem, tets: np.ndarray) -> np.ndarray:
    return system.dofmap.edge_to_dof[system.mesh.tet_edges[tets]]


def apply_dual_functionals(system: GalerkinSystem, dual: DualBasis,
                           indices, u: np.ndarray) -> np.ndarray:
    """<lambda_i, E_h> for i in indices, integrated over the carrier tets.

    Both lambda_i and u_h are expanded in the carrier's globally signed
    basis, whose Gram matrix is the signed local mass matrix; the expansion
    coefficients of u_h in that basis are the raw global DOF values.
    """
    idx = np.asarray(indices, dtype=np.int64)
    t = dual.carrier_tet[idx]
    vals = _gather(u, _tet_dofs(system, t))
    return np.einsum("pi,pij,pj->p", dual.coeffs[idx], system.local.mass[t], vals)


def riesz_rhs(system: GalerkinSystem, dual: DualBasis, indices, b) -> np.ndarray:
    """Load vector of F_b = sum_i b_i lambda_i, i.e. f_j = <F_b, Psi_j>."""
    idx = np.asarray(indices, dtype=np.int64)
    t = dual.carrier_tet[idx]
    weights = np.einsum("pij,pj->pi", system.local.mass[t], dual.coeffs[idx])
    return scatter(np.asarray(b)[:, None] * weights, _tet_dofs(system, t),
                   system.n_dofs)


# region machinery -------------------------------------------------------

@dataclass
class RegionNodalSpace:
    """Nodal space of a union of tets, with boundary vertices of the box
    excluded; used for gradient projections on mesh-conforming regions."""
    system: GalerkinSystem
    tet_ids: np.ndarray
    free_vertices: np.ndarray   # (nf,) vertex ids carrying unknowns
    col_of_vertex: np.ndarray   # (V,) column or -1
    pinned_vertex: int          # grounded vertex id, or -1 when none needed
    gram: np.ndarray            # (nf, nf) gradient Gram matrix
    _solve: object = field(repr=False, default=None, compare=False)

    def solver(self):
        if self._solve is None:
            try:
                c = scipy.linalg.cho_factor(self.gram)
                self._solve = lambda r: scipy.linalg.cho_solve(c, r)
            except np.linalg.LinAlgError:
                g = self.gram
                self._solve = lambda r: np.linalg.lstsq(g, r, rcond=None)[0]
        return self._solve


def region_nodal_space(system: GalerkinSystem, tet_ids) -> RegionNodalSpace:
    mesh = system.mesh
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    verts = np.unique(mesh.tets[tet_ids])
    free = verts[~mesh.boundary_vertex[verts]]
    pinned = -1
    if free.size == verts.size and free.size > 0:
        # region does not touch the box boundary: constants are in the
        # space, ground the lowest vertex (the gradient is unaffected)
        pinned = int(free[0])
        free = free[1:]
    col = np.full(mesh.n_vertices, -1, dtype=np.int64)
    col[free] = np.arange(free.size)
    gram = scatter(system.local.nodal_stiffness[tet_ids], col[mesh.tets[tet_ids]],
                   free.size).toarray()
    return RegionNodalSpace(system, tet_ids, free, col, pinned, gram)


def pi_nabla_project(space: RegionNodalSpace, u: np.ndarray) -> np.ndarray:
    """L2(region) projection of the edge field u onto discrete gradients.

    Returns the full-length nodal vector p with p = 0 at box-boundary
    vertices and at the pinned vertex; grad(p) restricted to the region is
    the projection. The projection is a contraction in L2 of the region.
    A block of fields u (N, m) is projected column by column in one solve,
    giving p (V, m).
    """
    system = space.system
    mesh = system.mesh
    tets = space.tet_ids
    local = np.einsum("tk...,tkv->tv...", _gather(u, _tet_dofs(system, tets)),
                      system.local.grad_mixed[tets])
    # scatter's vector sum, kept here because it carries the column axis
    index = space.col_of_vertex[mesh.tets[tets]]
    keep = index >= 0
    rhs = np.zeros((space.free_vertices.size,) + u.shape[1:], dtype=local.dtype)
    np.add.at(rhs, index[keep], local[keep])
    p = np.zeros((mesh.n_vertices,) + u.shape[1:], dtype=u.dtype)
    if space.free_vertices.size:
        solve = space.solver()
        p[space.free_vertices] = (solve(rhs.real) + 1j * solve(rhs.imag)
                                  if np.iscomplexobj(u) else solve(rhs))
    return p


def gradient_edge_coeffs(system: GalerkinSystem, p: np.ndarray) -> np.ndarray:
    """Edge DOF coefficients of grad(p) for a full-length nodal vector p."""
    edges = system.mesh.edges[system.dofmap.interior_edges]
    return p[edges[:, 1]] - p[edges[:, 0]]


def assemble_region_matrix(system: GalerkinSystem, tet_ids, kind: str):
    """Sparse Gram matrix over DOFs integrating only over the given tets;
    kind is 'mass' or 'curl'."""
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    local = system.local.mass if kind == "mass" else system.local.curl
    return scatter(local[tet_ids], _tet_dofs(system, tet_ids), system.n_dofs).tocsr()


# matrix dump ------------------------------------------------------------

def matrix_to_coordinate_text(mat: np.ndarray) -> str:
    """Coordinate text: one 'row col re im' line per nonzero entry, 0-based,
    in row-major order, with shortest round-trip float text."""
    mat = np.asarray(mat)
    i, j = np.nonzero(mat)
    vals = mat[i, j].astype(complex)
    line = i.astype(str)
    for col in (j, vals.real, vals.imag):
        line = np.char.add(np.char.add(line, " "), col.astype(str))
    return "".join(np.char.add(line, "\n").tolist())
