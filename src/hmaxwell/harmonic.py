"""Box regions and the local theory on them: discretely L-harmonic and
discretely harmonic spaces, Caccioppoli ratio measurements on concentric
pairs, local discrete Helmholtz decompositions, and recovery of nodal
potentials from curl-free fields (local exact sequence).

Conventions. A box of side R centered at c is the cube c +- R/2. Region
integrals are unions of whole tets: the 'inside' set (tets contained in
the closed box) and the 'conforming' set (tets whose intersection with
the open box has positive volume). Inner norms use the inside set, outer
norms use the conforming set, so measured Caccioppoli ratios can only
shrink relative to the exact box integrals and the bound stays valid.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import (GalerkinSystem, assemble_region_matrix, build_nodal_space,
                  edge_incidence, gradient_edge_coeffs, pi_nabla_project,
                  region_nodal_space, scatter, sparse_operator)
from .mesh import LOCAL_EDGES, Mesh

NULLSPACE_RTOL = 1e-10


@dataclass(frozen=True)
class BoxRegion:
    center: tuple
    side: float

    @property
    def lo(self):
        return np.asarray(self.center, dtype=float) - 0.5 * self.side

    @property
    def hi(self):
        return np.asarray(self.center, dtype=float) + 0.5 * self.side

    def conforming_tets(self, mesh: Mesh) -> np.ndarray:
        """Tets whose intersection with the open box has positive volume."""
        return tets_intersecting_box(mesh, self.lo, self.hi)

    def inside_tets(self, mesh: Mesh) -> np.ndarray:
        """Tets contained in the closed box."""
        return tets_inside_box(mesh, self.lo, self.hi)


@dataclass(frozen=True)
class ConcentricPair:
    center: tuple
    r: float
    eps: float

    @property
    def inner(self) -> BoxRegion:
        return BoxRegion(self.center, self.r)

    @property
    def outer(self) -> BoxRegion:
        return BoxRegion(self.center, (1.0 + self.eps) * self.r)


def default_pairs(length: float) -> dict:
    """The two standard experiment geometries on the box [0, length]^3: an
    interior pair and a boundary-touching pair (boxes sticking out of the
    domain). Centres and sides scale with length, eps does not."""
    return {
        "interior": ConcentricPair((0.5 * length,) * 3, 0.4 * length, 0.5),
        "boundary": ConcentricPair((0.1 * length, 0.5 * length, 0.5 * length),
                                   0.4 * length, 0.5),
    }


# tet-box intersection ----------------------------------------------------

# pairs of local edges whose cross products are the normals of the faces
# (0,1,2), (0,1,3), (0,2,3), (1,2,3)
_FACE_EDGES = ([0, 0, 1, 3], [1, 2, 2, 4])


def tets_intersecting_box(mesh: Mesh, lo, hi) -> np.ndarray:
    """Ids of tets meeting the open box in a set of positive volume (the
    tet set of the mesh-conforming region).

    Separating-axis test, batched over all candidate tets, on the 25 axes
    of each tet-box pair: 3 box normals, 4 tet face normals and the 18
    cross products of a tet edge with a box axis. Axes shorter than 1e-14
    are skipped; the projections must overlap by more than 1e-12 L on every
    other axis, so touching along a face or edge does not count.
    """
    tol = 1e-12 * mesh.length
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    coords = mesh.vertices[mesh.tets]              # (T, 4, 3)
    cand = np.nonzero(
        (coords.min(axis=1) < hi[None, :] - tol).all(axis=1)
        & (coords.max(axis=1) > lo[None, :] + tol).all(axis=1))[0]
    half = 0.5 * (hi - lo)
    pts = coords[cand] - 0.5 * (lo + hi)           # (C, 4, 3), box-centred
    box_gap = (np.minimum(half, pts.max(axis=1))
               - np.maximum(-half, pts.min(axis=1)))
    edges = np.diff(pts[:, LOCAL_EDGES], axis=2)[:, :, 0]   # (C, 6, 3)
    axes = np.concatenate(
        [np.cross(edges[:, _FACE_EDGES[0]], edges[:, _FACE_EDGES[1]]),
         np.cross(edges[:, :, None, :], np.eye(3)).reshape(-1, 18, 3)],
        axis=1)                                    # (C, 22, 3)
    norm = np.linalg.norm(axes, axis=2)
    live = norm >= 1e-14
    axes /= np.where(live, norm, 1.0)[:, :, None]
    proj = axes @ pts.transpose(0, 2, 1)           # (C, 22, 4)
    rad = np.abs(axes) @ half
    gap = np.minimum(rad, proj.max(axis=2)) - np.maximum(-rad, proj.min(axis=2))
    ok = (box_gap > tol).all(axis=1) & ((gap > tol) | ~live).all(axis=1)
    return cand[ok]


def tets_inside_box(mesh: Mesh, lo, hi) -> np.ndarray:
    """Ids of tets whose closure lies in the closed box (to 1e-12 L)."""
    tol = 1e-12 * mesh.length
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    coords = mesh.vertices[mesh.tets]
    ok = ((coords >= lo[None, None, :] - tol).all(axis=(1, 2))
          & (coords <= hi[None, None, :] + tol).all(axis=(1, 2)))
    return np.nonzero(ok)[0]


# harmonic spaces ----------------------------------------------------------

@dataclass
class HarmonicSpace:
    """The locally harmonic space on a region: null(constraints) on the DOFs
    O of the region's conforming tets, which hold every tet of a constraint
    row's support, plus every coordinate off O."""
    system: GalerkinSystem
    region: BoxRegion
    variant: str                 # "curl" | "grad"
    tets: np.ndarray             # the region's conforming tets
    dofs: np.ndarray             # O, ascending
    tet_cols: np.ndarray         # (T, k) position in O of each tet's DOFs, or -1
    local_basis: np.ndarray      # (|O|, d_O) orthonormal columns on O
    constraint_rows: np.ndarray  # R: row indices whose residual must vanish
    constraints: np.ndarray      # rows R, columns O of A (curl) or nodal Gram
    dim: int                     # N - rank(constraints)


def _with_unit_columns(cols: np.ndarray, n: int, on: np.ndarray) -> np.ndarray:
    """cols on rows `on` of an n-row array, then unit columns off `on`."""
    m = cols.shape[1]
    out = np.zeros((n, m + n - on.size), dtype=cols.dtype)
    out[on, :m] = cols
    out[np.setdiff1d(np.arange(n), on), m:] = np.eye(n - on.size)
    return out


def _supported_in_box(mesh: Mesh, region: BoxRegion, tet_entities: np.ndarray,
                      n_entities: int) -> np.ndarray:
    """Per entity (tet_entities (T, k) lists each tet's vertices, edges or
    DOFs), whether every tet containing it lies in the closed box."""
    outside = np.ones(mesh.n_tets, dtype=bool)
    outside[region.inside_tets(mesh)] = False
    ok = np.ones(n_entities, dtype=bool)
    ok[tet_entities[outside]] = False
    return ok


def harmonic_space(system: GalerkinSystem, region: BoxRegion,
                   variant: str = "curl") -> HarmonicSpace:
    """Orthonormal basis of the locally harmonic space on the region.

    variant "curl": coefficient vectors u with (A u)_i = 0 for every DOF i
    whose basis function is supported in the closed box (discretely
    L-harmonic). variant "grad": nodal vectors with vanishing Laplacian
    rows at interior-supported vertices (discretely harmonic). The local
    basis is the SVD nullspace of the constraint block (rows R, columns O
    of A or of the nodal Gram), taken over the columns the rows touch,
    plus the untouched columns of O as unit vectors; singular values
    within NULLSPACE_RTOL of the largest count as rank.
    """
    mesh = system.mesh
    if variant == "curl":
        mat = sparse_operator(system)
        tet_dofs = system.dofmap.edge_to_dof[mesh.tet_edges]
    elif variant == "grad":
        nodal = build_nodal_space(system)
        mat, tet_dofs = nodal.gram, nodal.col_of_vertex[mesh.tets]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = mat.shape[0]
    # length-(n + 1) arrays: the last slot absorbs the -1 entries of tet_dofs
    rows = np.flatnonzero(_supported_in_box(mesh, region, tet_dofs, n + 1)[:n])
    tets = region.conforming_tets(mesh)
    dofs = np.unique(tet_dofs[tets])
    dofs = dofs[dofs >= 0]
    col = np.full(n + 1, -1, dtype=np.int64)
    col[dofs] = np.arange(dofs.size)
    sub = mat[np.ix_(rows, dofs)].toarray()
    if rows.size:
        # the columns of O that no constraint row touches are free
        hit = np.flatnonzero(sub.any(axis=0))
        _, sv, vh = np.linalg.svd(sub[:, hit], full_matrices=True)
        rank = int(np.sum(sv > NULLSPACE_RTOL * sv[0]))
        z = _with_unit_columns(vh[rank:].conj().T, dofs.size, hit)
    else:
        rank, z = 0, np.eye(dofs.size)
    return HarmonicSpace(system, region, variant, tets, dofs, col[tet_dofs], z,
                         rows, sub, n - rank)


def constraint_residual(space: HarmonicSpace) -> float:
    """Max |constraints @ local basis column| over all columns; the unit
    columns off O meet only zeros in the constraint rows."""
    res = space.constraints @ space.local_basis
    return float(np.abs(res).max()) if res.size else 0.0


# Caccioppoli ratio ---------------------------------------------------------

@dataclass
class CaccioppoliResult:
    ratio: float            # max Rayleigh quotient over the space
    normalized: float       # ratio * eps / (1 + eps)
    dim: int
    n_inner_tets: int
    n_outer_tets: int
    hypothesis_satisfied: bool   # h / R < eps / 4


def caccioppoli_ratio(space: HarmonicSpace,
                      pair: ConcentricPair) -> CaccioppoliResult:
    """Worst ratio (energy on the inner box) / (triple norm on the outer
    mesh-conforming region) over the harmonic space. The space's region is
    the outer region; a measurement of the pair builds it on pair.outer.

    curl variant: |curl u|^2_inner over (h^2/R'^2)|curl u|^2 + (1/R'^2)
    |u|^2 on the outer region, R' = (1+eps)R; grad variant uses nodal
    gradients. Both Grams vanish off O, so this is the top eigenvalue of a
    pencil on the local basis. Its outer Gram holds the region mass matrix
    on O and has a Cholesky factor (else LinAlgError); the inner Gram lives
    on the inner DOFs I, so the problem reduces to |I| x |I|. An empty
    local basis or empty inner region gives ratio 0.
    """
    system = space.system
    inner = pair.inner.inside_tets(system.mesh)
    outer = space.tets
    r_out = (1.0 + pair.eps) * pair.r
    w_curl = (system.h / r_out) ** 2
    w_mass = 1.0 / r_out ** 2
    local = system.local
    stiff, mass = ((local.curl, local.mass) if space.variant == "curl"
                   else (local.nodal_stiffness, local.nodal_mass))
    z, cols, n_o = space.local_basis, space.tet_cols, space.dofs.size
    rows = np.unique(cols[inner])
    rows = rows[rows >= 0]                 # I: the inner DOFs, numbered in O
    ratio = 0.0
    if z.shape[1] and rows.size:
        den = scatter(w_curl * stiff[outer] + w_mass * mass[outer],
                      cols[outer], n_o)
        chol = scipy.linalg.cholesky(z.conj().T @ (den @ z), lower=True)
        # num lives on I, so with L^-1 Z[I]^H = Q R the nonzero eigenvalues
        # of the pencil (Z^H num Z, L L^H) are those of R num[I, I] R^H
        r = np.linalg.qr(scipy.linalg.solve_triangular(
            chol, z[rows].conj().T, lower=True), mode="r")
        num = scatter(stiff[inner], cols[inner], n_o)[rows][:, rows]
        top = r @ (num @ r.conj().T)
        w = scipy.linalg.eigh(top, eigvals_only=True,
                              subset_by_index=[len(top) - 1] * 2)
        ratio = float(max(w[0], 0.0))
    return CaccioppoliResult(ratio, ratio * pair.eps / (1.0 + pair.eps),
                             space.dim, inner.size, outer.size,
                             (system.h / pair.r) < pair.eps / 4.0)


# local Helmholtz decomposition ---------------------------------------------

def _gradient_split(system: GalerkinSystem, tets: np.ndarray,
                    coeffs: np.ndarray):
    """(region nodal space, p, edge coefficients of grad p) for the
    gradient part p of coeffs on the mesh-conforming region with tet set
    tets; coeffs may be one field (N,) or a block of them (N, m)."""
    rns = region_nodal_space(system, tets)
    p = pi_nabla_project(rns, coeffs)
    return rns, p, gradient_edge_coeffs(system, p)


def helmholtz_report(system: GalerkinSystem, region: BoxRegion,
                     coeffs: np.ndarray) -> dict:
    """Split an edge field into z + grad(p) on the mesh-conforming region:
    grad(p) is its L2(region) projection onto the region's nodal gradients,
    z the remainder. Returns z, the full-length nodal vector p, the squared
    norms, the Pythagoras defect and the orthogonality residual of z."""
    mesh = system.mesh
    tets = region.conforming_tets(mesh)
    rns, p, g = _gradient_split(system, tets, coeffs)
    z = coeffs - g
    mass = assemble_region_matrix(system, tets, "mass")
    verts = np.unique(mesh.tets[tets])
    verts = verts[~mesh.boundary_vertex[verts]]
    grad = (edge_incidence(mesh, system.dofmap).T @ (mass @ z))[verts]
    norm_e2 = float(np.real(np.vdot(coeffs, mass @ coeffs)))
    norm_z2 = float(np.real(np.vdot(z, mass @ z)))
    norm_g2 = float(np.real(np.vdot(g, mass @ g)))
    scale = max(norm_e2, 1e-300)
    return {
        "n_tets": int(tets.size),
        "dim_nodal": int(rns.free_vertices.size),
        "orthogonality_residual": float(np.abs(grad).max()) if grad.size else 0.0,
        "norm_e2": norm_e2,
        "norm_z2": norm_z2,
        "norm_grad2": norm_g2,
        "pythagoras_defect": abs(norm_e2 - norm_z2 - norm_g2) / scale,
        "z": z,
        "p": p,
    }


def gradient_part_harmonic_check(system: GalerkinSystem, region: BoxRegion,
                                 tets: np.ndarray,
                                 columns: np.ndarray) -> float:
    """Max |<grad p, grad hat_w>| over interior-supported vertices w, for
    the gradient part p of a discretely L-harmonic column; small values
    confirm that the gradient part is itself discretely harmonic.

    tets is the region's conforming tet set (region.conforming_tets, or
    the tets of a harmonic space on the region). columns is one column
    (N,) or a block (N, m); a block gives the max over its columns, with
    the region built and factored once.
    """
    mesh = system.mesh
    _, _, g = _gradient_split(system, tets, columns)
    # vertices whose hat support lies in the box lie in the region too
    ok = _supported_in_box(mesh, region, mesh.tets, mesh.n_vertices)
    verts = np.flatnonzero(ok & ~mesh.boundary_vertex)
    if not verts.size:
        return 0.0
    mass_g = assemble_region_matrix(system, tets, "mass") @ g
    out = (edge_incidence(mesh, system.dofmap).T @ mass_g)[verts]
    return float(np.abs(out).max())


# local exact sequence -------------------------------------------------------

def exact_sequence_recover(system: GalerkinSystem, tets: np.ndarray,
                           coeffs: np.ndarray) -> np.ndarray:
    """Nodal potential phi with grad(phi) = coeffs on the region's edges.

    tets is the region's conforming tet set (region.conforming_tets). The
    input must be discretely curl-free on the region; the region (a
    box clipped to the domain) is simply connected, so a potential exists
    by the local exact-sequence property and is found by least squares on
    the edge-vertex incidence. Returns a full-length nodal vector that is
    zero at domain-boundary vertices and off the region. A block of fields
    coeffs (N, m) is recovered in one least-squares solve, giving phi
    (V, m); both curl-free guards hold each column to its own norm.
    """
    mesh, dofmap = system.mesh, system.dofmap
    if tets.size == 0:
        raise ValueError("region contains no tets")
    coeffs = np.asarray(coeffs)
    v = coeffs.reshape(coeffs.shape[0], -1)
    dofs = dofmap.edge_to_dof[mesh.tet_edges[tets]]
    dof_rows = np.unique(dofs)
    dof_rows = dof_rows[dof_rows >= 0]
    v_loc = v[dof_rows]
    scale = np.linalg.norm(v_loc, axis=0)
    # curl-free pre-check: the curl-curl Gram over the region applied to the
    # coefficients must vanish relative to its Frobenius norm
    keep = dofs >= 0
    curl = system.local.curl[tets] * (keep[:, :, None] & keep[:, None, :])
    ku = scatter(curl, dofs, dofmap.n_dofs) @ v
    lim = 1e-10 * np.sqrt(float((curl * curl).sum()))
    _require_curl_free(np.abs(ku).max(axis=0) > lim * np.maximum(scale, 1e-300),
                       scale)
    vert_ids = np.unique(mesh.edges[dofmap.interior_edges[dof_rows]])
    vert_ids = vert_ids[~mesh.boundary_vertex[vert_ids]]
    inc = edge_incidence(mesh, dofmap)[dof_rows][:, vert_ids].toarray()
    phi_loc = np.linalg.lstsq(inc, v_loc, rcond=None)[0]
    resid = np.linalg.norm(inc @ phi_loc - v_loc, axis=0)
    _require_curl_free(resid > 1e-9 * np.maximum(scale, 1e-300), scale)
    phi = np.zeros((mesh.n_vertices, v.shape[1]), dtype=phi_loc.dtype)
    phi[vert_ids] = phi_loc
    return phi.reshape((mesh.n_vertices,) + coeffs.shape[1:])


def _require_curl_free(failed: np.ndarray, scale: np.ndarray):
    """Raise if a nonzero column failed its curl-free test."""
    if np.any(failed & (scale > 0)):
        raise ValueError("input not curl-free or region not simply connected")
