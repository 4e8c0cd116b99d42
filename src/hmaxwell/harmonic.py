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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fem import (GalerkinSystem, assemble_region_matrix, build_dof_map,
                  build_nodal_space, edge_incidence, gradient_edge_coeffs,
                  pi_nabla_project, region_nodal_space, scatter)
from .mesh import LOCAL_EDGES, Mesh
from .whitney import element_tensors

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


def default_pairs() -> dict:
    """The two standard experiment geometries: an interior pair and a
    boundary-touching pair (inner box sticking out of the unit cube)."""
    return {
        "interior": ConcentricPair((0.5, 0.5, 0.5), 0.4, 0.5),
        "boundary": ConcentricPair((0.1, 0.5, 0.5), 0.4, 0.5),
    }


# tet-box intersection ----------------------------------------------------

# pairs of local edges whose cross products are the normals of the faces
# (0,1,2), (0,1,3), (0,2,3), (1,2,3)
_FACE_EDGES = ([0, 0, 1, 3], [1, 2, 2, 4])


def tets_intersecting_box(mesh: Mesh, lo, hi, tol: float = None) -> np.ndarray:
    """Ids of tets meeting the open box in a set of positive volume (the
    tet set of the mesh-conforming region).

    Separating-axis test, batched over all candidate tets, on the 25 axes
    of each tet-box pair: 3 box normals, 4 tet face normals and the 18
    cross products of a tet edge with a box axis. Axes shorter than 1e-14
    are skipped; the projections must overlap by more than tol on every
    other axis, so touching along a face or edge does not count.
    """
    if tol is None:
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


def tets_inside_box(mesh: Mesh, lo, hi, tol: float = None) -> np.ndarray:
    """Ids of tets whose closure lies in the closed box."""
    if tol is None:
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
    system: GalerkinSystem
    region: BoxRegion
    variant: str                 # "curl" | "grad"
    basis: np.ndarray            # (N, dim) orthonormal columns
    constraint_rows: np.ndarray  # row indices whose residual must vanish
    singular_values: np.ndarray = field(repr=False, default=None)
    nodal_space: object = field(repr=False, default=None)  # grad variant

    @property
    def dim(self):
        return self.basis.shape[1]


def _supported_in_box(mesh: Mesh, region: BoxRegion, tet_entities: np.ndarray,
                      n_entities: int) -> np.ndarray:
    """Per vertex or edge (tet_entities is mesh.tets or mesh.tet_edges),
    whether every tet containing it lies in the closed box."""
    outside = np.ones(mesh.n_tets, dtype=bool)
    outside[region.inside_tets(mesh)] = False
    ok = np.ones(n_entities, dtype=bool)
    ok[tet_entities[outside]] = False
    return ok


def _edge_constraint_dofs(mesh: Mesh, dofmap, region: BoxRegion) -> np.ndarray:
    """DOFs whose basis-function support (all tets sharing the edge) lies
    in the closed box."""
    ok = _supported_in_box(mesh, region, mesh.tet_edges, mesh.n_edges)
    return np.flatnonzero(ok[dofmap.interior_edges])


def _vertex_constraint_dofs(mesh: Mesh, nodal, region: BoxRegion) -> np.ndarray:
    """Nodal DOFs (vertices off the domain boundary) whose hat-function
    support lies in the closed box."""
    ok = _supported_in_box(mesh, region, mesh.tets, mesh.n_vertices)
    verts = nodal.interior_vertices
    return nodal.vertex_to_dof[verts[ok[verts]]]


def harmonic_space(system: GalerkinSystem, region: BoxRegion,
                   variant: str = "curl") -> HarmonicSpace:
    """Orthonormal basis of the locally harmonic space on the region.

    variant "curl": coefficient vectors u with (A u)_i = 0 for every DOF i
    whose basis function is supported in the closed box (discretely
    L-harmonic). variant "grad": nodal vectors with vanishing Laplacian
    rows at interior-supported vertices (discretely harmonic). The basis
    is the SVD nullspace of the constraint rows; singular values within
    NULLSPACE_RTOL of the largest count as rank.
    """
    nodal = None
    if variant == "curl":
        mat = system.A
        rows = _edge_constraint_dofs(system.mesh, system.dofmap, region)
    elif variant == "grad":
        nodal = build_nodal_space(system)
        mat = nodal.laplacian
        rows = _vertex_constraint_dofs(system.mesh, nodal, region)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = mat.shape[0]
    if rows.size == 0:
        basis = np.eye(n)
        sv = np.empty(0)
    else:
        sub = mat[rows, :]
        _, sv, vh = np.linalg.svd(sub, full_matrices=True)
        rank = int(np.sum(sv > NULLSPACE_RTOL * sv[0])) if sv.size else 0
        basis = vh[rank:].conj().T
    return HarmonicSpace(system, region, variant, basis, rows, sv, nodal)


def constraint_residual(space: HarmonicSpace) -> float:
    """Max |(row-restricted matrix @ basis column)| over all columns."""
    if space.constraint_rows.size == 0 or space.dim == 0:
        return 0.0
    mat = space.system.A if space.variant == "curl" else space.nodal_space.laplacian
    return float(np.abs(mat[space.constraint_rows, :] @ space.basis).max())


# region Grams for the nodal (grad) variant --------------------------------

def nodal_region_grams(system: GalerkinSystem, nodal, tet_ids):
    """(stiffness, mass) of the hat functions over the given tets,
    restricted to the interior-vertex DOFs."""
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    d = nodal.vertex_to_dof[system.mesh.tets[tet_ids]]
    local = system.local
    return (scatter(local.nodal_stiffness[tet_ids], d, nodal.n_dofs).toarray(),
            scatter(local.nodal_mass[tet_ids], d, nodal.n_dofs).toarray())


# Caccioppoli ratio ---------------------------------------------------------

@dataclass
class CaccioppoliResult:
    ratio: float            # max Rayleigh quotient over the space
    normalized: float       # ratio * eps / (1 + eps)
    variant: str
    dim: int
    n_inner_tets: int
    n_outer_tets: int
    hypothesis_satisfied: bool   # h / R < eps / 4
    regularized: bool            # outer Gram needed a shift on the space
    eps: float
    r: float


def caccioppoli_ratio(space: HarmonicSpace,
                      pair: ConcentricPair) -> CaccioppoliResult:
    """Worst ratio (energy on the inner box) / (triple norm on the outer
    mesh-conforming region) over the harmonic space.

    curl variant: |curl u|^2_inner over (h^2/R'^2)|curl u|^2 + (1/R'^2)
    |u|^2 on the outer region, R' = (1+eps)R; grad variant uses nodal
    gradients. Solved as a generalized symmetric eigenproblem restricted
    to the basis. An empty basis or empty inner region gives ratio 0.
    """
    system = space.system
    mesh = system.mesh
    inner = pair.inner.inside_tets(mesh)
    outer = pair.outer.conforming_tets(mesh)
    r_out = (1.0 + pair.eps) * pair.r
    w_curl = (system.h / r_out) ** 2
    w_mass = 1.0 / r_out ** 2
    if space.variant == "curl":
        num = assemble_region_matrix(system, inner, "curl")
        den = (w_curl * assemble_region_matrix(system, outer, "curl")
               + w_mass * assemble_region_matrix(system, outer, "mass"))
    else:
        k_in, _ = nodal_region_grams(system, space.nodal_space, inner)
        k_out, m_out = nodal_region_grams(system, space.nodal_space, outer)
        num = k_in
        den = w_curl * k_out + w_mass * m_out
    hyp = (system.h / pair.r) < pair.eps / 4.0
    if space.dim == 0:
        return CaccioppoliResult(0.0, 0.0, space.variant, 0, inner.size,
                                 outer.size, hyp, False, pair.eps, pair.r)
    b = space.basis
    num_b = _hermitize(b.conj().T @ (num @ b))
    den_b = _hermitize(b.conj().T @ (den @ b))
    regularized = False
    scale = float(np.abs(den_b).max()) or 1.0
    evals = np.linalg.eigvalsh(den_b)
    if evals.min() <= 1e-14 * scale:
        den_b = den_b + (1e-14 * scale) * np.eye(den_b.shape[0])
        regularized = True
    w = scipy.linalg.eigh(num_b, den_b, eigvals_only=True)
    ratio = float(max(w.max(), 0.0))
    return CaccioppoliResult(ratio, ratio * pair.eps / (1.0 + pair.eps),
                             space.variant, space.dim, inner.size, outer.size,
                             hyp, regularized, pair.eps, pair.r)


def _hermitize(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m.real if not np.iscomplexobj(m) else m


# local Helmholtz decomposition ---------------------------------------------

def _gradient_split(system: GalerkinSystem, region: BoxRegion,
                    coeffs: np.ndarray):
    """(conforming tets, region nodal space, p, edge coefficients of
    grad p) for the gradient part p of coeffs on the mesh-conforming
    region; coeffs may be one field (N,) or a block of them (N, m)."""
    tets = region.conforming_tets(system.mesh)
    rns = region_nodal_space(system, tets)
    p = pi_nabla_project(rns, coeffs)
    return tets, rns, p, gradient_edge_coeffs(system, p)


def local_helmholtz(system: GalerkinSystem, region: BoxRegion,
                    coeffs: np.ndarray):
    """Split an edge field into z + grad(p) on the mesh-conforming region.

    grad(p) is the L2(region) projection of the field onto gradients of
    the region nodal space, z the remainder; the pair is L2(region)
    orthogonal, so the squared norms satisfy the Pythagoras identity.
    Returns (z_coeffs, p_nodal) with p a full-length nodal vector.
    """
    _, _, p, g = _gradient_split(system, region, coeffs)
    return coeffs - g, p


def helmholtz_report(system: GalerkinSystem, region: BoxRegion,
                     coeffs: np.ndarray) -> dict:
    """Decompose and measure: gradient-orthogonality residual of z over
    the region's nodal test space and the Pythagoras defect."""
    mesh = system.mesh
    tets, rns, p, g = _gradient_split(system, region, coeffs)
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
                                 columns: np.ndarray) -> float:
    """Max |<grad p, grad hat_w>| over interior-supported vertices w, for
    the gradient part p of a discretely L-harmonic column; small values
    confirm that the gradient part is itself discretely harmonic.

    columns is one column (N,) or a block (N, m); a block gives the max
    over its columns, with the region built and factored once.
    """
    mesh = system.mesh
    tets, _, _, g = _gradient_split(system, region, columns)
    # vertices whose hat support lies in the box lie in the region too
    ok = _supported_in_box(mesh, region, mesh.tets, mesh.n_vertices)
    verts = np.flatnonzero(ok & ~mesh.boundary_vertex)
    if not verts.size:
        return 0.0
    mass_g = assemble_region_matrix(system, tets, "mass") @ g
    out = (edge_incidence(mesh, system.dofmap).T @ mass_g)[verts]
    return float(np.abs(out).max())


# local exact sequence -------------------------------------------------------

def exact_sequence_recover(mesh: Mesh, region: BoxRegion, coeffs: np.ndarray,
                           dofmap=None) -> np.ndarray:
    """Nodal potential phi with grad(phi) = coeffs on the region's edges.

    The input must be discretely curl-free on the region; the region (a
    box clipped to the domain) is simply connected, so a potential exists
    by the local exact-sequence property and is found by least squares on
    the edge-vertex incidence. Returns a full-length nodal vector that is
    zero at domain-boundary vertices and off the region.
    """
    if dofmap is None:
        dofmap = build_dof_map(mesh)
    tets = region.conforming_tets(mesh)
    if tets.size == 0:
        raise ValueError("region contains no tets")
    dof_rows = np.unique(dofmap.edge_to_dof[mesh.tet_edges[tets]])
    dof_rows = dof_rows[dof_rows >= 0]
    v_loc = np.asarray(coeffs)[dof_rows]
    scale = float(np.linalg.norm(v_loc))
    _check_region_curl(mesh, dofmap, tets, coeffs, scale)
    vert_ids = np.unique(mesh.edges[dofmap.interior_edges[dof_rows]])
    vert_ids = vert_ids[~mesh.boundary_vertex[vert_ids]]
    inc = edge_incidence(mesh, dofmap)[dof_rows][:, vert_ids].toarray()
    if np.iscomplexobj(v_loc):
        phi_loc = (np.linalg.lstsq(inc, v_loc.real, rcond=None)[0]
                   + 1j * np.linalg.lstsq(inc, v_loc.imag, rcond=None)[0])
    else:
        phi_loc = np.linalg.lstsq(inc, v_loc, rcond=None)[0]
    resid = float(np.linalg.norm(inc @ phi_loc - v_loc))
    if resid > 1e-9 * max(scale, 1e-300) and scale > 0:
        raise ValueError("input not curl-free or region not simply connected")
    phi = np.zeros(mesh.n_vertices, dtype=phi_loc.dtype)
    phi[vert_ids] = phi_loc
    return phi


def _check_region_curl(mesh, dofmap, tets, coeffs, scale):
    """Curl-free pre-check: the curl-curl Gram over the region applied to
    the coefficients must vanish relative to its Frobenius norm."""
    dofs = dofmap.edge_to_dof[mesh.tet_edges[tets]]
    keep = dofs >= 0
    curl = element_tensors(mesh.vertices[mesh.tets[tets]],
                           mesh.tet_edge_signs[tets]).curl
    curl *= keep[:, :, None] & keep[:, None, :]
    ku = scatter(curl, dofs, dofmap.n_dofs) @ np.asarray(coeffs)
    fro2 = float((curl * curl).sum())
    lim = 1e-10 * np.sqrt(fro2) * max(scale, 1e-300)
    if float(np.abs(ku).max()) > lim and scale > 0:
        raise ValueError("input not curl-free or region not simply connected")
