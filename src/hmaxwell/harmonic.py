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
from .mesh import Mesh
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

def _tet_box_overlap(verts: np.ndarray, lo, hi, tol: float) -> bool:
    """Positive-volume intersection test for a tet and an axis-aligned box.

    Separating-axis test over the 25 candidate axes of the two convex
    bodies (3 box normals, 4 tet face normals, 18 edge cross products);
    the projections must overlap by more than tol on every axis, so
    touching along a face or edge does not count.
    """
    c = 0.5 * (np.asarray(lo) + np.asarray(hi))
    half = 0.5 * (np.asarray(hi) - np.asarray(lo))
    pts = verts - c
    for ax in range(3):
        t_lo, t_hi = pts[:, ax].min(), pts[:, ax].max()
        if min(half[ax], t_hi) - max(-half[ax], t_lo) <= tol:
            return False
    edges = [pts[b] - pts[a] for a, b in
             ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    # face normals of (0,1,2), (0,1,3), (0,2,3), (1,2,3)
    axes = [np.cross(edges[0], edges[1]), np.cross(edges[0], edges[2]),
            np.cross(edges[1], edges[2]), np.cross(edges[3], edges[4])]
    for e in edges:
        for k in range(3):
            unit = np.zeros(3)
            unit[k] = 1.0
            axes.append(np.cross(e, unit))
    for a in axes:
        norm = np.linalg.norm(a)
        if norm < 1e-14:
            continue
        a = a / norm
        proj = pts @ a
        rad = np.abs(a) @ half
        if min(rad, proj.max()) - max(-rad, proj.min()) <= tol:
            return False
    return True


def tets_intersecting_box(mesh: Mesh, lo, hi, tol: float = None) -> np.ndarray:
    """Ids of tets meeting the open box in a set of positive volume (the
    tet set of the mesh-conforming region)."""
    if tol is None:
        tol = 1e-12 * mesh.length
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    coords = mesh.vertices[mesh.tets]              # (T, 4, 3)
    cand = np.nonzero(
        (coords.min(axis=1) < hi[None, :] - tol).all(axis=1)
        & (coords.max(axis=1) > lo[None, :] + tol).all(axis=1))[0]
    keep = [int(t) for t in cand if _tet_box_overlap(coords[t], lo, hi, tol)]
    return np.asarray(keep, dtype=np.int64)


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
        nodal = build_nodal_space(system.mesh)
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


def caccioppoli_ratio(space: HarmonicSpace, pair: ConcentricPair,
                      variant: str = None) -> CaccioppoliResult:
    """Worst ratio (energy on the inner box) / (triple norm on the outer
    mesh-conforming region) over the harmonic space.

    curl variant: |curl u|^2_inner over (h^2/R'^2)|curl u|^2 + (1/R'^2)
    |u|^2 on the outer region, R' = (1+eps)R; grad variant uses nodal
    gradients. Solved as a generalized symmetric eigenproblem restricted
    to the basis. An empty basis or empty inner region gives ratio 0.
    """
    variant = variant or space.variant
    if variant != space.variant:
        raise ValueError("variant does not match the space")
    system = space.system
    mesh = system.mesh
    inner = pair.inner.inside_tets(mesh)
    outer = pair.outer.conforming_tets(mesh)
    r_out = (1.0 + pair.eps) * pair.r
    w_curl = (system.h / r_out) ** 2
    w_mass = 1.0 / r_out ** 2
    if variant == "curl":
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
        return CaccioppoliResult(0.0, 0.0, variant, 0, inner.size, outer.size,
                                 hyp, False, pair.eps, pair.r)
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
                             variant, space.dim, inner.size, outer.size,
                             hyp, regularized, pair.eps, pair.r)


def _hermitize(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m.real if not np.iscomplexobj(m) else m


# local Helmholtz decomposition ---------------------------------------------

def local_helmholtz(system: GalerkinSystem, region: BoxRegion,
                    coeffs: np.ndarray):
    """Split an edge field into z + grad(p) on the mesh-conforming region.

    grad(p) is the L2(region) projection of the field onto gradients of
    the region nodal space, z the remainder; the pair is L2(region)
    orthogonal, so the squared norms satisfy the Pythagoras identity.
    Returns (z_coeffs, p_nodal) with p a full-length nodal vector.
    """
    tets = region.conforming_tets(system.mesh)
    rns = region_nodal_space(system, tets)
    p = pi_nabla_project(rns, coeffs)
    z = coeffs - gradient_edge_coeffs(system, p)
    return z, p


def helmholtz_report(system: GalerkinSystem, region: BoxRegion,
                     coeffs: np.ndarray) -> dict:
    """Decompose and measure: gradient-orthogonality residual of z over
    the region's nodal test space and the Pythagoras defect."""
    tets = region.conforming_tets(system.mesh)
    rns = region_nodal_space(system, tets)
    p = pi_nabla_project(rns, coeffs)
    g = gradient_edge_coeffs(system, p)
    z = coeffs - g
    mass = assemble_region_matrix(system, tets, "mass")
    grad = _region_gradient_pairings(system, rns, mass @ z)
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


def _region_gradient_pairings(system: GalerkinSystem, rns, mass_u: np.ndarray):
    """<u, grad hat_w> over the region for every test vertex w, given the
    region mass matrix already applied to u."""
    verts = rns.free_vertices
    if rns.pinned_vertex >= 0:
        verts = np.append(verts, rns.pinned_vertex)
    return (edge_incidence(system.mesh, system.dofmap).T @ mass_u)[verts]


def gradient_part_harmonic_check(system: GalerkinSystem, region: BoxRegion,
                                 column: np.ndarray) -> float:
    """Max |<grad p, grad hat_w>| over interior-supported vertices w, for
    the gradient part p of a discretely L-harmonic column; small values
    confirm that the gradient part is itself discretely harmonic."""
    mesh = system.mesh
    tets = region.conforming_tets(mesh)
    rns = region_nodal_space(system, tets)
    p = pi_nabla_project(rns, column)
    g = gradient_edge_coeffs(system, p)
    verts = np.unique(mesh.tets[tets])
    ok = _supported_in_box(mesh, region, mesh.tets, mesh.n_vertices)
    verts = verts[~mesh.boundary_vertex[verts] & ok[verts]]
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
