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
from functools import cached_property

import numpy as np
import scipy.linalg

from .fem import (GalerkinSystem, NodalSpace, assemble_region_matrix,
                  pi_nabla_project, region_nodal_space, scatter, sparse_operator)
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


@dataclass
class Region:
    """A box on a system's mesh, the one home of what it selects, each part
    built on first use: tets, the conforming set; inside, the tets in the
    closed box; nodal, the NodalSpace of the conforming tets; mass, their
    edge mass matrix (N x N CSR)."""
    system: GalerkinSystem
    box: BoxRegion

    @cached_property
    def tets(self) -> np.ndarray:
        return tets_intersecting_box(self.system.mesh, self.box.lo, self.box.hi)

    @cached_property
    def inside(self) -> np.ndarray:
        return tets_inside_box(self.system.mesh, self.box.lo, self.box.hi)

    @cached_property
    def nodal(self) -> NodalSpace:
        return region_nodal_space(self.system, self.tets)

    @cached_property
    def mass(self):
        return assemble_region_matrix(self.system, self.tets, "mass")

    def supported(self, tet_entities: np.ndarray, n: int) -> np.ndarray:
        """Per entity (tet_entities (T, k) lists each tet's vertices, edges or
        DOFs, all below n), whether every tet holding it lies in the closed box."""
        outside = np.ones(self.system.mesh.n_tets, dtype=bool)
        outside[self.inside] = False
        ok = np.ones(n, dtype=bool)
        ok[tet_entities[outside]] = False
        return ok


# harmonic spaces ----------------------------------------------------------

@dataclass
class HarmonicSpace:
    """The locally harmonic space on a region: null(constraints) on the DOFs
    O of the region's conforming tets, which hold every tet of a constraint
    row's support, plus every coordinate off O.

    Its local basis on O, Z = [N, unit columns], is not stored: its first m
    columns are N on hit, the positions in O the constraint rows touch, and
    zero off hit; the others are the unit vectors of free = O minus hit, in
    ascending order. Readers build the rows or columns of Z they need, or
    work on its blocks, as the Caccioppoli ratio does."""
    region: Region
    variant: str                 # "curl" | "grad"
    dofs: np.ndarray             # O, ascending
    tet_cols: np.ndarray         # (T, k) position in O of each tet's DOFs, or -1
    hit: np.ndarray              # positions in O the constraint rows touch, ascending
    null: np.ndarray             # N (|hit|, m): orthonormal nullspace on rows hit
    constraint_rows: np.ndarray  # R: row indices whose residual must vanish
    constraints: np.ndarray      # rows R, columns O[hit] of A (curl) or nodal Gram
    dim: int                     # N - rank(constraints)

    @property
    def free(self) -> np.ndarray:
        """Positions in O that no constraint row touches, ascending."""
        return np.setdiff1d(np.arange(self.dofs.size), self.hit)


def harmonic_space(region: Region, variant: str = "curl") -> HarmonicSpace:
    """The locally harmonic space on the region, held as in HarmonicSpace.

    variant "curl": coefficient vectors u with (A u)_i = 0 for every DOF i
    whose basis function is supported in the closed box (discretely
    L-harmonic). variant "grad": nodal vectors with vanishing Laplacian
    rows at interior-supported vertices (discretely harmonic). The local
    basis is the SVD nullspace of the constraint block (rows R, columns O
    of A or of the nodal Gram), taken over the columns the rows touch,
    plus the untouched columns of O as unit vectors; singular values
    within NULLSPACE_RTOL of the largest count as rank.
    """
    system, mesh = region.system, region.system.mesh
    if variant == "curl":
        mat, tet_dofs = sparse_operator(system), system.dofmap.tet_dofs
    elif variant == "grad":
        nodal = system.nodal
        mat, tet_dofs = nodal.gram, nodal.col_of_vertex[mesh.tets]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = mat.shape[0]
    # length-(n + 1) arrays: the last slot absorbs the -1 entries of tet_dofs
    rows = np.flatnonzero(region.supported(tet_dofs, n + 1)[:n])
    dofs = np.unique(tet_dofs[region.tets])
    dofs = dofs[dofs >= 0]
    col = np.full(n + 1, -1, dtype=np.int64)
    col[dofs] = np.arange(dofs.size)
    sub = mat[np.ix_(rows, dofs)].toarray()
    # the columns of O that no constraint row touches are free
    hit = np.flatnonzero(sub.any(axis=0))
    sub = sub[:, hit]
    rank, null = 0, np.zeros((0, 0))
    if hit.size:
        _, sv, vh = np.linalg.svd(sub, full_matrices=True)
        rank = int(np.sum(sv > NULLSPACE_RTOL * sv[0]))
        null = vh[rank:].conj().T.copy()  # its own array, not a view of vh
    return HarmonicSpace(region, variant, dofs, col[tet_dofs], hit, null, rows,
                         sub, n - rank)


def constraint_residual(space: HarmonicSpace) -> float:
    """Max |constraint row . local basis column| over all columns. The unit
    columns on free meet only zeros, so this is the max of
    |constraints @ N|."""
    res = space.constraints @ space.null
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


def caccioppoli_ratio(space: HarmonicSpace, pair: ConcentricPair,
                      inner: Region = None) -> CaccioppoliResult:
    """Worst ratio (energy on the inner box) / (triple norm on the outer
    mesh-conforming region) over the harmonic space. The space's region is
    the outer region; a measurement of the pair builds it on pair.outer,
    and inner, the Region on pair.inner, unless given (variants share it).

    curl variant: |curl u|^2_inner over (h^2/R'^2)|curl u|^2 + (1/R'^2)
    |u|^2 on the outer region, R' = (1+eps)R; grad variant uses nodal
    gradients. Both Grams vanish off O, so this is the top eigenvalue of a
    pencil on the local basis. Its outer Gram holds the region mass matrix
    on O and has a Cholesky factor (else LinAlgError); the inner Gram lives
    on the inner DOFs I, so the problem reduces to |I| x |I|. An empty
    local basis or empty inner region gives ratio 0.

    The d x d outer Gram is never formed: the unit columns on free = O
    minus hit are eliminated through a banded Cholesky factor of the
    sparse region Gram D[free, free] (_whitened_inner_rows), which leaves
    an m x m Schur complement and the d x |I| block the pencil needs.
    """
    system, outer = space.region.system, space.region.tets
    inner = (Region(system, pair.inner) if inner is None else inner).inside
    r_out = (1.0 + pair.eps) * pair.r
    w_curl = (system.h / r_out) ** 2
    w_mass = 1.0 / r_out ** 2
    local = system.local
    stiff, mass = ((local.curl, local.mass) if space.variant == "curl"
                   else (local.nodal_stiffness, local.nodal_mass))
    cols, n_o = space.tet_cols, space.dofs.size
    rows = np.unique(cols[inner])
    rows = rows[rows >= 0]                 # I: the inner DOFs, numbered in O
    ratio = 0.0
    if space.null.shape[1] + space.free.size and rows.size:
        den = scatter(w_curl * stiff[outer] + w_mass * mass[outer],
                      cols[outer], n_o)
        # num lives on I, so with W = L^-1 Z[I]^H = Q R the nonzero
        # eigenvalues of the pencil (Z^H num Z, L L^H) are those of
        # R num[I, I] R^H
        r = np.linalg.qr(_whitened_inner_rows(space, den, rows), mode="r")
        num = scatter(stiff[inner], cols[inner], n_o)[rows][:, rows]
        top = r @ (num @ r.conj().T)
        w = scipy.linalg.eigh(top, eigvals_only=True,
                              subset_by_index=[len(top) - 1] * 2)
        ratio = float(max(w[0], 0.0))
    return CaccioppoliResult(ratio, ratio * pair.eps / (1.0 + pair.eps),
                             space.dim, inner.size, outer.size,
                             (system.h / pair.r) < pair.eps / 4.0)


def _whitened_inner_rows(space: HarmonicSpace, den, rows) -> np.ndarray:
    """W = L^-1 Z[I]^H (d x |I|) for a Cholesky factor L L^H of the outer
    Gram Z^H D Z on Z = [N, unit columns on free], by block elimination.

    With A = N^H D[hit, hit] N, B = D[free, hit] N and the sparse
    F = D[free, free], factored banded in reverse Cuthill-McKee order:
    F = L_F L_F^H, V = L_F^-1 B and S = A - V^H V = L_S L_S^H, so that
    L = [[L_S, V^H], [0, L_F]]. Then W[:m] = L_S^-1 B1^H, where B1 holds
    N's rows on I and hit and -(L_F^-H V)'s rows on I and free, and
    W[m:] = L_F^-1 (unit columns of I and free). The Gram is positive
    definite iff F and S are, so else LinAlgError."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # slow to load
    hit, null, free = space.hit, space.null, space.free
    m = null.shape[1]
    corner = den[free][:, free]
    order = reverse_cuthill_mckee(corner, True) if free.size else free
    band = scipy.sparse.tril(corner[order][:, order]).tocoo()
    diag = band.row - band.col
    ab = np.zeros((diag.max(initial=0) + 1, free.size), order="F")
    ab[diag, band.col] = band.data
    lf = scipy.linalg.cholesky_banded(ab, lower=True, overwrite_ab=True)
    # picked by both dtypes, as a real one would drop a complex B's
    # imaginary part; an empty block must not reach it (heap corruption)
    tbtrs, = scipy.linalg.get_lapack_funcs(("tbtrs",), (lf, null))

    def solve(rhs, trans="N"):             # L_F^-1 rhs, or L_F^-H rhs
        return (tbtrs(lf, rhs, uplo="L", trans=trans, overwrite_b=True)[0]
                if rhs.size else rhs)

    v = solve(den[free[order]][:, hit] @ null)
    ls = scipy.linalg.cholesky(
        null.conj().T @ (den[hit][:, hit] @ null) - v.conj().T @ v,
        lower=True, overwrite_a=True)
    on = np.isin(rows, hit)
    pos = np.argsort(order)[np.searchsorted(free, rows[~on])]  # rows of F
    b1 = np.empty((rows.size, m), dtype=v.dtype)
    b1[on] = null[np.searchsorted(hit, rows[on])]
    b1[~on] = -solve(v, "C")[pos]           # Y = L_F^-H V, in place of V
    units = np.zeros((free.size, pos.size), order="F")
    units[pos, np.arange(pos.size)] = 1
    w = np.zeros((m + free.size, rows.size), dtype=v.dtype)
    w[:m] = scipy.linalg.solve_triangular(ls, b1.conj().T, lower=True)
    w[m:, ~on] = solve(units)
    return w


# local Helmholtz decomposition ---------------------------------------------

def helmholtz_report(region: Region, coeffs: np.ndarray) -> dict:
    """Split an edge field into z + grad(p) on the mesh-conforming region:
    grad(p) is its L2(region) projection onto the region's nodal gradients,
    z the remainder. Returns z, the full-length nodal vector p, the squared
    norms, the Pythagoras defect and the orthogonality residual of z."""
    system, tets, mass = region.system, region.tets, region.mass
    mesh = system.mesh
    p = pi_nabla_project(region.nodal, coeffs)
    g = system.incidence @ p
    z = coeffs - g
    verts = np.unique(mesh.tets[tets])
    verts = verts[~mesh.boundary_vertex[verts]]
    grad = (system.incidence.T @ (mass @ z))[verts]
    norm_e2 = float(np.real(np.vdot(coeffs, mass @ coeffs)))
    norm_z2 = float(np.real(np.vdot(z, mass @ z)))
    norm_g2 = float(np.real(np.vdot(g, mass @ g)))
    scale = max(norm_e2, 1e-300)
    return {
        "n_tets": int(tets.size),
        "dim_nodal": int(region.nodal.free_vertices.size),
        "orthogonality_residual": float(np.abs(grad).max()) if grad.size else 0.0,
        "norm_e2": norm_e2,
        "norm_z2": norm_z2,
        "norm_grad2": norm_g2,
        "pythagoras_defect": abs(norm_e2 - norm_z2 - norm_g2) / scale,
        "z": z,
        "p": p,
    }


def gradient_part_harmonic_check(region: Region, columns) -> float:
    """Max |<grad p, grad hat_w>| over interior-supported vertices w, for
    the gradient part p of a discretely L-harmonic column; small values
    confirm that the gradient part is itself discretely harmonic.

    columns is an iterable of (N, m) blocks, checked one at a time; the
    result is the max over every column, on the region's one nodal space
    and mass matrix.
    """
    mesh = region.system.mesh
    # vertices whose hat support lies in the box lie in the region too
    ok = region.supported(mesh.tets, mesh.n_vertices)
    verts = np.flatnonzero(ok & ~mesh.boundary_vertex)
    if not verts.size:
        return 0.0
    inc = region.system.incidence  # grad p = inc @ p
    worst = 0.0
    for block in columns:
        grad_p = inc @ pi_nabla_project(region.nodal, block)
        worst = np.maximum(worst, np.abs((inc.T @ (region.mass @ grad_p))[verts]).max())
    return float(worst)  # np.maximum keeps a NaN


# local exact sequence -------------------------------------------------------

def exact_sequence_recover(nodal: NodalSpace, coeffs: np.ndarray) -> tuple:
    """Nodal potential phi with grad(phi) = coeffs on the nodal space's tets.

    The space is any tet union's (region.nodal for a box), the input must
    be discretely curl-free there; a box clipped to the domain is simply
    connected, so a potential exists by the local exact-sequence property:
    phi is the region's L2 gradient projection of coeffs
    (pi_nabla_project). It is a full-length nodal
    vector, zero at domain-boundary vertices, off the region and at the
    region's grounded vertex, if any (a region that does not touch the
    domain boundary has one, so phi differs from the minimum-norm potential
    by a constant). A block of fields coeffs (N, m) is recovered in one
    solve, giving phi (V, m); both curl-free guards hold each column to its
    own norm. Returns (phi, resid): resid is the residual guard's measure
    per column, ||(incidence @ phi)[rows] - coeffs[rows]|| / ||coeffs[rows]||
    on the region's DOF rows, 0 for a column that is zero there.
    """
    system, tets = nodal.system, nodal.tet_ids
    if tets.size == 0:
        raise ValueError("region contains no tets")
    coeffs = np.asarray(coeffs)
    v = coeffs.reshape(coeffs.shape[0], -1)
    dofs = system.dofmap.tet_dofs[tets]
    rows = np.unique(dofs)
    rows = rows[rows >= 0]
    scale = np.linalg.norm(v[rows], axis=0)
    # curl-free pre-check: the curl-curl Gram over the region applied to the
    # coefficients must vanish relative to its Frobenius norm
    keep = dofs >= 0
    curl = system.local.curl[tets] * (keep[:, :, None] & keep[:, None, :])
    ku = scatter(curl, dofs, system.n_dofs) @ v
    lim = 1e-10 * np.sqrt(float((curl * curl).sum()))
    _require_curl_free(np.abs(ku).max(axis=0) > lim * np.maximum(scale, 1e-300),
                       scale)
    phi = pi_nabla_project(nodal, v)
    resid = np.linalg.norm((system.incidence @ phi)[rows] - v[rows], axis=0)
    resid /= np.maximum(scale, 1e-300)
    _require_curl_free(resid > 1e-9, scale)
    return (phi.reshape((system.mesh.n_vertices,) + coeffs.shape[1:]),
            resid.reshape(coeffs.shape[1:]))


def _require_curl_free(failed: np.ndarray, scale: np.ndarray):
    """Raise if a nonzero column failed its curl-free test."""
    if np.any(failed & (scale > 0)):
        raise ValueError("input not curl-free or region not simply connected")
