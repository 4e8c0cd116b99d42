"""Region machinery, discrete harmonic spaces, Caccioppoli quotients,
local Helmholtz splits and the exact-sequence recovery."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hmaxwell import (
    BoxRegion,
    ConcentricPair,
    Region,
    assemble_system,
    build_box_mesh,
    caccioppoli_ratio,
    constraint_residual,
    default_pairs,
    exact_sequence_recover,
    gradient_part_harmonic_check,
    harmonic_space,
    helmholtz_report,
    tets_inside_box,
    tets_intersecting_box,
)
from hmaxwell.fem import (
    assemble_region_matrix,
    build_nodal_space,
    discrete_gradient,
    region_nodal_space,
    scatter,
    solve_system,
)
from hmaxwell.harmonic import _whitened_inner_rows
from test_mesh import same_bits


# region geometry -----------------------------------------------------------

def conforming(mesh, box):
    """The box's conforming tets: those meeting the open box in volume."""
    return tets_intersecting_box(mesh, box.lo, box.hi)


def inside(mesh, box):
    """The box's inside tets: those contained in the closed box."""
    return tets_inside_box(mesh, box.lo, box.hi)


def test_box_region_bounds():
    r = BoxRegion((0.5, 0.5, 0.5), 0.4)
    assert np.allclose(r.lo, 0.3) and np.allclose(r.hi, 0.7)
    pair = ConcentricPair((0.5, 0.5, 0.5), 0.4, 0.5)
    assert np.all(pair.inner.lo >= pair.outer.lo)
    assert np.all(pair.inner.hi <= pair.outer.hi)
    assert abs(pair.outer.side - 0.6) < 1e-15


def test_default_pairs_fit_in_the_cube():
    pairs = default_pairs()
    assert set(pairs) == {"interior", "boundary"}
    inner = pairs["interior"]
    assert np.all(inner.outer.lo >= 0.0) and np.all(inner.outer.hi <= 1.0)
    # the boundary pair pokes out of the domain on purpose
    assert np.any(pairs["boundary"].outer.lo < 0.0)
    assert pairs["interior"] == ConcentricPair((0.5, 0.5, 0.5), 0.4, 0.5)
    assert pairs["boundary"] == ConcentricPair((0.1, 0.5, 0.5), 0.4, 0.5)


def test_inside_tets_by_vertex_membership(mesh_cache):
    m = mesh_cache(4)
    lo, hi = np.full(3, 0.25), np.full(3, 0.75)
    inside = tets_inside_box(m, lo, hi)
    for t in range(m.n_tets):
        verts = m.vertices[m.tets[t]]
        expect = bool(np.all(verts >= lo - 1e-12) and np.all(verts <= hi + 1e-12))
        assert (t in set(inside.tolist())) == expect


def test_intersecting_tets_monte_carlo(mesh_cache, rng):
    """Sampling positive mass inside the box forces membership; tets clear
    of the enlarged box must stay out."""
    m = mesh_cache(3)
    lo, hi = np.array([0.21, 0.15, 0.33]), np.array([0.62, 0.7, 0.66])
    flagged = set(tets_intersecting_box(m, lo, hi).tolist())
    inside = set(tets_inside_box(m, lo, hi).tolist())
    assert inside <= flagged
    lam = rng.dirichlet(np.ones(4), size=120)
    for t in range(m.n_tets):
        pts = lam @ m.vertices[m.tets[t]]
        hit = np.any(np.all((pts > lo) & (pts < hi), axis=1))
        if hit:
            assert t in flagged
        verts = m.vertices[m.tets[t]]
        if np.any(verts.max(axis=0) <= lo) or np.any(verts.min(axis=0) >= hi):
            assert t not in flagged


def test_face_touching_tet_is_not_intersecting():
    """Zero-measure contact along a box face must not count."""
    m = build_box_mesh(2)
    # box occupying exactly the lower-left-front subcube
    lo, hi = np.zeros(3), np.full(3, 0.5)
    flagged = tets_intersecting_box(m, lo, hi)
    vols_inside = 0.0
    for t in flagged:
        verts = m.vertices[m.tets[t]]
        assert not (np.any(verts.max(axis=0) <= lo) or np.any(verts.min(axis=0) >= hi))
    # exactly the 6 tets of that subcube have positive-measure overlap
    assert flagged.size == 6
    # a flat box cutting through tets has no volume to share with them
    assert tets_intersecting_box(m, [0.3, 0.0, 0.0], [0.3, 1.0, 1.0]).size == 0


def _tet_box_overlap(verts, lo, hi, tol):
    """Reference separating-axis test for one tet, axis by axis: 3 box
    normals, 4 face normals and 18 edge x unit-axis crosses; axes shorter
    than 1e-14 are skipped, every other overlap must exceed tol."""
    c = 0.5 * (np.asarray(lo) + np.asarray(hi))
    half = 0.5 * (np.asarray(hi) - np.asarray(lo))
    pts = verts - c
    for ax in range(3):
        t_lo, t_hi = pts[:, ax].min(), pts[:, ax].max()
        if min(half[ax], t_hi) - max(-half[ax], t_lo) <= tol:
            return False
    edges = [pts[b] - pts[a] for a, b in
             ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
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


def reference_intersecting(mesh, lo, hi):
    """The same candidate prefilter as the batched test, then the
    per-tet reference on each candidate."""
    tol = 1e-12
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    coords = mesh.vertices[mesh.tets]
    cand = np.nonzero((coords.min(axis=1) < hi - tol).all(axis=1)
                      & (coords.max(axis=1) > lo + tol).all(axis=1))[0]
    keep = [int(t) for t in cand if _tet_box_overlap(coords[t], lo, hi, tol)]
    return np.asarray(keep, dtype=np.int64)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 4),
       corners=st.lists(st.floats(-0.3, 1.3), min_size=6, max_size=6),
       snap=st.booleans())
def test_batched_tet_box_test_matches_per_tet_reference(mesh_cache, n, corners,
                                                        snap):
    """Random boxes, some sticking out of the unit cube; snapped boxes have
    their faces on mesh planes, where contact must not count."""
    m = mesh_cache(n)
    a, b = np.asarray(corners[:3]), np.asarray(corners[3:])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if snap:
        lo, hi = np.floor(lo * n) / n, np.ceil(hi * n) / n
        hi = np.maximum(hi, lo + 1.0 / n)
    got = tets_intersecting_box(m, lo, hi)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_intersecting(m, lo, hi))


def inscribed_radius(verts, lo, hi):
    """Radius r* of the largest ball in tet ∩ box: one LP over the 4 face
    and 6 box halfspaces u.x <= c with unit normals u, maximizing r subject
    to u.x + r <= c. r* > 0 exactly when the open tet meets the open box,
    and r* < 0 when the closed sets are disjoint."""
    from scipy.optimize import linprog

    u, c = [], []
    for f in range(4):
        face = np.delete(verts, f, axis=0)
        nrm = np.cross(face[1] - face[0], face[2] - face[0])
        nrm *= -np.sign(nrm @ (verts[f] - face[0]))  # away from vertex f
        u.append(nrm / np.linalg.norm(nrm))
        c.append(u[-1] @ face[0])
    u = np.vstack(u + [np.eye(3), -np.eye(3)])
    c = np.concatenate([c, hi, -lo])
    res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=np.column_stack([u, np.ones(10)]),
                  b_ub=c, bounds=[(None, None)] * 4, method="highs")
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("n", [2, 3])
def test_tet_box_test_against_inscribed_ball_lp(mesh_cache, n):
    """An oracle independent of the separating axes: a tet meets the open
    box in positive volume exactly when tet ∩ box holds a ball of positive
    radius. Random boxes, some sticking out of the cube; every other one is
    snapped to mesh planes: to the grid planes, or with one box edge on a
    diagonal face plane x_j - x_i = m/n, so that tets on the far side of
    that plane touch the box along a line. A radius between 1e-10 and 1e-7
    would be too close to call and must not occur."""
    m = mesh_cache(n)
    coords = m.vertices[m.tets]
    rng = np.random.default_rng(100 + n)
    ambiguous = 0
    for k in range(8):
        a, b = rng.uniform(-0.3, 1.3, size=(2, 3))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if k % 4 == 1:
            lo, hi = np.floor(lo * n) / n, np.ceil(hi * n) / n
            hi = np.maximum(hi, lo + 1.0 / n)
        elif k % 4 == 3:
            i, j = rng.choice(3, size=2, replace=False)
            lo[j] = hi[i] + np.round((lo[j] - hi[i]) * n) / n
            hi[j] = max(hi[j], lo[j] + 0.25)
        flagged = np.zeros(m.n_tets, dtype=bool)
        flagged[tets_intersecting_box(m, lo, hi)] = True
        misses = ((coords.min(axis=1) > hi).any(axis=1)
                  | (coords.max(axis=1) < lo).any(axis=1))
        assert not flagged[misses].any()
        for t in np.flatnonzero(~misses):
            r = inscribed_radius(coords[t], lo, hi)
            ambiguous += bool(1e-10 < r < 1e-7)
            assert flagged[t] == (r >= 1e-7), (lo, hi, t, r)
    assert ambiguous == 0


def test_batched_tet_box_test_on_default_pairs(mesh_cache):
    m = mesh_cache(8)
    for pair in default_pairs().values():
        for box in (pair.inner, pair.outer):
            got = tets_intersecting_box(m, box.lo, box.hi)
            assert got.size > 0
            assert np.array_equal(got, reference_intersecting(m, box.lo, box.hi))


def test_conforming_region_contains_the_box(mesh_cache):
    m = mesh_cache(3)
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    conf = conforming(m, region)
    ins = inside(m, region)
    assert set(ins.tolist()) <= set(conf.tolist())
    assert len(conf) > len(ins)


# harmonic spaces -------------------------------------------------------------

@pytest.fixture(scope="module")
def sys3():
    return assemble_system(build_box_mesh(3))


@pytest.fixture(scope="module")
def sys4():
    return assemble_system(build_box_mesh(4))


def local_basis(space):
    """The dense (|O|, d) local basis Z = [N, unit columns] the space
    defines, rebuilt from hit and N: N on rows hit, zeros below it, then the
    unit vectors of O minus hit in ascending order."""
    null, free = space.null, space.free
    m = null.shape[1]
    z = np.zeros((space.dofs.size, m + free.size), dtype=null.dtype)
    z[space.hit, :m] = null
    z[free, m + np.arange(free.size)] = 1
    return z


def constraint_block(space):
    """The dense constraint block, rows R and columns O, rebuilt from its
    columns hit; every other column of O is zero."""
    block = np.zeros((space.constraint_rows.size, space.dofs.size),
                     dtype=space.constraints.dtype)
    block[:, space.hit] = space.constraints
    return block


def embedded_basis(space, n):
    """(n, dim) embedding of a space with n coordinates: the local columns
    on O first, then one unit vector per coordinate off O."""
    z = local_basis(space)
    off = np.setdiff1d(np.arange(n), space.dofs)
    out = np.zeros((n, z.shape[1] + off.size), dtype=z.dtype)
    out[space.dofs, :z.shape[1]] = z
    out[off, z.shape[1]:] = np.eye(off.size)
    assert out.shape[1] == space.dim
    return out


def test_harmonic_space_constraints(sys4):
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    sizes = {"curl": sys4.n_dofs,
             "grad": build_nodal_space(sys4).free_vertices.size}
    for variant in ("curl", "grad"):
        space = harmonic_space(Region(sys4, region), variant)
        assert space.dim > 0
        assert constraint_residual(space) <= 1e-10
        # columns are orthonormal
        b = embedded_basis(space, sizes[variant])
        assert np.abs(b.conj().T @ b - np.eye(space.dim)).max() < 1e-10


def test_harmonic_space_without_constraints_is_everything(sys3):
    region = BoxRegion((0.05, 0.05, 0.05), 0.01)  # swallows no support
    space = harmonic_space(Region(sys3, region), "curl")
    assert space.dim == sys3.n_dofs
    assert space.constraint_rows.size == 0


def test_whole_domain_curl_space_is_trivial(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    space = harmonic_space(Region(sys3, region), "curl")
    assert space.dim == 0


def test_constraint_rows_match_support_inclusion(sys4):
    """A row is constrained iff every tet of its edge lies in the closed
    box, recomputed here vertexwise."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    space = harmonic_space(Region(sys4, region), "curl")
    m = sys4.mesh
    rows = set(space.constraint_rows.tolist())
    for d, e in enumerate(sys4.dofmap.interior_edges):
        ok = True
        for t in np.flatnonzero((m.tet_edges == e).any(axis=1)):
            verts = m.vertices[m.tets[t]]
            if np.any(verts < region.lo - 1e-12) or np.any(verts > region.hi + 1e-12):
                ok = False
                break
        assert (d in rows) == ok


# Caccioppoli -----------------------------------------------------------------

def test_caccioppoli_empty_basis_ratio_zero(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    space = harmonic_space(Region(sys3, region), "curl")  # dim 0
    res = caccioppoli_ratio(space, default_pairs()["interior"])
    assert res.ratio == 0.0 and res.normalized == 0.0
    assert res.dim == 0


def test_caccioppoli_n4_inner_box_is_empty(sys4):
    pair = default_pairs()["interior"]
    assert tets_inside_box(sys4.mesh, pair.inner.lo, pair.inner.hi).size == 0
    space = harmonic_space(Region(sys4, pair.outer), "curl")
    res = caccioppoli_ratio(space, pair)
    assert res.ratio == 0.0
    assert res.n_inner_tets == 0
    assert not res.hypothesis_satisfied  # h/R < eps/4 needs much finer meshes


def test_gradients_contribute_nothing_to_curl_numerator(sys3, rng):
    pair = ConcentricPair((0.5, 0.5, 0.5), 0.6, 0.5)
    inner = inside(sys3.mesh, pair.inner)
    assert inner.size > 0
    k_inner = assemble_region_matrix(sys3, inner, "curl")
    ns = build_nodal_space(sys3)
    G = discrete_gradient(ns)
    q = rng.standard_normal(ns.free_vertices.size)
    v = G @ q
    assert abs(v @ (k_inner @ v)) < 1e-12 * max(1.0, v @ v)


def test_caccioppoli_positive_on_fine_mesh():
    pair = default_pairs()["interior"]
    sysm = assemble_system(build_box_mesh(6))
    space = harmonic_space(Region(sysm, pair.outer), "curl")
    res = caccioppoli_ratio(space, pair)
    assert res.ratio > 0.0
    assert abs(res.normalized - res.ratio * pair.eps / (1.0 + pair.eps)) < 1e-12
    # direction-wise cap: curl part of the outer norm already bounds the
    # quotient by (R'/h)^2
    rprime = (1.0 + pair.eps) * pair.r
    assert res.ratio <= (rprime / sysm.mesh.h) ** 2 * (1.0 + 1e-9)


def reference_caccioppoli(system, pair, variant):
    """(mat, rows, dim, normalized) from the full-N construction: the dense
    A or nodal Gram, the constraint rows recomputed per edge or vertex, the
    nullspace of those rows over all N columns from a full SVD, dense
    region Grams, and a generalized eigh over the whole basis with the
    outer Gram shifted by 1e-14 * scale whenever it is singular there (as
    it is for every column supported off O)."""
    mesh = system.mesh
    outside = np.ones(mesh.n_tets, dtype=bool)
    outside[inside(mesh, pair.outer)] = False
    inner = inside(mesh, pair.inner)
    outer = conforming(mesh, pair.outer)
    if variant == "curl":
        mat = system.A
        ok = np.ones(mesh.n_edges, dtype=bool)
        ok[mesh.tet_edges[outside]] = False
        rows = np.flatnonzero(ok[system.dofmap.interior_edges])

        def gram(tets, kind):
            return assemble_region_matrix(system, tets, kind).toarray()
    else:
        nodal = build_nodal_space(system)
        mat = nodal.gram.toarray()
        ok = np.ones(mesh.n_vertices, dtype=bool)
        ok[mesh.tets[outside]] = False
        verts = nodal.free_vertices
        rows = nodal.col_of_vertex[verts[ok[verts]]]

        def gram(tets, kind):
            local = (system.local.nodal_stiffness if kind == "curl"
                     else system.local.nodal_mass)
            return scatter(local[tets], nodal.col_of_vertex[mesh.tets[tets]],
                           nodal.free_vertices.size).toarray()
    if rows.size:
        _, sv, vh = np.linalg.svd(mat[rows, :], full_matrices=True)
        b = vh[int(np.sum(sv > 1e-10 * sv[0])):].conj().T
    else:
        b = np.eye(mat.shape[0])
    if b.shape[1] == 0:
        return mat, rows, 0, 0.0
    r_out = (1.0 + pair.eps) * pair.r
    num = gram(inner, "curl")
    den = ((system.h / r_out) ** 2 * gram(outer, "curl")
           + gram(outer, "mass") / r_out ** 2)
    num_b = b.conj().T @ num @ b
    den_b = b.conj().T @ den @ b
    num_b = 0.5 * (num_b + num_b.conj().T)
    den_b = 0.5 * (den_b + den_b.conj().T)
    scale = float(np.abs(den_b).max()) or 1.0
    if np.linalg.eigvalsh(den_b).min() <= 1e-14 * scale:
        den_b = den_b + 1e-14 * scale * np.eye(b.shape[1])
    ratio = max(float(scipy.linalg.eigh(num_b, den_b, eigvals_only=True).max()),
                0.0)
    return mat, rows, b.shape[1], ratio * pair.eps / (1.0 + pair.eps)


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_local_space_matches_full_n_reference(system_cache, n, kappa):
    """The space on O and its eigenproblem reproduce the full-N
    construction: exact dims and normalized ratios to 1e-10 relative, on
    both default pairs and both variants. The constraint block is rows R,
    columns O of A or the nodal Gram bitwise, those rows vanish off O, and
    the embedded basis is orthonormal."""
    sysm = system_cache(n, kappa)
    for pair in default_pairs().values():
        for variant in ("curl", "grad"):
            space = harmonic_space(Region(sysm, pair.outer), variant)
            mat, rows, dim, normalized = reference_caccioppoli(sysm, pair,
                                                               variant)
            res = caccioppoli_ratio(space, pair)
            assert np.array_equal(space.constraint_rows, rows)
            assert res.dim == space.dim == dim
            assert res.normalized == pytest.approx(normalized, rel=1e-10,
                                                   abs=1e-300)
            block = mat[np.ix_(rows, space.dofs)]
            assert same_bits(constraint_block(space), block)
            off = np.setdiff1d(np.arange(mat.shape[0]), space.dofs)
            assert not mat[np.ix_(rows, off)].any()
            b = embedded_basis(space, mat.shape[0])
            assert np.abs(b.conj().T @ b - np.eye(dim)).max() < 1e-10


def split_local_basis(space):
    """(m, free): the number of nullspace columns of the local basis and
    the positions of O that no constraint row touches."""
    return space.null.shape[1], space.free


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_local_basis_layout(system_cache, n, kappa):
    """The layout the blockwise Gram and residual rely on, bitwise: hit is
    the set of columns of O the constraint block touches, the first m
    columns of the local basis vanish off hit, and the rest are exact unit
    vectors on O minus hit, in ascending order. The space holds N as its
    own C-ordered (|hit|, m) array and only the constraint columns hit."""
    sysm = system_cache(n, kappa)
    for pair in default_pairs().values():
        for variant in ("curl", "grad"):
            space = harmonic_space(Region(sysm, pair.outer), variant)
            z = local_basis(space)
            m, free = split_local_basis(space)
            assert np.array_equal(space.hit, np.flatnonzero(
                constraint_block(space).any(axis=0)))
            assert 0 <= m <= space.hit.size
            assert space.null.shape == (space.hit.size, m)
            assert space.null.flags.c_contiguous and space.null.flags.owndata
            assert space.constraints.shape == (space.constraint_rows.size,
                                               space.hit.size)
            assert not z[free, :m].any()
            assert np.array_equal(z[:, m:], np.eye(space.dofs.size)[:, free])


@pytest.mark.parametrize("kappa, limit", [(1.0, 4e6), (1.0 + 0.5j, 8e6)])
def test_harmonic_space_holds_only_its_definition(system_cache, kappa, limit):
    """At n = 8 on the interior curl pair the space holds what defines it:
    hit, N and the constraint columns hit, about 3.1 MB real and 6.0 MB
    complex. The dense |O| x d basis and |R| x |O| block held 22.9 and
    45.7 MB."""
    sysm = system_cache(8, kappa)
    pair = default_pairs()["interior"]
    tracemalloc.start()
    try:
        space = harmonic_space(Region(sysm, pair.outer), "curl")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dofs.size == 1686 and space.null.shape == (604, 288)
    assert held < limit


def region_grams(space, pair):
    """(num on I x I, D on O, I): the inner curl Gram and the weighted outer
    Gram of the pair, numbered in O, and the inner DOFs I."""
    system, outer = space.region.system, space.region.tets
    inner = inside(system.mesh, pair.inner)
    r_out = (1.0 + pair.eps) * pair.r
    local = system.local
    stiff, mass = ((local.curl, local.mass) if space.variant == "curl"
                   else (local.nodal_stiffness, local.nodal_mass))
    cols, n_o = space.tet_cols, space.dofs.size
    rows = np.unique(cols[inner])
    rows = rows[rows >= 0]
    den = scatter((system.h / r_out) ** 2 * stiff[outer]
                  + mass[outer] / r_out ** 2, cols[outer], n_o)
    return scatter(stiff[inner], cols[inner], n_o)[rows][:, rows], den, rows


def dense_gram_caccioppoli(space, pair):
    """The ratio from the dense outer Gram Z^H (D Z) on the whole local
    basis Z, factored by a copying Cholesky."""
    num, den, rows = region_grams(space, pair)
    z = local_basis(space)
    chol = scipy.linalg.cholesky(z.conj().T @ (den @ z), lower=True)
    r = np.linalg.qr(scipy.linalg.solve_triangular(
        chol, z[rows].conj().T, lower=True), mode="r")
    return max(float(scipy.linalg.eigh(r @ (num @ r.conj().T),
                                       eigvals_only=True)[-1]), 0.0)


def gram_cases(system_cache, kappa):
    """(system, pair) on a box that constrains nothing (m = 0), a box whose
    constraint rows touch all of O (no unit column) and the n = 8 interior
    pair."""
    return [(system_cache(3, kappa), ConcentricPair((0.3, 0.5, 0.5), 0.1, 1.0)),
            (system_cache(6, kappa), ConcentricPair((1 / 3,) * 3, 1 / 3, 1.0)),
            (system_cache(8, kappa), default_pairs()["interior"])]


def test_whitened_inner_rows_match_dense_gram(system_cache):
    """W = L^-1 Z[I]^H from the block elimination against the dense outer
    Gram G = Z^H (D Z): W^H W = Z[I] G^-1 Z[I]^H to 1e-12 of its largest
    entry, on the three layout cases, both variants and kappa = 1, 1+0.5i.
    I is the inner DOFs, and also the inner DOFs plus every seventh
    position in free, so the rows of -L_F^-H V and the unit columns on
    I and free are read too."""
    seen = set()
    for kappa in (1.0, 1.0 + 0.5j):
        for sysm, pair in gram_cases(system_cache, kappa):
            for variant in ("curl", "grad"):
                space = harmonic_space(Region(sysm, pair.outer), variant)
                m, free = split_local_basis(space)
                seen |= {"m = 0"} if m == 0 else set()
                seen |= {"no unit column"} if free.size == 0 else set()
                _, den, inner = region_grams(space, pair)
                z = local_basis(space)
                chol = scipy.linalg.cholesky(z.conj().T @ (den @ z), lower=True)
                for rows in (inner, np.union1d(inner, free[::7])):
                    if not rows.size:
                        continue
                    seen |= {"I and free"} if np.isin(rows, free).any() else set()
                    w = _whitened_inner_rows(space, den, rows)
                    assert w.shape == (z.shape[1], rows.size)
                    dense = scipy.linalg.solve_triangular(
                        chol, z[rows].conj().T, lower=True)
                    want = dense.conj().T @ dense
                    assert np.abs(w.conj().T @ w - want).max() <= (
                        1e-12 * np.abs(want).max())
    assert seen == {"m = 0", "no unit column", "I and free"}


def test_outer_gram_that_is_not_positive_definite_raises(system_cache,
                                                         monkeypatch):
    """A failed factorization stays a check failure. With the region Gram D
    negated, the banded factor of D[free, free] raises LinAlgError at n = 8;
    on the n = 6 mesh-aligned box, which has no unit column, the Schur
    factor of N^H D N does."""
    raised = []

    def spy(name):
        real = getattr(scipy.linalg, name)

        def call(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except np.linalg.LinAlgError:
                raised.append(name)
                raise
        monkeypatch.setattr(scipy.linalg, name, call)
    spy("cholesky_banded")
    spy("cholesky")
    _, aligned, interior = gram_cases(system_cache, 1.0)
    for (sysm, pair), factor in ((interior, "cholesky_banded"),
                                 (aligned, "cholesky")):
        for variant in ("curl", "grad"):
            space = harmonic_space(Region(sysm, pair.outer), variant)
            _, den, rows = region_grams(space, pair)
            assert (space.free.size == 0) == (factor == "cholesky")
            _whitened_inner_rows(space, den, rows)
            raised.clear()
            with pytest.raises(np.linalg.LinAlgError):
                _whitened_inner_rows(space, -den, rows)
            assert raised == [factor]


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_blockwise_gram_matches_dense_gram_n8(system_cache, kappa):
    """At n = 8 the ratio from the blockwise outer Gram matches the dense
    Z^H (D Z) formula to 1e-12 relative, and the residual of N alone
    matches the max of the dense product with every column, whose unit
    columns meet only zeros."""
    sysm = system_cache(8, kappa)
    for pair in default_pairs().values():
        for variant in ("curl", "grad"):
            space = harmonic_space(Region(sysm, pair.outer), variant)
            res = caccioppoli_ratio(space, pair)
            assert res.ratio > 0.0
            assert res.ratio == pytest.approx(
                dense_gram_caccioppoli(space, pair), rel=1e-12)
            m, _ = split_local_basis(space)
            constraints, z = constraint_block(space), local_basis(space)
            dense = constraints @ z
            assert not dense[:, m:].any()
            # the same entries summed over |O| or over |hit| terms: they
            # differ by rounding, at most 2 |O| eps |C| |Z| entrywise
            slack = (2 * space.dofs.size * np.finfo(float).eps
                     * (np.abs(constraints) @ np.abs(z)).max())
            assert abs(constraint_residual(space) - np.abs(dense).max()) <= slack
            assert constraint_residual(space) <= 1e-10


def test_caccioppoli_forms_no_d_by_d_array(system_cache):
    """At n = 8 on the interior curl pair, caccioppoli_ratio allocates less
    than one d x d real array above what it is handed: the outer Gram is
    never formed, only its banded corner factor and blocks of m or |I|
    columns."""
    sysm = system_cache(8)
    pair = default_pairs()["interior"]
    space = harmonic_space(Region(sysm, pair.outer), "curl")
    d = local_basis(space).shape[1]
    assert d == 1370
    tracemalloc.start()
    try:
        caccioppoli_ratio(space, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8


def test_caccioppoli_without_constraints_or_unit_columns(system_cache):
    """The corner cases of the block layout. A box that constrains no row
    has m = 0: no residual, and its inner box holds no whole tet. The
    mesh-aligned box [0, 2/3]^3 at n = 6 has constraint rows touching all
    of O, so the basis is N alone, and the ratio matches the dense Gram's."""
    tiny = ConcentricPair((0.3, 0.5, 0.5), 0.1, 1.0)
    space = harmonic_space(Region(system_cache(3), tiny.outer), "curl")
    assert space.hit.size == 0 and space.constraint_rows.size == 0
    assert constraint_residual(space) == 0.0
    assert caccioppoli_ratio(space, tiny).ratio == 0.0
    aligned = ConcentricPair((1 / 3,) * 3, 1 / 3, 1.0)
    for variant in ("curl", "grad"):
        space = harmonic_space(Region(system_cache(6), aligned.outer), variant)
        m, free = split_local_basis(space)
        assert free.size == 0 and m == local_basis(space).shape[1] > 0
        res = caccioppoli_ratio(space, aligned)
        assert res.ratio > 0.0
        assert res.ratio == pytest.approx(dense_gram_caccioppoli(space, aligned),
                                          rel=1e-12)
        assert constraint_residual(space) <= 1e-10


# local Helmholtz -------------------------------------------------------------

def test_helmholtz_on_whole_domain(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    u = rng.standard_normal(sys3.n_dofs)
    rep = helmholtz_report(Region(sys3, region), u)
    assert rep["orthogonality_residual"] <= 1e-10
    assert rep["pythagoras_defect"] <= 1e-10
    assert rep["norm_e2"] > 0


def test_helmholtz_on_sub_box(sys3, rng):
    region = BoxRegion((0.4, 0.5, 0.5), 0.55)
    u = rng.standard_normal(sys3.n_dofs)
    rep = helmholtz_report(Region(sys3, region), u)
    assert rep["orthogonality_residual"] <= 1e-10
    assert rep["pythagoras_defect"] <= 1e-10


def test_helmholtz_orthogonality_covers_the_grounded_vertex(system_cache, rng):
    """The nodal space keeps its region's off-boundary vertices, grounded one
    included, and helmholtz_report tests z against all their hats: at n = 8
    the interior pair grounds vertex 91 of 307, the boundary pair none."""
    sysm = system_cache(8)
    m = sysm.mesh
    u = rng.standard_normal(sysm.n_dofs)
    for label, pair in default_pairs().items():
        region = Region(sysm, pair.outer)
        nodal = region.nodal
        verts = np.unique(m.tets[region.tets])
        assert np.array_equal(nodal.vertices, verts[~m.boundary_vertex[verts]])
        grounded = np.setdiff1d(nodal.vertices, nodal.free_vertices)
        assert (nodal.vertices.size, grounded.tolist()) == {
            "interior": (307, [91]), "boundary": (177, [])}[label]
        rep = helmholtz_report(region, u)
        grad = sysm.incidence.T @ (region.mass @ rep["z"])
        assert rep["orthogonality_residual"] == np.abs(grad[nodal.vertices]).max()


def test_helmholtz_reproduces_pure_gradients(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    ns = build_nodal_space(sys3)
    G = discrete_gradient(ns)
    u = G @ rng.standard_normal(ns.free_vertices.size)
    rep = helmholtz_report(Region(sys3, region), u)
    z, p = rep["z"], rep["p"]
    assert np.linalg.norm(z) < 1e-10 * np.linalg.norm(u)
    assert np.linalg.norm(sys3.incidence @ p - u) < 1e-10 * np.linalg.norm(u)


def test_helmholtz_z_part_projects_to_zero(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    u = rng.standard_normal(sys3.n_dofs)
    z = helmholtz_report(Region(sys3, region), u)["z"]
    rep = helmholtz_report(Region(sys3, region), z)
    z2, p2 = rep["z"], rep["p"]
    assert np.linalg.norm(sys3.incidence @ p2) < 1e-10 * np.linalg.norm(z)
    assert np.linalg.norm(z2 - z) < 1e-10 * np.linalg.norm(z)


# Lemma-style gradient-part check ---------------------------------------------

def assert_block_is_max_of_columns(sysm, box, block):
    """One call on a block of columns equals the max of per-column calls."""
    region = Region(sysm, box)
    each = [gradient_part_harmonic_check(region, [block[:, [j]]])
            for j in range(block.shape[1])]
    whole = gradient_part_harmonic_check(region, [block])
    assert whole == pytest.approx(max(each), rel=1e-10, abs=1e-15)
    return whole


def test_gradient_parts_of_harmonic_columns(system_cache):
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = system_cache(4, kappa)
        space = harmonic_space(Region(sysm, region), "curl")
        cols = embedded_basis(space, sysm.n_dofs)[:, ::max(1, space.dim // 6)]
        assert np.iscomplexobj(cols) == (kappa.imag != 0)
        assert assert_block_is_max_of_columns(sysm, region, cols) <= 1e-9


def test_gradient_part_negative_control(system_cache, rng):
    """Generic fields are nowhere near discretely harmonic."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = system_cache(4, kappa)
        u = rng.standard_normal((sysm.n_dofs, 5))
        if np.iscomplexobj(sysm.A):
            u = u + 1j * rng.standard_normal(u.shape)
        u /= np.linalg.norm(u, axis=0)
        assert assert_block_is_max_of_columns(sysm, region, u) > 1e-4


# exact sequence --------------------------------------------------------------

def test_recover_inverts_the_gradient(sys4, rng):
    region = BoxRegion((0.45, 0.45, 0.45), 0.6)
    nodal = Region(sys4, region).nodal
    ns = build_nodal_space(sys4)
    G = discrete_gradient(ns)
    for _ in range(5):
        q = rng.standard_normal(ns.free_vertices.size)
        v = G @ q
        phi, _ = exact_sequence_recover(nodal, v)
        # gradients agree on the region's interior edges
        g = np.zeros(sys4.n_dofs)
        m = sys4.mesh
        dof_edges = sys4.dofmap.interior_edges
        g = phi[m.edges[dof_edges, 1]] - phi[m.edges[dof_edges, 0]]
        region_dofs = region_edge_dofs(sys4, region)
        assert np.abs((g - v)[region_dofs]).max() < 1e-12 * np.abs(v).max()


def region_edge_dofs(sysm, region):
    edges = np.unique(sysm.mesh.tet_edges[conforming(sysm.mesh, region)])
    dofs = sysm.dofmap.edge_to_dof[edges]
    return dofs[dofs >= 0]


def test_recover_zero_field(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    nodal = Region(sys3, region).nodal
    phi, _ = exact_sequence_recover(nodal, np.zeros(sys3.n_dofs))
    g = phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 1]] \
        - phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 0]]
    assert np.abs(g[region_edge_dofs(sys3, region)]).max() < 1e-14


def test_recover_rejects_rotational_input(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    nodal = Region(sys3, region).nodal
    u = rng.standard_normal(sys3.n_dofs)
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(nodal, u)


def test_recover_block_equals_columns(rng):
    """A block of fields (N, m) gives the per-column potentials, real and
    complex, in one call."""
    region = BoxRegion((0.45, 0.45, 0.45), 0.6)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = assemble_system(build_box_mesh(4), kappa=kappa)
        nodal = Region(sysm, region).nodal
        G = discrete_gradient(build_nodal_space(sysm))
        v = G @ rng.standard_normal((G.shape[1], 4))
        v[:, 2] = 0.0
        if np.iscomplexobj(sysm.A):
            v = v + 1j * (G @ rng.standard_normal((G.shape[1], 4)))
        phi, resid = exact_sequence_recover(nodal, v)
        assert phi.shape == (sysm.mesh.n_vertices, 4) and phi.dtype == v.dtype
        assert resid.shape == (4,) and np.all(resid <= 1e-12)
        if not np.iscomplexobj(v):
            assert resid[2] == 0.0  # a zero column reads 0, not 0/0
        for j in range(4):
            col, res = exact_sequence_recover(nodal, v[:, j])
            assert np.abs(phi[:, j] - col).max() <= 1e-12 * max(np.abs(col).max(), 1.0)
            assert res.shape == () and res <= 1e-12


def test_recover_block_rejects_one_rotational_column(sys3, rng):
    """Each column is held to its own norm: one rotational column among
    gradients, even a tiny one, fails the block."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    nodal = Region(sys3, region).nodal
    G = discrete_gradient(build_nodal_space(sys3))
    v = G @ rng.standard_normal((G.shape[1], 5))
    v[:, 3] = 1e-12 * rng.standard_normal(sys3.n_dofs)
    exact_sequence_recover(nodal, v[:, [0, 1, 2, 4]])
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(nodal, v)


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j], ids=["κ=1", "κ=1+0.5i"])
@pytest.mark.parametrize("n", [3, 5])
def test_recover_guard_band(system_cache, n, kappa):
    """On the interior outer box, a discrete gradient perturbed by a random
    field of 1e-8 of its norm on the region is rejected as not curl-free,
    one perturbed by 1e-11 is accepted, and the recovered potential's edge
    differences match the gradient on the region's DOF edges to 1e-12."""
    sysm = system_cache(n, kappa)
    region = default_pairs()["interior"].outer
    nodal = Region(sysm, region).nodal
    rows = region_edge_dofs(sysm, region)
    rng = np.random.default_rng(7)
    G = discrete_gradient(build_nodal_space(sysm))
    q = rng.standard_normal((G.shape[1], 4))
    if np.iscomplexobj(sysm.kappa):
        q = q + 1j * rng.standard_normal(q.shape)
    v = G @ q
    w = rng.standard_normal(v.shape)
    w *= np.linalg.norm(v[rows], axis=0) / np.linalg.norm(w[rows], axis=0)
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(nodal, v + 1e-8 * w)
    exact_sequence_recover(nodal, v + 1e-11 * w)
    phi, resid = exact_sequence_recover(nodal, v)
    lo, hi = sysm.mesh.edges[sysm.dofmap.interior_edges].T
    err = np.linalg.norm((phi[hi] - phi[lo] - v)[rows], axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(v[rows], axis=0))
    # the returned residual is the guard's, on the same rows, bitwise
    want = (np.linalg.norm((sysm.incidence @ phi)[rows] - v[rows], axis=0)
            / np.linalg.norm(v[rows], axis=0))
    assert same_bits(resid, want)


def test_recover_rejects_circulation_around_a_hole(system_cache):
    """On a ring of tets around the axis x = y = 0.5 (n = 5, one cell layer
    thick), the wrapped angle differences are curl-free on every tet, so
    they pass the curl pre-check, but circulate 2 pi around the hole: only
    the residual guard rejects them. A gradient on the same ring passes."""
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = system_cache(5, kappa)
        mesh = sysm.mesh
        c = mesh.vertices[mesh.tets].mean(axis=1)
        r = np.abs(c[:, :2] - 0.5).max(axis=1)
        tets = np.flatnonzero((r > 0.1) & (r < 0.3) & (np.abs(c[:, 2] - 0.5) < 0.1))
        lo, hi = mesh.edges[sysm.dofmap.interior_edges].T
        theta = np.arctan2(mesh.vertices[:, 1] - 0.5, mesh.vertices[:, 0] - 0.5)
        v = np.zeros(sysm.n_dofs)
        rows = np.unique(sysm.dofmap.edge_to_dof[mesh.tet_edges[tets]])
        v[rows] = np.angle(np.exp(1j * (theta[hi] - theta[lo])))[rows]
        nodal = region_nodal_space(sysm, tets)
        with pytest.raises(ValueError, match="not simply connected"):
            exact_sequence_recover(nodal, v)
        p = np.where(mesh.boundary_vertex, 0.0, theta)
        exact_sequence_recover(nodal, p[hi] - p[lo])


def test_recover_reuses_the_nodal_solve(system_cache, monkeypatch):
    """Recovery solves through the region's nodal space, with no least
    squares, and the discrete gradient is the column slice of the system's
    one incidence, bitwise."""
    sysm = system_cache(3)
    nodal = Region(sysm, BoxRegion((0.5, 0.5, 0.5), 0.8)).nodal
    G = discrete_gradient(sysm.nodal)
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    exact_sequence_recover(nodal, G @ np.ones(G.shape[1]))
    assert calls == []
    want = sysm.incidence[:, sysm.nodal.free_vertices]
    assert G.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(G, name), getattr(want, name))


def test_recover_harmonic_gradient_component(sys4):
    """The gradient part of a harmonic column is itself curl-free, so the
    potential recovery applies to it on the region."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    space = harmonic_space(Region(sys4, region), "curl")
    p = helmholtz_report(space.region, embedded_basis(space, sys4.n_dofs)[:, 0])["p"]
    v = sys4.incidence @ p
    phi, _ = exact_sequence_recover(space.region.nodal, v)
    g = phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 1]] \
        - phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 0]]
    dofs = region_edge_dofs(sys4, region)
    assert np.abs((g - v)[dofs]).max() < 1e-9 * max(np.abs(v).max(), 1e-30)
