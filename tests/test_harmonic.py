"""Region machinery, discrete harmonic spaces, Caccioppoli quotients,
local Helmholtz splits and the exact-sequence recovery."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hmaxwell import (
    BoxRegion,
    ConcentricPair,
    assemble_system,
    build_box_mesh,
    caccioppoli_ratio,
    constraint_residual,
    default_pairs,
    exact_sequence_recover,
    gradient_edge_coeffs,
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
    scatter,
    solve_system,
)
from test_mesh import same_bits


# region geometry -----------------------------------------------------------

def test_box_region_bounds():
    r = BoxRegion((0.5, 0.5, 0.5), 0.4)
    assert np.allclose(r.lo, 0.3) and np.allclose(r.hi, 0.7)
    pair = ConcentricPair((0.5, 0.5, 0.5), 0.4, 0.5)
    assert np.all(pair.inner.lo >= pair.outer.lo)
    assert np.all(pair.inner.hi <= pair.outer.hi)
    assert abs(pair.outer.side - 0.6) < 1e-15


def test_default_pairs_fit_in_the_cube():
    pairs = default_pairs(1.0)
    assert set(pairs) == {"interior", "boundary"}
    inner = pairs["interior"]
    assert np.all(inner.outer.lo >= 0.0) and np.all(inner.outer.hi <= 1.0)
    # the boundary pair pokes out of the domain on purpose
    assert np.any(pairs["boundary"].outer.lo < 0.0)
    assert pairs["interior"] == ConcentricPair((0.5, 0.5, 0.5), 0.4, 0.5)
    assert pairs["boundary"] == ConcentricPair((0.1, 0.5, 0.5), 0.4, 0.5)


@pytest.mark.parametrize("length", [0.05, 1.0 / 3.0, 2.5, 100.0])
def test_default_pairs_scale_with_the_box(mesh_cache, length):
    """On [0, length]^3 the default boxes hold the same tets as on the
    unit cube, box faces on mesh planes included."""
    pairs = default_pairs(length)
    for n in (1, 2, 3, 4, 5, 8, 10):
        unit, scaled = mesh_cache(n), mesh_cache(n, length)
        for label, pair in default_pairs(1.0).items():
            for box, want in ((pairs[label].inner, pair.inner),
                              (pairs[label].outer, pair.outer)):
                assert np.array_equal(box.conforming_tets(scaled),
                                      want.conforming_tets(unit))
                assert np.array_equal(box.inside_tets(scaled),
                                      want.inside_tets(unit))


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
    tol = 1e-12 * mesh.length
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
    that plane touch the box along a line. A radius between 1e-10 L and
    1e-7 L would be too close to call and must not occur."""
    m = mesh_cache(n)
    length = m.length
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
            ambiguous += bool(1e-10 * length < r < 1e-7 * length)
            assert flagged[t] == (r >= 1e-7 * length), (lo, hi, t, r)
    assert ambiguous == 0


def test_batched_tet_box_test_on_default_pairs(mesh_cache):
    m = mesh_cache(8)
    for pair in default_pairs(m.length).values():
        for box in (pair.inner, pair.outer):
            got = tets_intersecting_box(m, box.lo, box.hi)
            assert got.size > 0
            assert np.array_equal(got, reference_intersecting(m, box.lo, box.hi))


def test_conforming_region_contains_the_box(mesh_cache):
    m = mesh_cache(3)
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    conf = region.conforming_tets(m)
    ins = region.inside_tets(m)
    assert set(ins.tolist()) <= set(conf.tolist())
    assert len(conf) > len(ins)


# harmonic spaces -------------------------------------------------------------

@pytest.fixture(scope="module")
def sys3():
    return assemble_system(build_box_mesh(3))


@pytest.fixture(scope="module")
def sys4():
    return assemble_system(build_box_mesh(4))


def embedded_basis(space, n):
    """(n, dim) embedding of a space with n coordinates: the local columns
    on O first, then one unit vector per coordinate off O."""
    z = space.local_basis
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
        space = harmonic_space(sys4, region, variant)
        assert space.dim > 0
        assert constraint_residual(space) <= 1e-10
        # columns are orthonormal
        b = embedded_basis(space, sizes[variant])
        assert np.abs(b.conj().T @ b - np.eye(space.dim)).max() < 1e-10


def test_harmonic_space_without_constraints_is_everything(sys3):
    region = BoxRegion((0.05, 0.05, 0.05), 0.01)  # swallows no support
    space = harmonic_space(sys3, region, "curl")
    assert space.dim == sys3.n_dofs
    assert space.constraint_rows.size == 0


def test_whole_domain_curl_space_is_trivial(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    space = harmonic_space(sys3, region, "curl")
    assert space.dim == 0


def test_constraint_rows_match_support_inclusion(sys4):
    """A row is constrained iff every tet of its edge lies in the closed
    box, recomputed here vertexwise."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    space = harmonic_space(sys4, region, "curl")
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
    space = harmonic_space(sys3, region, "curl")  # dim 0
    res = caccioppoli_ratio(space, default_pairs(sys3.mesh.length)["interior"])
    assert res.ratio == 0.0 and res.normalized == 0.0
    assert res.dim == 0


def test_caccioppoli_n4_inner_box_is_empty(sys4):
    pair = default_pairs(sys4.mesh.length)["interior"]
    assert tets_inside_box(sys4.mesh, pair.inner.lo, pair.inner.hi).size == 0
    space = harmonic_space(sys4, pair.outer, "curl")
    res = caccioppoli_ratio(space, pair)
    assert res.ratio == 0.0
    assert res.n_inner_tets == 0
    assert not res.hypothesis_satisfied  # h/R < eps/4 needs much finer meshes


def test_gradients_contribute_nothing_to_curl_numerator(sys3, rng):
    pair = ConcentricPair((0.5, 0.5, 0.5), 0.6, 0.5)
    inner = pair.inner.inside_tets(sys3.mesh)
    assert inner.size > 0
    k_inner = assemble_region_matrix(sys3, inner, "curl")
    ns = build_nodal_space(sys3)
    G = discrete_gradient(ns)
    q = rng.standard_normal(ns.free_vertices.size)
    v = G @ q
    assert abs(v @ (k_inner @ v)) < 1e-12 * max(1.0, v @ v)


def test_caccioppoli_positive_on_fine_mesh():
    pair = default_pairs(1.0)["interior"]
    sysm = assemble_system(build_box_mesh(6))
    space = harmonic_space(sysm, pair.outer, "curl")
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
    outside[pair.outer.inside_tets(mesh)] = False
    inner = pair.inner.inside_tets(mesh)
    outer = pair.outer.conforming_tets(mesh)
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
    for pair in default_pairs(sysm.mesh.length).values():
        for variant in ("curl", "grad"):
            space = harmonic_space(sysm, pair.outer, variant)
            mat, rows, dim, normalized = reference_caccioppoli(sysm, pair,
                                                               variant)
            res = caccioppoli_ratio(space, pair)
            assert np.array_equal(space.constraint_rows, rows)
            assert res.dim == space.dim == dim
            assert res.normalized == pytest.approx(normalized, rel=1e-10,
                                                   abs=1e-300)
            block = mat[np.ix_(rows, space.dofs)]
            assert same_bits(space.constraints, block)
            off = np.setdiff1d(np.arange(mat.shape[0]), space.dofs)
            assert not mat[np.ix_(rows, off)].any()
            b = embedded_basis(space, mat.shape[0])
            assert np.abs(b.conj().T @ b - np.eye(dim)).max() < 1e-10


# local Helmholtz -------------------------------------------------------------

def test_helmholtz_on_whole_domain(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    u = rng.standard_normal(sys3.n_dofs)
    rep = helmholtz_report(sys3, region, u)
    assert rep["orthogonality_residual"] <= 1e-10
    assert rep["pythagoras_defect"] <= 1e-10
    assert rep["norm_e2"] > 0


def test_helmholtz_on_sub_box(sys3, rng):
    region = BoxRegion((0.4, 0.5, 0.5), 0.55)
    u = rng.standard_normal(sys3.n_dofs)
    rep = helmholtz_report(sys3, region, u)
    assert rep["orthogonality_residual"] <= 1e-10
    assert rep["pythagoras_defect"] <= 1e-10


def test_helmholtz_reproduces_pure_gradients(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    ns = build_nodal_space(sys3)
    G = discrete_gradient(ns)
    u = G @ rng.standard_normal(ns.free_vertices.size)
    rep = helmholtz_report(sys3, region, u)
    z, p = rep["z"], rep["p"]
    assert np.linalg.norm(z) < 1e-10 * np.linalg.norm(u)
    assert np.linalg.norm(gradient_edge_coeffs(sys3, p) - u) < 1e-10 * np.linalg.norm(u)


def test_helmholtz_z_part_projects_to_zero(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    u = rng.standard_normal(sys3.n_dofs)
    z = helmholtz_report(sys3, region, u)["z"]
    rep = helmholtz_report(sys3, region, z)
    z2, p2 = rep["z"], rep["p"]
    assert np.linalg.norm(gradient_edge_coeffs(sys3, p2)) < 1e-10 * np.linalg.norm(z)
    assert np.linalg.norm(z2 - z) < 1e-10 * np.linalg.norm(z)


# Lemma-style gradient-part check ---------------------------------------------

def assert_block_is_max_of_columns(sysm, region, block):
    """One call on a block of columns equals the max of per-column calls."""
    tets = region.conforming_tets(sysm.mesh)
    each = [gradient_part_harmonic_check(sysm, region, tets, block[:, j])
            for j in range(block.shape[1])]
    whole = gradient_part_harmonic_check(sysm, region, tets, block)
    assert whole == pytest.approx(max(each), rel=1e-10, abs=1e-15)
    return whole


def test_gradient_parts_of_harmonic_columns(system_cache):
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = system_cache(4, kappa)
        space = harmonic_space(sysm, region, "curl")
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
    tets = region.conforming_tets(sys4.mesh)
    ns = build_nodal_space(sys4)
    G = discrete_gradient(ns)
    for _ in range(5):
        q = rng.standard_normal(ns.free_vertices.size)
        v = G @ q
        phi = exact_sequence_recover(sys4, tets, v)
        # gradients agree on the region's interior edges
        g = np.zeros(sys4.n_dofs)
        m = sys4.mesh
        dof_edges = sys4.dofmap.interior_edges
        g = phi[m.edges[dof_edges, 1]] - phi[m.edges[dof_edges, 0]]
        region_dofs = region_edge_dofs(sys4, region)
        assert np.abs((g - v)[region_dofs]).max() < 1e-12 * np.abs(v).max()


def region_edge_dofs(sysm, region):
    conf = region.conforming_tets(sysm.mesh)
    edges = np.unique(sysm.mesh.tet_edges[conf])
    dofs = sysm.dofmap.edge_to_dof[edges]
    return dofs[dofs >= 0]


def test_recover_zero_field(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    tets = region.conforming_tets(sys3.mesh)
    phi = exact_sequence_recover(sys3, tets, np.zeros(sys3.n_dofs))
    g = phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 1]] \
        - phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 0]]
    assert np.abs(g[region_edge_dofs(sys3, region)]).max() < 1e-14


def test_recover_rejects_rotational_input(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    tets = region.conforming_tets(sys3.mesh)
    u = rng.standard_normal(sys3.n_dofs)
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(sys3, tets, u)


def test_recover_block_equals_columns(rng):
    """A block of fields (N, m) gives the per-column potentials, real and
    complex, in one call."""
    region = BoxRegion((0.45, 0.45, 0.45), 0.6)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = assemble_system(build_box_mesh(4), kappa=kappa)
        tets = region.conforming_tets(sysm.mesh)
        G = discrete_gradient(build_nodal_space(sysm))
        v = G @ rng.standard_normal((G.shape[1], 4))
        v[:, 2] = 0.0
        if np.iscomplexobj(sysm.A):
            v = v + 1j * (G @ rng.standard_normal((G.shape[1], 4)))
        phi = exact_sequence_recover(sysm, tets, v)
        assert phi.shape == (sysm.mesh.n_vertices, 4) and phi.dtype == v.dtype
        for j in range(4):
            col = exact_sequence_recover(sysm, tets, v[:, j])
            assert np.abs(phi[:, j] - col).max() <= 1e-12 * max(np.abs(col).max(), 1.0)


def test_recover_block_rejects_one_rotational_column(sys3, rng):
    """Each column is held to its own norm: one rotational column among
    gradients, even a tiny one, fails the block."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    tets = region.conforming_tets(sys3.mesh)
    G = discrete_gradient(build_nodal_space(sys3))
    v = G @ rng.standard_normal((G.shape[1], 5))
    v[:, 3] = 1e-12 * rng.standard_normal(sys3.n_dofs)
    exact_sequence_recover(sys3, tets, v[:, [0, 1, 2, 4]])
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(sys3, tets, v)


def test_recover_harmonic_gradient_component(sys4):
    """The gradient part of a harmonic column is itself curl-free, so the
    potential recovery applies to it on the region."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    space = harmonic_space(sys4, region, "curl")
    p = helmholtz_report(sys4, region, embedded_basis(space, sys4.n_dofs)[:, 0])["p"]
    v = gradient_edge_coeffs(sys4, p)
    phi = exact_sequence_recover(sys4, space.tets, v)
    g = phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 1]] \
        - phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 0]]
    dofs = region_edge_dofs(sys4, region)
    assert np.abs((g - v)[dofs]).max() < 1e-9 * max(np.abs(v).max(), 1e-30)
