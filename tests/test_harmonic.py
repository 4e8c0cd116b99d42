"""Region machinery, discrete harmonic spaces, Caccioppoli quotients,
local Helmholtz splits and the exact-sequence recovery."""

import numpy as np
import pytest
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
    local_helmholtz,
    tets_inside_box,
    tets_intersecting_box,
)
from hmaxwell.fem import (
    assemble_region_matrix,
    build_nodal_space,
    discrete_gradient,
    solve_system,
)


# region geometry -----------------------------------------------------------

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


def test_harmonic_space_constraints(sys4):
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    for variant in ("curl", "grad"):
        space = harmonic_space(sys4, region, variant)
        assert space.dim > 0
        assert constraint_residual(space) <= 1e-10
        # columns are orthonormal
        g = space.basis.conj().T @ space.basis
        assert np.abs(g - np.eye(space.dim)).max() < 1e-10


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
        for t in m.edge_tets[e]:
            verts = m.vertices[m.tets[t]]
            if np.any(verts < region.lo - 1e-12) or np.any(verts > region.hi + 1e-12):
                ok = False
                break
        assert (d in rows) == ok


# Caccioppoli -----------------------------------------------------------------

def test_caccioppoli_empty_basis_ratio_zero(sys3):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    space = harmonic_space(sys3, region, "curl")  # dim 0
    res = caccioppoli_ratio(space, default_pairs()["interior"])
    assert res.ratio == 0.0 and res.normalized == 0.0
    assert res.dim == 0


def test_caccioppoli_n4_inner_box_is_empty(sys4):
    pair = default_pairs()["interior"]
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
    G = discrete_gradient(sys3.mesh, sys3.dofmap, ns)
    q = rng.standard_normal(ns.n_dofs)
    v = G @ q
    assert abs(v @ (k_inner @ v)) < 1e-12 * max(1.0, v @ v)


def test_caccioppoli_positive_on_fine_mesh():
    pair = default_pairs()["interior"]
    sysm = assemble_system(build_box_mesh(6))
    space = harmonic_space(sysm, pair.outer, "curl")
    res = caccioppoli_ratio(space, pair)
    assert res.ratio > 0.0
    assert abs(res.normalized - res.ratio * pair.eps / (1.0 + pair.eps)) < 1e-12
    # direction-wise cap: curl part of the outer norm already bounds the
    # quotient by (R'/h)^2
    rprime = (1.0 + pair.eps) * pair.r
    assert res.ratio <= (rprime / sysm.mesh.h) ** 2 * (1.0 + 1e-9)


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
    G = discrete_gradient(sys3.mesh, sys3.dofmap, ns)
    u = G @ rng.standard_normal(ns.n_dofs)
    z, p = local_helmholtz(sys3, region, u)
    assert np.linalg.norm(z) < 1e-10 * np.linalg.norm(u)
    assert np.linalg.norm(gradient_edge_coeffs(sys3, p) - u) < 1e-10 * np.linalg.norm(u)


def test_helmholtz_z_part_projects_to_zero(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 1.0)
    u = rng.standard_normal(sys3.n_dofs)
    z, _ = local_helmholtz(sys3, region, u)
    z2, p2 = local_helmholtz(sys3, region, z)
    assert np.linalg.norm(gradient_edge_coeffs(sys3, p2)) < 1e-10 * np.linalg.norm(z)
    assert np.linalg.norm(z2 - z) < 1e-10 * np.linalg.norm(z)


# Lemma-style gradient-part check ---------------------------------------------

def assert_block_is_max_of_columns(sysm, region, block):
    """One call on a block of columns equals the max of per-column calls."""
    each = [gradient_part_harmonic_check(sysm, region, block[:, j])
            for j in range(block.shape[1])]
    whole = gradient_part_harmonic_check(sysm, region, block)
    assert whole == pytest.approx(max(each), rel=1e-10, abs=1e-15)
    return whole


def test_gradient_parts_of_harmonic_columns(system_cache):
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    for kappa in (1.0, 1.0 + 0.5j):
        sysm = system_cache(4, kappa)
        space = harmonic_space(sysm, region, "curl")
        cols = space.basis[:, ::max(1, space.dim // 6)]
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
    ns = build_nodal_space(sys4)
    G = discrete_gradient(sys4.mesh, sys4.dofmap, ns)
    for _ in range(5):
        q = rng.standard_normal(ns.n_dofs)
        v = G @ q
        phi = exact_sequence_recover(sys4.mesh, region, v, sys4.dofmap)
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
    phi = exact_sequence_recover(sys3.mesh, region, np.zeros(sys3.n_dofs))
    g = phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 1]] \
        - phi[sys3.mesh.edges[sys3.dofmap.interior_edges, 0]]
    assert np.abs(g[region_edge_dofs(sys3, region)]).max() < 1e-14


def test_recover_rejects_rotational_input(sys3, rng):
    region = BoxRegion((0.5, 0.5, 0.5), 0.8)
    u = rng.standard_normal(sys3.n_dofs)
    with pytest.raises(ValueError, match="not curl-free"):
        exact_sequence_recover(sys3.mesh, region, u)


def test_recover_harmonic_gradient_component(sys4):
    """The gradient part of a harmonic column is itself curl-free, so the
    potential recovery applies to it on the region."""
    region = BoxRegion((0.5, 0.5, 0.5), 0.5)
    space = harmonic_space(sys4, region, "curl")
    _, p = local_helmholtz(sys4, region, space.basis[:, 0])
    v = gradient_edge_coeffs(sys4, p)
    phi = exact_sequence_recover(sys4.mesh, region, v, sys4.dofmap)
    g = phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 1]] \
        - phi[sys4.mesh.edges[sys4.dofmap.interior_edges, 0]]
    dofs = region_edge_dofs(sys4, region)
    assert np.abs((g - v)[dofs]).max() < 1e-9 * max(np.abs(v).max(), 1e-30)
