"""Global assembly against an independent reference assembler.

The reference loop below builds K and M from the closed-form local
matrices (see test_whitney) with its own sign handling, then scatters
them entry by entry. The production assembler must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmaxwell import (
    LOCAL_EDGES,
    TetElement,
    assemble_system,
    build_box_mesh,
    dual_basis,
    dual_norms,
    gradient_edge_coeffs,
    hcurl_norm,
    l2_project,
    pi_nabla_project,
    region_nodal_space,
    rhs_vector,
    solve_system,
)
from hmaxwell.fem import (
    apply_dual_functionals,
    assemble_region_matrix,
    build_dof_map,
    build_nodal_space,
    discrete_gradient,
    matrix_to_coordinate_text,
    riesz_rhs,
    scatter,
)
from hmaxwell.whitney import element_tensors
from test_whitney import curl_oracle, mass_oracle


def reference_assembly(mesh, dofmap, kappa):
    n = dofmap.n_dofs
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    dof_of_edge = dofmap.edge_to_dof
    for t in range(mesh.n_tets):
        el = TetElement(mesh.vertices[mesh.tets[t]])
        kloc, mloc = curl_oracle(el), mass_oracle(el)
        signs = mesh.tet_edge_signs[t]
        for i in range(6):
            gi = dof_of_edge[mesh.tet_edges[t, i]]
            if gi < 0:
                continue
            for j in range(6):
                gj = dof_of_edge[mesh.tet_edges[t, j]]
                if gj < 0:
                    continue
                K[gi, gj] += signs[i] * signs[j] * kloc[i, j]
                M[gi, gj] += signs[i] * signs[j] * mloc[i, j]
    return K, M, K - kappa * M


@pytest.mark.parametrize("n,kappa", [(1, 1.0), (2, 1.0), (2, 2.5)])
def test_assembly_matches_reference(n, kappa, mesh_cache):
    m = mesh_cache(n)
    sysm = assemble_system(m, kappa=kappa)
    K, M, A = reference_assembly(m, sysm.dofmap, kappa)
    scale = np.abs(A).max()
    assert np.abs(sysm.K - K).max() < 1e-13 * scale
    assert np.abs(sysm.M - M).max() < 1e-13 * scale
    assert np.abs(sysm.A - A).max() < 1e-13 * scale


def test_system_is_bitwise_symmetric(system_cache):
    for n in (2, 3):
        sysm = system_cache(n)
        assert np.array_equal(sysm.A, sysm.A.T)
        assert np.array_equal(sysm.K, sysm.K.T)
        assert np.array_equal(sysm.M, sysm.M.T)


def test_complex_kappa_keeps_complex_symmetry():
    m = build_box_mesh(2)
    sysm = assemble_system(m, kappa=1.0 + 0.5j)
    assert sysm.A.dtype == np.complex128
    assert np.array_equal(sysm.A, sysm.A.T)  # symmetric, not hermitian
    assert np.abs(sysm.A - (sysm.K - (1.0 + 0.5j) * sysm.M)).max() == 0.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), kappa_re=st.floats(-20.0, 20.0).filter(bool),
       kappa_im=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
def test_curl_kills_gradients_and_a_is_symmetric(n, kappa_re, kappa_im):
    m = build_box_mesh(n)
    sysm = assemble_system(m, kappa=complex(kappa_re, kappa_im))
    assert np.array_equal(sysm.A, sysm.A.T)
    G = discrete_gradient(m, sysm.dofmap, build_nodal_space(sysm))
    if G.size:
        assert np.abs(sysm.K @ G).max() <= 1e-13 * np.abs(sysm.K).max()


def test_region_matrices_split_the_global_ones(system_cache, rng):
    sysm = system_cache(3)
    tets = np.arange(sysm.mesh.n_tets)
    part = rng.random(tets.size) < 0.5
    for kind, full in (("curl", sysm.K), ("mass", sysm.M)):
        scale = np.abs(full).max()
        whole = assemble_region_matrix(sysm, tets, kind).toarray()
        assert np.abs(whole - full).max() <= 1e-15 * scale
        split = (assemble_region_matrix(sysm, tets[part], kind)
                 + assemble_region_matrix(sysm, tets[~part], kind)).toarray()
        assert np.abs(split - full).max() <= 1e-14 * scale


def test_gradients_span_the_curl_kernel(system_cache, rng):
    sysm = system_cache(3)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(sysm.mesh, sysm.dofmap, ns)
    p = rng.standard_normal((ns.n_dofs, 5))
    gp = G @ p
    resid = np.abs(sysm.K @ gp).max()
    assert resid < 1e-12 * np.linalg.norm(sysm.K) * np.abs(gp).max()
    # on gradients the operator acts through the mass matrix alone
    assert np.allclose(sysm.A @ gp, -sysm.kappa * (sysm.M @ gp), atol=1e-12)


def test_gradient_matrix_is_signed_incidence(system_cache):
    sysm = system_cache(2)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(sysm.mesh, sysm.dofmap, ns)
    m = sysm.mesh
    cols = np.nonzero(G)[1]
    assert set(np.unique(G)) <= {-1.0, 0.0, 1.0}
    for d, e in enumerate(sysm.dofmap.interior_edges):
        lo, hi = m.edges[e]
        for v, val in zip((lo, hi), (-1.0, 1.0)):
            c = ns.vertex_to_dof[v]
            if c >= 0:
                assert G[d, c] == val


@pytest.mark.parametrize("n", [3, 8])
def test_nodal_space_scatters_the_system_tensors(system_cache, n):
    """The nodal matrices come from the system's element tensors, bitwise
    equal to scattering a fresh unsigned kernel call."""
    sysm = system_cache(n)
    m = sysm.mesh
    ns = build_nodal_space(sysm)
    local = element_tensors(m.vertices[m.tets])
    d = ns.vertex_to_dof[m.tets]
    assert np.array_equal(ns.laplacian,
                          scatter(local.nodal_stiffness, d, ns.n_dofs).toarray())
    assert np.array_equal(ns.mass, scatter(local.nodal_mass, d, ns.n_dofs).toarray())


def test_nodal_laplacian_is_gram_of_gradients(system_cache):
    sysm = system_cache(3)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(sysm.mesh, sysm.dofmap, ns)
    lap = G.T @ sysm.M @ G
    assert np.abs(lap - ns.laplacian).max() < 1e-13 * np.abs(lap).max()


def locate_eval(mesh, coeffs, dofmap):
    """Brute-force FE evaluator used to feed projections a space member."""
    elements = [TetElement(mesh.vertices[tet]) for tet in mesh.tets]

    def field(p):
        for t in range(mesh.n_tets):
            el = elements[t]
            lam = el.barycentric(p)[0]
            if np.all(lam > -1e-10):
                local = np.zeros(6)
                for k in range(6):
                    d = dofmap.edge_to_dof[mesh.tet_edges[t, k]]
                    if d >= 0:
                        local[k] = mesh.tet_edge_signs[t, k] * coeffs[d]
                return el.nedelec_eval(local, p[None, :])[0]
        raise ValueError("point outside mesh")

    return field


def test_l2_projection_reproduces_space_members(system_cache, rng):
    sysm = system_cache(2)
    u0 = rng.standard_normal(sysm.n_dofs)
    fld = locate_eval(sysm.mesh, u0, sysm.dofmap)
    u = l2_project(sysm, fld)
    assert np.linalg.norm(u - u0) < 1e-10 * np.linalg.norm(u0)


def test_rhs_vector_is_mass_times_coeffs_for_members(system_cache, rng):
    sysm = system_cache(2)
    u0 = rng.standard_normal(sysm.n_dofs)
    fld = locate_eval(sysm.mesh, u0, sysm.dofmap)
    b = rhs_vector(sysm, fld)
    assert np.linalg.norm(b - sysm.M @ u0) < 1e-10 * np.linalg.norm(b)


def test_solve_system_residual(system_cache, rng):
    sysm = system_cache(3)
    b = rng.standard_normal(sysm.n_dofs)
    x = solve_system(sysm, b)
    assert np.linalg.norm(sysm.A @ x - b) < 1e-10 * np.linalg.norm(b)


def test_hcurl_norm_matches_quadratic_form(system_cache, rng):
    sysm = system_cache(2)
    u = rng.standard_normal(sysm.n_dofs)
    expect = np.sqrt(u @ sysm.K @ u + u @ sysm.M @ u)
    assert abs(hcurl_norm(sysm, u) - expect) < 1e-12 * expect


# dual basis ---------------------------------------------------------------

def test_dual_basis_biorthogonality(system_cache):
    for n in (2, 3):
        sysm = system_cache(n)
        dual = dual_basis(sysm.mesh, sysm.dofmap)
        idx = np.arange(sysm.n_dofs)
        eye = np.empty((sysm.n_dofs, sysm.n_dofs))
        for j in range(sysm.n_dofs):
            e = np.zeros(sysm.n_dofs)
            e[j] = 1.0
            eye[:, j] = apply_dual_functionals(sysm, dual, idx, e)
        assert np.abs(eye - np.eye(sysm.n_dofs)).max() < 1e-12


def test_dual_norm_scaling(mesh_cache):
    """max_i ||lambda_i|| h^{1/2} stays within a fixed band as h shrinks."""
    vals = []
    for n in (2, 3, 4, 6):
        m = mesh_cache(n)
        sysm = assemble_system(m)
        dual = dual_basis(m, sysm.dofmap)
        vals.append(dual_norms(sysm, dual).max() * np.sqrt(m.h))
    assert max(vals) / min(vals) < 2.0


def test_riesz_rhs_pads_the_coefficients(system_cache, rng):
    """<sum b_i lambda_i, psi_j> = b_j on the chosen rows, 0 elsewhere."""
    sysm = system_cache(3)
    dual = dual_basis(sysm.mesh, sysm.dofmap)
    idx = np.array([0, 5, 17, 42])
    b = rng.standard_normal(idx.size)
    f = riesz_rhs(sysm, dual, idx, b)
    expect = np.zeros(sysm.n_dofs)
    expect[idx] = b
    assert np.abs(f - expect).max() < 1e-12 * np.abs(b).max()


# local nodal spaces -------------------------------------------------------

def test_pi_nabla_reproduces_gradients(system_cache, rng):
    sysm = system_cache(3)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(sysm.mesh, sysm.dofmap, ns)
    space = region_nodal_space(sysm, np.arange(sysm.mesh.n_tets))
    q = rng.standard_normal(ns.n_dofs)
    u = G @ q
    p = pi_nabla_project(space, u)
    assert np.linalg.norm(gradient_edge_coeffs(sysm, p) - u) < 1e-10 * np.linalg.norm(u)


def test_pi_nabla_is_idempotent(system_cache, rng):
    sysm = system_cache(3)
    space = region_nodal_space(sysm, np.arange(sysm.mesh.n_tets))
    u = rng.standard_normal(sysm.n_dofs)
    p1 = pi_nabla_project(space, u)
    g1 = gradient_edge_coeffs(sysm, p1)
    p2 = pi_nabla_project(space, g1)
    g2 = gradient_edge_coeffs(sysm, p2)
    assert np.linalg.norm(g2 - g1) < 1e-10 * max(np.linalg.norm(g1), 1e-30)


def test_matrix_coordinate_text_roundtrip(rng):
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    lines = matrix_to_coordinate_text(a).strip().splitlines()
    assert len(lines) == a.size
    back = np.zeros_like(a)
    for ln in lines:
        i, j, re, im = ln.split()
        back[int(i), int(j)] = float(re) + 1j * float(im)
    assert np.array_equal(back, a)  # repr round-trips exactly
