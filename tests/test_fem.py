"""Global assembly against an independent reference assembler.

The reference loop below builds K and M from the closed-form local
matrices (see test_whitney) with its own sign handling, then scatters
them entry by entry. The production assembler must agree to rounding.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
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
    sparse_operator,
)
from hmaxwell.whitney import element_tensors
from test_mesh import same_bits
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
    assert np.abs(sysm.K.toarray() - K).max() < 1e-13 * scale
    assert np.abs(sysm.M.toarray() - M).max() < 1e-13 * scale
    assert np.abs(sysm.A - A).max() < 1e-13 * scale


def test_system_is_bitwise_symmetric(system_cache):
    for n in (2, 3):
        sysm = system_cache(n)
        assert np.array_equal(sysm.A, sysm.A.T)
        assert (sysm.K != sysm.K.T).nnz == 0
        assert (sysm.M != sysm.M.T).nnz == 0


def coo_scatter(local, index, n):
    """Dense sum of per-tet local matrices through a COO array, whose
    toarray adds the contributions into zeros in tet order."""
    keep = index >= 0
    pair = keep[:, :, None] & keep[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(index[:, None, :], pair.shape)[pair]
    return scipy.sparse.coo_array((local[pair], (rows, cols)), shape=(n, n)).toarray()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), kappa_re=st.floats(-20.0, 20.0).filter(bool),
       kappa_im=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
def test_csr_scatter_is_the_dense_coo_sum_bitwise(n, kappa_re, kappa_im):
    """Sparse K and M hold the dense COO sums bit for bit, are symmetric by
    construction, and A is the dense K - kappa M computed as before."""
    m = build_box_mesh(n)
    sysm = assemble_system(m, kappa=complex(kappa_re, kappa_im))
    local = element_tensors(m.vertices[m.tets], m.tet_edge_signs)
    dofs = sysm.dofmap.edge_to_dof[m.tet_edges]
    k_old = coo_scatter(local.curl, dofs, sysm.n_dofs)
    m_old = coo_scatter(local.mass, dofs, sysm.n_dofs)
    assert isinstance(sysm.K, scipy.sparse.csr_array)
    assert isinstance(sysm.M, scipy.sparse.csr_array)
    assert same_bits(sysm.K.toarray(), k_old)
    assert same_bits(sysm.M.toarray(), m_old)
    assert (sysm.K != sysm.K.T).nnz == 0
    assert (sysm.M != sysm.M.T).nnz == 0
    a_old = -sysm.kappa * m_old
    a_old += k_old
    assert same_bits(sysm.A, a_old)
    assert np.array_equal(sysm.A, sysm.K.toarray() - sysm.kappa * sysm.M.toarray())


def test_assembly_holds_one_dense_matrix(mesh_cache):
    """assemble_system allocates no N x N array; the first read of A forms
    the one dense copy, and later reads return that same array."""
    m = mesh_cache(6)
    tracemalloc.start()
    try:
        sysm = assemble_system(m)
        _, assembly_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        a = sysm.A
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sysm.n_dofs
    assert a.shape == (n, n) == (1206, 1206)
    assert assembly_peak < 0.5 * n * n * 8
    assert read_peak < 1.5 * a.nbytes
    assert sysm.A is a


def test_complex_kappa_keeps_complex_symmetry():
    m = build_box_mesh(2)
    sysm = assemble_system(m, kappa=1.0 + 0.5j)
    assert sysm.A.dtype == np.complex128
    assert np.array_equal(sysm.A, sysm.A.T)  # symmetric, not hermitian
    assert np.abs(sysm.A - (sysm.K.toarray() - (1.0 + 0.5j) * sysm.M.toarray())).max() == 0.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), kappa_re=st.floats(-20.0, 20.0).filter(bool),
       kappa_im=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
def test_curl_kills_gradients_and_a_is_symmetric(n, kappa_re, kappa_im):
    m = build_box_mesh(n)
    sysm = assemble_system(m, kappa=complex(kappa_re, kappa_im))
    assert np.array_equal(sysm.A, sysm.A.T)
    G = discrete_gradient(build_nodal_space(sysm))
    if G.shape[1]:
        assert (np.abs((sysm.K @ G).toarray()).max()
                <= 1e-13 * np.abs(sysm.K.toarray()).max())


def test_region_matrices_split_the_global_ones(system_cache, rng):
    sysm = system_cache(3)
    tets = np.arange(sysm.mesh.n_tets)
    part = rng.random(tets.size) < 0.5
    for kind, full in (("curl", sysm.K.toarray()), ("mass", sysm.M.toarray())):
        scale = np.abs(full).max()
        whole = assemble_region_matrix(sysm, tets, kind).toarray()
        assert np.abs(whole - full).max() <= 1e-15 * scale
        split = (assemble_region_matrix(sysm, tets[part], kind)
                 + assemble_region_matrix(sysm, tets[~part], kind)).toarray()
        assert np.abs(split - full).max() <= 1e-14 * scale


def test_gradients_span_the_curl_kernel(system_cache, rng):
    sysm = system_cache(3)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(ns)
    p = rng.standard_normal((ns.free_vertices.size, 5))
    gp = G @ p
    resid = np.abs(sysm.K @ gp).max()
    assert resid < 1e-12 * np.linalg.norm(sysm.K.toarray()) * np.abs(gp).max()
    # on gradients the operator acts through the mass matrix alone
    assert np.allclose(sysm.A @ gp, -sysm.kappa * (sysm.M @ gp), atol=1e-12)


def test_gradient_matrix_is_signed_incidence(system_cache):
    sysm = system_cache(2)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(ns).toarray()
    m = sysm.mesh
    cols = np.nonzero(G)[1]
    assert set(np.unique(G)) <= {-1.0, 0.0, 1.0}
    for d, e in enumerate(sysm.dofmap.interior_edges):
        lo, hi = m.edges[e]
        for v, val in zip((lo, hi), (-1.0, 1.0)):
            c = ns.col_of_vertex[v]
            if c >= 0:
                assert G[d, c] == val


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_nodal_space_scatters_the_system_tensors(system_cache, n):
    """The whole-mesh nodal space holds every interior vertex, in order and
    ungrounded, and its Gram comes from the system's element tensors,
    bitwise equal to scattering a fresh unsigned kernel call."""
    sysm = system_cache(n)
    m = sysm.mesh
    ns = build_nodal_space(sysm)
    assert ns.pinned_vertex == -1
    assert np.array_equal(ns.free_vertices, np.flatnonzero(~m.boundary_vertex))
    local = element_tensors(m.vertices[m.tets])
    d = ns.col_of_vertex[m.tets]
    assert isinstance(ns.gram, scipy.sparse.csr_array)
    assert np.array_equal(ns.gram.toarray(),
                          scatter(local.nodal_stiffness, d, ns.free_vertices.size).toarray())


def test_nodal_solve_falls_back_to_least_squares(system_cache, rng):
    """The Gram's solver is Cholesky, built once; a singular Gram is solved
    by least squares instead."""
    ns = build_nodal_space(system_cache(3))
    r = rng.standard_normal(ns.gram.shape[0])
    assert ns.solve is ns.solve
    assert np.abs(ns.gram @ ns.solve(r) - r).max() < 1e-10 * np.abs(r).max()
    singular = dataclasses.replace(ns, gram=scipy.sparse.csr_array(
        np.diag(np.arange(r.size, dtype=float))))
    assert np.array_equal(singular.solve(r),
                          np.linalg.lstsq(singular.gram.toarray(), r, rcond=None)[0])


def test_nodal_laplacian_is_gram_of_gradients(system_cache):
    sysm = system_cache(3)
    ns = build_nodal_space(sysm)
    G = discrete_gradient(ns)
    lap = (G.T @ sysm.M @ G).toarray()
    assert np.abs(lap - ns.gram).max() < 1e-13 * np.abs(lap).max()


def locate_eval(mesh, coeffs, dofmap):
    """Brute-force FE evaluator used to feed projections a space member;
    the field maps points (..., 3) to values (..., 3), point by point."""
    elements = [TetElement(mesh.vertices[tet]) for tet in mesh.tets]

    def field(x):
        x = np.asarray(x)
        return np.array([at(p) for p in x.reshape(-1, 3)]).reshape(x.shape)

    def at(p):
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
    assert sysm.lu is sysm.lu  # factored once


@pytest.mark.parametrize("kappa, complex_rhs", [
    (1.0, True), (1.0 + 0.5j, False), (1.0, False)])
def test_solve_system_matches_dense_solve(system_cache, rng, kappa, complex_rhs):
    """The sparse LU solves a block of right-hand sides as the dense solve
    of K - kappa M does, also for a complex block against a real A."""
    sysm = system_cache(3, kappa)
    b = rng.standard_normal((sysm.n_dofs, 4))
    if complex_rhs:
        b = b + 1j * rng.standard_normal(b.shape)
    x = solve_system(sysm, b)
    want = np.linalg.solve(sparse_operator(sysm).toarray(), b)
    assert x.dtype == want.dtype
    assert np.abs(x - want).max() < 1e-12 * np.abs(want).max()
    assert sysm.lu is sysm.lu


def test_hcurl_norm_matches_quadratic_form(system_cache, rng):
    sysm = system_cache(2)
    u = rng.standard_normal(sysm.n_dofs)
    expect = np.sqrt(u @ (sysm.K @ u) + u @ (sysm.M @ u))
    assert abs(hcurl_norm(sysm, u) - expect) < 1e-12 * expect


# dual basis ---------------------------------------------------------------

def test_dual_basis_biorthogonality(system_cache):
    for n in (2, 3):
        sysm = system_cache(n)
        dual = dual_basis(sysm)
        idx = np.arange(sysm.n_dofs)
        eye = np.empty((sysm.n_dofs, sysm.n_dofs))
        for j in range(sysm.n_dofs):
            e = np.zeros(sysm.n_dofs)
            e[j] = 1.0
            eye[:, j] = apply_dual_functionals(sysm, dual, idx, e)
        assert np.abs(eye - np.eye(sysm.n_dofs)).max() < 1e-12


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5))
def test_dual_biorthogonality_property(n):
    """<lambda_i, Psi_j> = delta_ij on every mesh size: all N functionals
    applied to all N unit fields at once."""
    sysm = assemble_system(build_box_mesh(n))
    dual = dual_basis(sysm)
    eye = apply_dual_functionals(sysm, dual, np.arange(sysm.n_dofs),
                                 np.eye(sysm.n_dofs))
    assert np.abs(eye - np.eye(sysm.n_dofs)).max() < 1e-12


def test_dual_basis_reads_the_assembled_mass_bitwise(system_cache):
    """The carrier mass matrices come from system.local; recomputing them
    with element_tensors on the carrier tets alone gives the same bits."""
    for n in (2, 3, 5, 8):
        sysm = system_cache(n)
        m, dual = sysm.mesh, dual_basis(sysm)
        t = dual.carrier_tet
        mass = element_tensors(m.vertices[m.tets[t]], m.tet_edge_signs[t]).mass
        slot = np.argmax(m.tet_edges[t] == sysm.dofmap.interior_edges[:, None],
                         axis=1)
        coeffs = np.linalg.solve(mass, np.eye(6)[slot][:, :, None])[:, :, 0]
        assert np.array_equal(dual.coeffs, coeffs)


def test_dual_functionals_take_a_column_block(system_cache, rng):
    """riesz_rhs and apply_dual_functionals on a block (., m) equal their
    column-by-column calls bitwise."""
    sysm = system_cache(3, 1.0 + 0.5j)
    dual = dual_basis(sysm)
    idx = np.array([3, 8, 21, 40, 41])
    b = rng.standard_normal((idx.size, 4)) + 1j * rng.standard_normal((idx.size, 4))
    f = riesz_rhs(sysm, dual, idx, b)
    assert f.shape == (sysm.n_dofs, 4)
    u = rng.standard_normal((sysm.n_dofs, 4))
    lam = apply_dual_functionals(sysm, dual, idx, u)
    assert lam.shape == (idx.size, 4)
    for j in range(4):
        assert np.array_equal(f[:, j], riesz_rhs(sysm, dual, idx, b[:, j]))
        assert np.array_equal(lam[:, j],
                              apply_dual_functionals(sysm, dual, idx, u[:, j]))


def test_dual_norm_scaling(mesh_cache):
    """max_i ||lambda_i|| h^{1/2} stays within a fixed band as h shrinks."""
    vals = []
    for n in (2, 3, 4, 6):
        m = mesh_cache(n)
        sysm = assemble_system(m)
        dual = dual_basis(sysm)
        vals.append(dual_norms(sysm, dual).max() * np.sqrt(m.h))
    assert max(vals) / min(vals) < 2.0


def test_riesz_rhs_pads_the_coefficients(system_cache, rng):
    """<sum b_i lambda_i, psi_j> = b_j on the chosen rows, 0 elsewhere."""
    sysm = system_cache(3)
    dual = dual_basis(sysm)
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
    G = discrete_gradient(ns)
    space = region_nodal_space(sysm, np.arange(sysm.mesh.n_tets))
    q = rng.standard_normal(ns.free_vertices.size)
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


def dense_coordinate_text(a):
    """The coordinate text of a dense matrix, from np.nonzero."""
    i, j = np.nonzero(a)
    vals = a[i, j].astype(complex)
    return "".join(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n"
                   for r, c, v in zip(i, j, vals))


def test_matrix_coordinate_text_roundtrip(rng):
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    a[1, 2] = 0.0
    mat = scipy.sparse.csr_array(a)
    mat.data[mat.indptr[2]] = 0.0  # an explicit zero, stored at (2, 0)
    a[2, 0] = 0.0
    assert mat.nnz == a.size - 1
    lines = matrix_to_coordinate_text(mat).strip().splitlines()
    assert len(lines) == a.size - 2
    back = np.zeros_like(a)
    for ln in lines:
        i, j, re, im = ln.split()
        back[int(i), int(j)] = float(re) + 1j * float(im)
    assert np.array_equal(back, a)  # repr round-trips exactly


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_coordinate_text_of_the_operator_matches_dense(system_cache, kappa):
    """The dump of the CSR operator lists the nonzeros of the dense
    K - kappa M in row-major order, with the same float text."""
    op = sparse_operator(system_cache(3, kappa))
    assert matrix_to_coordinate_text(op) == dense_coordinate_text(op.toarray())
