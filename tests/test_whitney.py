"""Single-tet element oracles.

The local mass matrix has the closed form

    M[ef] = I[ac] gb.gd - I[ad] gb.gc - I[bc] ga.gd + I[bd] ga.gc

with I[ij] = V (1 + delta_ij)/20 and e = (a,b), f = (c,d); the curl-curl
matrix is 4V (ga x gb).(gc x gd). Both are checked against the
quadrature-based element routines, which take a different route.
"""

import numpy as np
import pytest

from hmaxwell import LOCAL_EDGES, TetElement, element_tensors
from hmaxwell.quadrature import tet_rule_degree2
from hmaxwell.whitney import (LOCAL_FACES, commuting_residual, face_frames,
                              nedelec_interpolant, polynomial_field,
                              rt_face_interpolant, whitney_values)


def random_tet(rng, min_det=0.05):
    while True:
        coords = rng.random((4, 3))
        mat = np.hstack([np.ones((4, 1)), coords])
        if abs(np.linalg.det(mat)) > min_det:
            return coords


REFERENCE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# point evaluation on one tet, the oracle side of the batched kernels -------

def barycentric(el, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lam = (points - el.coords[0]) @ el.grads.T
    lam[:, 0] += 1.0
    return lam


def whitney(el, points):
    """Edge shape functions at points: (npts, 6, 3)."""
    return whitney_values(barycentric(el, points), el.grads)


def nedelec_eval(el, coeffs, points):
    return np.einsum("k,qkd->qd", coeffs, whitney(el, points))


def rt_eval(el, fluxes, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.einsum("f,qfd->qd", fluxes, points[:, None] - el.coords) / (
        3.0 * el.volume)


def rt_divergence(el, fluxes):
    # each face function has constant divergence 1/|T|
    return np.sum(fluxes) / el.volume


def mass_oracle(el):
    g, v = el.grads, el.volume
    lam = v * (np.ones((4, 4)) + np.eye(4)) / 20.0
    m = np.zeros((6, 6))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        for j, (c, d) in enumerate(LOCAL_EDGES):
            m[i, j] = (lam[a, c] * (g[b] @ g[d]) - lam[a, d] * (g[b] @ g[c])
                       - lam[b, c] * (g[a] @ g[d]) + lam[b, d] * (g[a] @ g[c]))
    return m


def curl_oracle(el):
    g, v = el.grads, el.volume
    k = np.zeros((6, 6))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        for j, (c, d) in enumerate(LOCAL_EDGES):
            k[i, j] = 4.0 * v * (np.cross(g[a], g[b]) @ np.cross(g[c], g[d]))
    return k


@pytest.mark.parametrize("seed", range(8))
def test_local_matrices_match_closed_forms(seed):
    rng = np.random.default_rng(seed)
    el = TetElement(random_tet(rng))
    assert np.allclose(el.mass_matrix(), mass_oracle(el), atol=1e-14)
    assert np.allclose(el.curl_curl_matrix(), curl_oracle(el), atol=1e-13)
    # bitwise symmetry, not just numeric
    assert np.array_equal(el.mass_matrix(), el.mass_matrix().T)
    assert np.array_equal(el.curl_curl_matrix(), el.curl_curl_matrix().T)
    # one batched call on a stack of tets, slice by slice
    stack = np.array([random_tet(rng) for _ in range(6)])
    local = element_tensors(stack)
    for t, coords in enumerate(stack):
        el = TetElement(coords)
        assert np.allclose(local.mass[t], mass_oracle(el), atol=1e-14)
        assert np.allclose(local.curl[t], curl_oracle(el), atol=1e-13)
    for mat in (local.mass, local.curl, local.nodal_stiffness, local.nodal_mass):
        assert np.array_equal(mat, mat.transpose(0, 2, 1))


def test_barycentric_partition_of_unity(rng):
    el = TetElement(random_tet(rng))
    pts = rng.random((20, 3))
    lam = barycentric(el, pts)
    assert np.allclose(lam.sum(axis=1), 1.0)
    assert np.allclose(lam @ el.coords, pts)


def test_edge_integrals_are_kronecker(rng):
    """Line integral of psi_f along oriented edge e equals delta_ef."""
    el = TetElement(random_tet(rng))
    t, w = np.polynomial.legendre.leggauss(6)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    for i, (a, b) in enumerate(LOCAL_EDGES):
        xa, xb = el.coords[a], el.coords[b]
        pts = xa[None, :] + t[:, None] * (xb - xa)[None, :]
        psi = whitney(el, pts)  # (q, 6, 3)
        ints = np.einsum("q,qfd,d->f", w, psi, xb - xa)
        expect = np.zeros(6)
        expect[i] = 1.0
        assert np.allclose(ints, expect, atol=1e-13)


def test_interpolant_reproduces_nedelec_fields(rng):
    """a + b x x is reproduced exactly; a generic linear field is not."""
    el = TetElement(random_tet(rng))
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    fld = lambda x: a + np.cross(b, x)
    coeffs = nedelec_interpolant(el.coords[None], fld)[0]
    # sample strictly inside the tet via random barycentric weights
    pts = rng.dirichlet(np.ones(4), size=10) @ el.coords
    vals = nedelec_eval(el, coeffs, pts)
    assert np.allclose(vals, fld(pts), atol=1e-12)

    sym = lambda x: x[..., [1, 2, 0]]  # has a symmetric part
    coeffs2 = nedelec_interpolant(el.coords[None], sym)[0]
    vals2 = nedelec_eval(el, coeffs2, pts)
    assert np.linalg.norm(vals2 - sym(pts)) > 1e-3


def test_whitney_curls_match_finite_differences(rng):
    el = TetElement(random_tet(rng))
    curls = element_tensors(el.coords[None]).curls[0]
    x0 = (el.coords.mean(axis=0))
    eps = 1e-6

    def field_k(k, x):
        return whitney(el, np.asarray(x)[None, :])[0, k, :]

    for k in range(6):
        num = np.zeros(3)
        for d in range(3):
            e1 = np.eye(3)[(d + 1) % 3]
            e2 = np.eye(3)[(d + 2) % 3]
            dv2 = (field_k(k, x0 + eps * e1) - field_k(k, x0 - eps * e1)) / (2 * eps)
            dv1 = (field_k(k, x0 + eps * e2) - field_k(k, x0 - eps * e2)) / (2 * eps)
            num[d] = dv2[(d + 2) % 3] - dv1[(d + 1) % 3]
        assert np.allclose(num, curls[k], atol=1e-6)


def test_rt_fluxes_are_kronecker_and_divergence_is_constant(rng):
    el = TetElement(random_tet(rng))
    a, b = rng.standard_normal(3), rng.standard_normal()
    fld = lambda x: a + b * np.asarray(x)  # divergence 3b
    fluxes = rt_face_interpolant(el.coords[None], fld)[0]
    div = rt_divergence(el, fluxes)
    assert abs(div - 3.0 * b) < 1e-10
    # divergence theorem: total outward flux equals volume integral
    assert abs(fluxes.sum() - div * el.volume) < 1e-10
    # RT0 contains a + b x, so evaluation reproduces the field pointwise
    pts = rng.dirichlet(np.ones(4), size=8) @ el.coords
    assert np.allclose(rt_eval(el, fluxes, pts), fld(pts), atol=1e-11)


def test_face_frames_outward_unit_normals(rng):
    coords = random_tet(rng)
    normals = face_frames(coords[None])[0][0]
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    centroid = coords.mean(axis=0)
    for f, idx in enumerate(LOCAL_FACES):
        mid = coords[list(idx)].mean(axis=0)
        assert normals[f] @ (mid - centroid) > 0


def random_poly_coeffs(rng, degree=3):
    monos = [(i, j, k)
             for i in range(degree + 1)
             for j in range(degree + 1)
             for k in range(degree + 1)
             if i + j + k <= degree]
    return {m: rng.standard_normal() for m in monos}


def make_polynomial_field(coeff_x, coeff_y, coeff_z):
    """polynomial_field of components given as {(i,j,k): c} dicts, on the
    sorted union of their monomials."""
    comps = (dict(coeff_x), dict(coeff_y), dict(coeff_z))
    exps = sorted(set().union(*comps))
    coef = np.array([[c.get(e, 0.0) for e in exps] for c in comps]).reshape(3, -1)
    return polynomial_field(np.array(exps, dtype=np.int64).reshape(-1, 3), coef)


def dict_polynomial_field(comps):
    """Per-point evaluation of the {(i,j,k): c} components and their curl,
    monomial by monomial: the reference for make_polynomial_field."""
    def mono(p, e):
        return p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]

    def partial(comp, axis, p):
        out = 0.0
        for e, c in comps[comp].items():
            if e[axis]:
                low = list(e)
                low[axis] -= 1
                out += c * e[axis] * mono(p, low)
        return out

    def field(p):
        return np.array([sum(c * mono(p, e) for e, c in comp.items())
                         for comp in comps])

    def curl(p):
        return np.array([partial(2, 1, p) - partial(1, 2, p),
                         partial(0, 2, p) - partial(2, 0, p),
                         partial(1, 0, p) - partial(0, 1, p)])

    return field, curl


def test_polynomial_field_matches_dict_evaluation(rng):
    """The array evaluation equals the monomial-by-monomial one on single
    points and on batches of any leading shape, for the field and its curl."""
    for degree in (0, 1, 3):
        comps = [random_poly_coeffs(rng, degree) for _ in range(3)]
        del comps[1][(0, 0, 0)]  # components need not share monomials
        fld, curl = make_polynomial_field(*comps)
        ref_fld, ref_curl = dict_polynomial_field(comps)
        pts = rng.uniform(-1.5, 1.5, size=(4, 5, 3))
        for got, ref in ((fld, ref_fld), (curl, ref_curl)):
            batch = got(pts)
            assert batch.shape == pts.shape
            expect = np.array([ref(p) for p in pts.reshape(-1, 3)]).reshape(pts.shape)
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(batch - expect).max() <= 1e-13 * scale
            for p in pts[0]:
                assert np.abs(got(p) - ref(p)).max() <= 1e-13 * scale
    zero, zero_curl = make_polynomial_field({}, {}, {})
    assert np.array_equal(zero(pts), np.zeros_like(pts))
    assert np.array_equal(zero_curl(pts[0, 0]), np.zeros(3))


def test_commuting_diagram_on_polynomials(rng):
    """RT interpolant of the curl equals the curl of the edge interpolant."""
    for _ in range(5):
        coords = random_tet(rng)
        fld, curl = make_polynomial_field(random_poly_coeffs(rng),
                                          random_poly_coeffs(rng),
                                          random_poly_coeffs(rng))
        assert commuting_residual(coords[None], fld, curl)[0] < 1e-12


def test_batched_interpolants_match_each_tet(rng):
    """On a stack of 6 tets, each with its own field, the batched frames,
    interpolants and residuals equal each tet's T = 1 call (its coordinates
    as a one-tet stack, with a one-tet field) to 1e-15."""
    stack = np.array([random_tet(rng) for _ in range(6)])
    exps = np.array(sorted(random_poly_coeffs(rng)))
    coef = rng.standard_normal((6, 3, len(exps)))
    field, curl = polynomial_field(exps, coef)
    normals, areas = face_frames(stack)
    edges = nedelec_interpolant(stack, field)
    fluxes = rt_face_interpolant(stack, curl)
    res = commuting_residual(stack, field, curl)
    assert res.shape == (6,) and res.max() < 1e-12
    for t, coords in enumerate(stack[:, None]):
        fld_t, curl_t = polynomial_field(exps, coef[t])
        n_t, a_t = face_frames(coords)
        assert np.abs(normals[t] - n_t[0]).max() <= 1e-15
        assert np.abs(areas[t] - a_t[0]).max() <= 1e-15
        edges_t = nedelec_interpolant(coords, fld_t)[0]
        fluxes_t = rt_face_interpolant(coords, curl_t)[0]
        scale = max(np.abs(edges[t]).max(), np.abs(fluxes[t]).max(), 1.0)
        assert np.abs(edges[t] - edges_t).max() <= 1e-15 * scale
        assert np.abs(fluxes[t] - fluxes_t).max() <= 1e-15 * scale
        assert abs(res[t] - commuting_residual(coords, fld_t, curl_t)[0]) <= 1e-15


def test_grad_mixed_matrix_against_quadrature(rng):
    el = TetElement(random_tet(rng))
    bary, w = tet_rule_degree2()
    pts = bary @ el.coords
    psi = whitney(el, pts)
    got = el.grad_mixed_matrix()
    for v in range(4):
        col = el.volume * np.einsum("q,qkd,d->k", w, psi, el.grads[v])
        assert np.allclose(got[:, v], col, atol=1e-13)


def test_nodal_matrices(rng):
    el = TetElement(random_tet(rng))
    s = el.nodal_stiffness()
    m = el.nodal_mass()
    assert np.allclose(s.sum(axis=1), 0.0, atol=1e-12)  # constants in kernel
    assert abs(m.sum() - el.volume) < 1e-13              # partition of unity
    assert np.allclose(s, el.volume * el.grads @ el.grads.T)


def test_degenerate_tet_rejected():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        TetElement(flat)
