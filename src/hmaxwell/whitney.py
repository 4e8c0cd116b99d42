"""Lowest-order edge elements on tetrahedra: one batched kernel for the local
matrices of many tets, and its single-element view.

The edge shape function of local edge (a, b) is

    psi_ab = lambda_a grad(lambda_b) - lambda_b grad(lambda_a),

whose tangential line integral equals 1 along its own edge (oriented a -> b)
and 0 along every other edge, and whose curl is the constant vector
2 grad(lambda_a) x grad(lambda_b). The face-flux interpolant uses the four
lowest-order face shape functions phi_f(x) = (x - x_opp) / (3 |T|), which
carry unit outward flux through their own face and zero through the others.

A field is a callable on a point array: it maps points (..., 3) to values
(..., 3), and the interpolants call it once on all their quadrature points.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import LOCAL_EDGES
from .quadrature import segment_rule, tet_rule_degree2, triangle_rule

# local faces, each opposite the like-indexed vertex
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# tail and head vertex of each local edge
_EDGE_A, _EDGE_B = np.array(LOCAL_EDGES).T
_FACE_VERTS = np.array(LOCAL_FACES)


@dataclass
class ElementTensors:
    """Geometry and local matrices of a stack of T tetrahedra. Edge-indexed
    entries use the edge orientations given to element_tensors."""
    volume: np.ndarray           # (T,)
    grads: np.ndarray            # (T, 4, 3) gradients of the barycentric coordinates
    curls: np.ndarray            # (T, 6, 3) constant curls of the edge functions
    curl: np.ndarray             # (T, 6, 6) curl-curl matrices
    mass: np.ndarray             # (T, 6, 6) edge mass matrices
    grad_mixed: np.ndarray       # (T, 6, 4) integral of psi_k . grad(lambda_v)
    nodal_stiffness: np.ndarray  # (T, 4, 4)
    nodal_mass: np.ndarray       # (T, 4, 4)


def element_tensors(coords, signs=None) -> ElementTensors:
    """Every local matrix of T tets at once, from (T, 4, 3) vertex coordinates.

    signs (T, 6) of +-1 orient edge function k of tet t as signs[t, k] times
    the local a -> b orientation (default +1). Sign flips are exact, so the
    signed matrices equal s_e s_f times the unsigned ones bitwise, and the
    6x6 and 4x4 symmetric matrices are bitwise symmetric.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 3 or coords.shape[1:] != (4, 3):
        raise ValueError("expected (T, 4, 3) vertex coordinates")
    mat = np.concatenate([np.ones(coords.shape[:2] + (1,)), coords], axis=2)
    det = np.linalg.det(mat)
    scale = np.maximum(np.abs(coords).max(axis=(1, 2)), 1.0)
    if np.any(np.abs(det) < 1e-14 * scale ** 3):
        raise ValueError("degenerate tetrahedron")
    volume = np.abs(det) / 6.0
    vol = volume[:, None, None]
    # column j of inv(mat) holds the affine coefficients of lambda_j
    grads = np.ascontiguousarray(np.linalg.inv(mat)[:, 1:, :].transpose(0, 2, 1))
    s = np.ones(coords.shape[:1] + (6,)) if signs is None else np.asarray(signs, dtype=float)
    curls = 2.0 * s[:, :, None] * np.cross(grads[:, _EDGE_A], grads[:, _EDGE_B])
    # the integrand is quadratic, the 4-point rule is exact for it
    bary, w = tet_rule_degree2()
    psi = whitney_values(bary, grads)  # (T, 4, 6, 3)
    psi *= s[:, None, :, None]
    mass = vol * np.einsum("q,tqed,tqfd->tef", w, psi, psi)
    # exact closed form of the integral of psi_k . grad(lambda_v)
    grad_mixed = (0.25 * vol * s[:, :, None]) * np.einsum(
        "tkd,tvd->tkv", grads[:, _EDGE_B] - grads[:, _EDGE_A], grads)
    return ElementTensors(
        volume=volume,
        grads=grads,
        curls=curls,
        curl=_mirror_upper(vol * (curls @ curls.transpose(0, 2, 1))),
        mass=_mirror_upper(mass),
        grad_mixed=grad_mixed,
        nodal_stiffness=_mirror_upper(vol * (grads @ grads.transpose(0, 2, 1))),
        nodal_mass=vol * (np.ones((4, 4)) + np.eye(4)) / 20.0,
    )


def whitney_values(lam, grads):
    """Edge shape functions lambda_a grad(lambda_b) - lambda_b grad(lambda_a)
    from barycentric coordinates lam (..., Q, 4) and gradients grads
    (..., 4, 3): (..., Q, 6, 3)."""
    return (lam[..., _EDGE_A, None] * grads[..., None, _EDGE_B, :]
            - lam[..., _EDGE_B, None] * grads[..., None, _EDGE_A, :])


class TetElement:
    """One tetrahedron: the single-element view of element_tensors, with
    point evaluation, face frames and the edge and face interpolants."""

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (4, 3):
            raise ValueError("expected 4 vertex coordinates")
        self.coords = coords
        self._local = element_tensors(coords[None])
        self.volume = self._local.volume[0]
        self.grads = self._local.grads[0]  # (4, 3)

    def barycentric(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lam = (points - self.coords[0]) @ self.grads.T
        lam[:, 0] += 1.0
        return lam

    def whitney(self, points):
        """Edge shape functions at points: (npts, 6, 3)."""
        return whitney_values(self.barycentric(points), self.grads)

    def whitney_curls(self):
        """Constant curls of the edge shape functions: (6, 3)."""
        return self._local.curls[0]

    def curl_curl_matrix(self):
        return self._local.curl[0]

    def mass_matrix(self):
        return self._local.mass[0]

    def grad_mixed_matrix(self):
        """B[k, v] = integral of psi_k . grad(lambda_v)."""
        return self._local.grad_mixed[0]

    def nodal_stiffness(self):
        return self._local.nodal_stiffness[0]

    def nodal_mass(self):
        return self._local.nodal_mass[0]

    # faces -------------------------------------------------------------
    def face_frames(self):
        """Per face: (unit outward normal, area)."""
        normals = np.empty((4, 3))
        areas = np.empty(4)
        for f, (i, j, k) in enumerate(LOCAL_FACES):
            a, b, c = self.coords[i], self.coords[j], self.coords[k]
            nvec = np.cross(b - a, c - a) / 2.0
            area = np.linalg.norm(nvec)
            nhat = nvec / area
            if nhat @ ((a + b + c) / 3.0 - self.coords[f]) < 0:
                nhat = -nhat
            normals[f] = nhat
            areas[f] = area
        return normals, areas

    # interpolants -------------------------------------------------------
    def nedelec_interpolant(self, field):
        """Tangential edge integrals of the field by degree-5 quadrature:
        (6,) coefficients."""
        t, w = segment_rule(5)
        xa = self.coords[_EDGE_A]
        d = self.coords[_EDGE_B] - xa                     # (6, 3)
        vals = field(xa[:, None] + t[:, None] * d[:, None])  # (6, Q, 3)
        return np.einsum("q,kqd,kd->k", w, vals, d)

    def nedelec_eval(self, coeffs, points):
        return np.einsum("k,qkd->qd", coeffs, self.whitney(points))

    def rt_face_interpolant(self, field):
        """Outward face fluxes of the field by degree-5 quadrature: (4,)
        coefficients."""
        bary, w = triangle_rule(5)
        normals, areas = self.face_frames()
        vals = field(bary @ self.coords[_FACE_VERTS])     # (4, Q, 3)
        return areas * np.einsum("q,fqd,fd->f", w, vals, normals)

    def rt_eval(self, fluxes, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((points.shape[0], 3), dtype=np.asarray(fluxes).dtype)
        for f in range(4):
            out += fluxes[f] * (points - self.coords[f]) / (3.0 * self.volume)
        return out

    def rt_divergence(self, fluxes):
        # each face function has constant divergence 1/|T|
        return np.sum(fluxes) / self.volume

    def commuting_residual(self, field, curl_field):
        """max over faces of |flux of curl(interpolated field) - flux of
        interpolated curl|; zero for smooth fields by Stokes' theorem."""
        coeffs = self.nedelec_interpolant(field)
        cvec = coeffs @ self.whitney_curls()
        normals, areas = self.face_frames()
        lhs = areas * (normals @ cvec)
        rhs = self.rt_face_interpolant(curl_field)
        return float(np.abs(lhs - rhs).max())


def _mirror_upper(mat):
    # copy the upper triangle onto the lower one so symmetry is bitwise
    return np.triu(mat) + np.swapaxes(np.triu(mat, 1), -1, -2)


def make_polynomial_field(coeff_x, coeff_y, coeff_z):
    """Vector field with polynomial components given as {(i,j,k): c} dicts;
    returns (field, curl_field), each mapping points (..., 3) to (..., 3)."""
    comps = (dict(coeff_x), dict(coeff_y), dict(coeff_z))
    exps = np.array(sorted(set().union(*comps)), dtype=np.int64).reshape(-1, 3)
    coef = np.array([[c.get(tuple(e), 0.0) for e in exps.tolist()]
                     for c in comps]).reshape(3, -1)       # (3, M)
    # d/dx_a of x^e is e_a x^(e - unit_a): per axis, lowered exponents and
    # scaled coefficients (monomials constant in x_a get 0)
    dexps = np.maximum(exps[None] - np.eye(3, dtype=np.int64)[:, None], 0)
    dcoef = coef[None] * exps.T[:, None]                   # (axis, 3, M)

    def field(x):
        return _monomial_sum(x, exps, coef)

    def curl_field(x):
        # d[a][..., c] = d F_c / d x_a
        d = [_monomial_sum(x, dexps[a], dcoef[a]) for a in range(3)]
        return np.stack([d[1][..., 2] - d[2][..., 1],
                         d[2][..., 0] - d[0][..., 2],
                         d[0][..., 1] - d[1][..., 0]], axis=-1)

    return field, curl_field


def _monomial_sum(x, exps, coef):
    """sum_m coef[:, m] x^exps[m] at points x (..., 3): (..., 3)."""
    x = np.asarray(x, dtype=float)
    return np.prod(x[..., None, :] ** exps, axis=-1) @ coef.T
