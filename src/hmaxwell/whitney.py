"""Lowest-order edge elements on tetrahedra: batched kernels for the local
matrices, face frames and interpolants of T tets.

The edge shape function of local edge (a, b) is

    psi_ab = lambda_a grad(lambda_b) - lambda_b grad(lambda_a),

whose tangential line integral equals 1 along its own edge (oriented a -> b)
and 0 along every other edge, and whose curl is the constant vector
2 grad(lambda_a) x grad(lambda_b). The face-flux interpolant uses the four
lowest-order face shape functions phi_f(x) = (x - x_opp) / (3 |T|), which
carry unit outward flux through their own face and zero through the others.

A field is a callable on a point array, (..., 3) -> (..., 3); the batched
interpolants call it once on all their quadrature points, shaped (T, ..., 3).
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
    """One tetrahedron: the T = 1 view of element_tensors's local matrices,
    whose construction and matrix calls bench/tracing.py counts."""

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float)
        self._local = element_tensors(self.coords[None])  # checks the shape
        self.volume = self._local.volume[0]
        self.grads = self._local.grads[0]  # (4, 3)

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


def face_frames(coords):
    """Unit outward normals (T, 4, 3) and areas (T, 4) of the faces of T
    tets (T, 4, 3); face f is opposite vertex f."""
    a, b, c = np.moveaxis(coords[:, _FACE_VERTS], 2, 0)  # corners, (T, 4, 3)
    nvec = np.cross(b - a, c - a) / 2.0
    areas = np.linalg.norm(nvec, axis=-1)
    inward = np.einsum("tfd,tfd->tf", nvec, (a + b + c) / 3.0 - coords) < 0
    return np.where(inward[..., None], -nvec, nvec) / areas[..., None], areas


def nedelec_interpolant(coords, field):
    """(T, 6) tangential edge integrals of the field on T tets, degree 5."""
    t, w = segment_rule(5)
    xa = coords[:, _EDGE_A]
    d = coords[:, _EDGE_B] - xa                               # (T, 6, 3)
    vals = field(xa[:, :, None] + t[:, None] * d[:, :, None])  # (T, 6, Q, 3)
    return np.einsum("q,tkqd,tkd->tk", w, vals, d)


def rt_face_interpolant(coords, field):
    """(T, 4) outward face fluxes of the field on T tets, degree 5."""
    bary, w = triangle_rule(5)
    normals, areas = face_frames(coords)
    vals = field(bary @ coords[:, _FACE_VERTS])               # (T, 4, Q, 3)
    return areas * np.einsum("q,tfqd,tfd->tf", w, vals, normals)


def commuting_residual(coords, field, curl_field):
    """(T,) max over faces of |flux of curl(interpolated field) - flux of
    interpolated curl| of T tets; zero for smooth fields (Stokes)."""
    coeffs = nedelec_interpolant(coords, field)
    cvec = np.einsum("tk,tkd->td", coeffs, element_tensors(coords).curls)
    normals, areas = face_frames(coords)
    lhs = areas * np.einsum("tfd,td->tf", normals, cvec)
    return np.abs(lhs - rt_face_interpolant(coords, curl_field)).max(axis=1)


def _mirror_upper(mat):
    # copy the upper triangle onto the lower one so symmetry is bitwise
    return np.triu(mat) + np.swapaxes(np.triu(mat, 1), -1, -2)


def polynomial_field(exps, coef):
    """(field, curl_field) with components sum_m coef[..., c, m] x^exps[m]:
    coef (3, M) on points (..., 3), or (T, 3, M), a field per tet, on (T, ..., 3)."""
    # d/dx_a of x^e is e_a x^(e - unit_a): per axis, lowered exponents and
    # scaled coefficients (axis, ..., 3, M); monomials constant in x_a get 0
    dexps = np.maximum(exps[None] - np.eye(3, dtype=np.int64)[:, None], 0)
    dcoef = np.moveaxis(coef[..., None, :, :] * exps.T[:, None], -3, 0)

    def field(x):
        return _monomial_sum(x, exps, coef)

    def curl_field(x):  # curl F = sum_a unit_a x dF/dx_a
        return sum(np.cross(unit, _monomial_sum(x, e, c))
                   for unit, e, c in zip(np.eye(3), dexps, dcoef))

    return field, curl_field


def _monomial_sum(x, exps, coef):
    """sum_m coef[..., :, m] x^exps[m] at points x (..., 3), or (T, ..., 3)
    for coef (T, 3, M): one monomial at a time, no (..., M) tensor."""
    x = np.asarray(x, dtype=float)
    shape = coef.shape[:-2] + (1,) * (x.ndim - coef.ndim + 1) + (3,)
    pw = x[..., None, :] ** np.arange(exps.max(initial=0) + 1)[:, None]  # x_a^p
    out = np.zeros(x.shape)
    for (i, j, k), c in zip(exps, np.moveaxis(coef, -1, 0)):
        mono = pw[..., i, 0] * pw[..., j, 1] * pw[..., k, 2]
        out += mono[..., None] * c.reshape(shape)
    return out
