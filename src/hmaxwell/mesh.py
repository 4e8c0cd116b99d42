"""Structured tetrahedral meshes of the unit cube [0, 1]^3, the lab's one
domain: on [0, L]^3, K = K_1 / L and M = L M_1, so A = (K_1 - kappa L^2 M_1) / L
and a side L at kappa is the unit cube at kappa L^2.

Each of the n^3 subcubes is cut into the six tetrahedra spanned by the
monotone lattice paths from its lower corner to its upper corner, so
every tetrahedron of a subcube contains that subcube's body diagonal. The
pattern tiles conformingly across subcube interfaces and is self-similar
under refinement: all tetrahedra are congruent up to reflection and scaling,
which makes the mesh quasi-uniform with one shape constant for every n.

Conventions
-----------
* vertices are the (n+1)^3 lattice points, id = (ix*(n+1) + iy)*(n+1) + iz
* tets are 4-tuples of vertex ids stored with positive orientation
* edges are (lo, hi) vertex-id pairs with lo < hi, sorted lexicographically;
  the global direction of an edge is lo -> hi
* tet_edges[t, k] is the global id of local edge k (order LOCAL_EDGES) and
  tet_edge_signs[t, k] is +1 when the local direction agrees with the global
* a vertex (edge) is flagged boundary when it (both its endpoints) lies in a
  face plane of the box, compared with tolerance 1e-12 (GEOMETRY_TOL)
"""

import os
from dataclasses import dataclass

import numpy as np

# local edges of a tet, in terms of local vertex indices
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# the six monotone paths through a unit cube, as axis orders
_AXIS_ORDERS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

# absolute tolerance of every coordinate comparison on [0, 1]^3
GEOMETRY_TOL = 1e-12


@dataclass
class Mesh:
    n: int
    vertices: np.ndarray        # (V, 3) float
    tets: np.ndarray            # (T, 4) int, positive orientation
    edges: np.ndarray           # (E, 2) int, lo < hi, lexicographically sorted
    tet_edges: np.ndarray       # (T, 6) int
    tet_edge_signs: np.ndarray  # (T, 6) int, +1 or -1
    boundary_vertex: np.ndarray  # (V,) bool
    boundary_edge: np.ndarray    # (E,) bool
    h: float                     # max tet diameter

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_tets(self):
        return self.tets.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]


def mesh_bytes(n: int) -> int:
    """Bytes of the arrays of a Mesh with n subdivisions: V, T and E rows."""
    edges = 3 * n * (n + 1) ** 2 + 3 * n ** 2 * (n + 1) + n ** 3
    return 25 * (n + 1) ** 3 + 128 * 6 * n ** 3 + 17 * edges


def require_memory(need: int, what: str):
    """A MemoryError when need bytes, of the arrays what names, exceed the
    host's physical memory: the package's one test that arrays fit."""
    if need > (have := os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")):
        raise MemoryError(f"{what} need {need / 2**30:.1f} GiB, more than the "
                          f"{have / 2**30:.1f} GiB of memory")


def face_planes(points: np.ndarray) -> np.ndarray:
    """Per point (..., 3), whether it lies in each face plane of [0, 1]^3,
    x_k = 0 then x_k = 1 for k = 0, 1, 2, to GEOMETRY_TOL: (..., 6) bool."""
    return np.concatenate([np.abs(points) <= GEOMETRY_TOL,
                           np.abs(points - 1.0) <= GEOMETRY_TOL], axis=-1)


def build_box_mesh(n: int) -> Mesh:
    """Mesh [0, 1]^3 with n >= 1 subdivisions per axis and 6 tets per
    subcube. An n whose int64 edge keys, below (n+1)^6, would overflow, or
    whose mesh_bytes require_memory refuses, is a MemoryError before any
    array is built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if (n + 1) ** 6 > np.iinfo(np.int64).max:
        raise MemoryError(f"n = {n}: the mesh's (n+1)^6 edge keys overflow int64")
    require_memory(mesh_bytes(n), f"n = {n}: the mesh's arrays")  # temporaries only add

    m = n + 1
    grid = np.arange(m) * (1.0 / n)  # arange(m) / n rounds some vertices differently
    lattice = np.stack(np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    vertices = grid[lattice]

    # lattice corners (n^3, 6, 4, 3) of each subcube's six paths, subcubes
    # in (i, j, k) order: lower corner, one step, two steps, upper corner
    lo = lattice[(lattice < n).all(axis=1)].reshape(-1, 1, 1, 3)
    steps = np.eye(3, dtype=np.int64)[np.array(_AXIS_ORDERS)]  # (6, 3 steps, 3)
    path = np.pad(np.cumsum(steps, axis=1), ((0, 0), (1, 0), (0, 0)))  # (6, 4, 3)
    corner = lo + path
    tets = ((corner[..., 0] * m + corner[..., 1]) * m + corner[..., 2]).reshape(-1, 4)
    coords = vertices[tets]
    flip = np.linalg.det(coords[:, 1:] - coords[:, :1]) < 0  # rows b-a, c-a, d-a
    tets[flip, 2:] = tets[flip, :1:-1]

    # global edge set: unique sorted vertex pairs over all local edges
    le = np.array(LOCAL_EDGES)
    ends = tets[:, le]  # (T, 6, 2) in local direction
    pairs = np.sort(ends, axis=2).reshape(-1, 2)  # (T*6, 2)
    keys = pairs[:, 0] * (m ** 3) + pairs[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    edges = pairs[first]  # unique keys ascend, so edges are lexicographic in (lo, hi)
    tet_edges = inverse.reshape(-1, 6)
    tet_edge_signs = np.where(ends[:, :, 0] < ends[:, :, 1], 1, -1)

    # the six face planes kept separate: x=0 and x=1 are different planes
    on_face = face_planes(vertices)  # (V, 6)
    boundary_vertex = on_face.any(axis=1)
    # an edge is boundary iff both endpoints lie in one common face plane
    boundary_edge = (on_face[edges[:, 0]] & on_face[edges[:, 1]]).any(axis=1)

    return Mesh(n, vertices, tets, edges, tet_edges, tet_edge_signs, boundary_vertex,
                boundary_edge, float(_tet_diameters(vertices, tets).max()))


def _tet_diameters(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Per tet, its longest edge: the tet's diameter. The edge set, and so
    each length, does not depend on the order of a tet's vertices."""
    coords = vertices[tets]
    le = np.array(LOCAL_EDGES)
    diffs = coords[:, le[:, 0], :] - coords[:, le[:, 1], :]
    return np.sqrt((diffs ** 2).sum(axis=2)).max(axis=1)


def tet_volumes(mesh: Mesh) -> np.ndarray:
    coords = mesh.vertices[mesh.tets]
    mat = coords[:, 1:, :] - coords[:, :1, :]
    return np.linalg.det(mat) / 6.0


def shape_regularity_constant(mesh: Mesh) -> float:
    """max over tets of diam(T) / |T|^(1/3)."""
    diams = _tet_diameters(mesh.vertices, mesh.tets)
    return float((diams / np.cbrt(tet_volumes(mesh))).max())


def conformity_report(mesh: Mesh) -> dict:
    """Check face conformity; raises ValueError on a violation.

    Every interior triangular face must be shared by exactly two tets and
    every boundary face by exactly one.
    """
    tri = np.sort(mesh.tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]], axis=2)
    faces, count = np.unique(tri.reshape(-1, 3), axis=0, return_counts=True)
    # a face is boundary when all three vertices lie in one face plane
    boundary = face_planes(mesh.vertices[faces]).all(axis=1).any(axis=1)
    for kind, on, want in (("boundary", boundary, 1), ("interior", ~boundary, 2)):
        bad = np.flatnonzero(on & (count != want))
        if bad.size:
            face = tuple(faces[bad[0]].tolist())
            raise ValueError(f"{kind} face {face} shared by {count[bad[0]]} tets")
    return {"interior_faces": int((~boundary).sum()),
            "boundary_faces": int(boundary.sum())}


def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "n": mesh.n,
        "h": mesh.h,
        "vertices": mesh.vertices.tolist(),
        "tets": mesh.tets.tolist(),
        "edges": mesh.edges.tolist(),
        "boundary_edges": np.flatnonzero(mesh.boundary_edge).tolist(),
    }
