"""Structured tetrahedral meshes of an axis-aligned box.

Each of the n^3 subcubes of [0, L]^3 is cut into the six tetrahedra spanned
by the monotone lattice paths from its lower corner to its upper corner, so
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
  face plane of the box, compared with tolerance 1e-12 * L
"""

from dataclasses import dataclass

import numpy as np

# local edges of a tet, in terms of local vertex indices
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# the six monotone paths through a unit cube, as axis orders
_AXIS_ORDERS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


@dataclass
class Mesh:
    n: int
    length: float
    vertices: np.ndarray        # (V, 3) float
    tets: np.ndarray            # (T, 4) int, positive orientation
    edges: np.ndarray           # (E, 2) int, lo < hi, lexicographically sorted
    tet_edges: np.ndarray       # (T, 6) int
    tet_edge_signs: np.ndarray  # (T, 6) int, +1 or -1
    boundary_vertex: np.ndarray  # (V,) bool
    boundary_edge: np.ndarray    # (E,) bool
    edge_tets: list              # per edge, array of incident tet ids
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


def build_box_mesh(n: int, length: float = 1.0) -> Mesh:
    """Mesh [0, length]^3 with n subdivisions per axis, 6 tets per subcube.

    Parameters
    ----------
    n : int
        Subdivisions per axis, n >= 1.
    length : float
        Box side length, > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not length > 0:
        raise ValueError("length must be positive")

    m = n + 1
    grid = np.arange(m) * (length / n)
    ix, iy, iz = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    vertices = np.column_stack([grid[ix.ravel()], grid[iy.ravel()], grid[iz.ravel()]])

    def vid(i, j, k):
        return (i * m + j) * m + k

    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lo = np.array([i, j, k])
                hi = lo + 1
                v0 = vid(*lo)
                v3 = vid(*hi)
                for order in _AXIS_ORDERS:
                    p1 = lo.copy()
                    p1[order[0]] += 1
                    p2 = p1.copy()
                    p2[order[1]] += 1
                    tet = [v0, vid(*p1), vid(*p2), v3]
                    a, b, c, d = (vertices[t] for t in tet)
                    if np.linalg.det(np.column_stack([b - a, c - a, d - a])) < 0:
                        tet[2], tet[3] = tet[3], tet[2]
                    tets.append(tet)
    tets = np.array(tets, dtype=np.int64)

    # global edge set: unique sorted vertex pairs over all local edges
    le = np.array(LOCAL_EDGES)
    pairs = np.sort(tets[:, le], axis=2).reshape(-1, 2)  # (T*6, 2)
    keys = pairs[:, 0] * (m ** 3) + pairs[:, 1]
    _, first = np.unique(keys, return_index=True)
    edges = pairs[first]  # unique keys ascend, so edges are lexicographic in (lo, hi)
    key_to_id = {int(k): i for i, k in enumerate(edges[:, 0] * (m ** 3) + edges[:, 1])}

    tet_edges = np.empty((tets.shape[0], 6), dtype=np.int64)
    tet_edge_signs = np.empty((tets.shape[0], 6), dtype=np.int64)
    for t in range(tets.shape[0]):
        for k, (a, b) in enumerate(LOCAL_EDGES):
            va, vb = int(tets[t, a]), int(tets[t, b])
            lo2, hi2 = (va, vb) if va < vb else (vb, va)
            tet_edges[t, k] = key_to_id[lo2 * (m ** 3) + hi2]
            tet_edge_signs[t, k] = 1 if va < vb else -1

    tol = 1e-12 * length
    # the six face planes kept separate: x=0 and x=L are different planes
    on_face = np.hstack([np.abs(vertices) <= tol,
                         np.abs(vertices - length) <= tol])  # (V, 6)
    boundary_vertex = on_face.any(axis=1)
    # an edge is boundary iff both endpoints lie in one common face plane
    boundary_edge = (on_face[edges[:, 0]] & on_face[edges[:, 1]]).any(axis=1)

    edge_tets = [[] for _ in range(edges.shape[0])]
    for t in range(tets.shape[0]):
        for e in tet_edges[t]:
            edge_tets[int(e)].append(t)
    edge_tets = [np.array(lst, dtype=np.int64) for lst in edge_tets]

    coords = vertices[tets]  # (T, 4, 3)
    diffs = coords[:, le[:, 0], :] - coords[:, le[:, 1], :]
    h = float(np.sqrt((diffs ** 2).sum(axis=2)).max())

    return Mesh(n, float(length), vertices, tets, edges, tet_edges,
                tet_edge_signs, boundary_vertex, boundary_edge, edge_tets, h)


def support_tets(mesh: Mesh, edge_id: int) -> np.ndarray:
    """Ids of the tets sharing the given edge (the support of its basis function)."""
    if not 0 <= edge_id < mesh.n_edges:
        raise IndexError(f"edge id {edge_id} out of range")
    return mesh.edge_tets[edge_id]


def tet_volumes(mesh: Mesh) -> np.ndarray:
    coords = mesh.vertices[mesh.tets]
    mat = coords[:, 1:, :] - coords[:, :1, :]
    return np.linalg.det(mat) / 6.0


def shape_regularity_constant(mesh: Mesh) -> float:
    """max over tets of diam(T) / |T|^(1/3)."""
    coords = mesh.vertices[mesh.tets]
    le = np.array(LOCAL_EDGES)
    diffs = coords[:, le[:, 0], :] - coords[:, le[:, 1], :]
    diams = np.sqrt((diffs ** 2).sum(axis=2)).max(axis=1)
    return float((diams / np.cbrt(tet_volumes(mesh))).max())


def conformity_report(mesh: Mesh) -> dict:
    """Check face conformity; raises ValueError on a violation.

    Every interior triangular face must be shared by exactly two tets and
    every boundary face by exactly one.
    """
    faces = {}
    for t in range(mesh.n_tets):
        vs = mesh.tets[t]
        for drop in range(4):
            face = tuple(sorted(int(vs[i]) for i in range(4) if i != drop))
            faces[face] = faces.get(face, 0) + 1
    tol = 1e-12 * mesh.length
    n_int = n_bnd = 0
    for face, count in faces.items():
        pts = mesh.vertices[list(face)]
        on_plane = np.hstack([np.abs(pts) <= tol,
                              np.abs(pts - mesh.length) <= tol]).all(axis=0)
        if on_plane.any():
            if count != 1:
                raise ValueError(f"boundary face {face} shared by {count} tets")
            n_bnd += 1
        else:
            if count != 2:
                raise ValueError(f"interior face {face} shared by {count} tets")
            n_int += 1
    return {"interior_faces": n_int, "boundary_faces": n_bnd}


def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "n": mesh.n,
        "length": mesh.length,
        "h": mesh.h,
        "vertices": mesh.vertices.tolist(),
        "tets": mesh.tets.tolist(),
        "edges": mesh.edges.tolist(),
        "boundary_edges": np.flatnonzero(mesh.boundary_edge).tolist(),
    }
