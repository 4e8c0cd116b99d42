"""Box mesh structure against closed-form counts.

For an n x n x n grid of cubes, each split into 6 tets around the same
body diagonal:

    vertices        (n+1)^3
    tets            6 n^3
    edges           7 n^3 + 9 n^2 + 3 n
    boundary edges  18 n^2
    interior edges  7 n^3 - 9 n^2 + 3 n
    boundary faces  12 n^2
    interior faces  (24 n^3 - 12 n^2) / 2
"""

import dataclasses

import numpy as np
import pytest

from hmaxwell import build_box_mesh, conformity_report, shape_regularity_constant
from hmaxwell.fem import build_dof_map
from hmaxwell.mesh import (_AXIS_ORDERS, LOCAL_EDGES, Mesh, mesh_bytes,
                           mesh_to_dict, tet_volumes)
from hmaxwell.report import write_json


def loop_box_mesh(n, length=1.0):
    """Tet by tet construction of the Kuhn box mesh, with a dict from
    vertex-pair keys to edge ids: the oracle for build_box_mesh."""
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

    le = np.array(LOCAL_EDGES)
    pairs = np.sort(tets[:, le], axis=2).reshape(-1, 2)
    keys = pairs[:, 0] * (m ** 3) + pairs[:, 1]
    _, first = np.unique(keys, return_index=True)
    edges = pairs[first]
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
    on_face = np.hstack([np.abs(vertices) <= tol,
                         np.abs(vertices - length) <= tol])
    boundary_vertex = on_face.any(axis=1)
    boundary_edge = (on_face[edges[:, 0]] & on_face[edges[:, 1]]).any(axis=1)

    coords = vertices[tets]
    diffs = coords[:, le[:, 0], :] - coords[:, le[:, 1], :]
    h = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    return Mesh(n, float(length), vertices, tets, edges, tet_edges,
                tet_edge_signs, boundary_vertex, boundary_edge, h)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_mesh_matches_the_loop_oracle(n, length, tmp_path):
    """Every field bitwise equal to the tet-by-tet construction, and the
    written mesh.json byte for byte."""
    got, want = build_box_mesh(n, length), loop_box_mesh(n, length)
    for f in dataclasses.fields(Mesh):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and same_bits(a, b), f.name
    paths = [write_json(str(tmp_path / f"{tag}.json"), mesh_to_dict(mesh))
             for tag, mesh in (("got", got), ("want", want))]
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_entity_counts(n, mesh_cache):
    m = mesh_cache(n)
    assert m.n_vertices == (n + 1) ** 3
    assert m.n_tets == 6 * n**3
    assert m.n_edges == 7 * n**3 + 9 * n**2 + 3 * n
    assert int(m.boundary_edge.sum()) == 18 * n**2
    dofmap = build_dof_map(m)
    assert dofmap.n_dofs == 7 * n**3 - 9 * n**2 + 3 * n


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_faces_conform(n, mesh_cache):
    rep = conformity_report(mesh_cache(n))
    assert rep["boundary_faces"] == 12 * n**2
    assert rep["interior_faces"] == (24 * n**3 - 12 * n**2) // 2


def test_nonconforming_faces_rejected():
    """A repeated tet shares each of its faces once too often."""
    m = build_box_mesh(3)
    # subcube (1, 1, 1), tets 78-83, is the only one off the box faces
    interior = dataclasses.replace(m, tets=np.vstack([m.tets, m.tets[78:79]]))
    with pytest.raises(ValueError, match="interior face .* shared by 3 tets"):
        conformity_report(interior)
    corner = dataclasses.replace(m, tets=np.vstack([m.tets, m.tets[:1]]))
    with pytest.raises(ValueError, match="boundary face .* shared by 2 tets"):
        conformity_report(corner)


@pytest.mark.parametrize("n,length", [(1, 1.0), (2, 1.0), (3, 2.5), (4, 1.0)])
def test_volumes_tile_the_box(n, length, mesh_cache):
    m = mesh_cache(n, length)
    vols = tet_volumes(m)
    assert np.all(vols > 0)
    assert abs(vols.sum() - length**3) < 1e-12 * length**3
    # all Kuhn tets are congruent
    assert np.ptp(vols) < 1e-12 * vols[0]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_shape_regularity_is_size_independent(n, mesh_cache):
    gamma = shape_regularity_constant(mesh_cache(n))
    assert abs(gamma - np.sqrt(3.0) * 6.0 ** (1.0 / 3.0)) < 1e-12


@pytest.mark.parametrize("n,length", [(2, 1.0), (5, 1.0), (3, 2.0)])
def test_mesh_width_is_the_body_diagonal(n, length, mesh_cache):
    m = mesh_cache(n, length)
    assert abs(m.h - np.sqrt(3.0) * length / n) < 1e-13


def test_body_diagonal_edge_carries_six_tets(mesh_cache):
    """Inside every subcube the diagonal edge belongs to all 6 tets."""
    m = mesh_cache(2)
    counts = np.bincount(m.tet_edges.ravel(), minlength=m.n_edges)
    assert counts.max() == 6
    assert counts.min() >= 1
    # every diagonal edge (endpoints one grid step apart in all axes)
    # is shared by the 6 tets of its subcube, never more
    step = m.length / m.n
    d = np.abs(m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]])
    diag = np.all(np.isclose(d, step), axis=1)
    assert diag.sum() == m.n**3
    assert np.all(counts[diag] == 6)


def test_edges_are_sorted_and_unique(mesh_cache):
    m = mesh_cache(3)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    view = m.edges[np.lexsort(m.edges.T[::-1])]
    assert not np.any(np.all(view[1:] == view[:-1], axis=1))


def test_tet_edges_index_back_to_vertices(mesh_cache):
    """tet_edges/tet_edge_signs must reproduce each tet's vertex pairs."""
    m = mesh_cache(2)
    for t in range(m.n_tets):
        for k, (a, b) in enumerate(LOCAL_EDGES):
            e = m.tet_edges[t, k]
            va, vb = m.tets[t, a], m.tets[t, b]
            if m.tet_edge_signs[t, k] > 0:
                assert (m.edges[e, 0], m.edges[e, 1]) == (va, vb)
            else:
                assert (m.edges[e, 0], m.edges[e, 1]) == (vb, va)


@pytest.mark.parametrize("n", [1, 3])
def test_boundary_flags(n, mesh_cache):
    m = mesh_cache(n)
    on_box = (
        np.isclose(m.vertices, 0.0).any(axis=1)
        | np.isclose(m.vertices, m.length).any(axis=1)
    )
    assert np.array_equal(m.boundary_vertex, on_box)
    # an edge is boundary iff both endpoints sit on one of the six planes
    for e in range(m.n_edges):
        a, b = m.vertices[m.edges[e, 0]], m.vertices[m.edges[e, 1]]
        shared = np.any(
            (np.isclose(a, 0.0) & np.isclose(b, 0.0))
            | (np.isclose(a, m.length) & np.isclose(b, m.length))
        )
        assert m.boundary_edge[e] == shared


def test_single_cube_has_one_interior_edge(mesh_cache):
    """At n=1 only the body diagonal misses the boundary."""
    m = mesh_cache(1)
    dofmap = build_dof_map(m)
    assert dofmap.n_dofs == 1
    e = dofmap.interior_edges[0]
    d = m.vertices[m.edges[e, 1]] - m.vertices[m.edges[e, 0]]
    assert np.allclose(np.abs(d), 1.0)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        build_box_mesh(0)
    with pytest.raises(ValueError):
        build_box_mesh(3, length=0.0)


def test_n_beyond_int64_edge_keys_rejected_before_allocating():
    """From n = 1448 on, (n+1)^6 exceeds int64 and the edge keys would wrap:
    the mesh refuses that n with a MemoryError before building any array."""
    assert 1448 ** 6 <= np.iinfo(np.int64).max < 1449 ** 6
    with pytest.raises(MemoryError, match="overflow int64"):
        build_box_mesh(1448)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_mesh_bytes_counts_the_mesh_arrays(n, mesh_cache):
    """mesh_bytes(n), which build_box_mesh weighs against the host's memory
    before it builds anything, is the bytes of the arrays the mesh holds."""
    m = mesh_cache(n)
    arrays = [getattr(m, f.name) for f in dataclasses.fields(Mesh)]
    assert mesh_bytes(n) == sum(a.nbytes for a in arrays
                                if isinstance(a, np.ndarray))
