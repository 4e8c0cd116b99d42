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

import numpy as np
import pytest

from hmaxwell import build_box_mesh, conformity_report, shape_regularity_constant
from hmaxwell.fem import build_dof_map
from hmaxwell.mesh import support_tets, tet_volumes


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
    counts = np.array([len(support_tets(m, e)) for e in range(m.n_edges)])
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
    from hmaxwell.mesh import LOCAL_EDGES

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
