"""Cluster tree and block partition structure.

Every derived quantity (admissibility, sparsity constant, tiling) is
recomputed here from scratch with independent loops and compared against
the library's answers.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmaxwell import (
    box_distance,
    build_block_partition,
    build_cluster_tree,
    is_admissible,
    sparsity_constant,
    tiling_defect,
)
from hmaxwell.cluster import BlockPartition, Cluster
from hmaxwell.fem import build_dof_map


@pytest.fixture(scope="module")
def tree_and_partition(request):
    cache = {}

    def get(n, n_leaf=32, eta=2.0):
        key = (n, n_leaf, eta)
        if key not in cache:
            from hmaxwell import build_box_mesh

            mesh = build_box_mesh(n)
            dofmap = build_dof_map(mesh)
            tree = build_cluster_tree(mesh, dofmap, n_leaf=n_leaf)
            part = build_block_partition(tree, eta=eta)
            cache[key] = (mesh, dofmap, tree, part)
        return cache[key]

    return get


def edge_midpoints(mesh, dofmap):
    e = mesh.edges[dofmap.interior_edges]
    return 0.5 * (mesh.vertices[e[:, 0]] + mesh.vertices[e[:, 1]])


def test_leaves_partition_the_index_set(tree_and_partition):
    mesh, dofmap, tree, _ = tree_and_partition(3)
    seen = np.concatenate([c.indices for c in tree.clusters if c.is_leaf])
    assert np.array_equal(np.sort(seen), np.arange(dofmap.n_dofs))
    for c in tree.clusters:
        assert c.size > 0
        if c.is_leaf:
            assert c.size <= tree.n_leaf
        else:
            a, b = c.children
            assert np.array_equal(np.concatenate([a.indices, b.indices]),
                                  c.indices)
            assert a.level == b.level == c.level + 1


def support_tets_by_loop(mesh):
    """Per edge, the tets listing it in tet_edges, found tet by tet."""
    tets = [[] for _ in range(mesh.n_edges)]
    for t, row in enumerate(mesh.tet_edges):
        for e in row:
            tets[int(e)].append(t)
    return tets


def test_boxes_cover_their_members(tree_and_partition):
    mesh, dofmap, tree, _ = tree_and_partition(3)
    mids = edge_midpoints(mesh, dofmap)
    edge_tets = support_tets_by_loop(mesh)
    for c in tree.clusters:
        pts = mids[c.indices]
        assert np.all(pts >= c.mid_lo - 1e-12) and np.all(pts <= c.mid_hi + 1e-12)
        assert np.all(c.bbox_lo <= c.mid_lo + 1e-12)
        assert np.all(c.bbox_hi >= c.mid_hi - 1e-12)
        # support box covers every tet touching a member edge
        for d in c.indices[:: max(1, c.size // 8)]:
            e = dofmap.interior_edges[d]
            for t in edge_tets[e]:
                verts = mesh.vertices[mesh.tets[t]]
                assert np.all(verts >= c.bbox_lo - 1e-12)
                assert np.all(verts <= c.bbox_hi + 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_support_boxes_match_a_per_edge_oracle(n):
    """With one DOF per leaf, each leaf's support box is bitwise the min/max
    over the vertices of the tets of its edge, and each cluster's box is
    bitwise the min/max over its members' boxes."""
    from hmaxwell import build_box_mesh

    mesh = build_box_mesh(n)
    dofmap = build_dof_map(mesh)
    edge_tets = support_tets_by_loop(mesh)
    lo = np.empty((dofmap.n_dofs, 3))
    hi = np.empty((dofmap.n_dofs, 3))
    for d, e in enumerate(dofmap.interior_edges):
        pts = mesh.vertices[mesh.tets[edge_tets[e]]].reshape(-1, 3)
        lo[d], hi[d] = pts.min(axis=0), pts.max(axis=0)
    mids = edge_midpoints(mesh, dofmap)
    tree = build_cluster_tree(mesh, dofmap, n_leaf=1)
    for c in tree.clusters:
        if c.is_leaf:
            assert c.size == 1
            (d,) = c.indices
            assert c.mid_lo.tobytes() == c.mid_hi.tobytes() == mids[d].tobytes()
        assert c.bbox_lo.tobytes() == lo[c.indices].min(axis=0).tobytes()
        assert c.bbox_hi.tobytes() == hi[c.indices].max(axis=0).tobytes()


def scratch_distance(lo1, hi1, lo2, hi2):
    gap = np.maximum(0.0, np.maximum(lo2 - hi1, lo1 - hi2))
    return float(np.linalg.norm(gap))


def scratch_admissible(c1, c2, eta):
    d1 = np.linalg.norm(c1.mid_hi - c1.mid_lo)
    d2 = np.linalg.norm(c2.mid_hi - c2.mid_lo)
    dist = scratch_distance(c1.mid_lo, c1.mid_hi, c2.mid_lo, c2.mid_hi)
    return min(d1, d2) <= eta * dist


def test_box_distance_cases():
    lo = np.zeros(3)
    hi = np.ones(3)
    assert box_distance(lo, hi, lo, hi) == 0.0
    assert box_distance(lo, hi, lo + 0.5, hi + 0.5) == 0.0  # overlap
    assert abs(box_distance(lo, hi, lo + 3.0, hi + 3.0) - 2.0 * np.sqrt(3.0)) < 1e-14
    shifted = (lo + np.array([2.0, 0.0, 0.0]), hi + np.array([2.0, 0.0, 0.0]))
    assert abs(box_distance(lo, hi, *shifted) - 1.0) < 1e-14


def test_admissibility_inequality_cases():
    mk = lambda lo, hi: Cluster(np.arange(1), np.asarray(lo, float),
                                np.asarray(hi, float), np.asarray(lo, float),
                                np.asarray(hi, float), 0)
    unit = mk([0, 0, 0], [1, 1, 1])
    far = mk([11, 0, 0], [12, 1, 1])
    assert not is_admissible(unit, unit, eta=1.0)      # dist 0
    assert is_admissible(unit, far, eta=1.0)           # sqrt(3) <= 10
    assert is_admissible(far, unit, eta=1.0)           # symmetric


@pytest.mark.parametrize("n,eta", [(3, 2.0), (4, 2.0), (4, 1.0)])
def test_partition_far_and_near_fields(n, eta, tree_and_partition):
    _, dofmap, tree, part = tree_and_partition(n, eta=eta)
    assert part.eta == eta
    for t, s in part.far:
        assert scratch_admissible(t, s, eta)
    for t, s in part.near:
        assert t.is_leaf and s.is_leaf
        assert not scratch_admissible(t, s, eta)


def test_partition_takes_one_diameter_per_cluster(tree_and_partition,
                                                  monkeypatch):
    """build_block_partition computes each cluster's midpoint-box diameter
    once, not twice per pair it tests (12,786 times for 6,393 pairs at
    n = 8), and gets the same blocks."""
    mesh, dofmap, _, part = tree_and_partition(5)
    calls, diameter = [], Cluster.diameter.func
    spy = functools.cached_property(lambda c: calls.append(c.id) or diameter(c))
    spy.__set_name__(Cluster, "diameter")
    monkeypatch.setattr(Cluster, "diameter", spy)
    tree = build_cluster_tree(mesh, dofmap)
    again = build_block_partition(tree, eta=2.0)
    assert sorted(calls) == [c.id for c in tree.clusters]
    assert ([(t.id, s.id) for t, s in again.far + again.near]
            == [(t.id, s.id) for t, s in part.far + part.near])


def cover_defect(blocks, n_dofs):
    """Pairs (i, j) not covered exactly once, counted on an N x N cover
    array in the original numbering."""
    cover = np.zeros((n_dofs, n_dofs), dtype=np.int32)
    for t, s in blocks:
        cover[np.ix_(t.indices, s.indices)] += 1
    return int((cover != 1).sum())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partition_tiles_exactly(n, tree_and_partition):
    _, dofmap, tree, part = tree_and_partition(n)
    assert tiling_defect(part) == 0
    assert cover_defect(part.far + part.near, dofmap.n_dofs) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_tiling_defect_counts_missing_and_duplicate_blocks(n, tree_and_partition):
    """A dropped far block leaves its area uncovered; a duplicated near
    block covers its area twice."""
    _, dofmap, tree, part = tree_and_partition(n, n_leaf=8)
    N = dofmap.n_dofs
    k = len(part.far) // 2
    t, s = part.far[k]
    dropped = BlockPartition(part.far[:k] + part.far[k + 1:], part.near,
                             part.eta, tree)
    assert tiling_defect(dropped) == t.size * s.size
    assert tiling_defect(dropped) == cover_defect(dropped.far + dropped.near, N)
    u, v = part.near[len(part.near) // 3]
    doubled = BlockPartition(part.far, part.near + [(u, v)], part.eta, tree)
    assert tiling_defect(doubled) == u.size * v.size
    assert tiling_defect(doubled) == cover_defect(doubled.far + doubled.near, N)


@functools.lru_cache(maxsize=None)
def leaf_order_tree(n, n_leaf):
    from hmaxwell import build_box_mesh

    mesh = build_box_mesh(n)
    dofmap = build_dof_map(mesh)
    return mesh, dofmap, build_cluster_tree(mesh, dofmap, n_leaf=n_leaf)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                max_size=12))
def test_tiling_defect_matches_cover_count_on_any_blocks(picks):
    """Any list of cluster pairs, overlapping or not, gives the cover
    count of the N x N oracle."""
    _, dofmap, tree = leaf_order_tree(3, 6)
    cs = tree.clusters
    blocks = [(cs[i % len(cs)], cs[j % len(cs)]) for i, j in picks]
    part = BlockPartition(blocks, [], 2.0, tree)
    assert tiling_defect(part) == cover_defect(blocks, dofmap.n_dofs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 40))
def test_leaf_order_makes_every_cluster_a_range(n, n_leaf):
    """The leaf order is a permutation of 0..N-1 and every cluster's DOFs
    are its [start, stop) range of it, held as a view of the order."""
    _, dofmap, tree = leaf_order_tree(n, n_leaf)
    perm = tree.perm
    assert np.array_equal(np.sort(perm), np.arange(dofmap.n_dofs))
    for c in tree.clusters:
        assert np.shares_memory(c.indices, perm)
        assert np.array_equal(c.indices, perm[c.start:c.stop])
        assert np.array_equal(c.indices, perm[c.span])


def test_gathered_blocks_are_leaf_order_slices(tree_and_partition):
    """On a DOF-order matrix, gathering a block by its clusters' indices
    gives bitwise the block's slice of the leaf-order matrix."""
    _, dofmap, tree, part = tree_and_partition(4)
    n = dofmap.n_dofs
    dense = np.random.default_rng(4).standard_normal((n, n))
    perm = tree.perm
    leaf = dense[perm][:, perm]
    assert part.far and part.near
    for t, s in part.far + part.near:
        gathered = dense[np.ix_(t.indices, s.indices)]
        assert gathered.tobytes() == leaf[t.start:t.stop, s.start:s.stop].tobytes()


def test_sparsity_constant_recount(tree_and_partition):
    """C_sp counts far-field partners only, in either block orientation."""
    _, _, tree, part = tree_and_partition(4)
    partners = {}
    for t, s in part.far:
        partners.setdefault(t.id, set()).add(s.id)
        partners.setdefault(s.id, set()).add(t.id)
    expect = max(len(v) for v in partners.values())
    assert sparsity_constant(part) == expect


@pytest.mark.parametrize("n, counts", [(4, (94, 129, 10, 4)),
                                       (5, (386, 363, 16, 6)),
                                       (6, (798, 765, 28, 6)),
                                       (8, (2756, 2033, 29, 7))])
def test_partition_at_the_cited_sizes(n, counts, tree_and_partition):
    """(far blocks, near blocks, C_sp, depth) at eta = 2 and leaf size 32,
    the sizes the README and the criteria cite. Rounding decides exact
    lattice ties in the bisection and the admissibility test (at n = 6,
    exact arithmetic on the same tree gives 886 far blocks), so these pin
    the floating-point decisions as well as the rule."""
    _, _, tree, part = tree_and_partition(n)
    assert (len(part.far), len(part.near), sparsity_constant(part),
            tree.depth) == counts


@pytest.mark.parametrize("n", [2, 4])
def test_depth_scales_logarithmically(n, tree_and_partition):
    _, dofmap, tree, _ = tree_and_partition(n)
    assert tree.depth == max(c.level for c in tree.clusters)
    assert tree.depth <= 3 * np.log2(dofmap.n_dofs) + 2


def test_tree_build_is_deterministic(tree_and_partition):
    from hmaxwell import build_box_mesh

    mesh = build_box_mesh(3)
    dofmap = build_dof_map(mesh)
    t1 = build_cluster_tree(mesh, dofmap, n_leaf=16)
    t2 = build_cluster_tree(mesh, dofmap, n_leaf=16)
    assert len(t1.clusters) == len(t2.clusters)
    for a, b in zip(t1.clusters, t2.clusters):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.mid_lo, b.mid_lo)
        assert a.id == b.id and a.level == b.level


@pytest.mark.parametrize("n", [1, 4, 5, 8])
def test_mirror_pairs_each_far_block_with_its_transpose(n, tree_and_partition):
    """partition.mirror is an involution on the far list: a mirror (tau,
    sigma), tau.id > sigma.id, names the owned block (sigma, tau), and
    every owned block is named by at most one mirror, its own transpose.
    The owned blocks are those with tau.id <= sigma.id, each on or above
    the diagonal in leaf order; at n = 1 the one far block, (root, root),
    is owned."""
    _, _, tree, part = tree_and_partition(n)
    mirror = part.mirror
    assert len(mirror) == len(part.far) and part.mirror is mirror  # cached
    partner = list(range(len(part.far)))
    for i, ((t, s), j) in enumerate(zip(part.far, mirror)):
        if j is None:
            assert t.id <= s.id and t.start <= s.start
            if t is not s:
                assert t.stop <= s.start
            continue
        assert t.id > s.id and mirror[j] is None
        assert part.far[j] == (s, t)
        partner[i], partner[j] = j, i
    for i, j in enumerate(partner):
        assert partner[j] == i
        assert part.far[j] == part.far[i][::-1]
    owned = sum(t.id <= s.id for t, s in part.far)
    assert mirror.count(None) == owned
    assert len(part.far) == 2 * owned - sum(t is s for t, s in part.far)
    if n == 1:
        assert [(t.id, s.id) for t, s in part.far] == [(0, 0)]
        assert mirror == [None]
