"""Geometric cluster tree over edge DOFs and the admissible block partition.

Each cluster carries two axis-aligned boxes: the support box (union of all
tets sharing a member edge, for reporting and the enclosing-cube side) and
the tight box of the member edge midpoints. A block (tau, sigma) is
eta-admissible when

    min(diam(M_tau), diam(M_sigma)) <= eta * dist(M_tau, M_sigma)

on the midpoint boxes M, with Euclidean diameters and the componentwise
box-to-box gap distance. Admissibility must use the midpoint boxes: the
support boxes are inflated by one mesh width per side, which at desk-scale
meshes leaves no admissible pair at all (min diam stays above eta times
any achievable gap) and would empty the far field. Splitting bisects the
midpoint box at the midpoint of its longest axis (ties go to the lower
child), which guarantees strictly shrinking point sets.

The tree also fixes the leaf order: the preorder concatenation of the leaf
index sets, a permutation of 0..N-1. Every cluster is the range
[start, stop) of that order, so in leaf order every block of the partition
is a product of two intervals and a contiguous slice of a dense matrix.
Cluster.indices is the view perm[start:stop], so a block's DOFs are listed
in the order of its rows and columns in leaf order.

Admissibility is symmetric, so every far block (tau, sigma) has its mirror
(sigma, tau); BlockPartition.mirror is the one home of which one is owned.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fem import DofMap
from .mesh import Mesh


@dataclass
class Cluster:
    indices: np.ndarray   # DOF ids in leaf order, a view of ClusterTree.perm
    bbox_lo: np.ndarray   # (3,) support box: covers every member support tet
    bbox_hi: np.ndarray
    mid_lo: np.ndarray    # (3,) tight box of the member edge midpoints
    mid_hi: np.ndarray
    level: int
    children: tuple = ()
    id: int = -1
    start: int = -1       # [start, stop): the cluster's range in leaf order
    stop: int = -1

    @property
    def size(self):
        return int(self.indices.size)

    @property
    def span(self):  # the cluster's rows or columns of a leaf-order matrix
        return slice(self.start, self.stop)

    @property
    def is_leaf(self):
        return not self.children

    @cached_property
    def diameter(self):
        """Euclidean diameter of the midpoint box (admissibility metric),
        computed once per cluster, not once per pair tested."""
        return float(np.linalg.norm(self.mid_hi - self.mid_lo))

    def cube_side(self):
        """Side of the smallest cube enclosing the support box."""
        return float((self.bbox_hi - self.bbox_lo).max())


@dataclass
class ClusterTree:
    root: Cluster
    n_leaf: int
    clusters: list          # preorder
    depth: int
    perm: np.ndarray        # leaf order: perm[c.start:c.stop] holds c's DOFs


def box_distance(lo1, hi1, lo2, hi2) -> float:
    gap = np.maximum(0.0, np.maximum(lo1 - hi2, lo2 - hi1))
    return float(np.linalg.norm(gap))


def is_admissible(c1: Cluster, c2: Cluster, eta: float) -> bool:
    d = box_distance(c1.mid_lo, c1.mid_hi, c2.mid_lo, c2.mid_hi)
    return min(c1.diameter, c2.diameter) <= eta * d


def build_cluster_tree(mesh: Mesh, dofmap: DofMap, n_leaf: int = 32) -> ClusterTree:
    if n_leaf < 1:
        raise ValueError("n_leaf must be >= 1")
    n = dofmap.n_dofs
    mids = mesh.vertices[mesh.edges[dofmap.interior_edges]].mean(axis=1)
    # each DOF's support box: the min/max over the vertex boxes of its tets
    coords = mesh.vertices[mesh.tets]
    dofs = dofmap.tet_dofs
    tet, slot = np.nonzero(dofs >= 0)
    sup_lo, sup_hi = np.full((n, 3), np.inf), np.full((n, 3), -np.inf)
    np.minimum.at(sup_lo, dofs[tet, slot], coords.min(axis=1)[tet])
    np.maximum.at(sup_hi, dofs[tet, slot], coords.max(axis=1)[tet])

    def build(idx, level):
        lo = sup_lo[idx].min(axis=0)
        hi = sup_hi[idx].max(axis=0)
        pts = mids[idx]
        plo, phi = pts.min(axis=0), pts.max(axis=0)
        if idx.size <= n_leaf:
            return Cluster(idx, lo, hi, plo, phi, level)
        axis = int(np.argmax(phi - plo))
        cut = 0.5 * (plo[axis] + phi[axis])
        left = pts[:, axis] <= cut
        if left.all() or not left.any():
            # all midpoints coincide on the longest axis; fall back to an
            # index split so the recursion still terminates
            left = np.zeros(idx.size, dtype=bool)
            left[: idx.size // 2] = True
        kids = (build(idx[left], level + 1), build(idx[~left], level + 1))
        return Cluster(idx, lo, hi, plo, phi, level, kids)

    root = build(np.arange(n, dtype=np.int64), 0)
    clusters = []

    def register(c, start):
        c.id = len(clusters)
        clusters.append(c)
        # the children split c's indices, so their ranges tile c's range
        c.start, c.stop = start, start + c.size
        for k in c.children:
            register(k, start)
            start = k.stop

    register(root, 0)
    perm = np.concatenate([c.indices for c in clusters if c.is_leaf])
    for c in clusters:
        c.indices = perm[c.span]
    depth = max(c.level for c in clusters)
    return ClusterTree(root, int(n_leaf), clusters, int(depth), perm)


@dataclass
class BlockPartition:
    """The partition of (root, root) by a symmetric test, so each far block
    (tau, sigma) has its mirror (sigma, tau), its transpose in a symmetric
    matrix. The owned one has tau.id <= sigma.id and lies on or above the
    diagonal: tau and sigma are equal or disjoint, the lower id first."""
    far: list    # (Cluster, Cluster) pairs, admissible
    near: list   # (Cluster, Cluster) pairs, both leaves
    eta: float
    tree: ClusterTree = field(repr=False, default=None)

    @property
    def n_dofs(self):
        return self.tree.root.size

    @cached_property
    def mirror(self) -> list:
        """Per far block (tau, sigma): the index in far of its partner
        (sigma, tau) if tau.id > sigma.id, a mirror; else None, owned."""
        where = {(t.id, s.id): i for i, (t, s) in enumerate(self.far)}
        return [where[s.id, t.id] if t.id > s.id else None for t, s in self.far]


def build_block_partition(tree: ClusterTree, eta: float = 2.0) -> BlockPartition:
    if not eta > 0:
        raise ValueError("eta must be positive")
    far, near = [], []

    def rec(t, s):
        if is_admissible(t, s, eta):
            far.append((t, s))
            return
        if t.is_leaf and s.is_leaf:
            near.append((t, s))
            return
        for a in t.children or (t,):
            for b in s.children or (s,):
                rec(a, b)

    rec(tree.root, tree.root)
    return BlockPartition(far, near, float(eta), tree)


def sparsity_constant(partition: BlockPartition) -> int:
    counts = {}
    for t, s in partition.far:
        counts[("r", t.id)] = counts.get(("r", t.id), 0) + 1
        counts[("c", s.id)] = counts.get(("c", s.id), 0) + 1
    return max(counts.values(), default=0)


def tiling_defect(partition: BlockPartition) -> int:
    """Number of (i, j) pairs not covered exactly once; 0 for a partition.

    In leaf order every block is a rectangle of ranges, so the cover count
    is constant on the cells of the grid cut at the block edges; it comes
    from a 2-D difference array on that grid, weighted by cell areas.
    """
    n = partition.n_dofs
    spans = np.array([(t.start, t.stop, s.start, s.stop)
                      for t, s in partition.far + partition.near],
                     dtype=np.int64).reshape(-1, 4)
    rcut = np.unique(np.concatenate([[0, n], spans[:, 0], spans[:, 1]]))
    ccut = np.unique(np.concatenate([[0, n], spans[:, 2], spans[:, 3]]))
    r0, r1 = np.searchsorted(rcut, spans[:, :2]).T
    c0, c1 = np.searchsorted(ccut, spans[:, 2:]).T
    diff = np.zeros((rcut.size, ccut.size), dtype=np.int64)
    for rows, cols, sign in ((r0, c0, 1), (r1, c0, -1), (r0, c1, -1),
                             (r1, c1, 1)):
        np.add.at(diff, (rows, cols), sign)
    cover = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    area = np.outer(np.diff(rcut), np.diff(ccut))
    return int(area[cover != 1].sum())


def partition_to_dict(partition: BlockPartition) -> dict:
    clusters = [{
        "id": c.id,
        "level": c.level,
        "indices": c.indices.tolist(),
        "box_lo": c.bbox_lo.tolist(),
        "box_hi": c.bbox_hi.tolist(),
        "midpoint_box_lo": c.mid_lo.tolist(),
        "midpoint_box_hi": c.mid_hi.tolist(),
        "cube_side": c.cube_side(),
        "children": [k.id for k in c.children],
    } for c in partition.tree.clusters]
    return {
        "eta": partition.eta,
        "n_leaf": partition.tree.n_leaf,
        "depth": partition.tree.depth,
        "sparsity_constant": sparsity_constant(partition),
        "clusters": clusters,
        "far": [[t.id, s.id] for t, s in partition.far],
        "near": [[t.id, s.id] for t, s in partition.near],
    }
