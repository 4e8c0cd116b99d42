"""Low-rank compression against direct SVD oracles."""

import numpy as np
import pytest
from scipy.linalg import svdvals

from hmaxwell import (
    build_block_partition,
    build_box_mesh,
    build_cluster_tree,
    compress_dense,
    matvec,
    rmatvec,
    spectral_error,
    spectral_norm,
    to_dense,
    truncated_svd,
)
from hmaxwell import hmatrix
from hmaxwell.fem import build_dof_map


@pytest.fixture(scope="module")
def small_partition():
    mesh = build_box_mesh(4)
    dofmap = build_dof_map(mesh)
    tree = build_cluster_tree(mesh, dofmap, n_leaf=32)
    return build_block_partition(tree, eta=2.0), dofmap.n_dofs


def test_truncated_svd_is_eckart_young():
    """Spectral error of the rank-r factors equals sigma_{r+1} exactly."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        m = rng.integers(5, 41)
        n = rng.integers(5, 41)
        a = rng.standard_normal((m, n))
        if trial % 3 == 0:
            a = a + 1j * rng.standard_normal((m, n))
        sv = svdvals(a)
        for r in (0, 1, 3, min(m, n)):
            u, s, vh = truncated_svd(a, r)
            assert np.allclose(s, sv, atol=1e-12)
            err = np.linalg.norm(a - (u * s[:r]) @ vh, 2)
            expect = sv[r] if r < sv.size else 0.0
            assert abs(err - expect) < 1e-10
            # U has orthonormal columns
            k = u.shape[1]
            assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)


def symmetric(rng, n, dtype=float):
    """A random n x n matrix equal to its transpose bitwise (no conjugate)."""
    g = rng.standard_normal((n, n))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, n))
    return g + g.T


def test_compress_far_blocks_optimal_near_blocks_verbatim(small_partition, rng):
    part, n = small_partition
    a = symmetric(rng, n)
    h = compress_dense(a, part, rank=4)
    for (t, s), b in zip(part.far, h.far):
        sub = a[t.span, s.span]
        sv = svdvals(sub)
        err = np.linalg.norm(sub - b.X @ b.Y.conj().T, 2)
        expect = sv[4] if sv.size > 4 else 0.0
        assert abs(err - expect) < 1e-10
    for (t, s), b in zip(part.near, h.near):
        assert np.array_equal(b.data, a[t.span, s.span])
        assert not np.shares_memory(b.data, a)


def test_matvec_agrees_with_dense(small_partition, rng):
    part, n = small_partition
    a = symmetric(rng, n, complex)
    h = compress_dense(a, part, rank=3)
    hd = to_dense(h)
    for _ in range(3):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(matvec(h, x), hd @ x, atol=1e-12 * np.abs(hd).max() * n)
        assert np.allclose(rmatvec(h, x), hd.conj().T @ x,
                           atol=1e-12 * np.abs(hd).max() * n)
    # linearity
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(matvec(h, 2.0 * x - 3.0 * y),
                       2.0 * matvec(h, x) - 3.0 * matvec(h, y), atol=1e-10)


def test_spectral_error_matches_exact_norm(small_partition, rng):
    part, n = small_partition
    a = symmetric(rng, n)
    for r in (1, 4):
        h = compress_dense(a, part, rank=r)
        est, converged = spectral_error(a, h)
        exact = np.linalg.norm(a - to_dense(h), 2)
        assert converged
        assert abs(est - exact) <= 1e-12 * exact


def test_spectral_error_zero_for_exact_representation(small_partition):
    part, n = small_partition
    a = symmetric(np.random.default_rng(3), n)
    h = compress_dense(a, part, rank=10**9)  # full rank everywhere
    est, converged = spectral_error(a, h)
    assert converged
    assert est == 0.0
    # n=1: one DOF, one (admissible) 1x1 block, below ARPACK's k=1 minimum
    mesh = build_box_mesh(1)
    dofmap = build_dof_map(mesh)
    part1 = build_block_partition(build_cluster_tree(mesh, dofmap), eta=2.0)
    one = np.array([[-2.5]])
    assert spectral_error(one, compress_dense(one, part1, rank=1)) == (0.0, True)
    assert spectral_error(one, compress_dense(one, part1, rank=0)) == (2.5, True)


def test_spectral_norm_reports_arpack_convergence(rng, monkeypatch):
    g = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    a = g + g.T  # complex symmetric: the Takagi path
    est, converged, products = spectral_norm(a, seed=5)
    assert converged and products > 0
    assert abs(est - np.linalg.norm(a, 2)) <= 1e-12 * est
    # fixed start vector
    assert spectral_norm(a, seed=5) == (est, converged, products)
    monkeypatch.setattr(hmatrix, "ARPACK_MAX_ITER", 1)
    est, converged, _ = spectral_norm(a, seed=5)
    assert not converged and np.isnan(est)


def test_spectral_norm_picks_lanczos_by_symmetry(rng, monkeypatch,
                                                system_cache):
    """Any square input goes to eigsh, through the Takagi map when complex,
    and gives the LAPACK 2-norm of the symmetric matrix the upper triangle
    of its Fortran-ordered operand defines, triu(m) + triu(m, 1).T, to
    1e-12: m itself when F-ordered, m.T when C-ordered. A non-square input
    is a ValueError, and so is a rank sweep of an inverse one ulp off
    symmetric, whose one symmetry test is far_mirrors."""
    import scipy.sparse.linalg as sla

    from hmaxwell import rank_sweep
    from hmaxwell.fem import sparse_operator
    from hmaxwell.inverse_lab import dense_inverse

    used = []
    eigsh = sla.eigsh
    monkeypatch.setattr(sla, "eigsh",
                        lambda *a, **k: used.append("eigsh") or eigsh(*a, **k))
    n = 300  # more than one 256 x 256 tile
    g = rng.standard_normal((n, n))
    c = g + 1j * rng.standard_normal((n, n))
    for m in (g, c):
        for mat, upper in ((np.asfortranarray(m), m), (np.ascontiguousarray(m), m.T)):
            used.clear()
            est, converged, products = spectral_norm(mat, seed=2)
            assert used == ["eigsh"]
            assert converged and products > 0
            want = np.linalg.norm(np.triu(upper) + np.triu(upper, 1).T, 2)
            assert abs(est - want) <= 1e-12 * want
    used.clear()
    with pytest.raises(ValueError, match="square"):
        spectral_norm(g[:, :250], seed=2)
    assert used == []

    sysm = system_cache(3)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    binv[3, 90] = np.nextafter(binv[3, 90], np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        rank_sweep(binv, part, [1, 2])
    assert used == []


def test_spectral_norm_reads_every_real_layout_alike(rng):
    """A real matrix is applied by BLAS symv on a Fortran-ordered array: F-
    and C-ordered copies and a strided view of one symmetric matrix give
    bitwise-equal (norm, converged, products), and a C-ordered input is
    read through its transpose, not copied."""
    import tracemalloc

    g = rng.standard_normal((400, 400))
    sym = g + g.T
    big = np.zeros((800, 800))
    big[::2, ::2] = sym
    layouts = (np.asfortranarray(sym), np.ascontiguousarray(sym), big[::2, ::2])
    results = [spectral_norm(mat, seed=3) for mat in layouts]
    assert results[0][1] and results[0][2] > 0
    assert abs(results[0][0] - np.linalg.norm(sym, 2)) <= 1e-12 * results[0][0]
    assert results[1] == results[0] and results[2] == results[0]
    mat = layouts[1]
    tracemalloc.start()
    try:
        spectral_norm(mat, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes / 2


def test_compress_rejects_negative_rank(small_partition):
    part, n = small_partition
    with pytest.raises(ValueError):
        compress_dense(np.eye(n), part, rank=-1)


@pytest.mark.parametrize("dtype", [float, complex])
def test_compress_refuses_a_matrix_one_ulp_off_symmetric(small_partition, rng,
                                                          dtype):
    """compress_dense factors only a bitwise-symmetric matrix: one entry one
    ulp off its mirror's, in a far block, is a ValueError before any SVD."""
    part, n = small_partition
    a = symmetric(rng, n, dtype)
    t, s = next((t, s) for t, s in part.far if t.id > s.id)
    i, j = t.start, s.start
    a[i, j] += np.spacing(a[i, j].real)  # one ulp on the real part
    assert a[i, j] != a[j, i]
    with pytest.raises(ValueError, match="symmetric"):
        compress_dense(a, part, rank=2)
