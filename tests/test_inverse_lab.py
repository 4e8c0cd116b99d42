"""Inverse compression experiments against direct linear-algebra oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh, svdvals

from hmaxwell import (
    assemble_system,
    build_block_partition,
    build_box_mesh,
    build_cluster_tree,
    dense_inverse,
    dual_basis,
    fit_decay,
    rank_sweep,
    theorem_transfer_check,
)
from hmaxwell import hmatrix, inverse_lab
from hmaxwell.checks import check_transfer
from hmaxwell.cluster import sparsity_constant
from hmaxwell.fem import (apply_dual_functionals, build_dof_map, riesz_rhs,
                          solve_system, sparse_operator)
from hmaxwell.hmatrix import (compress_dense, far_mirrors, owned_svds,
                              spectral_norm, to_dense)


@pytest.fixture(scope="module")
def lab3():
    mesh = build_box_mesh(3)
    sysm = assemble_system(mesh)
    tree = build_cluster_tree(mesh, sysm.dofmap, n_leaf=16)
    part = build_block_partition(tree, eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), tree.perm)
    return sysm, part, binv


def test_single_dof_inverse(mesh_cache):
    """n=1 leaves exactly one interior edge; the inverse is the scalar
    reciprocal."""
    sysm = assemble_system(mesh_cache(1))
    assert sysm.A.shape == (1, 1)
    binv = dense_inverse(sparse_operator(sysm), np.arange(1))
    assert abs(binv[0, 0] - 1.0 / sysm.A[0, 0]) < 1e-14 * abs(1.0 / sysm.A[0, 0])


def test_dense_inverse_identity_and_symmetry(lab3):
    sysm, part, binv = lab3
    n = sysm.n_dofs
    perm = part.tree.perm
    assert np.abs(sysm.A[perm][:, perm] @ binv - np.eye(n)).max() < 1e-8
    # A symmetric implies A^{-1} symmetric, up to solver roundoff
    assert np.abs(binv - binv.T).max() < 1e-8 * np.abs(binv).max()


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_dense_inverse_matches_numpy_inverse(system_cache, kappa):
    """The leaf-order inverse is numpy's inverse of the dense A permuted
    by the tree's order, and the identity order gives the DOF-order
    inverse."""
    sysm = system_cache(3, kappa)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16).perm
    assert not np.array_equal(perm, np.arange(perm.size))
    want = np.linalg.inv(sysm.A)
    scale = np.abs(want).max()
    op = sparse_operator(sysm)
    got = dense_inverse(op, perm)
    assert np.abs(got - want[np.ix_(perm, perm)]).max() <= 1e-10 * scale
    got = dense_inverse(op, np.arange(perm.size))
    assert np.abs(got - want).max() <= 1e-10 * scale


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_dense_inverse_is_bitwise_symmetric(system_cache, kappa):
    """A = A^T, and the inverse returned equals its transpose bitwise; at
    n = 4, N = 316 spans two 256 x 256 tiles."""
    sysm = system_cache(4, kappa)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16).perm
    b = dense_inverse(sparse_operator(sysm), perm)
    assert b.shape[0] > 256
    assert (b == b.T).all()


@pytest.mark.parametrize("n, kappa", [(4, 30.0), (5, 12.0), (5, 47 + 1j)])
def test_dense_inverse_pivots(system_cache, n, kappa, monkeypatch):
    """Where sytrf interchanges rows and takes 2 x 2 pivots, the inverse is
    still numpy's inverse of the permuted A to 1e-12 relative, and bitwise
    symmetric; the factor is checked to have both, so the test cannot pass
    without them. At kappa = 47 + 1i a 2 x 2 pivot straddles a multiple of
    PRODUCT_ROWS, so a block row must shift around it. The same holds with
    blocks of 16 rows and panels of 50, where block rows take several
    panels and the blocks of both shift around many pivots."""
    sysm = system_cache(n, kappa)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16).perm
    op = sparse_operator(sysm)
    dense = op[perm][:, perm].toarray()
    (sytrf,) = scipy.linalg.get_lapack_funcs(("sytrf",), (dense,))
    _, ipiv, info = sytrf(dense, lower=1)
    assert info == 0
    assert (np.abs(ipiv) != np.arange(1, ipiv.size + 1)).sum() >= 20
    starts = np.flatnonzero(ipiv < 0)[::2]
    assert starts.size >= 5
    if kappa == 47 + 1j:
        assert ((starts + 1) % inverse_lab.PRODUCT_ROWS == 0).any()
    want = np.linalg.inv(dense)
    for rows, panel in [(inverse_lab.PRODUCT_ROWS, inverse_lab.PANEL_ROWS),
                        (16, 50)]:
        monkeypatch.setattr(inverse_lab, "PRODUCT_ROWS", rows)
        monkeypatch.setattr(inverse_lab, "PANEL_ROWS", panel)
        got = dense_inverse(op, perm)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert (got == got.T).all()


def test_dense_inverse_holds_one_dense_array(system_cache):
    """sytrf factors the densified A in place, trtri inverts L in place and
    the product writes into the triangle above it: the traced peak stays
    near one N x N array. At n = 7 (N = 1,981) the product holds one
    PANEL_ROWS x PRODUCT_ROWS panel at a time, 1 MB against the inverse's
    31 MB, the residual guard one RESIDUAL_ROWS x N product, 1 MB, and
    nothing makes an N x N finiteness mask (peak 1.07 arrays; a mask alone
    is 0.125 of one); solving into a separate identity peaks above two."""
    sysm = system_cache(7)
    op = sparse_operator(sysm)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap).perm
    tracemalloc.start()
    try:
        binv = dense_inverse(op, perm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert binv.shape[0] == 1981
    assert peak < 1.1 * binv.nbytes


def corrupted(trtri):
    """trtri whose Z = L^{-1} has one entry below the diagonal off by 1e-5."""
    def bad(*args, **kwargs):
        z, info = trtri(*args, **kwargs)
        z[7, 5] += 1e-5
        return z, info
    return bad


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_dense_inverse_residual_guard(system_cache, kappa, patch_lapack,
                                      monkeypatch):
    """The sparse residual check rejects rounding-level residuals under an
    impossible limit, and at the default limit it catches a corrupted
    factor, reporting the dense residual max |A B - I| of the permuted A
    and B = Z^T D^{-1} Z from the corrupted Z (at n = 3, sytrf makes no
    interchange and no 2 x 2 pivot, so D is diagonal)."""
    sysm = system_cache(3, kappa)
    op = sparse_operator(sysm)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16).perm
    a = sysm.A[perm][:, perm]
    with monkeypatch.context() as patch:
        patch.setattr(inverse_lab, "RESIDUAL_LIMIT", 1e-30)
        with pytest.raises(ValueError, match="inverse residual"):
            dense_inverse(op, perm)

    sytrf, trtri = scipy.linalg.get_lapack_funcs(("sytrf", "trtri"), (a,))
    ldl, ipiv, _ = sytrf(a, lower=1)
    assert (ipiv == np.arange(1, a.shape[0] + 1)).all()
    z = corrupted(trtri)(ldl, lower=1, unitdiag=1)[0]
    z = np.tril(z, -1) + np.eye(a.shape[0])
    bad = z.T @ (z / ldl.diagonal()[:, None])
    patch_lapack("trtri", corrupted)
    with pytest.raises(ValueError, match="inverse residual") as info:
        dense_inverse(op, perm)
    dense = np.abs(a @ bad - np.eye(a.shape[0])).max()
    reported = float(str(info.value).split()[2])
    assert reported == pytest.approx(dense, rel=1e-3)


@pytest.mark.parametrize("routine", ["sytrf", "trtri"])
@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_dense_inverse_rejects_lapack_failure(system_cache, kappa, routine,
                                              patch_lapack):
    """A nonzero info from the factorization or the triangular inverse is
    an error, never a returned matrix."""
    sysm = system_cache(3, kappa)
    patch_lapack(routine, lambda f: lambda *a, **k: (*f(*a, **k)[:-1], 1))
    with pytest.raises(ValueError, match=rf"{routine} failed \(info 1\)"):
        dense_inverse(sparse_operator(sysm), np.arange(sysm.n_dofs))


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_dense_inverse_condition_number_is_exact(system_cache, kappa,
                                                 monkeypatch):
    """The guard reads the exact 1-norm condition number: at n = 3 it
    accepts a limit 1e-12 above numpy's cond(A, 1) and refuses one 1e-12
    below it, naming the value."""
    sysm = system_cache(3, kappa)
    perm = build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16).perm
    want = np.linalg.cond(sysm.A[perm][:, perm], 1)
    monkeypatch.setattr(inverse_lab, "COND_LIMIT", want * (1 + 1e-12))
    dense_inverse(sparse_operator(sysm), perm)
    monkeypatch.setattr(inverse_lab, "COND_LIMIT", want * (1 - 1e-12))
    with pytest.raises(ValueError, match="ill-conditioned") as info:
        dense_inverse(sparse_operator(sysm), perm)
    assert f"{want:.3e}" in str(info.value)


def test_dense_inverse_rejects_near_singular(mesh_cache):
    """kappa at a discrete eigenvalue makes A singular."""
    m = mesh_cache(2)
    sysm = assemble_system(m)
    w = eigh(sysm.K.toarray(), sysm.M.toarray(), eigvals_only=True)
    bad = float(w[np.argmax(w > 1e-8)])  # smallest nonzero pencil eigenvalue
    sick = assemble_system(m, kappa=bad)
    with pytest.raises(ValueError, match="kappa"):
        dense_inverse(sparse_operator(sick), np.arange(sick.n_dofs))


def test_rank_sweep_errors_match_exact_svd(lab3, monkeypatch):
    """The rows match LAPACK, and the sweep consumes its Fortran-ordered
    input: on return it is the last matrix whose norm was taken, and on and
    above the diagonal it holds E_{r_max}, zero on every near block there
    and the truncation error of the far blocks to rounding."""
    _, part, binv = lab3
    r_list = [0, 1, 2, 4, 8]
    seen = []

    def spy(mat, *args, **kwargs):
        seen.append(mat.copy())
        return spectral_norm(mat, *args, **kwargs)

    monkeypatch.setattr(inverse_lab, "spectral_norm", spy)
    work = binv.copy(order="F")
    rows = rank_sweep(work, part, r_list)
    monkeypatch.undo()
    assert np.array_equal(work, seen[-1])
    assert all((work[t.span, s.span] == 0).all() for t, s in part.near
               if t.id <= s.id)
    want = binv - to_dense(compress_dense(binv, part, max(r_list)))
    assert np.abs(np.triu(work) - np.triu(want)).max() <= 1e-12 * np.abs(binv).max()
    assert [row.r for row in rows] == sorted(r_list)
    norm_b = np.linalg.norm(binv, 2)
    for row in rows:
        h = compress_dense(binv, part, row.r)
        exact = np.linalg.norm(binv - to_dense(h), 2)
        assert row.converged
        assert abs(row.abs_err - exact) <= 1e-6 * max(exact, 1e-30)
        assert abs(row.rel_err - row.abs_err / norm_b) < 1e-12
        # block-to-global bound, recomputed from scratch
        sig = 0.0
        for t, s in part.far:
            sv = svdvals(binv[t.span, s.span])
            if row.r < sv.size:
                sig = max(sig, sv[row.r])
        assert abs(row.max_block_sigma - sig) < 1e-12
        c_sp = sparsity_constant(part)
        depth = part.tree.depth
        assert abs(row.bound_value - c_sp * (depth + 1) * sig) < 1e-12
        assert row.abs_err <= row.bound_value * (1.0 + 1e-6) + 1e-30
    errs = [row.abs_err for row in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))  # nonincreasing


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_rank_sweep_norm_is_exact_residual_norm(system_cache, kappa,
                                                truncation_residual):
    """At n = 3 and 4, the Lanczos norm of the explicit residual matches
    LAPACK's norm of binv - B_H, each mirrored pair of far blocks truncated
    by one LAPACK SVD, to 1e-10 relative, for real and complex kappa, and
    the row's bracket [abs_err, fro_upper] holds that norm to rounding."""
    for n in (3, 4):
        sysm = system_cache(n, kappa)
        part = build_block_partition(
            build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
        binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
        rows = rank_sweep(binv.copy(), part, [0, 1, 2, 4, 8])
        for row in rows:
            res = truncation_residual(binv, part, row.r)
            exact = np.linalg.norm(res, 2)
            assert row.converged
            assert abs(row.abs_err - exact) <= 1e-10 * exact
            assert row.abs_err <= exact * (1.0 + 1e-12)
            assert exact <= row.fro_upper * (1.0 + 1e-12)
            assert row.fro_upper == pytest.approx(np.linalg.norm(res),
                                                  rel=1e-12, abs=0.0)


def reference_sweep_row(binv, part, r):
    """E_r written block by block into a zero N x N leaf-order array, and
    the row's scalars, from one LAPACK SVD of each far block (tau, sigma)
    with tau.id <= sigma.id; its mirror (sigma, tau) takes the transpose
    and the same singular values, so that B_H = B_H^T as the sweep defines
    it."""
    err = np.zeros_like(binv)
    sig = fro2 = 0.0
    scalars = sum(t.size * s.size for t, s in part.near)
    sigmas = {}
    for t, s in part.far:
        if t.id <= s.id:
            u, sv, vh = np.linalg.svd(binv[t.span, s.span], full_matrices=False)
            k = min(r, sv.size)
            err[t.span, s.span] = (u[:, k:] * sv[k:]) @ vh[k:]
            sigmas[t.id, s.id] = sv
    for t, s in part.far:
        sv = sigmas[min(t.id, s.id), max(t.id, s.id)]
        k = min(r, sv.size)
        if t.id > s.id:
            err[t.span, s.span] = err[s.span, t.span].T
        scalars += k * (t.size + s.size)
        fro2 += float(np.sum(sv[k:] ** 2))
        if r < sv.size:
            sig = max(sig, float(sv[r]))
    bound = sparsity_constant(part) * (part.tree.depth + 1) * sig
    return err, sig, bound, scalars, float(np.sqrt(fro2))


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
@pytest.mark.parametrize("n", [3, 4])
def test_incremental_sweep_matches_scattered_residual(system_cache, n, kappa):
    """The in-place leaf-order updates give the error of the explicit
    scatter at every rank, for an unsorted rank list with a duplicate, 0,
    and a rank above the smallest far block's size. The partition owns far
    blocks with |tau| < |sigma|, |tau| > |sigma| and |tau| = |sigma|, so
    both the left and the right projection are checked."""
    sysm = system_cache(n, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    r_list = [8, 0, 2, 2, 40]
    assert min(min(t.size, s.size) for t, s in part.far) < 40
    shapes = {int(np.sign(t.size - s.size)) for t, s in part.far if t.id <= s.id}
    assert shapes == {-1, 0, 1}  # left, right and square projections
    rows = rank_sweep(binv.copy(), part, r_list)
    assert [row.r for row in rows] == sorted(r_list)
    for row in rows:
        err, sig, bound, scalars, fro = reference_sweep_row(binv, part, row.r)
        exact = np.linalg.norm(err, 2)
        assert row.abs_err == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert row.max_block_sigma == sig
        assert row.bound_value == bound
        assert row.scalars == scalars
        assert row.fro_upper == pytest.approx(fro, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_sweep_errors_live_on_one_triangle(system_cache, kappa, monkeypatch):
    """The sweep keeps each E_r on the upper triangle of its input's
    Fortran-ordered operand, the only part spectral_norm reads: at every
    norm, a copy whose strict lower triangle is NaN gives the same result
    bitwise, and every SweepRow is bitwise a clean run's, for C- and
    F-ordered input, an unsorted rank list with a duplicate, 0, and a rank
    above the smallest far block's size. The upper triangle of each E_r
    whose norm is taken is the error scattered from per-block LAPACK SVDs
    to rounding."""
    sysm = system_cache(4, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    ranks = [8, 0, 2, 2, 40]
    clean = repr(rank_sweep(binv.copy(), part, ranks))
    n, seen = binv.shape[0], []

    def poison(mat, *args, **kwargs):
        assert mat.flags.f_contiguous
        seen.append(np.triu(mat))
        dirty = mat.copy(order="F")
        dirty[np.tril_indices(n, -1)] = np.nan
        out = spectral_norm(mat, *args, **kwargs)
        assert repr(spectral_norm(dirty, *args, **kwargs)) == repr(out)
        return out

    monkeypatch.setattr(inverse_lab, "spectral_norm", poison)
    for order in "CF":
        seen.clear()
        rows = rank_sweep(binv.copy(order=order), part, ranks)
        assert repr(rows) == clean
        assert np.array_equal(seen[0], np.triu(binv))
        assert len(seen) == 1 + sum(row.products > 0 for row in rows)
    scale = np.abs(binv).max()
    for row, err in zip((row for row in rows if row.products), seen[1:]):
        ref = reference_sweep_row(binv, part, row.r)[0]
        assert np.abs(err - np.triu(ref)).max() <= 1e-12 * scale


def test_sweep_tests_symmetry_once(system_cache, monkeypatch):
    """A sweep at n = 4 makes one full-array symmetry test, far_mirrors on
    A^{-1}, and none per rank: far_mirrors, under either module's name, is
    called once, and compares each pair of mirrored tiles once."""
    sysm = system_cache(4)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    calls, compared, test = [], [], hmatrix.far_mirrors
    for owner in (hmatrix, inverse_lab):
        monkeypatch.setattr(owner, "far_mirrors",
                            lambda *a: calls.append(1) or test(*a))
    equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda *a: compared.append(1) or equal(*a))
    rows = rank_sweep(binv, part, [1, 2, 4, 8])
    monkeypatch.undo()
    assert len(calls) == 1 and all(row.products > 0 for row in rows)
    assert len(compared) == len(list(hmatrix.tile_pairs(binv.shape[0])))


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_fully_truncated_error_is_exactly_zero(system_cache, kappa):
    """From the rank where every far block is truncated to its full rank,
    E_r is zero: the sweep records norm 0, converged, 0 products, without
    a Lanczos start on the zero operator. At n = 2 with leaves of 8 DOFs
    that rank is the largest far block's; with one leaf of all 26 DOFs
    there is no far block, and E_r is zero from rank 0 on."""
    sysm = system_cache(2, kappa)
    for n_leaf in (8, 32):
        part = build_block_partition(
            build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=n_leaf), eta=2.0)
        binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
        full = max((min(t.size, s.size) for t, s in part.far), default=0)
        assert (full > 0) == (n_leaf == 8)
        rows = rank_sweep(binv.copy(), part, [max(full - 1, 0), full, 500])
        assert (rows[0].abs_err > 0 and rows[0].products > 0) == (full > 0)
        for row in rows[1:] if full else rows:
            assert (row.abs_err, row.rel_err, row.fro_upper) == (0.0, 0.0, 0.0)
            assert row.converged and row.products == 0
            assert row.max_block_sigma == 0.0


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_compress_dense_truncates_every_block(system_cache, kappa,
                                              monkeypatch):
    """compress_dense takes one LAPACK SVD per mirrored pair, and every far
    block, the mirrors' included, has orthonormal X, the block's singular
    values as sigma and LAPACK's rank-r truncation error, each to 1e-12. A
    mirror shares its partner's sigma, and its X is a view of the V^H its
    partner's SVD returned, no copy."""
    sysm = system_cache(4, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    rank, calls, factors = 4, [], []
    svd, truncated_svd = np.linalg.svd, hmatrix.truncated_svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    monkeypatch.setattr(hmatrix, "truncated_svd",
                        lambda *a: factors.append(truncated_svd(*a)) or factors[-1])
    h = compress_dense(binv, part, rank)
    monkeypatch.undo()
    owned = [i for i, (t, s) in enumerate(part.far) if t.id <= s.id]
    assert len(calls) == len(factors) == len(owned) < len(part.far)
    factors = dict(zip(owned, factors))
    where = {(t.id, s.id): i for i, (t, s) in enumerate(part.far)}
    for (t, s), b in zip(part.far, h.far):
        if t.id > s.id:
            j = where[s.id, t.id]
            assert np.shares_memory(b.X, factors[j][2])
            assert b.sigma is h.far[j].sigma
        block = binv[t.span, s.span]
        want = svdvals(block)
        assert np.abs(b.sigma - want).max() <= 1e-12 * want[0]
        assert np.abs(b.X.conj().T @ b.X - np.eye(b.X.shape[1])).max() <= 1e-12
        err = np.linalg.norm(block - b.X @ b.Y.conj().T, 2)
        expect = want[rank] if rank < want.size else 0.0
        assert abs(err - expect) <= 1e-12 * want[0]


def test_single_far_block_on_the_diagonal(mesh_cache):
    """At n = 1 the only far block is (root, root): it has no mirror, is
    factored on its own, and the sweep measures it exactly."""
    sysm = assemble_system(mesh_cache(1))
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap), eta=2.0)
    assert [(t.id, s.id) for t, s in part.far] == [(0, 0)]
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    assert far_mirrors(binv, part) == [None]
    rows = rank_sweep(binv.copy(), part, [0, 1])
    assert rows[0].abs_err == abs(binv[0, 0]) and rows[1].abs_err == 0.0
    assert all(row.converged and row.products == 0 for row in rows)


def test_compress_dense_holds_one_copy_per_mirrored_pair(system_cache):
    """compress_dense keeps one truncated copy of each mirrored pair's
    factors: at n = 6 and rank 20 the memory it still holds on return,
    beyond its near blocks' copies (3.1 MB), stays within 1.2 x the bytes
    of every X and Y and the owned sigmas (7.7 MB), a mirror's X counted
    once, as the V^H of its partner that it views. Factors that were views
    of LAPACK's full U and V^H would hold 12.4 MB."""
    sysm = system_cache(6)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    tracemalloc.start()
    try:
        h = compress_dense(binv, part, 20)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any(t.id > s.id for t, s in part.far)
    near = sum(b.data.nbytes for b in h.near)
    factors = sum(b.X.nbytes + b.Y.nbytes for b in h.far) + sum(
        b.sigma.nbytes for (t, s), b in zip(part.far, h.far) if t.id <= s.id)
    assert held - near <= 1.2 * factors


def test_rank_sweep_adds_no_dense_array(system_cache):
    """The sweep works in its input's storage, the kept singular vectors
    included: at n = 6 (N = 1,206) its traced peak above the input (0.77
    MB) stays below the bytes of the one-sided far-block factors (1.8 MB;
    each owned block counts once: its sigmas and r_max vectors of its
    shorter side), which holding them beside the input would add; a copy
    of the input would add 11.6 MB."""
    sysm = system_cache(6)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    ranks = [1, 2, 4, 8, 12, 16, 20]
    factors = 8 * sum(short * (min(short, max(ranks)) + 1) for short in
                      (min(t.size, s.size) for t, s in part.far if t.id <= s.id))
    tracemalloc.start()
    try:
        rank_sweep(binv, part, ranks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert binv.shape[0] == 1206
    assert peak < factors


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_rank_sweep_holds_one_side_per_far_pair(system_cache, kappa,
                                                monkeypatch):
    """At n = 6, the memory the sweep holds after its first rank's norm,
    beyond what it held after the norm of A^{-1}, stays below the bytes of
    every sigma of each owned far block plus 512 bytes per owned block
    (0.29 MB): the kept singular vectors live in A^{-1}'s strict lower
    triangle. 399 owned blocks with sum min(|tau|, |sigma|) = 11,045
    against sum (|tau| + |sigma|) = 25,511: holding r_max vectors of the
    shorter side would add 1.8 MB, of both sides 4.1 MB."""
    sysm = system_cache(6, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    ranks = [1, 2, 4, 8, 12, 16, 20]
    owned = [(t, s) for t, s in part.far if t.id <= s.id]
    short = sum(min(t.size, s.size) for t, s in owned)
    assert (len(owned), short) == (399, 11045)
    assert sum(t.size + s.size for t, s in owned) == 25511
    bound = short * 8 + 512 * len(owned)  # float64 sigmas, per-block views
    traced = []

    def spy(mat, *args, **kwargs):
        out = spectral_norm(mat, *args, **kwargs)
        traced.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(inverse_lab, "spectral_norm", spy)
    tracemalloc.start()
    try:
        rank_sweep(binv, part, ranks)
    finally:
        tracemalloc.stop()
    assert len(traced) == len(ranks) + 1
    assert traced[1] - traced[0] < bound  # traced[0] holds ARPACK's import


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_rank_sweep_only_reads_the_far_factors(system_cache, kappa,
                                               monkeypatch):
    """Every array owned_svds hands the sweep is bitwise the same after the
    sweep as when owned_svds yielded it, and the sweep draws one SVD per
    mirrored pair."""
    sysm = system_cache(4, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    handed = []

    def spy(*args, **kwargs):
        for i, factors in owned_svds(*args, **kwargs):
            handed.extend((arr, arr.copy()) for arr in factors)
            yield i, factors

    monkeypatch.setattr(inverse_lab, "owned_svds", spy)
    rank_sweep(binv, part, [1, 2, 4, 8])
    assert len(handed) == 3 * sum(t.id <= s.id for t, s in part.far)
    assert all(np.array_equal(arr, before) for arr, before in handed)


@pytest.mark.parametrize("kappa", [1.0, 1.0 + 0.5j])
def test_kept_vectors_live_in_the_mirror_slots(system_cache, kappa,
                                               monkeypatch):
    """When the first rank's norm runs, each owned block's mirror slot
    err[sigma.span, tau.span] holds, transposed in its top left corner,
    the shorter side owned_svds handed the sweep, bitwise: U[:, :r_max]
    when |tau| <= |sigma|, else V^H[:r_max]."""
    sysm = system_cache(4, kappa)
    part = build_block_partition(
        build_cluster_tree(sysm.mesh, sysm.dofmap, n_leaf=16), eta=2.0)
    binv = dense_inverse(sparse_operator(sysm), part.tree.perm)
    handed, stored = {}, []

    def svds(*args, **kwargs):
        for i, (u, sv, vh) in owned_svds(*args, **kwargs):
            t, s = part.far[i]
            handed[i] = (u if t.size <= s.size else vh).copy()
            yield i, (u, sv, vh)

    def norm(mat, *args, **kwargs):
        slots = {}
        for i, q in handed.items():
            t, s = part.far[i]
            slots[i] = mat[s.span, t.span].T[:q.shape[0], :q.shape[1]].copy()
        stored.append(slots)
        return spectral_norm(mat, *args, **kwargs)

    monkeypatch.setattr(inverse_lab, "owned_svds", svds)
    monkeypatch.setattr(inverse_lab, "spectral_norm", norm)
    rank_sweep(binv.copy(), part, [2, 8])
    assert len(handed) == sum(t.id < s.id for t, s in part.far) > 0
    assert handed.keys() == stored[1].keys()
    for i, q in handed.items():
        t, s = part.far[i]
        assert q.shape[1 if t.size <= s.size else 0] == min(8, t.size, s.size)
        assert np.array_equal(stored[1][i], q)


def test_rank_zero_error_is_far_part_norm(lab3):
    _, part, binv = lab3
    rows = rank_sweep(binv.copy(), part, [0])
    far_part = np.zeros_like(binv)
    for t, s in part.far:
        far_part[t.span, s.span] = binv[t.span, s.span]
    assert abs(rows[0].abs_err - np.linalg.norm(far_part, 2)) < 1e-6


# decay fits ----------------------------------------------------------------

def test_fit_recovers_plain_exponential():
    rs = np.arange(1, 11)
    fit = fit_decay(rs, 3.0 * 0.5**rs)
    assert abs(fit.q - 0.5) < 1e-6
    assert abs(fit.log_c_exp - np.log(3.0)) < 1e-9
    assert fit.resid_exp < 1e-12
    assert fit.n_used == 10 and not fit.skipped


def test_fit_recovers_root_exponential():
    rs = np.arange(1, 21)
    x = rs**0.25 / np.log(rs + 2.0)
    fit = fit_decay(rs, 2.0 * np.exp(-x))
    assert abs(fit.b - 1.0) < 1e-3
    assert abs(fit.log_c_root - np.log(2.0)) < 1e-9
    assert fit.resid_root < 1e-12


def test_fit_constant_data():
    fit = fit_decay(np.arange(1, 8), np.full(7, 0.25))
    assert abs(fit.q - 1.0) < 1e-12
    assert abs(fit.b) < 1e-12
    assert fit.resid_exp < 1e-14


def test_fit_skips_with_too_few_points():
    fit = fit_decay([1, 2, 3, 4, 5], [1.0, 0.5, 1e-20, 1e-20, 1e-20])
    assert fit.skipped
    assert fit.n_used == 2
    assert "fewer than 4" in fit.note
    assert fit.q == 1.0 and fit.b == 0.0


def test_fit_drops_floor_points_only():
    rs = np.arange(1, 10)
    errs = 0.5**rs
    errs[-1] = 0.0
    fit = fit_decay(rs, errs)
    assert fit.n_used == 8
    assert abs(fit.q - 0.5) < 1e-6


# transfer identity ---------------------------------------------------------

def test_transfer_identity_on_one_pair(lab3):
    sysm, part, binv = lab3
    assert part.far, "partition should have admissible pairs at n=3"
    dual = dual_basis(sysm)
    t, s = max(part.far, key=lambda p: p[0].size * p[1].size)
    (worst,) = theorem_transfer_check(sysm, dual, [t], s, binv)
    assert isinstance(worst, float)
    assert 0.0 <= worst <= 1e-10


def reference_transfer_mismatch(sysm, dual, t, s, binv, seed):
    """The transfer check one right-hand side at a time: per rhs a fresh
    draw of Re b then Im b, one load vector, one solve, one functional
    sweep."""
    rng = np.random.default_rng(seed)
    block = binv[t.span, s.span]
    worst = 0.0
    for _ in range(inverse_lab.TRANSFER_RHS):
        b = rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size)
        e_h = solve_system(sysm, riesz_rhs(sysm, dual, s.indices, b))
        lam = apply_dual_functionals(sysm, dual, t.indices, e_h)
        worst = max(worst, float(np.abs(lam - block @ b).max() / np.abs(b).max()))
    return worst


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_blocked_transfer_matches_per_rhs_loop(lab3, scale):
    """One block of right-hand sides gives the per-rhs loop's mismatch, on
    the true inverse and on one whose block is scaled (mismatch O(1))."""
    sysm, part, binv = lab3
    dual = dual_basis(sysm)
    for t, s in part.far[:6]:
        bad = binv.copy()
        bad[t.span, s.span] *= scale
        (worst,) = theorem_transfer_check(sysm, dual, [t], s, bad, seed=3)
        ref = reference_transfer_mismatch(sysm, dual, t, s, bad, 3)
        assert abs(worst - ref) <= 1e-12 * max(ref, 1.0)


def test_transfer_check_solves_once_per_column_cluster(lab3, monkeypatch):
    """check_transfer runs one solve per distinct sigma of partition.far,
    and each pair's mismatch, and so the measured worst, is bitwise the
    one-pair value."""
    sysm, part, binv = lab3
    dual = dual_basis(sysm)
    per_pair = [theorem_transfer_check(sysm, dual, [t], s, binv)[0]
                for t, s in part.far]
    calls, solve = [], inverse_lab.solve_system
    monkeypatch.setattr(inverse_lab, "solve_system",
                        lambda *a: calls.append(1) or solve(*a))
    res = check_transfer(sysm, part, binv, dual)
    assert len(calls) == len({s.id for _, s in part.far}) == 18
    assert res.measured == max(per_pair)
    sigma = part.far[0][1]
    pairs = [i for i, (_, s) in enumerate(part.far) if s.id == sigma.id]
    assert len(pairs) > 1
    assert theorem_transfer_check(sysm, dual, [part.far[i][0] for i in pairs],
                                  sigma, binv) == [per_pair[i]
                                                            for i in pairs]


def test_transfer_negative_control(lab3):
    """A corrupted inverse block must be caught, and check_transfer, the
    judge of the mismatch, must fail on it."""
    sysm, part, binv = lab3
    dual = dual_basis(sysm)
    t, s = part.far[0]
    bad = binv.copy()
    bad[t.span, s.span] *= 1.5
    assert theorem_transfer_check(sysm, dual, [t], s, bad)[0] > 1e-4
    res = check_transfer(sysm, part, bad, dual)
    assert not res.passed and res.measured > 1e-4
    assert check_transfer(sysm, part, binv, dual).passed
    # a NaN mismatch on any pair, not only the first, fails the check
    nan = binv.copy()
    t, s = part.far[1]
    nan[t.span, s.span] = np.nan
    assert not check_transfer(sysm, part, nan, dual).passed
