"""Dense-inverse experiments: blockwise singular value decay of A^{-1},
rank sweeps against the block-to-global spectral bound, decay-model fits,
and the dual-basis transfer identity at the matrix level.

The headline quantity is ||A^{-1} - B_H||_2 for the blockwise rank-r
truncation B_H of the dense inverse. Per block the truncation error is the
(r+1)-th singular value, and the partition geometry converts the worst
block error into the global bound C_sp * (depth + 1) * max sigma_{r+1},
which every sweep row is asserted against.

A = A^T with no conjugate, for real and complex kappa, and the lab uses it
end to end: dense_inverse returns a bitwise-symmetric A^{-1} from the
symmetric indefinite factor L D L^T, in about N^3 flops; rank_sweep takes
one SVD per mirrored far pair (BlockPartition.mirror) and keeps each E_r
on the one triangle its symmetric Lanczos norm reads. One N x N array
serves from factorization to the last norm.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where the block (tau, sigma) is the slice [tau.span, sigma.span].
Norms do not change under the symmetric permutation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blas import gemm_tn, kernel
from .cluster import BlockPartition, sparsity_constant
from .fem import GalerkinSystem, apply_dual_functionals, riesz_rhs, solve_system
from .hmatrix import (far_mirrors, norm_operand, owned_svds, spectral_norm,
                      tile_pairs)

RESIDUAL_LIMIT = 1e-8  # dense_inverse's bound on max |A A^{-1} - I|
RESIDUAL_ROWS = 64     # rows of A per chunk of dense_inverse's residual guard
COND_LIMIT = 1e12      # dense_inverse's bound on the 1-norm condition number
PRODUCT_ROWS = 128     # rows per block row of dense_inverse's product Z^T D^{-1} Z
PANEL_ROWS = 1024      # rows per panel of one such block row
TRANSFER_RHS = 10      # random right-hand sides per transfer-check column cluster


def dense_inverse(op, perm: np.ndarray) -> np.ndarray:
    """P A^{-1} P^T for the CSR A = op and the leaf order perm, in about N^3
    flops under blas.kernel(N), one N x N array alive from the factor on:
    A = A^T, so sytrf factors the dense P A P^T in place as Q L D L^T Q^T,
    syconv moves the off-diagonals of D's 2 x 2 pivots out, trtri makes
    Z = L^{-1} and _zt_dinv_z C = Z^T D^{-1} Z on the upper triangle. The
    pass that sums |A^{-1}| by columns mirrors C, so A^{-1} equals its
    transpose bitwise; Q's interchanges then go to rows and columns alike.
    A nonzero LAPACK info is an error; the exact 1-norm condition number
    must be finite and at most COND_LIMIT. The residual guard, max
    |A A^{-1} - I| at most RESIDUAL_LIMIT, takes RESIDUAL_ROWS rows of the
    CSR P A P^T at a time (nnz(A) N flops, one chunk alive, in place)."""
    a = op[perm][:, perm]
    n = perm.size
    dense = a.toarray(order="F")  # no N x N mask: cond catches NaN
    sytrf, sytrf_lwork, syconv, trtri = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "syconv", "trtri"), (dense,))
    with kernel(n):  # the factor, Z and C: the N x N work
        lwork = int(sytrf_lwork(n, lower=1)[0].real)
        ldl, ipiv, info = sytrf(dense, lower=1, lwork=lwork, overwrite_a=1)
        _lapack_ok("sytrf", info)
        ldl, off, info = syconv(ldl, ipiv, lower=1, way=0, overwrite_a=1)
        _lapack_ok("syconv", info)
        binv, info = trtri(ldl, lower=1, unitdiag=1, overwrite_c=1)
        _lapack_ok("trtri", info)
        _zt_dinv_z(binv, ipiv, off)
    col_sums = np.zeros(n)  # of |A^{-1}|
    for r, c in tile_pairs(n):  # upper triangle to lower, one tile at a time
        if r == c:
            tile = binv[r, c]
            tile[...] = np.triu(tile) + np.triu(tile, 1).T  # + 0.0: exact
        else:
            binv[c, r] = binv[r, c].T
        mag = np.abs(binv[r, c])
        col_sums[c] += mag.sum(axis=0)
        if r != c:
            col_sums[r] += mag.sum(axis=1)
    i = n - 1
    while i >= 0:  # rows and columns i and |ipiv[i]| - 1, from the last
        p = abs(ipiv[i]) - 1
        if p != i:
            binv[[i, p]] = binv[[p, i]]
            binv[:, [i, p]] = binv[:, [p, i]]
        i -= 1 if ipiv[i] > 0 else 2  # ipiv[i] < 0: a 2 x 2 pivot ends at i
    cond = abs(a).sum(axis=0).max() * col_sums.max(initial=0.0)
    if not cond <= COND_LIMIT:  # keeps a NaN out
        raise ValueError(f"matrix too ill-conditioned (condition number "
                         f"{cond:.3e}); kappa may be too close to a discrete "
                         "eigenvalue, try another kappa or n")
    resid = 0.0
    for j in range(0, n, RESIDUAL_ROWS):
        res = a[j:j + RESIDUAL_ROWS] @ binv.T  # binv.T: C-ordered, bitwise binv
        diag = np.arange(res.shape[0])
        res[diag, j + diag] -= 1.0
        np.abs(res, out=res)  # in place; a complex res keeps |.| in .real
        resid = np.maximum(resid, res.real.max())  # keeps a NaN
        del res  # one chunk alive at a time
    if not resid <= RESIDUAL_LIMIT:
        raise ValueError(f"inverse residual {resid:.3e} exceeds {RESIDUAL_LIMIT:.1e}")
    return binv


def _lapack_ok(name: str, info: int):
    if info != 0:
        raise ValueError(f"LAPACK {name} failed (info {info})")


def _zt_dinv_z(z: np.ndarray, ipiv: np.ndarray, off: np.ndarray):
    """C = Z^T D^{-1} Z on the upper triangle of z, which holds Z = L^{-1}
    below and D's diagonal on it; off[k] = D[k+1, k] where ipiv[k] < 0 starts
    a 2 x 2 pivot. As Z[:i0, I] = 0, block row I = [i0, i1) of C is the sum
    of (D^{-1} Z[K, I])^T Z[K, :i1] over panels K from i0 on, when no block
    splits a 2 x 2 pivot. Its transpose goes to the triangle above Z, unused
    since sytrf, and the diagonal block, read by this block row alone, last."""
    n = z.shape[0]
    ks = np.flatnonzero(ipiv < 0)[::2]  # 2 x 2 pivots: rows k, k + 1
    d = z.diagonal().copy()
    dk, dk1, b = d[ks], d[ks + 1], off[ks]
    d[ks] = d[ks + 1] = 1.0  # may be 0 in a 2 x 2 pivot; replaced below
    d = 1.0 / d
    det = dk * dk1 - b * b  # about -b^2: Bunch-Kaufman picks |b| large
    d[ks], d[ks + 1], b = dk1 / det, dk / det, -b / det
    split = np.zeros(n + 1, dtype=bool)
    split[ks + 1] = True  # a block may not start at k + 1
    for i0, i1 in _blocks(0, n, PRODUCT_ROWS, split):
        block = z[i0:i1, i0:i1]  # Z's block: unit diagonal, zero above
        block[...] = np.tril(block, -1)
        np.fill_diagonal(block, 1.0)
        diag = np.empty_like(block, order="F")
        for k0, k1 in _blocks(i0, n, PANEL_ROWS, split):
            panel = z[k0:k1, i0:i1].copy(order="F")  # D^{-1} Z[K, I]
            inside = (ks >= k0) & (ks < k1)
            at, b_at = ks[inside] - k0, b[inside, None]
            rows, rows1 = panel[at], panel[at + 1]
            panel *= d[k0:k1, None]
            panel[at] += b_at * rows1
            panel[at + 1] += b_at * rows
            if i0:
                gemm_tn(z[k0:k1, :i0], panel, z[:i0, i0:i1], k0 > i0)
            gemm_tn(panel, z[k0:k1, i0:i1], diag, k0 > i0)
            del panel, rows, rows1  # one panel alive at a time
        block[...] = diag


def _blocks(start: int, n: int, size: int, split: np.ndarray):
    """[lo, hi) from start to n, about size long, none starting where split."""
    while start < n:
        stop = min(start + size, n)
        stop += split[stop]
        yield start, stop
        start = stop


@dataclass
class SweepRow:
    r: int
    abs_err: float           # Lanczos estimate of ||E_r||_2, never above it
    fro_upper: float         # ||E_r||_F from the far-block sigmas, never below it
    rel_err: float
    max_block_sigma: float   # max over far blocks of sigma_{r+1}
    bound_value: float       # C_sp * (depth + 1) * max_block_sigma
    scalars: int
    converged: bool
    products: int            # operator applications of this rank's norm


def rank_sweep(binv: np.ndarray, partition: BlockPartition, r_list,
               seed: int = 0) -> list:
    """One SweepRow per requested rank, in increasing rank order. binv must
    equal its transpose bitwise: far_mirrors, the sweep's one symmetry
    test, refuses any other with a ValueError. The sweep consumes err =
    norm_operand(binv), binv or its Fortran-ordered view binv.T: on return
    its upper triangle holds E_{r_max}, for the largest rank swept, so a
    caller that needs A^{-1} afterwards passes a copy.

    E_r = A^{-1} - B_H is zero on near blocks and U[:, r:] Sigma[r:] V^H[r:]
    on each far block. ||A^{-1}||_2 and the far-block SVDs, one per mirrored
    pair (hmatrix.owned_svds), come first. Of each owned block the sweep
    keeps its sigma count, at each rank r the tail sum_{j >= r} sigma_j^2
    and sigma_r, and only the shorter side's first r_max singular vectors,
    Q = U[:, :r_max] when |tau| <= |sigma|, else V^H[:r_max], which it only
    reads: Q^T goes to the top left corner of the mirror's slot
    err[sigma.span, tau.span], which it fits and no later step reads (a
    block on the diagonal keeps its own Q). Then err becomes E_0 by zeroing
    its near blocks on and above the diagonal, and the step from rank r' to
    r projects slice r':r of Q out of each owned far block in place:
    E -= Q (Q^H E) on the left, E -= (E Q^H) Q on the right, which is the
    subtraction of (U Sigma V^H)[r':r] because E_{r'} = sum_{j >= r'}
    sigma_j u_j v_j^H. A block whose rank reaches its size is zeroed, and
    the sweep adds no N x N array. Owned blocks (BlockPartition.mirror)
    lie on or above the diagonal, so the sweep writes E_r there only, the
    triangle spectral_norm reads; a mirror takes its partner's tails and
    sigmas, and B_H picks one subspace in both blocks of a tie. On return the
    strict lower triangle of err holds each Q and stale entries of A^{-1}.
    Both norms come from spectral_norm (symmetric Lanczos, never above the
    true norm, started from seed), except that an E_r with every far block
    truncated to its full rank is exactly zero: norm 0, converged, 0
    products. checks.check_bound judges each row's bound value.
    """
    err = norm_operand(binv)
    mirror = far_mirrors(err, partition)
    norm_b, conv_b, _ = spectral_norm(err, seed=seed)
    scale = sparsity_constant(partition) * (partition.tree.depth + 1)
    ranks = sorted(int(r) for r in r_list)
    r_max = ranks[-1] if ranks else 0
    far = partition.far
    # per owned far block: its spans, the kept side Q, whether Q is U, and
    # its sigma count; per far block (a mirror copies its partner): the
    # sigma count, and per rank r, with k = min(r, count), the tail
    # sum_{j >= k} sigma_j^2 and sigma_r, 0 from r = count on
    owned, sizes = [], np.zeros(len(far), dtype=np.int64)
    tail2, sig = np.zeros((2, len(ranks), len(far)))
    for i, (u, sv, vh) in owned_svds(err, partition, r_max):
        t, s = far[i]
        left = t.size <= s.size  # keep the shorter side
        q = u if left else vh
        if t is not s:  # Q^T into the mirror's dead slot, read back as Q
            slot = err[s.span, t.span].T[:q.shape[0], :q.shape[1]]
            slot[...] = q
            q = slot
        owned.append((t.span, s.span, q, left, sv.size))
        k = np.minimum(ranks, sv.size)
        tail2[:, i] = np.append(np.cumsum(sv[::-1] ** 2)[::-1], 0.0)[k]
        sig[:, i] = np.append(sv, 0.0)[k]
        sizes[i] = sv.size
    home = [i if j is None else j for i, j in enumerate(mirror)]
    tail2, sig, sizes = tail2[:, home], sig[:, home], sizes[home]
    dims = np.array([t.size + s.size for t, s in far], dtype=np.int64)
    full = int(sizes.max(initial=0))  # E_r = 0 from rank full on
    for t, s in partition.near:
        if t.id <= s.id:  # on or above the diagonal
            err[t.span, s.span] = 0.0
    near_scalars = sum(t.size * s.size for t, s in partition.near)
    rows, r_prev = [], 0
    for c, r in enumerate(ranks):
        for block_rows, block_cols, side, left, size in owned:
            k, k_prev = min(r, size), min(r_prev, size)
            if k == k_prev:
                continue
            block = err[block_rows, block_cols]
            if k == size:
                block[...] = 0.0
            elif left:  # Q = U[:, k':k]
                q = side[:, k_prev:k]
                block -= q @ (q.conj().T @ block)
            else:  # Q = V^H[k':k]
                q = side[k_prev:k]
                block -= (block @ q.conj().T) @ q
        r_prev = r
        scalars = near_scalars + int(np.minimum(r, sizes) @ dims)
        # 0.0, then each block's tail in far order, added one at a time
        fro2 = np.cumsum(np.append(0.0, tail2[c]))[-1]
        sig_next = float(sig[c].max(initial=0.0))
        if r >= full:
            est, conv, products = 0.0, True, 0
        else:
            est, conv, products = spectral_norm(err, seed=seed)
        rows.append(SweepRow(r, est, float(np.sqrt(fro2)), est / norm_b,
                             sig_next, float(scale * sig_next), int(scalars),
                             conv and conv_b, products))
    return rows


@dataclass
class DecayFit:
    b: float            # rate of log err ~ log_c_root - b * r^(1/4)/ln(r+2)
    log_c_root: float
    resid_root: float
    q: float            # base of log err ~ log_c_exp + r * ln(q)
    log_c_exp: float
    resid_exp: float
    n_used: int
    skipped: bool = False
    note: str = ""


def fit_decay(rs, errs) -> DecayFit:
    """Least-squares fits of both decay models in log space.

    Both the root-exponential model exp(-b r^(1/4)/ln(r+2)) and the plain
    exponential q^r are fitted and reported; no model selection happens.
    Points at or below 1e-14 are dropped.
    """
    rs = np.asarray(list(rs), dtype=float)
    errs = np.asarray(list(errs), dtype=float)
    keep = errs > 1e-14
    if keep.sum() < 4:
        return DecayFit(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, int(keep.sum()), True,
                        "fewer than 4 points above the error floor; fit skipped")
    r, e = rs[keep], np.log(errs[keep])
    (c_root, b), res_root = _lstsq_fit(-r ** 0.25 / np.log(r + 2.0), e)
    (c_exp, slope), res_exp = _lstsq_fit(r, e)
    return DecayFit(float(b), float(c_root), res_root,
                    float(np.exp(slope)), float(c_exp), res_exp, int(keep.sum()))


def _lstsq_fit(x, y):
    design = np.column_stack([np.ones_like(x), x])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ sol - y) ** 2)))
    return sol, resid


def theorem_transfer_check(system: GalerkinSystem, dual, taus, sigma,
                           binv: np.ndarray, seed: int = 0) -> list:
    """Coefficient-transfer identity on the admissible pairs (tau, sigma),
    tau in taus, which share the column cluster sigma.

    For TRANSFER_RHS random complex b supported on sigma, drawn as one
    (TRANSFER_RHS, 2, |sigma|) array of real and imaginary parts, the load
    vectors of F_b = sum b_i lambda_i are solved as one block, once for all taus,
    and for each tau the dual functionals over tau are compared with the
    inverse's block, the slice whose rows and columns are tau.indices and
    sigma.indices, acting on b. Integrals on both ends are done honestly
    over the carrier tets rather than read off the construction. Returns,
    per tau, the worst relative mismatch over the right-hand sides, which
    checks.check_transfer judges; no SVD is taken.
    """
    parts = np.random.default_rng(seed).standard_normal((TRANSFER_RHS, 2, sigma.size))
    b = (parts[:, 0] + 1j * parts[:, 1]).T      # (|sigma|, TRANSFER_RHS)
    e_h = solve_system(system, riesz_rhs(system, dual, sigma.indices, b))
    scale = np.abs(b).max(axis=0)
    out = []
    for tau in taus:
        lam = apply_dual_functionals(system, dual, tau.indices, e_h)
        ref = binv[tau.span, sigma.span] @ b
        out.append(float((np.abs(lam - ref).max(axis=0) / scale).max(initial=0.0)))
    return out
