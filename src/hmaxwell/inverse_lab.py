"""Dense-inverse experiments: blockwise singular value decay of A^{-1},
rank sweeps against the block-to-global spectral bound, decay-model fits,
and the dual-basis transfer identity at the matrix level.

The headline quantity is ||A^{-1} - B_H||_2 for the blockwise rank-r
truncation B_H of the dense inverse. Per block the truncation error is the
(r+1)-th singular value, and the partition geometry converts the worst
block error into the global bound C_sp * (depth + 1) * max sigma_{r+1},
which every sweep row is asserted against.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where the block (tau, sigma) is the slice [tau.span, sigma.span].
Norms do not change under the symmetric permutation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cluster import BlockPartition, sparsity_constant
from .fem import GalerkinSystem, apply_dual_functionals, riesz_rhs, solve_system
from .hmatrix import far_svds, spectral_norm


def dense_inverse(op, perm: np.ndarray,
                  residual_limit: float = 1e-8) -> np.ndarray:
    """P A^{-1} P^T for the CSR A = op and the leaf order perm, by LU with
    partial pivoting; the LAPACK 1-norm condition estimate must not exceed
    1e12. The dense P A P^T is factored in place and the inverse overwrites
    the identity, so two N x N arrays are alive at the peak. The residual
    guard max |A A^{-1} - I| multiplies the CSR P A P^T by 256 columns at a
    time: nnz(A) N flops and no N x N temporary."""
    a = op[perm][:, perm]
    anorm = abs(a).sum(axis=0).max()
    lu, piv = scipy.linalg.lu_factor(a.toarray(order="F"), overwrite_a=True)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond = gecon(lu, anorm, norm="1")[0]
    if not np.isfinite(rcond) or rcond <= 0 or 1.0 / rcond > 1e12:
        raise ValueError(
            f"matrix too ill-conditioned (estimate {1.0 / max(rcond, 1e-300):.3e}); "
            "kappa may be too close to a discrete eigenvalue, try another kappa or n")
    n = perm.size
    binv = scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=lu.dtype, order="F"),
                                 overwrite_b=True)
    del lu  # free the factor before the residual check
    resid = 0.0
    for j in range(0, n, 256):
        res = a @ binv[:, j:j + 256]
        res -= np.eye(n, res.shape[1], -j)
        resid = np.maximum(resid, np.abs(res).max())  # keeps a NaN
    if not resid <= residual_limit:
        raise ValueError(f"inverse residual {resid:.3e} exceeds {residual_limit:.1e}")
    return binv


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


def rank_sweep(binv: np.ndarray, partition: BlockPartition, r_list,
               seed: int = 0) -> list:
    """One SweepRow per requested rank, in increasing rank order.

    The error E_r = A^{-1} - B_H is zero on near blocks and equals
    U[:, r:] Sigma[r:] V^H[r:] on each far block. It lives in one N x N
    buffer: E_0 is a copy of A^{-1} with its near blocks zeroed, and the
    step from rank r' to r subtracts U[:, r':r] Sigma V^H[r':r] from each
    far block's slice (a block whose rank reaches its size is zeroed);
    binv itself is not changed. The far-block SVDs are computed once.
    ||E_r||_2 and ||A^{-1}||_2 come from spectral_norm, whose start vector
    is drawn from seed. Each row carries its bound value;
    checks.check_bound judges it.
    """
    norm_b, conv_b = spectral_norm(binv, seed=seed)
    scale = sparsity_constant(partition) * (partition.tree.depth + 1)
    ranks = sorted(int(r) for r in r_list)
    r_max = ranks[-1] if ranks else 0
    svds = far_svds(binv, partition, r_max)
    # per far block U Sigma, in place, and tail[k] = sum_{j >= k} sigma_j^2
    for i, (u, sv, vh) in enumerate(svds):
        u *= sv[:r_max]
        svds[i] = (u, vh, sv, np.append(np.cumsum(sv[::-1] ** 2)[::-1], 0.0))
    err = binv.copy()
    for t, s in partition.near:
        err[t.span, s.span] = 0.0
    near_scalars = sum(t.size * s.size for t, s in partition.near)
    rows, r_prev = [], 0
    for r in ranks:
        sig_next = fro2 = 0.0
        scalars = near_scalars
        for (t, s), (us, vh, sv, tail) in zip(partition.far, svds):
            k, k_prev = min(r, sv.size), min(r_prev, sv.size)
            if k > k_prev:
                block = err[t.span, s.span]
                if k == sv.size:
                    block[...] = 0.0
                else:
                    block -= us[:, k_prev:k] @ vh[k_prev:k]
            scalars += k * (t.size + s.size)
            fro2 += tail[k]
            if r < sv.size:
                sig_next = max(sig_next, float(sv[r]))
        r_prev = r
        est, conv = spectral_norm(err, seed=seed)
        rows.append(SweepRow(r, est, float(np.sqrt(fro2)), est / norm_b,
                             sig_next, float(scale * sig_next), int(scalars),
                             conv and conv_b))
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


def theorem_transfer_check(system: GalerkinSystem, dual, tau, sigma,
                           binv: np.ndarray, n_rhs: int = 10,
                           seed: int = 0) -> float:
    """Coefficient-transfer identity on an admissible pair (tau, sigma).

    For n_rhs random complex b supported on sigma, drawn as one
    (n_rhs, 2, |sigma|) array of real and imaginary parts, the load vectors
    of F_b = sum b_i lambda_i are solved as one block and the dual
    functionals over tau are compared with the inverse's block, the slice
    whose rows and columns are tau.indices and sigma.indices, acting on b.
    Integrals on both ends are done honestly over the carrier tets rather
    than read off the construction. Returns the worst relative mismatch over
    the right-hand sides, which checks.check_transfer judges; no SVD is taken.
    """
    parts = np.random.default_rng(seed).standard_normal((n_rhs, 2, sigma.size))
    b = (parts[:, 0] + 1j * parts[:, 1]).T                # (|sigma|, n_rhs)
    e_h = solve_system(system, riesz_rhs(system, dual, sigma.indices, b))
    lam = apply_dual_functionals(system, dual, tau.indices, e_h)
    ref = binv[tau.span, sigma.span] @ b
    return float((np.abs(lam - ref).max(axis=0)
                  / np.abs(b).max(axis=0)).max(initial=0.0))
