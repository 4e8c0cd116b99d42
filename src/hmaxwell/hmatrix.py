"""Blockwise low-rank matrix format over a block partition.

Far (admissible) blocks hold truncated-SVD factors X Y^H with orthonormal
columns in X, which is the spectral-norm-optimal rank-r approximation of the
block. Near blocks are stored dense and exactly. The format supports matvec
and its conjugate transpose. Every spectral norm in the package, of a dense
matrix or of the approximation error against a dense source, comes from one
Lanczos helper, spectral_norm.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where each block is the slice of its clusters' spans.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import BlockPartition


@dataclass
class LowRankBlock:
    rows: slice
    cols: slice
    X: np.ndarray  # (|rows|, r), orthonormal columns
    Y: np.ndarray  # (|cols|, r); the block is X @ Y^H


@dataclass
class DenseBlock:
    rows: slice
    cols: slice
    data: np.ndarray


@dataclass
class HMatrix:
    shape: tuple
    far: list
    near: list
    partition: BlockPartition


def truncated_svd(block: np.ndarray, rank: int):
    """Factors (X, Y) of the best rank-r approximation, plus all singular
    values of the block."""
    try:
        u, s, vh = np.linalg.svd(block, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed on a {block.shape} block") from exc
    r = min(rank, s.size)
    return u[:, :r], (vh[:r].conj().T) * s[:r], s


def far_svds(dense: np.ndarray, partition: BlockPartition, rank: int) -> list:
    """(U[:, :rank], every sigma, V^H[:rank]) of each far block of dense, in
    partition.far order, the factors as owned copies: the one SVD pass that
    compression, rank sweeps and decay reports share."""
    out = []
    for t, s in partition.far:
        try:
            u, sv, vh = np.linalg.svd(dense[t.span, s.span], full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"SVD failed on far block ({t.id},{s.id})") from exc
        out.append((u[:, :rank].copy(), sv, vh[:rank].copy()))
    return out


def compress_dense(dense: np.ndarray, partition: BlockPartition, rank: int,
                   svds: list = None) -> HMatrix:
    """Replace far blocks by rank-min(rank, dims) truncated SVDs; copy near
    blocks verbatim. svds, when given, are far_svds(dense, partition, r)
    with r >= rank."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    svds = far_svds(dense, partition, rank) if svds is None else svds
    far = [LowRankBlock(t.span, s.span, u[:, :rank],
                        (vh[:rank].conj().T) * sv[:rank])
           for (t, s), (u, sv, vh) in zip(partition.far, svds)]
    near = [DenseBlock(t.span, s.span, dense[t.span, s.span].copy())
            for t, s in partition.near]
    return HMatrix(dense.shape, far, near, partition)


def matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    dt = np.result_type(x.dtype, *(b.data.dtype for b in h.near),
                        *(b.X.dtype for b in h.far), np.float64)
    y = np.zeros(h.shape[0], dtype=dt)
    for b in h.far:
        y[b.rows] += b.X @ (b.Y.conj().T @ x[b.cols])
    for b in h.near:
        y[b.rows] += b.data @ x[b.cols]
    return y


def rmatvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """Conjugate-transpose matvec."""
    dt = np.result_type(x.dtype, *(b.data.dtype for b in h.near),
                        *(b.X.dtype for b in h.far), np.float64)
    y = np.zeros(h.shape[1], dtype=dt)
    for b in h.far:
        y[b.cols] += b.Y @ (b.X.conj().T @ x[b.rows])
    for b in h.near:
        y[b.cols] += b.data.conj().T @ x[b.rows]
    return y


def to_dense(h: HMatrix) -> np.ndarray:
    dt = np.result_type(*(b.data.dtype for b in h.near),
                        *(b.X.dtype for b in h.far), np.float64)
    out = np.zeros(h.shape, dtype=dt)
    for b in h.far:
        out[b.rows, b.cols] = b.X @ b.Y.conj().T
    for b in h.near:
        out[b.rows, b.cols] = b.data
    return out


def spectral_norm(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 500,
                  seed: int = 0):
    """||mat||_2 by Lanczos (ARPACK svds, k = 1) with BLAS matvecs on the
    dense matrix; returns (norm, converged).

    tol and max_iter are ARPACK's tol and maxiter; the start vector is drawn
    from seed, so reruns are byte-identical. A zero matrix, and one with a
    dimension below 2 (where svds refuses k = 1), is measured exactly
    without ARPACK. No convergence within max_iter gives (nan, False).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if min(mat.shape) < 2 or not mat.any():
        return float(np.linalg.norm(mat)), True
    from scipy.sparse.linalg import ArpackNoConvergence, svds

    v0 = np.random.default_rng(seed).standard_normal(min(mat.shape))
    try:
        sv = svds(mat, k=1, tol=tol, maxiter=max_iter, v0=v0,
                  return_singular_vectors=False)
    except ArpackNoConvergence:
        return float("nan"), False
    return float(sv[0]), True


def spectral_error(dense: np.ndarray, h: HMatrix, tol: float = 1e-10,
                   max_iter: int = 500, seed: int = 0):
    """||dense - h||_2 as spectral_norm of the explicit residual; returns
    (norm, converged). A residual at the rounding level of forming h, with
    Frobenius norm at most sqrt(N) eps ||dense||_F, counts as exactly zero."""
    res = dense - to_dense(h)
    floor = np.sqrt(res.shape[0]) * np.finfo(float).eps * np.linalg.norm(dense)
    if np.linalg.norm(res) <= floor:
        return 0.0, True
    return spectral_norm(res, tol, max_iter, seed)


def hmatrix_manifest(h: HMatrix) -> dict:
    """JSON-ready description of the block structure and per-block ranks."""
    return {
        "shape": list(h.shape),
        "eta": h.partition.eta,
        "far": [{
            "tau": t.id, "sigma": s.id, "rank": int(b.X.shape[1]),
            "rows": int(b.X.shape[0]), "cols": int(b.Y.shape[0]),
        } for (t, s), b in zip(h.partition.far, h.far)],
        "near": [{
            "tau": t.id, "sigma": s.id,
            "rows": int(b.data.shape[0]), "cols": int(b.data.shape[1]),
        } for (t, s), b in zip(h.partition.near, h.near)],
    }
