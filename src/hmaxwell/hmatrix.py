"""Blockwise low-rank matrix format over a block partition.

Far (admissible) blocks hold truncated-SVD factors X Y^H with orthonormal
columns in X, which is the spectral-norm-optimal rank-r approximation of the
block. Near blocks are stored dense and exactly. The format supports matvec
and its conjugate transpose. The far-block SVDs come from one pass,
far_svds, with one SVD and one factor copy per mirrored pair: the mirror
block views its partner's factors through transposes. Every
spectral norm in the package, of a dense matrix or of the approximation
error against a dense source, comes from one Lanczos helper, spectral_norm:
eigsh on a bitwise-symmetric matrix (through the real symmetric Takagi map
when it is complex), svds on any other, and in both cases a Ritz value that
never exceeds the true norm.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where each block is the slice of its clusters' spans.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import BlockPartition

TILE = 256  # side of the square tiles that symmetric passes work on


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


def far_svds(dense: np.ndarray, partition: BlockPartition, rank: int):
    """(svds, mirror): svds holds (U[:, :rank], every sigma, V^H[:rank]) of
    each far block of dense, in partition.far order: the one SVD pass that
    compression, rank sweeps and decay reports share.

    One SVD and one copy of the factors per mirrored pair: mirror[i] is the
    index of the far block whose slice is the bitwise transpose of block i,
    for the block with the larger tau.id of each such pair, and None for
    every other block. A mirror's U' = (V^H)^T and V'^H = U^T are views of
    its partner's arrays, so a write to the partner's reaches the mirror.
    Every other block, as in a non-symmetric dense, is factored on its own."""
    mirror = _mirror_index(dense, partition)
    out = [None if j is not None else _svd(dense, t, s, rank)
           for (t, s), j in zip(partition.far, mirror)]
    for i, j in enumerate(mirror):
        if j is not None:
            u, sv, vh = out[j]
            out[i] = (vh.T, sv, u.T)
    return out, mirror


def _mirror_index(dense: np.ndarray, partition: BlockPartition) -> list:
    """For each far block (tau, sigma) with tau.id > sigma.id whose slice is
    the bitwise transpose of the far block (sigma, tau), that block's index
    in partition.far; None for every other far block."""
    where = {(t.id, s.id): i for i, (t, s) in enumerate(partition.far)}
    out = []
    for t, s in partition.far:
        j = where.get((s.id, t.id)) if t.id > s.id else None
        if j is not None and not np.array_equal(dense[t.span, s.span],
                                                dense[s.span, t.span].T):
            j = None
        out.append(j)
    return out


def _svd(dense: np.ndarray, t, s, rank: int):
    try:
        u, sv, vh = np.linalg.svd(dense[t.span, s.span], full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed on far block ({t.id},{s.id})") from exc
    return u[:, :rank].copy(), sv, vh[:rank].copy()


def compress_dense(dense: np.ndarray, partition: BlockPartition, rank: int,
                   svds: list = None) -> HMatrix:
    """Replace far blocks by rank-min(rank, dims) truncated SVDs; copy near
    blocks verbatim. svds, when given, are far_svds(dense, partition, r)[0]
    with r >= rank."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    svds = far_svds(dense, partition, rank)[0] if svds is None else svds
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
    """||mat||_2 by Lanczos with BLAS matvecs on the dense matrix; returns
    (norm, converged, products), products being how many times ARPACK
    applied its operator.

    A bitwise-symmetric square mat (mat == mat.T, no conjugate) goes to
    ARPACK eigsh (k = 1, largest magnitude), one product with mat per step:
    for real mat the operator is mat itself, and for complex mat it is the
    real symmetric Takagi map [[Re E, Im E], [Im E, -Re E]], whose
    eigenvalues are +-sigma_i(E) (Horn & Johnson, Matrix Analysis, 4.4),
    applied as one complex product E (x - iy). Any other mat goes to ARPACK
    svds (k = 1), which applies mat and mat^H. Either way the Ritz value
    never exceeds ||mat||_2. tol and max_iter are ARPACK's tol and maxiter;
    the start vector is drawn from seed, so reruns are byte-identical. A
    zero matrix, and one with a dimension below 2 (where ARPACK refuses
    k = 1), is measured exactly without ARPACK. No convergence within
    max_iter gives (nan, False, products).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if min(mat.shape) < 2 or not mat.any():
        return float(np.linalg.norm(mat)), True, 0
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh, svds)

    rng = np.random.default_rng(seed)
    products = 0

    def count(f):
        def counted(x):
            nonlocal products
            products += 1
            return f(x)
        return counted

    dim = mat.shape[0]
    try:
        if not _is_symmetric(mat):
            op = LinearOperator(mat.shape, matvec=count(lambda x: mat @ x),
                                rmatvec=count(lambda x: (x.conj() @ mat).conj()),
                                dtype=mat.dtype)
            val = svds(op, k=1, tol=tol, maxiter=max_iter,
                       v0=rng.standard_normal(min(mat.shape)),
                       return_singular_vectors=False)
        else:
            takagi = np.iscomplexobj(mat)
            size = 2 * dim if takagi else dim

            def apply(v):
                if not takagi:
                    return mat @ v
                w = mat @ (v[:dim] - 1j * v[dim:])  # z = x - iy
                return np.concatenate([w.real, w.imag])
            op = LinearOperator((size, size), matvec=count(apply),
                                dtype=np.float64)
            val = eigsh(op, k=1, which="LM", tol=tol, maxiter=max_iter,
                        v0=rng.standard_normal(size), return_eigenvectors=False)
    except ArpackNoConvergence:
        return float("nan"), False, products
    return float(abs(val[0])), True, products


def tile_pairs(n: int):
    """(rows, cols) slices of the TILE x TILE tiles of an n x n matrix on
    and above the diagonal; [cols, rows] is each one's mirror."""
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def _is_symmetric(mat: np.ndarray) -> bool:
    """mat == mat.T bitwise, compared one tile pair at a time."""
    n = mat.shape[0]
    return mat.shape == (n, n) and all(
        np.array_equal(mat[r, c], mat[c, r].T) for r, c in tile_pairs(n))


def spectral_error(dense: np.ndarray, h: HMatrix, tol: float = 1e-10,
                   max_iter: int = 500, seed: int = 0):
    """||dense - h||_2 as spectral_norm of the explicit residual; returns
    (norm, converged). A residual at the rounding level of forming h, with
    Frobenius norm at most sqrt(N) eps ||dense||_F, counts as exactly zero."""
    res = dense - to_dense(h)
    floor = np.sqrt(res.shape[0]) * np.finfo(float).eps * np.linalg.norm(dense)
    if np.linalg.norm(res) <= floor:
        return 0.0, True
    return spectral_norm(res, tol, max_iter, seed)[:2]


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
