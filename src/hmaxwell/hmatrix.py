"""Blockwise low-rank matrix format over a block partition.

Far (admissible) blocks hold truncated-SVD factors X Y^H with orthonormal
columns in X, the spectral-norm-optimal rank-r approximation of the block;
near blocks are stored dense. Every matrix factored here is symmetric, as
A^{-1} is: far_mirrors, the package's one full-array symmetry test, hands
back the partition's mirror pairs, and owned_svds, the one SVD loop over
far blocks, takes one SVD per pair, read by compress_dense (a mirror
transposes its partner's) and the rank sweep. spectral_norm, the one
Lanczos norm, reads one triangle; spectral_error is an exact error norm.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where each block is the slice of its clusters' spans.
"""

from dataclasses import dataclass

import numpy as np

from .blas import kernel, symv
from .cluster import BlockPartition

TILE = 256  # side of the square tiles that symmetric passes work on
ARPACK_TOL = 1e-10  # spectral_norm's ARPACK tol and maxiter
ARPACK_MAX_ITER = 500


@dataclass
class LowRankBlock:
    rows: slice
    cols: slice
    X: np.ndarray  # (|rows|, r), orthonormal columns
    Y: np.ndarray  # (|cols|, r); the block is X @ Y^H
    sigma: np.ndarray  # every singular value of the block


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
    """(U[:, :rank], every sigma, V^H[:rank]) of block, factors copied."""
    u, sv, vh = np.linalg.svd(block, full_matrices=False)
    return u[:, :rank].copy(), sv, vh[:rank].copy()


def far_mirrors(dense: np.ndarray, partition: BlockPartition) -> list:
    """partition.mirror, once dense is found square and bitwise symmetric,
    compared one tile pair at a time: the package's one full-array
    symmetry test. Any other dense is a ValueError. A mirror's slice of
    dense is then its partner's transpose."""
    n = dense.shape[0]
    if not (dense.shape == (n, n) and all(
            np.array_equal(dense[r, c], dense[c, r].T) for r, c in tile_pairs(n))):
        raise ValueError("needs a bitwise-symmetric square matrix")
    return partition.mirror


def owned_svds(dense: np.ndarray, partition: BlockPartition, rank: int):
    """(i, truncated_svd(block, rank)) for each owned far block i of dense,
    a matrix far_mirrors accepted, in partition.far order: the package's
    one SVD loop over far blocks, one SVD per mirrored pair. A LAPACK
    failure is a ValueError naming the block."""
    for i, ((t, s), j) in enumerate(zip(partition.far, partition.mirror)):
        if j is not None:
            continue
        try:
            factors = truncated_svd(dense[t.span, s.span], rank)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"SVD failed on far block ({t.id},{s.id})") from exc
        yield i, factors


def compress_dense(dense: np.ndarray, partition: BlockPartition,
                   rank: int) -> HMatrix:
    """Replace the far blocks of the symmetric dense by rank-min(rank, dims)
    truncated SVDs from owned_svds; copy near blocks verbatim. A dense that
    far_mirrors refuses is a ValueError. A mirror is not factored: its X is
    a view of its partner's (V^H)^T, its Y is conj(U) Sigma, and it shares
    its partner's sigma."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    mirror = far_mirrors(dense, partition)
    svds = dict(owned_svds(dense, partition, rank))
    far = []
    for i, ((t, s), j) in enumerate(zip(partition.far, mirror)):
        if j is None:
            u, sv, vh = svds[i]
        else:  # the partner's factors transposed: U' = (V^H)^T, V'^H = U^T
            pu, sv, pvh = svds[j]
            u, vh = pvh.T, pu.T
        far.append(LowRankBlock(t.span, s.span, u[:, :rank],
                                (vh[:rank].conj().T) * sv[:rank], sv))
    near = [DenseBlock(t.span, s.span, dense[t.span, s.span].copy())
            for t, s in partition.near]
    return HMatrix(dense.shape, far, near, partition)


def _dtype(h: HMatrix, *arrays) -> np.dtype:
    """The dtype of a product of h's blocks with arrays, at least float64."""
    return np.result_type(*arrays, *(b.data for b in h.near),
                          *(b.X for b in h.far), np.float64)


def matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    y = np.zeros(h.shape[0], dtype=_dtype(h, x))
    for b in h.far:
        y[b.rows] += b.X @ (b.Y.conj().T @ x[b.cols])
    for b in h.near:
        y[b.rows] += b.data @ x[b.cols]
    return y


def rmatvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """Conjugate-transpose matvec."""
    y = np.zeros(h.shape[1], dtype=_dtype(h, x))
    for b in h.far:
        y[b.cols] += b.Y @ (b.X.conj().T @ x[b.rows])
    for b in h.near:
        y[b.cols] += b.data.conj().T @ x[b.rows]
    return y


def to_dense(h: HMatrix) -> np.ndarray:
    out = np.zeros(h.shape, dtype=_dtype(h))
    for b in h.far:
        out[b.rows, b.cols] = b.X @ b.Y.conj().T
    for b in h.near:
        out[b.rows, b.cols] = b.data
    return out


def norm_operand(mat: np.ndarray) -> np.ndarray:
    """The array whose upper triangle spectral_norm(mat) reads: mat, or the
    Fortran-ordered view mat.T when mat is C-ordered."""
    return mat.T if mat.flags.c_contiguous else mat


def spectral_norm(mat: np.ndarray, seed: int = 0):
    """||S||_2 of the symmetric square matrix S (S = S^T, no conjugate) that
    the upper triangle of norm_operand(mat) defines, by ARPACK eigsh
    (k = 1, largest magnitude) with one product per step; returns (norm,
    converged, products). The operand's strict lower triangle is never
    read, and a strided operand is copied to Fortran order; a non-square
    mat is a ValueError. The operator is S itself when real, and when
    complex the real symmetric Takagi map [[Re S, Im S], [Im S, -Re S]],
    whose eigenvalues are +-sigma_i(S) (Horn & Johnson, Matrix Analysis,
    4.4), applied as one product S (x - iy); either product is one
    blas.symv, run under blas.kernel(N). The Ritz value never exceeds ||S||_2. The
    start vector is drawn from seed, so reruns are byte-identical. A 1 x 1
    mat (where ARPACK refuses k = 1) is measured exactly; ARPACK cannot
    start on a zero S, which the caller skips; no convergence within
    ARPACK_MAX_ITER steps gives (nan, False, products).
    """
    dim = mat.shape[0]
    if mat.shape != (dim, dim):
        raise ValueError("spectral_norm needs a square matrix")
    if dim < 2:
        return float(np.linalg.norm(mat)), True, 0
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    takagi = np.iscomplexobj(mat)
    size, dtype = (2 * dim, complex) if takagi else (dim, float)
    products = 0
    # symv needs Fortran order: a C-ordered mat is read through its transpose
    fmat = np.asfortranarray(norm_operand(mat), dtype)
    z, w = np.empty(dim, dtype), np.empty(dim, dtype)
    product = symv(fmat, z, w)  # w = S z

    def apply(v):
        nonlocal products
        products += 1
        if takagi:  # z = x - iy
            z.real = v[:dim]
            np.negative(v[dim:], out=z.imag)
        else:
            z[:] = v
        product()
        return np.concatenate([w.real, w.imag]) if takagi else w.copy()

    op = LinearOperator((size, size), matvec=apply, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(size)
    try:
        with kernel(dim):  # each product runs over a whole triangle
            val = eigsh(op, k=1, which="LM", tol=ARPACK_TOL,
                        maxiter=ARPACK_MAX_ITER, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence:
        return float("nan"), False, products
    return float(abs(val[0])), True, products


def tile_pairs(n: int):
    """(rows, cols) slices of the TILE x TILE tiles of an n x n matrix on
    and above the diagonal; [cols, rows] is each one's mirror."""
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def spectral_error(dense: np.ndarray, h: HMatrix):
    """||dense - h||_2, exact: the LAPACK 2-norm of the explicit residual;
    returns (norm, True). A residual at the rounding level of forming h,
    with Frobenius norm at most sqrt(N) eps ||dense||_F, counts as exactly
    zero."""
    res = dense - to_dense(h)
    floor = np.sqrt(res.shape[0]) * np.finfo(float).eps * np.linalg.norm(dense)
    if np.linalg.norm(res) <= floor:
        return 0.0, True
    return float(np.linalg.norm(res, 2)), True


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
