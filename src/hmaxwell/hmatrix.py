"""Blockwise low-rank matrix format over a block partition.

Far (admissible) blocks hold truncated-SVD factors X Y^H with orthonormal
columns in X, the spectral-norm-optimal rank-r approximation of the block;
near blocks are stored dense. owned_svds is the one SVD loop over the far
blocks, with one SVD per mirrored pair of a symmetric matrix (far_mirrors,
which makes the package's one full-array symmetry test); compress_dense
reads both factor sides of every block from it, a mirror its partner's
transposed, and the rank sweep keeps one side. spectral_norm is the
package's one Lanczos norm: of the symmetric matrix one triangle of its
operand defines, so a caller may keep just that triangle. spectral_error
is the exact norm of an approximation's error.

Every dense matrix this module takes or returns is in the cluster tree's
leaf order, where each block is the slice of its clusters' spans.
"""

from dataclasses import dataclass

import numpy as np

from .blas import kernel, zsymv
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


def far_mirrors(dense: np.ndarray, partition: BlockPartition):
    """For a bitwise-symmetric square dense, the index of the partner
    (sigma, tau) in partition.far of each far block (tau, sigma) with
    tau.id > sigma.id, a mirror, whose slice is its partner's transpose;
    every other entry is None: the block is owned. An owned block lies on
    or above the diagonal: tau and sigma are equal or disjoint, and in
    preorder the lower id's span comes first. For any other dense, None."""
    if not _is_symmetric(dense):
        return None
    where = {(t.id, s.id): i for i, (t, s) in enumerate(partition.far)}
    return [where.get((s.id, t.id)) if t.id > s.id else None
            for t, s in partition.far]


def owned_svds(dense: np.ndarray, partition: BlockPartition, mirror: list,
               rank: int):
    """(i, truncated_svd(block, rank)) for each far block i of dense with
    mirror[i] None, in partition.far order: the package's one SVD loop over
    far blocks, one SVD per mirrored pair. A LAPACK failure is a ValueError
    naming the block."""
    for i, ((t, s), j) in enumerate(zip(partition.far, mirror)):
        if j is not None:
            continue
        try:
            factors = truncated_svd(dense[t.span, s.span], rank)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"SVD failed on far block ({t.id},{s.id})") from exc
        yield i, factors


def compress_dense(dense: np.ndarray, partition: BlockPartition,
                   rank: int) -> HMatrix:
    """Replace far blocks by rank-min(rank, dims) truncated SVDs from
    owned_svds; copy near blocks verbatim. A mirror is not factored: its X
    is a view of its partner's (V^H)^T, its Y is conj(U) Sigma, and it
    shares its partner's sigma."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    mirror = far_mirrors(dense, partition) or [None] * len(partition.far)
    svds = dict(owned_svds(dense, partition, mirror, rank))
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
    mat is a ValueError. The operator is S itself when real, by BLAS symv, and when
    complex the real symmetric Takagi map [[Re S, Im S], [Im S, -Re S]],
    whose eigenvalues are +-sigma_i(S) (Horn & Johnson, Matrix Analysis,
    4.4), applied as one product S (x - iy) by LAPACK zsymv. The products
    run under blas.kernel(N). The Ritz value never exceeds ||S||_2. The
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
    from scipy.linalg import get_blas_funcs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    takagi = np.iscomplexobj(mat)
    size = 2 * dim if takagi else dim
    products = 0
    # zsymv needs Fortran order, and f2py's symv would copy other arrays
    # on every product
    fmat = np.asfortranarray(norm_operand(mat), complex if takagi else float)
    if takagi:
        z, w = np.empty(dim, complex), np.empty(dim, complex)
        product = zsymv(fmat, z, w)  # w = S z
    else:
        symv = get_blas_funcs("symv", (fmat,))

    def apply(v):
        nonlocal products
        products += 1
        if not takagi:
            return symv(1.0, fmat, v)
        z.real = v[:dim]  # z = x - iy
        np.negative(v[dim:], out=z.imag)
        product()
        return np.concatenate([w.real, w.imag])

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


def _is_symmetric(mat: np.ndarray) -> bool:
    """mat == mat.T bitwise, compared one tile pair at a time."""
    n = mat.shape[0]
    return mat.shape == (n, n) and all(
        np.array_equal(mat[r, c], mat[c, r].T) for r, c in tile_pairs(n))


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
