"""Shared fixtures. Meshes and assembled systems are expensive enough at
n >= 4 that the suite builds each size once per session."""

import os

import numpy as np
import pytest
import scipy.linalg

from hmaxwell import assemble_system, blas, build_box_mesh


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Every test leaves each loaded OpenBLAS on the thread count it found:
    a leak out of cli.main would slow every later test and falsify the
    thread count a benchmark run records."""
    before = blas.current()
    yield
    if (after := blas.current()) != before:
        pytest.fail(f"OpenBLAS thread counts {before} became {after}")


@pytest.fixture(scope="session")
def mesh_cache():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_box_mesh(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def system_cache(mesh_cache):
    cache = {}

    def get(n, kappa=1.0):
        key = (n, kappa)
        if key not in cache:
            cache[key] = assemble_system(mesh_cache(n), kappa=kappa)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def truncation_residual():
    """A^{-1} - B_H for a leaf-order inverse, built without hmatrix: each far
    block (tau, sigma) with tau.id <= sigma.id is truncated to rank r by its
    own LAPACK SVD, and its mirror (sigma, tau) takes the transpose, so that
    B_H = B_H^T as the sweep defines it. Truncating the mirror on its own
    would pick another subspace wherever sigma_r = sigma_{r+1} (at n = 3,
    n_leaf 16 the block (3, 20) has such a tie at r = 2)."""
    def get(binv, partition, r):
        res = np.zeros_like(binv)
        for t, s in partition.far:
            if t.id <= s.id:
                u, sv, vh = np.linalg.svd(binv[t.span, s.span],
                                          full_matrices=False)
                res[t.span, s.span] = (u[:, r:] * sv[r:]) @ vh[r:]
                res[s.span, t.span] = res[t.span, s.span].T
        return res

    return get


@pytest.fixture()
def patch_lapack(monkeypatch):
    """patch_lapack(name, wrap) makes scipy.linalg.get_lapack_funcs hand out
    wrap(f) in place of the LAPACK routine f called name (say "sytrf"), for
    the rest of the test; patches of several names stack."""
    def patch(name, wrap):
        get = scipy.linalg.get_lapack_funcs

        def patched(names, *args, **kwargs):
            funcs = get(names, *args, **kwargs)
            return tuple(wrap(f) if n == name else f
                         for n, f in zip(names, funcs))

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", patched)

    return patch


@pytest.fixture()
def physical_memory(monkeypatch):
    """physical_memory(nbytes) makes the host report exactly nbytes of
    physical memory (pages of one byte) for the rest of the test; every
    other os.sysconf name still reads the host."""
    def patch(nbytes):
        real, fake = os.sysconf, {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(os, "sysconf",
                            lambda name: fake[name] if name in fake else real(name))

    return patch
