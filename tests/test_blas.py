"""The BLAS thread switch: threads(k) and kernel(n) on every loaded
OpenBLAS, and where the CLI runs on how many threads, read from each
library's own getter at the call sites; and the symv and gemm bindings."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from hmaxwell import blas, cli, hmatrix, inverse_lab

needs_openblas = pytest.mark.skipif(not blas.current(),
                                    reason="no OpenBLAS loaded")


def maps_openblas():
    """The OpenBLAS shared objects mapped into this process, read
    independently of the module under test."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        return {fields[-1] for fields in map(str.split, f)
                if len(fields) == 6 and "openblas" in fields[-1].lower()
                and ".so" in fields[-1]}


@needs_openblas
def test_finds_every_loaded_openblas():
    """numpy and scipy each bring their own OpenBLAS; both are found, each
    with a readable count of at least one thread."""
    found = blas.current()
    assert set(found) == maps_openblas()
    assert len(found) >= 2
    assert all(k >= 1 for k in found.values())


@needs_openblas
def test_threads_sets_every_library_and_nested_contexts_restore_in_order():
    start = blas.current()

    def counts():
        return set(blas.current().values())

    with blas.threads(1):
        assert counts() == {1}
        with blas.threads(2):
            assert counts() == {2}
            with blas.threads(1):
                assert counts() == {1}
            assert counts() == {2}
        assert counts() == {1}
    assert blas.current() == start


@needs_openblas
def test_an_exception_inside_still_restores():
    start = blas.current()
    with pytest.raises(RuntimeError, match="inside"):
        with blas.threads(1):
            with blas.kernel(blas.PARALLEL_MIN):
                raise RuntimeError("inside")
    assert blas.current() == start


@needs_openblas
def test_kernel_widens_only_from_the_floor():
    """kernel(n) runs on kernel_counts(n), the starting counts from n =
    PARALLEL_MIN on and one thread below, inside threads(k) or not, and
    kernel_counts(n) depends on n alone, not on the context it is read in."""
    start = blas.current()
    below, floor = blas.PARALLEL_MIN - 1, blas.PARALLEL_MIN
    assert blas.kernel_counts(below) == [1] * len(start)
    assert blas.kernel_counts(floor) == list(start.values())
    with blas.kernel(below):
        assert set(blas.current().values()) == {1}
    assert blas.current() == start
    with blas.threads(1):
        with blas.kernel(below):
            assert set(blas.current().values()) == {1}
        assert blas.kernel_counts(below) == [1] * len(start)
        with blas.kernel(floor):
            assert blas.current() == start
            with blas.threads(1):
                assert blas.kernel_counts(floor) == list(start.values())
        assert set(blas.current().values()) == {1}
        assert blas.kernel_counts(floor) == list(start.values())


@needs_openblas
@pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "exit 2", "exit 3",
                                     "exception"])
def test_main_restores_the_counts_on_every_exit(tmp_path, monkeypatch, outcome):
    """The whole verb runs on one thread, and after main, however it ends,
    every library has its starting count again."""
    start = blas.current()
    inside = []

    def verb(run, cfg):
        inside.append(blas.current())
        if outcome == "exit 1":
            raise ValueError("a numeric guard")
        if outcome == "exit 3":
            raise MemoryError()
        if outcome == "exception":
            raise RuntimeError("not a documented failure")
        return 0

    monkeypatch.setitem(cli.COMMANDS, "mesh-info", verb)
    argv = ["mesh-info", "--out", str(tmp_path)]
    if outcome == "exit 2":
        argv += ["--n", "0"]
    if outcome == "exception":
        with pytest.raises(RuntimeError, match="not a documented"):
            cli.main(argv)
    else:
        assert cli.main(argv) == int(outcome[-1])
    assert inside == ([] if outcome == "exit 2"
                      else [{path: 1 for path in start}])
    assert blas.current() == start


def spy(monkeypatch, owner, name, calls, label):
    """Replace owner.name by a wrapper that records, per call, the largest
    thread count of any loaded OpenBLAS under label."""
    fn = getattr(owner, name)

    def spied(*args, **kwargs):
        calls.setdefault(label, []).append(max(blas.current().values()))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)


def spy_kernels(monkeypatch, patch_lapack, calls):
    """Spies on the N x N kernels (sytrf, trtri, eigsh) and on the
    far-block SVDs."""
    spy(monkeypatch, scipy.sparse.linalg, "eigsh", calls, "eigsh")
    spy(monkeypatch, hmatrix, "truncated_svd", calls, "truncated_svd")
    for name in ("sytrf", "trtri"):
        def wrap(f, name=name):
            def spied(*args, **kwargs):
                calls.setdefault(name, []).append(max(blas.current().values()))
                return f(*args, **kwargs)
            return spied

        patch_lapack(name, wrap)


@needs_openblas
def test_rank_sweep_widens_only_the_n_by_n_kernels(tmp_path, monkeypatch,
                                                   patch_lapack):
    """At n = 8 (N = 3,032) every far-block SVD and every rank update runs on
    one thread, and sytrf, trtri and eigsh on the starting count. The
    rank updates of rank r run in rank_sweep between its norms, so the
    count read where each norm starts is theirs."""
    start = max(blas.current().values())
    calls = {}
    spy_kernels(monkeypatch, patch_lapack, calls)
    spy(monkeypatch, inverse_lab, "spectral_norm", calls, "rank_updates")
    assert cli.main(["rank-sweep", "--n", "8", "--ranks", "1,2",
                     "--out", str(tmp_path), "--name", "s"]) == 0
    counters = json.loads((tmp_path / "s" / "manifest.json").read_text())["counters"]
    assert len(calls["truncated_svd"]) == counters["far_svds"] == 1378
    assert set(calls["truncated_svd"]) == {1}
    assert calls["rank_updates"] == [1, 1, 1]  # A^{-1}, then r = 1, 2
    assert calls["sytrf"] == calls["trtri"] == [start]
    assert calls["eigsh"] == [start] * 3
    assert counters["blas_threads"] == start


@needs_openblas
@pytest.mark.parametrize("argv", [["verify", "--n", "3", "--n-leaf", "16"],
                                  ["caccioppoli", "--n", "6"]])
def test_small_and_local_runs_stay_on_one_thread(tmp_path, monkeypatch,
                                                 patch_lapack, argv):
    """verify at n = 3 (N = 117, below the floor) and the local theory run
    every LAPACK call on one thread."""
    calls = {}
    spy_kernels(monkeypatch, patch_lapack, calls)
    for owner, name in [(np.linalg, "svd"), (np.linalg, "qr"),
                        (np.linalg, "solve"), (scipy.linalg, "eigh"),
                        (scipy.linalg, "cholesky"),
                        (scipy.linalg, "cholesky_banded"),
                        (scipy.linalg, "cho_factor")]:
        spy(monkeypatch, owner, name, calls, name)
    assert cli.main([*argv, "--out", str(tmp_path), "--name", "r"]) == 0
    want = ({"sytrf", "trtri", "eigsh", "truncated_svd", "svd"}
            if argv[0] == "verify" else {"svd", "qr", "eigh", "cholesky"})
    assert want <= set(calls)
    assert {k for seen in calls.values() for k in seen} == {1}
    counters = json.loads((tmp_path / "r" / "manifest.json").read_text())["counters"]
    assert counters["blas_threads"] == 1


def test_without_openblas_every_context_is_a_no_op(tmp_path, monkeypatch):
    """With no OpenBLAS found, the contexts change nothing, kernel_counts
    names no library, a run goes as before and its manifest reads
    blas_threads = 1."""
    monkeypatch.setattr(blas, "_libs", [])
    assert blas.current() == {}
    with blas.threads(1), blas.kernel(blas.PARALLEL_MIN):
        assert blas.current() == {}
        assert blas.kernel_counts(blas.PARALLEL_MIN) == []
    assert cli.main(["rank-sweep", "--n", "5", "--ranks", "1,2",
                     "--out", str(tmp_path), "--name", "s"]) == 0
    counters = json.loads((tmp_path / "s" / "manifest.json").read_text())["counters"]
    assert counters["N"] >= blas.PARALLEL_MIN and counters["blas_threads"] == 1


def test_symv_reads_one_triangle_and_rereads_its_vector(rng):
    """blas.symv's product is S x for the symmetric S (no conjugate) the
    upper triangle defines, real or complex, to 1e-13, with NaN in the
    strict lower triangle; one bound product serves every new x written
    into its vector. Any other layout or dtype, or vectors of another
    dtype than the matrix, is a ValueError, before BLAS is called."""
    n = 70
    for dtype in (float, complex):
        a = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((n, n))
        a = np.asfortranarray(a)
        s = np.triu(a) + np.triu(a, 1).T
        a[np.tril_indices(n, -1)] = np.nan
        x, y = np.empty(n, dtype), np.empty(n, dtype)
        product = blas.symv(a, x, y)
        for _ in range(3):
            x[:] = rng.standard_normal(n)
            if dtype is complex:
                x += 1j * rng.standard_normal(n)
            product()
            want = s @ x
            assert np.abs(y - want).max() <= 1e-13 * np.abs(want).max()
        other = complex if dtype is float else float
        for bad in ((np.ascontiguousarray(a), x, y),
                    (a.astype(np.float32 if dtype is float else np.complex64,
                              order="F"), x, y),
                    (a, x[:-1], y), (a, x, np.empty(n, other)),
                    (a, np.empty(n, other), y)):
            with pytest.raises(ValueError, match="symv"):
                blas.symv(*bad)


@pytest.mark.parametrize("dtype", [float, complex])
def test_gemm_tn_writes_slices_in_place(rng, dtype):
    """blas.gemm_tn(a, b, c) sets the column-major slice c to a^T b, with no
    conjugate, and adds it to c with add=True, to 1e-13; entries of the
    array outside c keep their bits. Any other layout, shape or dtype is a
    ValueError, before BLAS is called."""
    z = rng.standard_normal((60, 60)).astype(dtype)
    if dtype is complex:
        z += 1j * rng.standard_normal((60, 60))
    z = np.asfortranarray(z)
    a, b = z[20:, :15], z[20:, 40:47]
    want = a.T @ b
    before = z.copy(order="F")
    blas.gemm_tn(a, b, z[:15, 20:27])
    assert np.abs(z[:15, 20:27] - want).max() <= 1e-13 * np.abs(want).max()
    z[:15, 20:27] = before[:15, 20:27]
    assert np.array_equal(z, before)
    c = np.asfortranarray(rng.standard_normal((15, 7))).astype(dtype)
    start = c.copy()
    blas.gemm_tn(a, b, c, add=True)
    assert np.abs(c - start - want).max() <= 1e-13 * np.abs(want).max()
    for bad in ((a.T, b.T, c.T), (np.ascontiguousarray(a), b, c),
                (a, b, c[:, :-1]), (a, b, c.astype(np.complex64)),
                (a[:-1], b, c)):
        with pytest.raises(ValueError, match="gemm_tn"):
            blas.gemm_tn(*bad)
