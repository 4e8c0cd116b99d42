"""Thread counts of the OpenBLAS libraries loaded in this process.

numpy and scipy each load their own OpenBLAS, each with its own pool of
worker threads. Most of the package's dense algebra is thousands of small
calls (far-block SVDs, rank updates, the region SVD, QR and Cholesky
steps), which run faster on one thread, and handing work from one pool to
the other stalls. So cli.main runs every verb inside threads(1), and only
the two kernels whose work is N x N, dense_inverse (sytrf, trtri and the
gemm products of Z^T D^{-1} Z) and the Lanczos products of spectral_norm,
go back to the counts the libraries started with (OPENBLAS_NUM_THREADS,
or the core count), through kernel(N), and only from N = PARALLEL_MIN on:
kernel_counts(N), a function of N alone.

The libraries are found on first use, never at import: the shared objects
named "openblas" in /proc/self/maps, opened with ctypes, that export a
getter and a setter of the thread count. Where none is found every context
is a no-op. Each context restores the counts it found, also when the body
raises.

The module is also the package's one home of ctypes and BLAS bindings.
One loader binds routines of scipy's OpenBLAS, the pool LAPACK runs on,
from the capsules of scipy.linalg.cython_blas and cython_lapack: symv,
the symmetric product by dsymv or zsymv (f2py lacks zsymv), and gemm_tn,
gemm on strided slices, which f2py copies and numpy's matmul would run on
numpy's pool, against scipy's spinning workers.
"""

import ctypes
from contextlib import contextmanager
from functools import partial
from importlib import import_module

# N from which the N x N kernels run on the starting counts: on a 2-core
# VM, dense_inverse's median on one thread against two (15 alternating
# pairs) was 6.4 against 6.4 ms at N = 316, 21.4 against 17.2 at 665,
# 68.5 against 59.0 at 1,206 and 251 against 201 at 1,981
PARALLEL_MIN = 512

# (getter, setter) in the order tried: the scipy-openblas builds that numpy
# (64-bit integers) and scipy ship, then a plain OpenBLAS
_SYMBOLS = [(f"{pre}_get_num_threads{suf}", f"{pre}_set_num_threads{suf}")
            for pre, suf in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                             ("openblas", "64_"), ("openblas", ""))]

_libs = None  # [(path, getter, setter, starting count)], on first use
_fns = {}  # routines of scipy.linalg's Cython capsule tables, on first use


def _libraries() -> list:
    global _libs
    if _libs is None:
        try:
            with open("/proc/self/maps", encoding="utf-8") as f:
                paths = sorted({line.split()[-1] for line in f
                                if "openblas" in line.lower() and ".so" in line})
        except OSError:
            paths = []
        _libs = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    _libs.append((path, get, put, get()))
                    break
    return _libs


def current() -> dict:
    """Thread count of each loaded OpenBLAS, by path; empty if none."""
    return {path: get() for path, get, _, _ in _libraries()}


@contextmanager
def _counts(counts):
    """Each library on its entry of counts inside; the previous counts after."""
    libs, before = _libraries(), list(current().values())
    try:
        for (_, _, put, _), k in zip(libs, counts):
            put(k)
        yield
    finally:
        for (_, _, put, _), k in zip(libs, before):
            put(k)


def threads(k: int):
    """Every loaded OpenBLAS on k threads inside."""
    return _counts([k] * len(_libraries()))


def kernel_counts(n: int) -> list:
    """The thread count of each loaded OpenBLAS, in the order found, for a
    kernel whose work is n x n: its starting count from n = PARALLEL_MIN
    on, 1 below; empty where no OpenBLAS is found."""
    return [start if n >= PARALLEL_MIN else 1 for *_, start in _libraries()]


def kernel(n: int):
    """Every loaded OpenBLAS on kernel_counts(n) inside, from wherever it is
    called, so the kernel's result depends on n alone."""
    return _counts(kernel_counts(n))


def _capsule(module: str, name: str, nargs: int):
    """The routine name of scipy.linalg.cython_<module> (blas or lapack),
    found on first use, as a ctypes function of nargs pointers."""
    if name not in _fns:
        table = import_module(f"scipy.linalg.cython_{module}").__pyx_capi__
        name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        address = pointer(table[name], name_of(table[name]))
        _fns[name] = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)
    return _fns[name]


def gemm_tn(a, b, c, add: bool = False):
    """c = a^T b, plus c if add (no conjugate), by gemm of scipy's OpenBLAS.
    a (k x m), b (k x n) and c (m x n) are float64 or complex128 views, one
    dtype, column-major (unit row stride); c must not overlap a or b."""
    (k, m), n, views = a.shape, b.shape[1], (a, b, c)
    lds = [x.strides[1] // x.itemsize for x in views]
    if not (b.shape[0] == k and c.shape == (m, n) and a.dtype.char in "dD"
            and a.dtype == b.dtype == c.dtype and all(
                x.strides[0] == x.itemsize and x.strides[1] % x.itemsize == 0
                and ld >= max(1, x.shape[0]) for x, ld in zip(views, lds))):
        raise ValueError("gemm_tn needs column-major (k, m), (k, n) and (m, n) "
                         "views of one dtype, float64 or complex128")
    size = [ctypes.byref(ctypes.c_int(v)) for v in (m, n, k, *lds)]
    _capsule("blas", "zgemm" if a.dtype.char == "D" else "dgemm", 13)(
        b"T", b"N", *size[:3], (ctypes.c_double * 2)(1.0, 0.0), a.ctypes.data,
        size[3], b.ctypes.data, size[4], (ctypes.c_double * 2)(add, 0.0),
        c.ctypes.data, size[5])


def symv(a, x, y):
    """A function of no arguments that overwrites y with S x, where S is the
    symmetric matrix (S = S^T, no conjugate) that the upper triangle of a
    defines, by BLAS dsymv for float64 and LAPACK zsymv for complex128; the
    strict lower triangle is never read. a is a Fortran-ordered n x n
    array, x and y contiguous n-vectors of a's dtype, which the function
    holds; each call reads x anew. The argument pointers are built here,
    once."""
    n = a.shape[0]
    if not (a.shape == (n, n) and a.dtype.char in "dD" and a.flags.f_contiguous
            and all(v.shape == (n,) and v.dtype == a.dtype
                    and v.flags.c_contiguous for v in (x, y))):
        raise ValueError("symv needs a Fortran-ordered float64 or complex128 "
                         "n x n array and two contiguous n-vectors of its dtype")
    fn = (_capsule("lapack", "zsymv", 10) if a.dtype.char == "D"
          else _capsule("blas", "dsymv", 10))
    size, step = map(ctypes.c_int, (n, 1))
    # (re, im) pairs; dsymv reads the first entry of each
    alpha, beta = (ctypes.c_double * 2)(1.0, 0.0), (ctypes.c_double * 2)(0.0, 0.0)
    args = (ctypes.c_char_p(b"U"), ctypes.byref(size), alpha, a.ctypes.data,
            ctypes.byref(size), x.ctypes.data, ctypes.byref(step), beta,
            y.ctypes.data, ctypes.byref(step))
    product = partial(fn, *args)
    product.buffers = (a, x, y)  # alive while BLAS may read or write them
    return product
