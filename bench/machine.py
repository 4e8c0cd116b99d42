"""Python, numpy, scipy and BLAS versions and the BLAS thread count of the
running interpreter; worker.py records them after its timed region. The
thread count is read back from each loaded OpenBLAS."""

import ctypes
import platform

import numpy
import scipy

THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def loaded_openblas() -> list:
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    return sorted(p for p in paths if ".so" in p)


def openblas_threads() -> dict:
    """Thread count per loaded OpenBLAS library, by file name."""
    out = {}
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        for sym in THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[path.rsplit("/", 1)[-1]] = int(fn())
                break
    return out


def collect() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
    }
