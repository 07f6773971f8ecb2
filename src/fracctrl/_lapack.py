"""The two LAPACK routines the package calls, Cholesky factor (dpotrf) and
solve (dpotrs), and a pin of the bundled OpenBLAS pools to one thread.

scipy's Linux wheels bundle an OpenBLAS whose LAPACK symbols carry a
``scipy_`` prefix; ``scipy.linalg.lapack.dpotrf`` and ``dpotrs`` call
``scipy_dpotrf_`` and ``scipy_dpotrs_`` from it.  This module binds those two
symbols with ctypes, so the package runs the very same routines, bit for bit,
without importing scipy's Python layer, which costs more time and memory
than the rest of the package's imports together.  The library is found next
to the scipy package, which ``importlib.util.find_spec`` locates without
importing it.  Where that library or its symbols are missing (other wheels,
conda, distribution builds), the same two functions call
``scipy.linalg.lapack``.  ``LIBRARY`` names the bound library, or is None on
that path.

OpenBLAS rounds dpotrf (from an order of 129 on) and dgemm (at some shapes)
differently on one thread than on several, so a result would depend on the
CPU count.  ``one_thread`` runs its body with both bundled pools on one
thread: numpy's, in ``numpy.libs/libscipy_openblas64_*.so``, and scipy's, in
``LIBRARY``.  fracnoise holds it around the fGn factorization and the noise
and prediction products (at long horizons these were also faster on one
thread on a 2-CPU host); the regression fits still use the pool.  A pool
whose library or thread setter is missing is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import os
import threading

import numpy as np

__all__ = ["potrf", "potrs", "one_thread"]


def _bundled_routines():
    """(factor, solve, library path) bound from scipy's bundled OpenBLAS, or
    None where it or its symbols are missing."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = os.path.join(os.path.dirname(list(spec.submodule_search_locations)[0]), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            dpotrf, dpotrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
        except (OSError, AttributeError):
            continue
        # Fortran calling convention: every argument by reference, then the
        # hidden length of the character argument.
        ref = ctypes.POINTER(ctypes.c_int)
        dpotrf.restype = dpotrs.restype = None
        dpotrf.argtypes = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref, ctypes.c_size_t]
        dpotrs.argtypes = [ctypes.c_char_p, ref, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ref, ref,
                           ctypes.c_size_t]

        def factor(a, lower):
            n, lda, info = ctypes.c_int(a.shape[0]), ctypes.c_int(max(1, a.shape[0])), ctypes.c_int()
            dpotrf(b"L" if lower else b"U", n, a.ctypes.data, lda, info, 1)
            return info.value

        def solve(c, b, lower):
            n, lda, info = ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, c.shape[0])), ctypes.c_int()
            nrhs = ctypes.c_int(1 if b.ndim == 1 else b.shape[1])
            dpotrs(b"L" if lower else b"U", n, nrhs, c.ctypes.data, lda, b.ctypes.data, lda, info, 1)
            return info.value

        return factor, solve, path
    return None


def _scipy_routines():
    """(factor, solve, None) through ``scipy.linalg.lapack``: the same
    routines behind f2py's wrappers, which work in place on Fortran-order
    float64 arrays."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    def factor(a, lower):
        c, info = dpotrf(a, lower=lower, clean=0, overwrite_a=1)
        if not np.shares_memory(c, a):
            a[...] = c
        return info

    def solve(c, b, lower):
        x, info = dpotrs(c, b, lower=lower, overwrite_b=1)
        if not np.shares_memory(x, b):
            b[...] = x
        return info

    return factor, solve, None


_factor, _solve, LIBRARY = _bundled_routines() or _scipy_routines()


def potrf(a: np.ndarray, lower: bool) -> int:
    """Cholesky-factor the square Fortran-order float64 ``a`` in place.

    The factor overwrites the ``lower`` (or upper) triangle and the other
    triangle is zeroed, as scipy's ``dpotrf(..., clean=1)`` does.  Returns
    LAPACK's ``info``: 0, or k > 0 when the leading minor of order k is not
    positive definite (the factor is then incomplete).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError(f"potrf needs a square Fortran-order float64 array, got {a.dtype} {a.shape}")
    info = _factor(a, lower)
    # One contiguous column slice at a time: a triangle index array costs
    # ten times as much at the horizons of a deep build.
    if lower:
        for j in range(1, a.shape[0]):
            a[:j, j] = 0.0
    else:
        for j in range(a.shape[0] - 1):
            a[j + 1 :, j] = 0.0
    return int(info)


def potrs(factor: np.ndarray, b, lower: bool) -> np.ndarray:
    """Solve A x = b, with ``factor`` the ``lower`` (or upper) Cholesky factor
    of A from ``potrf``; ``b`` has shape (n,) or (n, k) and is not
    modified.  Raises ValueError on an illegal argument, as scipy's
    ``cho_solve`` does."""
    factor = np.asfortranarray(factor, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1] or x.ndim not in (1, 2) \
            or x.shape[0] != factor.shape[0]:
        raise ValueError(f"incompatible dimensions ({factor.shape} and {x.shape})")
    info = _solve(factor, x, lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _thread_pools() -> list:
    """(get, set) thread-count functions of each bundled OpenBLAS pool found:
    numpy's, whose symbols carry the ``64_`` suffix of its 64-bit integer
    build, and scipy's."""
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    libraries = [(path, "64_") for path in sorted(glob.glob(os.path.join(numpy_libs, "libscipy_openblas64_*.so*")))]
    if LIBRARY is not None:
        libraries.append((LIBRARY, ""))
    pools = []
    for path, suffix in libraries:
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        pools.append((get, put))
    return pools


_POOLS = _thread_pools()
# The thread counts are process-wide, so the depth of pinned bodies and the
# counts found on entering the first are too; the lock keeps them consistent
# when several Python threads enter and leave.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextlib.contextmanager
def one_thread():
    """Run the body with every bundled OpenBLAS pool on one thread.

    The counts are process-wide: while any body runs, every call into those
    pools, from any Python thread, runs on one thread.  The last body to
    exit restores the counts found when the first entered, also on an
    exception; a nested body keeps one thread.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [get() for get, _ in _POOLS]
            for _, put in _POOLS:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, put), count in zip(_POOLS, _pin_saved):
                    put(count)
