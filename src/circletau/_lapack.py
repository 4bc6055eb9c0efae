"""Four LAPACK routines from the OpenBLAS that numpy itself loads.

numpy's wheels link the scipy-openblas64 build of OpenBLAS, which
exports LAPACK with ILP64 integers under the names scipy_*64_.  The
solve needs four routines numpy has no function for: cpotrf (Cholesky
factor of the complex64 Gram matrix), ctrtrs (triangular solves with
that factor), ztrtri (triangular inverse, for the cond of the QR path)
and ztrtrs (the triangular solve of the QR path).  They are bound here
by ctypes through their column-major LAPACKE_*_work entries, which call
the Fortran routine directly; the plain LAPACKE_* entries scan the
matrix for NaN first, which costs more than a triangular solve.

The functions copy exactly where scipy.linalg.lapack's wrappers copy at
the arguments uniformize passes, so both return the same arrays, layout
included: cpotrf factors a Fortran-ordered complex64 matrix in place and
zeroes its strictly lower triangle (scipy's clean=1), trtri inverts a
Fortran-ordered copy, and trtrs (ctrtrs or ztrtrs, by the dtype of the
matrix) solves into a copy of b cast to that dtype, copying the matrix
only when it is not already Fortran-ordered.

There is no fallback: when numpy was built against another LAPACK, or a
routine is missing, importing this module raises ImportError naming the
routine and numpy's LAPACK build.
"""

import ctypes

import numpy as np
from numpy._core import _multiarray_umath

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
_INT, _CHAR, _PTR = ctypes.c_int64, ctypes.c_char, ctypes.c_void_p
# argument types after the matrix layout
_SIGNATURES = {
    "cpotrf": [_CHAR, _INT, _PTR, _INT],
    "ctrtrs": [_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT],
    "ztrtri": [_CHAR, _CHAR, _INT, _PTR, _INT],
    "ztrtrs": [_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT],
}
# the triangular solve by the dtype of its matrix
_TRTRS = {np.dtype(np.complex64): "ctrtrs", np.dtype(np.complex128): "ztrtrs"}


def _lapack_build() -> str:
    """Name and version of the LAPACK numpy was built against."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{lapack.get('name')} {lapack.get('version')}"


def _bind(lib) -> dict:
    """The four routines of lib by name, as ctypes functions of their
    LAPACKE_*_work64_ entries; ImportError names the first one missing."""
    routines = {}
    for name, argtypes in _SIGNATURES.items():
        symbol = f"scipy_LAPACKE_{name}_work64_"
        try:
            fn = getattr(lib, symbol)
        except AttributeError:
            raise ImportError(
                f"circletau needs the LAPACK routine {name} ({symbol}) of the "
                f"scipy-openblas64 build that numpy's wheels link, but numpy's "
                f"LAPACK is {_lapack_build()}"
            ) from None
        fn.argtypes = [ctypes.c_int, *argtypes]
        fn.restype = _INT
        routines[name] = fn
    return routines


_ROUTINES = _bind(ctypes.CDLL(_multiarray_umath.__file__))


def _order(a) -> int:
    """n of an n x n matrix; ValueError for any other shape."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def cpotrf(a):
    """Upper Cholesky factor R (R^H R = a) of a Hermitian matrix, in place.

    a must be Fortran-ordered complex64; only its upper triangle is
    read, and its strictly lower triangle is zeroed.  Returns (a, info),
    info > 0 when a is not positive definite.
    """
    if a.dtype != np.complex64 or not a.flags.f_contiguous:
        raise ValueError(f"cpotrf factors a Fortran-ordered complex64 matrix, got {a.dtype}")
    n = _order(a)
    info = _ROUTINES["cpotrf"](_COL_MAJOR, b"U", n, a.ctypes.data, max(1, n))
    np.copyto(a, 0, where=np.tri(n, k=-1, dtype=bool))
    return a, int(info)


def trtri(r):
    """Inverse of the upper triangular complex128 r (ztrtri) as (inverse,
    info); info > 0 when r is singular.  r is not modified."""
    if r.dtype != np.complex128:
        raise ValueError(f"trtri inverts a complex128 matrix, got {r.dtype}")
    inv = np.array(r, order="F")
    n = _order(inv)
    info = _ROUTINES["ztrtri"](_COL_MAJOR, b"U", b"N", n, inv.ctypes.data, max(1, n))
    return inv, int(info)


def trtrs(a, b, lower=0, trans=0):
    """Solve op(a) x = b for a triangular a and a vector b, in a's precision.

    a is complex64 (ctrtrs) or complex128 (ztrtrs), upper triangular, or
    lower when lower=1; op(a) is a, a^T or a^H for trans = 0, 1 or 2.  b
    is cast to a's dtype, and neither argument is modified.  Returns
    (x, info), info > 0 when a is singular.
    """
    a = np.asarray(a, order="F")
    name = _TRTRS.get(a.dtype)
    if name is None:
        raise ValueError(f"trtrs solves with a complex64 or complex128 matrix, got {a.dtype}")
    n = _order(a)
    x = np.array(b, dtype=a.dtype)
    if x.shape != (n,):
        raise ValueError(f"expected b of shape ({n},), got {x.shape}")
    info = _ROUTINES[name](
        _COL_MAJOR, b"L" if lower else b"U", b"NTC"[trans : trans + 1], b"N",
        n, 1, a.ctypes.data, max(1, n), x.ctypes.data, max(1, n),
    )
    return x, int(info)
