"""Dense linear-algebra kernels used by the losses and baselines.

The kernels are pure functions of float64 arrays, and deliberately small:
a compact SVD, a ridge-stabilised least-squares solve and a symmetric
eigendecomposition.
The trajectory losses run their own batched decompositions of all groups
at once in ``losses``; the flow-fit losses hand ``lstsq`` every segment and
frame pair as one stack, and the baselines use the kernels here.
``blas_threads`` and ``one_blas_thread`` read and hold the thread count of
numpy's OpenBLAS, for callers that run kernels on threads of their own.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SvdFactors",
    "svd",
    "lstsq",
    "sym_eig",
    "blas_threads",
    "one_blas_thread",
]


def as_matrix(a, name="matrix"):
    """Validate and convert ``a`` to a finite 2-d float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(
            f"{name} must be 2-d with at least one row and column, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD ``A = u @ diag(sigma) @ v.T``.

    u : (m, q) column-orthonormal left factors
    sigma : (q,) singular values, descending and nonnegative
    v : (n, q) column-orthonormal right factors, with q = min(m, n)
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdFactors:
    """Compact singular value decomposition, as ``np.linalg.svd`` returns it.

    The signs of matching singular vector pairs are LAPACK's.  The only
    caller, LRR's singular-value thresholding, decomposes the Gram matrix
    M M^T of each iterate and reads ``u`` only through U_k U_k^T; past its
    round-off guard it decomposes M itself and multiplies ``u`` and ``v.T``
    back together.  Either way it cannot observe the signs.

    Raises
    ------
    InvalidInputError
        If ``a`` contains non-finite entries or is not 2-d.
    """
    u, s, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    return SvdFactors(u=u, sigma=s, v=vt.T)


def lstsq(e, f) -> np.ndarray:
    """Least squares ``argmin_theta || e @ theta - f ||_F``, one matrix or a
    stack of them solved in one call.

    Each design is solved through ridge-regularised normal equations
    ``(e.T e + eps*I) theta = e.T f`` with ``eps = 1e-8 * trace(e.T e) / p``,
    which keeps rank-deficient designs well posed (segments whose soft mask
    is nearly empty produce nearly-zero design matrices).  An exactly zero
    design returns the zero solution.

    Parameters
    ----------
    e : (..., m, p) design matrices
    f : (..., m, c) targets, with the same leading axes

    Returns
    -------
    (..., p, c) coefficient matrices.
    """
    e = np.asarray(e, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    for a, name in ((e, "design"), (f, "target")):
        if a.ndim < 2 or 0 in a.shape:
            raise InvalidInputError(
                f"{name} must be a matrix or a stack of matrices with at least "
                f"one row and column, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidInputError(f"{name} contains non-finite entries")
    if e.shape[:-1] != f.shape[:-1]:
        raise InvalidInputError(
            f"design of shape {e.shape} and target of shape {f.shape} differ in "
            "rows or leading axes"
        )
    p = e.shape[-1]
    et = e.swapaxes(-1, -2)
    gram = et @ e
    trace = np.trace(gram, axis1=-2, axis2=-1)
    zero = trace == 0.0
    lhs = gram + (1e-8 * trace / p)[..., None, None] * np.eye(p)
    lhs[zero] = np.eye(p)
    theta = np.linalg.solve(lhs, et @ f)
    theta[zero] = 0.0
    return theta


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Asymmetry beyond 1e-10 in max norm is rejected.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"matrix must be square, got {s.shape}")
    if np.abs(s - s.T).max() > 1e-10:
        raise InvalidInputError("matrix is not symmetric within 1e-10")
    w, v = np.linalg.eigh(s)
    return w, v


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    ships in ``numpy.libs``, or None where no such library exports them."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads():
    """Threads numpy's OpenBLAS runs on, or None when its count is out of reach."""
    controls = _openblas()
    return None if controls is None else controls[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block and give it back
    its previous count on the way out, also when the block raises.

    Only call it where ``blas_threads()`` is not None.
    """
    get, set_ = _openblas()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
