"""Dense linear-algebra substrate: validated arrays, index sets, LU solves
and symmetric eigenvalues for the definiteness tests, both on LAPACK.

All matrices are dense float64 numpy arrays. Index sets are strictly
increasing integer arrays; submatrix extraction preserves that order.
Singularity is decided against a pivot threshold that scales with the
largest absolute entry of the matrix, so the zero matrix is singular and
scaling a matrix does not flip the verdict.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri, dgetrs

from .tolerances import TOL_PIVOT_FACTOR, TOL_PSD

__all__ = [
    "SingularMatrixError",
    "as_matrix",
    "as_vector",
    "index_set",
    "complement",
    "submatrix",
    "solve",
    "invert",
    "symmetric_eigenvalues",
    "min_symmetric_eigenvalue",
    "is_psd",
]


class SingularMatrixError(RuntimeError):
    """Raised when a pivot falls below the singularity threshold."""


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a 2-d float64 array and validate finiteness."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(a, size: int | None = None) -> np.ndarray:
    """Coerce to a 1-d float64 array and validate finiteness."""
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if size is not None and v.size != size:
        raise ValueError(f"expected length {size}, got {v.size}")
    return v


def index_set(indices, n: int) -> np.ndarray:
    """Validate a collection of 0-based indices against dimension n.

    Returns a strictly increasing int array. Duplicates and out-of-range
    entries raise ValueError.
    """
    idx = np.array(sorted(indices), dtype=int)
    if idx.size:
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"index out of range for dimension {n}: {idx}")
        if np.any(np.diff(idx) == 0):
            raise ValueError(f"duplicate indices: {idx}")
    return idx


def complement(idx: np.ndarray, n: int) -> np.ndarray:
    """Indices of [0, n) not in idx, increasing."""
    mask = np.ones(n, dtype=bool)
    mask[np.asarray(idx, dtype=int)] = False
    return np.flatnonzero(mask)


def submatrix(a: np.ndarray, rows, cols) -> np.ndarray:
    """Extract a[rows, cols] with index validation, preserving order."""
    a = np.asarray(a, dtype=float)
    r = index_set(rows, a.shape[0])
    c = index_set(cols, a.shape[1])
    return a[np.ix_(r, c)]


def _factor(a: np.ndarray):
    """getrf of a nonempty square a, with the pivot check of solve."""
    # getrf does not stop at a small pivot, so the whole diagonal of U is
    # checked; NaN and overflow to inf fail the comparisons: singular
    lu, piv, _ = dgetrf(a)
    thresh = TOL_PIVOT_FACTOR * np.max(np.abs(a))
    diag = np.abs(np.diagonal(lu))
    bad = np.flatnonzero(~((diag > thresh) & (diag < np.inf)))
    if bad.size:
        k = int(bad[0])
        raise SingularMatrixError(
            f"pivot {lu[k, k]:.3e} at column {k}: magnitude not in "
            f"({thresh:.3e}, inf)"
        )
    return lu, piv


def solve(a, b) -> np.ndarray:
    """Solve a x = b for square a by LAPACK LU with partial pivoting
    (getrf/getrs); b may be a vector or a matrix. A pivot with magnitude
    <= TOL_PIVOT_FACTOR * max|a|, an infinite one, or NaN raises
    SingularMatrixError.

    Empty systems (0 x 0) return an empty solution, which keeps callers
    that slice by possibly-empty index sets uniform.
    """
    a = as_matrix(a, square=True)
    b = np.asarray(b, dtype=float)
    if a.shape[0] == 0:
        return np.zeros(0) if b.ndim == 1 else np.zeros((0, b.shape[1]))
    return dgetrs(*_factor(a), b)[0]


def invert(a) -> np.ndarray:
    """Inverse via LU (getrf/getri), with the conventions of solve."""
    a = as_matrix(a, square=True)
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    # not getrs against the identity: OpenBLAS threads a solve with many
    # right-hand sides, which on small blocks costs more than the work
    return dgetri(*_factor(a))[0]


def symmetric_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of the symmetric part of `a` (LAPACK via
    numpy.linalg.eigvalsh), in increasing order."""
    a = as_matrix(a, square=True)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def min_symmetric_eigenvalue(a) -> float:
    """Smallest eigenvalue of the symmetric part of `a`."""
    ev = symmetric_eigenvalues(a)
    return float(ev[0]) if ev.size else 0.0


def is_psd(a, tol: float = TOL_PSD) -> bool:
    """True if the symmetric part of `a` has all eigenvalues >= -tol.

    z^T a z = z^T sym(a) z, so positive semidefiniteness of a (as a
    quadratic form) reduces to its symmetric part.
    """
    return min_symmetric_eigenvalue(a) >= -tol
