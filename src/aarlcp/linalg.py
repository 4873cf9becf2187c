"""Dense linear-algebra substrate: validated arrays, index sets, an
inverse and symmetric eigenvalues for the definiteness tests, both on
numpy's LAPACK, and a stacked LU that factors many small blocks at once.

The package never imports scipy.linalg, which costs more import time
than the rest of the package and about 26 MB of resident memory. Within
the package only the simplex's basis refactorization (lp) calls invert:
numpy's inverse when its size bounds every pivot away from the pivot
rule, the one-block stacked LU otherwise (see invert).

All matrices are dense float64 numpy arrays. Index sets are strictly
increasing integer arrays. Singularity is decided against a pivot
threshold that scales with the largest absolute entry of the matrix, so
the zero matrix is singular and scaling a matrix does not flip the
verdict. One rule (_singular_pivots) states it for the stacked LU, and
invert returns numpy's inverse only where a bound puts every pivot past
it.

The support sweeps visit every subset J of a coordinate range and need
the principal block a[J, J] of each. support_chunks hands them the
subsets of one size in lexicographic order, at most _SUPPORT_CHUNK at a
time, which bounds the memory of the stacked blocks; factor_stack and
solve_stack then do each chunk's LU and solves with one numpy
expression per elimination step instead of one LAPACK call per block.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tolerances import TOL_PD, TOL_PIVOT_FACTOR, TOL_PSD

__all__ = [
    "SingularMatrixError",
    "NumericalError",
    "as_matrix",
    "as_vector",
    "index_set",
    "complement",
    "invert",
    "support_chunks",
    "factor_stack",
    "solve_stack",
    "symmetric_eigenvalues",
    "is_psd",
]


class SingularMatrixError(RuntimeError):
    """Raised when a pivot falls below the singularity threshold."""


class NumericalError(RuntimeError):
    """Floating-point trouble on valid input: a pivoting solver produced
    a point its own check rejects, or a bounded LP read unbounded. A
    limit, like a node or iteration budget."""


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


# supports per chunk of the stacked sweeps. It bounds the (C, s, s)
# blocks, their inverses and temporaries: an uncertain-q sweep at n = 20
# peaks about 15 MB above the interpreter, and larger chunks buy no speed
_SUPPORT_CHUNK = 1024


def _singular_pivots(diag: np.ndarray, scale) -> np.ndarray:
    """The pivot rule of every LU here: True where a pivot of U counts as
    zero, its magnitude not in (TOL_PIVOT_FACTOR * scale, inf), with
    scale the largest absolute entry of the factored matrix. The LU does
    not stop at a small pivot, so the whole diagonal is checked; NaN and
    overflow to inf fail the comparisons: singular."""
    mag = np.abs(diag)
    return ~((mag > TOL_PIVOT_FACTOR * scale) & (mag < np.inf))


def invert(a) -> np.ndarray:
    """Inverse of square a under the pivot rule of factor_stack: a pivot
    of partial-pivoting LU with magnitude <= TOL_PIVOT_FACTOR * max|a|,
    an infinite one, or NaN raises SingularMatrixError, and so does a
    non-finite entry. The 0 x 0 matrix is its own inverse, which keeps
    callers that slice by possibly-empty index sets uniform.

    numpy's LAPACK inverse comes first. With PA = LU, 1/u_kk is an entry
    of inv(U) = inv(A) P^T L, and L has entries of magnitude at most 1,
    so every pivot is at least 1 / (n max|inv(a)|). Its result stands
    when max|inv(a)| max|a| n^1.5 TOL_PIVOT_FACTOR < 1, a margin of
    sqrt(n) over that bound for rounding, and when max|a| 2^(n-1), the
    largest an entry can grow to during the elimination, is finite.
    Otherwise the one-block factor_stack decides and solve_stack gives
    the inverse.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    scale = np.max(np.abs(a))
    with np.errstate(all="ignore"):
        if np.isfinite(np.ldexp(scale, n - 1)):
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError:  # an exactly zero pivot
                inv = None
            if (inv is not None
                    and np.max(np.abs(inv)) * scale * n**1.5 * TOL_PIVOT_FACTOR < 1.0):
                return inv
    lu, perm, singular = factor_stack(a[None])
    if singular[0]:
        diag = np.diagonal(lu[..., 0])
        k = int(np.flatnonzero(_singular_pivots(diag, scale))[0])
        raise SingularMatrixError(
            f"pivot {diag[k]:.3e} at column {k}: magnitude not in "
            f"({TOL_PIVOT_FACTOR * scale:.3e}, inf)"
        )
    return solve_stack(lu, perm, np.eye(n)[None])[0]


def support_chunks(items, size: int):
    """The size-subsets of items in lexicographic order, as int arrays
    (C, size) of at most _SUPPORT_CHUNK rows each; size 0 gives one
    empty subset."""
    combos = itertools.combinations(items, size)
    # the chunk size is read per chunk, so tests can shrink it
    while chunk := list(itertools.islice(combos, _SUPPORT_CHUNK)):
        yield np.array(chunk, dtype=int).reshape(len(chunk), size)


def factor_stack(a):
    """LU with partial pivoting of a stack of square blocks a (C, s, s),
    one elimination step for all blocks at a time.

    Returns (lu, perm, singular). singular[c] applies the pivot rule of
    invert (_singular_pivots against the largest absolute entry of a[c])
    to block c; the pivot is the first entry of largest magnitude in its
    column, as in getrf. lu and perm are for solve_stack: they keep the
    block index last, which makes every step one contiguous numpy
    expression. Past a failed pivot the entries of a block are
    meaningless; no warning is raised.
    """
    a = np.asarray(a, dtype=float)
    lu = np.moveaxis(a, 0, -1).copy()  # (s, s, C); a copy even for C = 1
    s, c = lu.shape[0], lu.shape[-1]
    perm = np.tile(np.arange(s)[:, None], (1, c))
    cols = np.arange(c)
    with np.errstate(all="ignore"):
        for k in range(s):
            p = k + np.argmax(np.abs(lu[k:, k]), axis=0)
            row = lu[k].copy()
            lu[k] = lu[p, :, cols].T
            lu[p, :, cols] = row.T
            perm[k], perm[p, cols] = perm[p, cols], perm[k].copy()
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, None, k + 1:]
    scale = np.max(np.abs(a), axis=(1, 2), initial=0.0)
    singular = np.any(_singular_pivots(np.diagonal(lu), scale[:, None]), axis=1)
    return lu, perm, singular


def solve_stack(lu, perm, b) -> np.ndarray:
    """Solve a[c] x[c] = b[c] for every block from factor_stack's
    (lu, perm); b is (C, s) or (C, s, m) and x has its shape. Entries of
    blocks flagged singular are meaningless."""
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 2
    x = np.moveaxis(b[:, :, None] if vector else b, 0, -1)  # (s, m, C)
    x = x[perm, :, np.arange(perm.shape[1])].transpose(0, 2, 1)
    s = lu.shape[0]
    with np.errstate(all="ignore"):
        for k in range(s):  # unit lower factor
            x[k + 1:] -= lu[k + 1:, k, None] * x[k]
        for k in reversed(range(s)):
            x[k] /= lu[k, k]
            x[:k] -= lu[:k, k, None] * x[k]
    x = np.moveaxis(x, -1, 0)
    return x[:, :, 0] if vector else x


def symmetric_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of the symmetric part of `a` (LAPACK via
    numpy.linalg.eigvalsh), in increasing order. Each half is scaled
    before the sum, which stays finite for entries near the float max."""
    a = as_matrix(a, square=True)
    return np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)


def is_positive_definite(a) -> bool:
    """True if the symmetric part s of `a` is positive definite: every
    s_ii > 0, and the smallest eigenvalue of s_ij / sqrt(s_ii s_jj)
    exceeds TOL_PD. That scaling is a congruence, so it keeps
    definiteness; with it the verdict does not change when `a` is
    rescaled, by one factor or by a positive diagonal D a D, and a block
    of large entries does not hide a small one."""
    a = as_matrix(a, square=True)
    d = np.diagonal(a)  # that of the symmetric part too
    if not d.size or np.any(d <= 0):
        return False
    r = 1.0 / np.sqrt(d)
    return float(symmetric_eigenvalues(a * r[:, None] * r)[0]) > TOL_PD


def is_psd(a) -> bool:
    """True if the symmetric part of `a` has all eigenvalues >= -TOL_PSD.

    z^T a z = z^T sym(a) z, so positive semidefiniteness of a (as a
    quadratic form) reduces to its symmetric part.
    """
    return bool(np.all(symmetric_eigenvalues(a) >= -TOL_PSD))
