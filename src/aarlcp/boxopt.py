"""Exact minimization of affine and quadratic functions over boxes.

Affine functions over a centered box [-u, u] have a closed-form minimum:
each coordinate contributes -|a_j| u_j, attained at the vertex
u_j = -sign(a_j) u_j. Quadratics over [-1, 1]^k are minimized exactly by
enumerating the 3^k faces of the box: on each face the restriction is a
quadratic in the free coordinates whose interior minimizers (if any) are
stationary points, and the boundary of the face is covered by smaller
faces, so vertices plus per-face stationary points contain a global
minimizer. Beyond the exact cutoff a vertex sweep plus Halton sampling
gives a certified-false lower estimate. Both minima take a stack of
rows in one call: the affine one row by row in one array expression,
the quadratic one (the off-support rows of one candidate rule) in one
shared face loop; a single row is a stack of one.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "min_affine_over_box",
    "box_vertices",
    "halton_points",
    "min_quadratic_over_box",
    "EXACT_FACE_LIMIT",
    "SAMPLE_COUNT",
]

# largest box dimension for exhaustive face enumeration (3^k faces)
EXACT_FACE_LIMIT = 10

# quasi-random sample count used beyond the exact cutoff
SAMPLE_COUNT = 100_000

_EPS = np.finfo(float).eps


def min_affine_over_box(coeff, const, half_widths):
    """Minimize const + coeff . u over the box |u_j| <= half_widths[j],
    for one row or for a stack of rows at once.

    coeff is (k,) with a float const, or (R, k) with const (R,). Returns
    (value, argmin), value a float or an (R,) array, argmin a vertex of
    the box per row. Coordinates whose coefficient is zero sit at
    +half_width, an arbitrary but fixed vertex choice.
    """
    a = np.asarray(coeff, dtype=float)
    u = np.asarray(half_widths, dtype=float)
    arg = np.where(a > 0, -u, u)
    # row-by-row dot products: each row rounds as its own a @ arg would
    val = const + (a[..., None, :] @ arg[..., :, None])[..., 0, 0]
    return (float(val), arg) if a.ndim == 1 else (val, arg)


def box_vertices(k: int) -> np.ndarray:
    """All 2^k sign vectors of {-1, +1}^k as rows."""
    if k == 0:
        return np.zeros((1, 0))
    return np.array(list(itertools.product((-1.0, 1.0), repeat=k)))


def halton_points(k: int, count: int) -> np.ndarray:
    """Low-discrepancy points in [-1, 1]^k, the same on every call."""
    # imported here: scipy.stats costs about a second of import time and
    # only the sampling fallback beyond EXACT_FACE_LIMIT needs it
    from scipy.stats import qmc

    sampler = qmc.Halton(d=k, scramble=True, seed=0)
    return 2.0 * sampler.random(count) - 1.0


@functools.cache
def _faces(k: int) -> list:
    """The 3^k faces of [-1, 1]^k grouped by their free coordinates, one
    group per set of free coordinates: (free indices, fixed indices,
    signs (P, fixed) of the group's P faces on the fixed coordinates,
    position of each face in the product order of (-1, 1, free) per
    coordinate). Cached and shared, so the arrays are read-only."""
    groups = {}
    for pos, pattern in enumerate(itertools.product((-1.0, 1.0, None), repeat=k)):
        free = tuple(i for i, p in enumerate(pattern) if p is None)
        signs = [p for p in pattern if p is not None]
        groups.setdefault(free, []).append((signs, pos))
    faces = [(np.array(free, dtype=int),
              np.array([i for i in range(k) if i not in free], dtype=int),
              np.array([s for s, _ in g]).reshape(len(g), k - len(free)),
              np.array([pos for _, pos in g]))
             for free, g in groups.items()]
    for group in faces:
        for a in group:
            a.setflags(write=False)
    return faces


def min_quadratic_over_box(q, b, c):
    """Minimize c + b . z + z^T q z over the box [-1, 1]^k, for one row
    or for a stack of rows at once.

    Dimensions up to EXACT_FACE_LIMIT use exhaustive face enumeration and
    the result is exact; beyond it the vertices (up to k = 16) plus
    SAMPLE_COUNT Halton points give an upper estimate of the minimum.
    The face loop runs once per set of free coordinates, for every row
    and every sign pattern of the fixed coordinates together; the
    stationary points come from one batched pseudo-inverse (the
    minimum-norm least-squares solution, with lstsq's singular-value
    cutoff). Among equal minima the first face in the product order of
    (-1, 1, free) per coordinate wins. A row whose arithmetic breaks
    down (NaN on some face or sample, as after an overflow) reads NaN.

    Parameters
    ----------
    q : (k, k) or (R, k, k) array_like
    b : (k,) or (R, k) array_like
    c : float or (R,) array_like

    Returns
    -------
    value : float, or (R,) ndarray for a stack
    argmin : (k,) or (R, k) ndarray
    exact : bool
        False when the sampling fallback was used (one flag for the
        whole stack: the branch depends on k alone).
    """
    qm = np.asarray(q, dtype=float)
    single = qm.ndim == 2
    cv = np.asarray(c, dtype=float).reshape(-1)
    rows, k = cv.size, qm.shape[-1]
    qs = qm.reshape(rows, k, k)
    # the form only sees the symmetric part; halving each term before the
    # sum keeps it finite for entries near the float max
    qs = 0.5 * qs + 0.5 * qs.transpose(0, 2, 1)
    bv = np.asarray(b, dtype=float).reshape(rows, k)
    best_val = np.full(rows, np.inf)
    best_arg = np.zeros((rows, k))
    exact = k <= EXACT_FACE_LIMIT
    every = np.arange(rows)

    if k == 0:
        best_val = cv.copy()
    elif not exact:
        pts = halton_points(k, SAMPLE_COUNT)
        if k <= 16:  # vertex sweep stays affordable up to 2^16 points
            pts = np.vstack([box_vertices(k), pts])
        for t in every:
            vals = cv[t] + pts @ bv[t] + np.einsum("ij,jk,ik->i", pts, qs[t], pts)
            i = int(np.argmin(vals))
            best_val[t], best_arg[t] = vals[i], pts[i]
    else:
        scale = (1.0 + np.abs(cv) + np.max(np.abs(bv), axis=1)
                 + np.max(np.abs(qs), axis=(1, 2)))
        best_pos = np.zeros(rows, dtype=int)
        broken = np.zeros(rows, dtype=bool)
        for free, fixed, signs, pos in _faces(k):
            z = np.empty((rows, pos.size, k))
            z[:, :, fixed] = signs
            ok = True
            if free.size:
                # restrict to the face: quadratic in the free coordinates;
                # stationary points solve 2 qff z = -bpr, singular but
                # consistent systems by the minimum-norm solution (the
                # stationary point nearest the face center): the
                # pseudo-inverse of the symmetric qff from its
                # eigenvalues, whose magnitudes are its singular values,
                # cut off as lstsq does at f * eps times the largest
                qff = 2.0 * qs[:, free[:, None], free]
                bpr = bv[:, None, free] + 2.0 * signs @ qs[:, fixed[:, None], free]
                w, v = np.linalg.eigh(qff)
                cut = free.size * _EPS * np.max(np.abs(w), axis=1, keepdims=True)
                with np.errstate(divide="ignore"):
                    winv = np.where(np.abs(w) > cut, 1.0 / w, 0.0)
                zf = -((bpr @ v) * winv[:, None, :]) @ v.transpose(0, 2, 1)
                resid = np.max(np.abs(zf @ qff + bpr), axis=2)
                # a system the arithmetic cannot state (an overflow) leaves
                # the face's minimum unknown
                broken |= np.any(~np.isfinite(resid), axis=1)
                # inconsistent systems, and points outside the open face
                # (covered by smaller faces), are dropped
                ok = ~(resid > 1e-9 * scale[:, None])
                ok &= ~np.any(np.abs(zf) >= 1.0, axis=2)
                z[:, :, free] = zf
            val = cv[:, None] + np.einsum("tpi,tpi->tp", z, bv[:, None] + z @ qs)
            broken |= np.any(ok & np.isnan(val), axis=1)
            val = np.where(ok & (val < np.inf), val, np.inf)
            p = np.argmin(val, axis=1)
            val, at = val[every, p], pos[p]
            better = (val < best_val) | ((val == best_val) & (at < best_pos)
                                         & (val < np.inf))
            best_val[better], best_pos[better] = val[better], at[better]
            best_arg[better] = z[every, p][better]
        best_val[broken] = np.nan  # some face's value is unknown
    if single:
        return float(best_val[0]), best_arg[0], exact
    return best_val, best_arg, exact
