"""Exact minimization of affine and quadratic functions over boxes.

Affine functions over a centered box [-u, u] have a closed-form minimum:
each coordinate contributes -|a_j| u_j, attained at the vertex
u_j = -sign(a_j) u_j. Quadratics over [-1, 1]^k are minimized exactly by
enumerating the 3^k faces of the box: on each face the restriction is a
quadratic in the free coordinates whose interior minimizers (if any) are
stationary points, and the boundary of the face is covered by smaller
faces, so vertices plus per-face stationary points contain a global
minimizer. Beyond the exact cutoff a vertex sweep plus Halton sampling
gives a certified-false lower estimate.
"""

from __future__ import annotations

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


def min_affine_over_box(coeff, const: float, half_widths):
    """Minimize const + coeff . u over the box |u_j| <= half_widths[j].

    Returns (value, argmin) with argmin a vertex of the box. Coordinates
    whose coefficient is zero sit at +half_width, an arbitrary but fixed
    vertex choice.
    """
    a = np.asarray(coeff, dtype=float)
    u = np.asarray(half_widths, dtype=float)
    arg = np.where(a > 0, -u, u)
    return float(const + a @ arg), arg


def box_vertices(k: int) -> np.ndarray:
    """All 2^k sign vectors of {-1, +1}^k as rows."""
    if k == 0:
        return np.zeros((1, 0))
    return np.array(list(itertools.product((-1.0, 1.0), repeat=k)))


def halton_points(k: int, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in [-1, 1]^k."""
    # imported here: scipy.stats costs about a second of import time and
    # only the sampling fallback beyond EXACT_FACE_LIMIT needs it
    from scipy.stats import qmc

    sampler = qmc.Halton(d=k, scramble=True, seed=seed)
    return 2.0 * sampler.random(count) - 1.0


def _eval_quadratic(q: np.ndarray, b: np.ndarray, c: float, pts: np.ndarray) -> np.ndarray:
    return c + pts @ b + np.einsum("ij,jk,ik->i", pts, q, pts)


def min_quadratic_over_box(
    q,
    b,
    c: float,
    exact_limit: int = EXACT_FACE_LIMIT,
    sample_count: int = SAMPLE_COUNT,
    seed: int = 0,
):
    """Minimize c + b . z + z^T q z over the box [-1, 1]^k.

    Parameters
    ----------
    q : (k, k) array_like
    b : (k,) array_like
    c : float
    exact_limit : int
        Dimensions up to this bound use exhaustive face enumeration and
        the result is exact; beyond it vertices plus Halton samples give
        an upper estimate of the minimum.

    Returns
    -------
    value : float
    argmin : ndarray
    exact : bool
        False when the sampling fallback was used.
    """
    qm = np.asarray(q, dtype=float)
    bv = np.asarray(b, dtype=float)
    k = bv.size
    if k == 0:
        return float(c), np.zeros(0), True
    qs = 0.5 * (qm + qm.T)  # the quadratic form only sees the symmetric part

    if k > exact_limit:
        pts = halton_points(k, sample_count, seed)
        if k <= 16:  # vertex sweep stays affordable up to 2^16 points
            pts = np.vstack([box_vertices(k), pts])
        vals = _eval_quadratic(qs, bv, c, pts)
        i = int(np.argmin(vals))
        return float(vals[i]), pts[i].copy(), False

    best_val = np.inf
    best_arg = np.zeros(k)
    scale = 1.0 + abs(c) + np.max(np.abs(bv)) + np.max(np.abs(qs))
    for pattern in itertools.product((-1.0, 1.0, None), repeat=k):
        fixed = np.array([p is not None for p in pattern])
        free = ~fixed
        s = np.array([p if p is not None else 0.0 for p in pattern])
        if not free.any():
            val = float(c + bv @ s + s @ qs @ s)
            if val < best_val:
                best_val, best_arg = val, s
            continue
        # restrict to the face: quadratic in the free coordinates
        qff = qs[np.ix_(free, free)]
        bpr = bv[free] + 2.0 * qs[np.ix_(free, fixed)] @ s[fixed]
        # stationary points: 2 qff z = -bpr; singular-but-consistent
        # systems are handled by the minimum-norm solution, which is the
        # stationary point nearest the face center
        zf, residual, _, _ = np.linalg.lstsq(2.0 * qff, -bpr, rcond=None)
        if residual.size and residual[0] > (1e-18 * scale * scale):
            continue
        if np.max(np.abs(2.0 * qff @ zf + bpr)) > 1e-9 * scale:
            continue
        if np.any(np.abs(zf) >= 1.0):  # outside the open face: covered elsewhere
            continue
        z = s.copy()
        z[free] = zf
        val = float(c + bv @ z + z @ qs @ z)
        if val < best_val:
            best_val, best_arg = val, z
    return best_val, best_arg, True
