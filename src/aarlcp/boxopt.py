"""Minima of affine and quadratic functions over boxes.

Affine functions over a centered box [-u, u] have a closed-form minimum:
each coordinate contributes -|a_j| u_j, attained at the vertex
u_j = -sign(a_j) u_j. A quadratic over [-1, 1]^k is decided against a
floor, for any k, by a branch and bound over sub-boxes: it finds a point
of the box below the floor or proves that there is none. Both take a
stack of rows in one call (the quadratic one, the off-support rows of
one candidate rule, with the open sub-boxes of every row in one array);
a single row is a stack of one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "min_affine_over_box",
    "min_quadratic_over_box",
    "BoxBudgetError",
    "BOX_BUDGET",
]

# sub-boxes one min_quadratic_over_box call may evaluate, over all its
# rows, before it gives up on the rows still undecided
BOX_BUDGET = 200_000


class BoxBudgetError(RuntimeError):
    """A box check ran out of BOX_BUDGET with some row undecided: the
    rule may or may not hold, and no verdict is given."""


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




def _per_row(mats, cut, x):
    """x[p] @ mats[r] for every sub-box p of every row r, where row r's
    sub-boxes are the slice cut[r]:cut[r + 1]: one product per row."""
    return np.concatenate([x[cut[r]:cut[r + 1]] @ mats[r] for r in range(len(mats))])


def _separable(g, h, curv):
    """Per coordinate the step |d_j| <= h_j that minimizes
    g_j d_j + curv_j d_j^2 (the clipped Newton step where curv_j > 0, a
    vertex otherwise), and the sum of those minima."""
    step = np.where(curv > 0, np.clip(-0.5 * g / curv, -h, h), np.where(g > 0, -h, h))
    return step, np.sum(g * step + curv * step ** 2, axis=1)


def min_quadratic_over_box(q, b, c, floor):
    """Decide whether c + b . z + z^T q z stays at least floor on the box
    [-1, 1]^k, for one row or for a stack of rows at once.

    On a sub-box with centre z0 and half-widths h, with g the gradient
    at z0 and Q the symmetric part of q, f(z0 + d) = f(z0) + g . d +
    d^T Q d over |d_j| <= h_j is at least f(z0) plus the largest of

      shift     sum_j min (g_j d_j + lam d_j^2), lam the smallest
                eigenvalue of Q (exact for Q = lam I);
      diagonal  sum_j min (g_j d_j + Q_jj d_j^2) less
                sum_{i != j} |Q_ij| h_i h_j (unused coordinates cost
                nothing);
      spectral  with Q = sum_i w_i u_i u_i^T, -(u_i . g)^2 / (4 w_i)
                for each w_i > 0, -|g_rest| . h for the rest of g, and
                w_i (|u_i| . h)^2 for each w_i < 0 (exact on the kernel
                of a positive semidefinite Q; computed only on a level
                where the other two leave a sub-box open).

    The centre and z0 + d, d the diagonal bound's minimizing step, are
    evaluated; a value below the floor decides its row. A sub-box
    whose bound reaches the floor is closed; any other is halved along
    the j with the largest h_j (|g_j| + (|Q| h)_j), lower half first.
    This runs level by level on the open sub-boxes of every row at once,
    until every row has a counterexample or no open sub-box, or until
    the next level would pass BOX_BUDGET sub-boxes. A row whose
    arithmetic breaks down (not finite on some sub-box, as after an
    overflow) reads NaN and counts as decided.

    Parameters
    ----------
    q : (k, k) or (R, k, k) array_like
    b : (k,) or (R, k) array_like
    c : float or (R,) array_like
    floor : float or (R,) array_like

    Returns
    -------
    value : float, or (R,) ndarray for a stack
        Per row the smallest value evaluated, the first sub-box winning
        ties. Below floor it is a counterexample. At or above it, it is
        an upper estimate: the minimum lies between floor and value
        (proved only when certified).
    argmin : (k,) or (R, k) ndarray
        A point of the box attaining value.
    certified : bool
        False when the budget ran out with some row undecided (one flag
        for the whole stack); an undecided row reads at least floor.
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
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (rows,))
    finite = np.all(np.isfinite(qs), axis=(1, 2))
    # a row that is not finite gets the spectrum of 0; its values break down
    w, u = np.linalg.eigh(np.where(finite[:, None, None], qs, 0.0))
    # eigenvalues within 1e-12 of the row's largest count as zero
    flat = 1e-12 * np.max(np.abs(w), axis=1, initial=0.0)[:, None]
    pos, neg = w > flat, w < -flat
    root = 2.0 * np.sqrt(np.where(pos, w, 1.0))
    ut, absu = u.transpose(0, 2, 1), np.abs(u)
    absq = np.abs(qs)
    diag = np.diagonal(qs, axis1=1, axis2=2)

    best_val = np.full(rows, np.inf)
    best_arg = np.zeros((rows, k))
    broken = np.zeros(rows, dtype=bool)
    t = np.arange(rows)  # row of each open sub-box, sorted
    z = np.zeros((rows, k))  # its centre
    h = np.ones((rows, k))  # its half-widths
    spent = 0
    while True:
        spent += t.size
        cut = np.searchsorted(t, np.arange(rows + 1))  # t is sorted
        qz = _per_row(qs, cut, z)
        g = bv[t] + 2.0 * qz
        f0 = cv[t] + np.einsum("pi,pi->p", z, bv[t] + qz)
        hq = _per_row(absq, cut, h)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            shift = _separable(g, h, w[t, :1])[1]  # w[:, 0] the smallest
            step_d, diagonal = _separable(g, h, diag[t])
            diagonal -= np.einsum("pi,pi->p", h, hq - np.abs(diag[t]) * h)
            bound = f0 + np.fmax(shift, diagonal)
            if not np.all(bound >= floor[t]):  # else no verdict can change
                a = _per_row(u, cut, g)  # g in the eigenbasis
                rest = _per_row(ut, cut, np.where(pos[t], 0.0, a))
                spread = _per_row(absu, cut, h)
                spectral = (np.where(neg[t], w[t] * spread ** 2, 0.0).sum(axis=1)
                            - np.sum(np.where(pos[t], (a / root[t]) ** 2, 0.0), axis=1)
                            - np.einsum("pi,pi->p", np.abs(rest), h))
                bound = np.fmax(bound, f0 + spectral)
        tip = z + step_d
        ftip = cv[t] + np.einsum("pi,pi->p", tip, bv[t] + _per_row(qs, cut, tip))
        broken[t[~(np.isfinite(bound) & np.isfinite(ftip))]] = True
        at_tip = ftip < f0
        val = np.where(at_tip, ftip, f0)
        # per row its smallest value: a stable sort by (row, value)
        order = np.lexsort((val, t))
        head = order[np.flatnonzero(np.diff(t[order], prepend=-1))]
        head = head[val[head] < best_val[t[head]]]
        best_val[t[head]] = val[head]
        best_arg[t[head]] = np.where(at_tip[head, None], tip[head], z[head])
        decided = broken | (best_val < floor)
        keep = ~decided[t] & (bound < floor[t])
        if not keep.any() or spent + 2 * np.count_nonzero(keep) > BOX_BUDGET:
            break
        split = np.repeat(np.argmax((h * (np.abs(g) + hq))[keep], axis=1), 2)
        t = np.repeat(t[keep], 2)
        z = np.repeat(z[keep], 2, axis=0)
        h = np.repeat(h[keep], 2, axis=0)
        p = np.arange(t.size)
        h[p, split] *= 0.5
        z[p, split] += np.where(p % 2, h[p, split], -h[p, split])
    best_val[broken] = np.nan
    certified = not keep.any()
    if single:
        return float(best_val[0]), best_arg[0], certified
    return best_val, best_arg, certified
