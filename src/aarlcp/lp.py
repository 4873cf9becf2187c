"""Linear programs with row senses and variable bounds, solved by a
two-phase bounded-variable revised simplex method.

Phase 1 starts from a slack crash basis (Bixby, ORSA J. Computing 4(3),
1992). Every column starts at a finite bound (0 if free). A row whose
own slack can take up the residual within the slack's bounds starts
with that slack basic; only the other rows, equality rows among them,
start with a basic artificial, so rows the start point already
satisfies cost no pivot. The basis inverse starts diagonal either way.

Infinite bounds are encoded internally by the sentinels +/-1e30 and never
exposed. The basis inverse is kept explicitly, updated by the product
form after each pivot and refactorized from scratch (LAPACK LU) every
30 pivots. Degenerate stretches switch pricing to Bland's rule, whose
lowest-index tie-breaking (applied to entering and leaving variables
alike) prevents cycling. Both phases draw on one shared budget of
50 * (rows + columns) iterations, columns counting the row slacks.

Both solvers take a LinearProgram or its StandardForm (standardize): a
branch-and-bound tree standardizes its rows once and hands each node
only new column bounds (StandardForm.with_bounds).

Every feasible outcome keeps its final simplex (LpOutcome.state), and
check_feasibility can start warm from it on the same rows (a
branch-and-bound child from its parent's): a copy with the same basis,
basis inverse and nonbasic values, the nonbasic values moved into the
new bounds; the simplex started from is never written. A simplex knows
the rows of its own StandardForm by identity and compares any others
entry by entry. A zero-cost bounded dual simplex then repairs the basic
values.
With zero cost every basis is dual feasible, so there is no dual ratio
test: the basic variable with the worst bound violation leaves at the
bound it violates, and the sign-compatible nonbasic column with the
largest entry in its tableau row enters (Koberstein, The dual simplex
method, PhD thesis, Paderborn 2005). Before each pivot its value from
the row (binv[r] a) and from the column (binv a[:, e]) must agree to
within the pivot tolerance, relatively; an inaccurate product-form binv
is refactored once, and a disagreement that survives ends the warm
attempt as non-finite basic values do. When no column is eligible, that
row's multipliers y prove the LP infeasible if y.b lies outside the
range of (y A) x over the bounds by more than the phase-1 threshold. A
failed proof, a start from other rows or more pivots than
tolerances.warm_pivot_cap allows falls back to a cold phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .tolerances import TOL_CERT_ZERO, TOL_FEAS, warm_pivot_cap

__all__ = [
    "INF",
    "IterationLimitError",
    "LinearProgram",
    "LpOutcome",
    "StandardForm",
    "standardize",
    "solve_lp",
    "check_feasibility",
    "check_point",
]

INF = 1e30  # internal sentinel for an infinite bound
_BIG = 1e29  # values beyond this are treated as infinite
_DTOL = 1e-9  # reduced-cost tolerance
_PTOL = 1e-9  # ratio-test pivot tolerance
_EPS_F = 1e-8  # Harris ratio-test bound relaxation
_REFRESH = 30  # pivots between basis refactorizations
_DEGEN_SWITCH = 12  # degenerate steps before switching to Bland pricing


class IterationLimitError(RuntimeError):
    """Simplex exceeded its iteration budget."""


def _bound_vector(v, n: int) -> np.ndarray:
    """Coerce a bound vector; +/-inf allowed, NaN rejected."""
    b = np.array(v, dtype=float)
    if b.ndim != 1 or b.size != n:
        raise ValueError(f"expected a bound vector of length {n}")
    if np.any(np.isnan(b)):
        raise ValueError("bound vector has NaN entries")
    return b


@dataclass
class LinearProgram:
    """min objective . x  s.t.  lhs x (sense) rhs,  lower <= x <= upper.

    senses is one of "<=", "=", ">=" per row. Bounds may be +/-inf.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lhs = linalg.as_matrix(self.lhs)
        m, n = self.lhs.shape
        self.objective = linalg.as_vector(self.objective, n)
        self.rhs = linalg.as_vector(self.rhs, m)
        self.lower = _bound_vector(self.lower, n)
        self.upper = _bound_vector(self.upper, n)
        self.senses = [str(s) for s in self.senses]
        if len(self.senses) != m:
            raise ValueError("one sense per row required")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"unknown row sense {s!r}")
        if np.any(self.upper <= -_BIG) or np.any(self.lower >= _BIG):
            raise ValueError("an upper bound of -inf or lower bound of +inf is ill-formed")
        bad = (self.lower > self.upper) & np.isfinite(self.lower) & np.isfinite(self.upper)
        if np.any(bad):
            raise ValueError(f"lower > upper at columns {np.flatnonzero(bad)}")

    @property
    def shape(self):
        return self.lhs.shape


@dataclass
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    iterations: int = 0
    # feasible outcomes: the final simplex, to start warm checks from
    state: _Simplex | None = None
    # warm infeasible checks: multipliers of the standardized rows
    # (standardize) whose combination the bounds cannot meet
    y: np.ndarray | None = None


def check_point(lp: LinearProgram, x) -> float:
    """Largest constraint/bound violation of x, computed directly. A row
    whose lhs x overflows to NaN counts as no violation."""
    x = linalg.as_vector(x, lp.lhs.shape[1])
    gap = lp.lhs @ x - lp.rhs
    senses = np.array(lp.senses, dtype=object)
    rows = np.where(senses == "<=", gap, np.where(senses == ">=", -gap, np.abs(gap)))
    lo = np.where(np.isfinite(lp.lower), lp.lower, -np.inf)
    up = np.where(np.isfinite(lp.upper), lp.upper, np.inf)
    return float(np.fmax.reduce(np.concatenate([rows, lo - x, x - up]), initial=0.0))


class StandardForm(NamedTuple):
    """A LinearProgram as the simplex takes it (standardize): a x = b
    over the columns and one slack per row, costs c, bounds lo <= x <= up
    at the sentinels +/-INF where infinite. a and b are read-only, so a
    state built on them knows them by identity."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    up: np.ndarray

    def with_bounds(self, cols, lower, upper) -> StandardForm:
        """The same rows with the columns cols bounded by lower <= upper."""
        lo, up = self.lo.copy(), self.up.copy()
        lo[cols], up[cols] = _sentinels(np.asarray(lower, dtype=float),
                                        np.asarray(upper, dtype=float))
        return self._replace(lo=lo, up=up)


def _sentinels(lo, up):
    """Bounds with every infinite or huge one at the sentinel +/-INF."""
    return (np.minimum(np.where(lo < -_BIG, -INF, lo), INF),
            np.maximum(np.where(up > _BIG, INF, up), -INF))


def standardize(lp: LinearProgram) -> StandardForm:
    """Append one slack per row: lhs x + s = rhs with sense-dependent
    slack bounds. Rows are equilibrated (divided by their largest
    coefficient) so mixed scales such as big-M rows keep the absolute
    pivot tolerances meaningful; slack values are unaffected because
    their coefficients scale along."""
    m = lp.lhs.shape[0]
    a = np.hstack([lp.lhs, np.eye(m)]) if m else lp.lhs.copy()
    senses = np.array(lp.senses, dtype=object)
    lo, up = _sentinels(
        np.concatenate([lp.lower, np.where(senses == ">=", -np.inf, 0.0)]),
        np.concatenate([lp.upper, np.where(senses == "<=", np.inf, 0.0)]))
    c = np.concatenate([lp.objective, np.zeros(m)])
    b = lp.rhs.copy()
    row_scale = np.maximum(1.0, np.max(np.abs(lp.lhs), axis=1, initial=0.0)) if m else np.ones(0)
    a /= row_scale[:, None] if m else 1.0
    b /= row_scale if m else 1.0
    a.flags.writeable = b.flags.writeable = False
    return StandardForm(a, b, c, lo, up)


class _Simplex:
    """One standardized problem instance plus pivoting state."""

    def __init__(self, a, b, lo, up, cap):
        m, nreal = a.shape
        x0 = np.where(lo > -_BIG, lo, np.where(up < _BIG, up, 0.0))
        resid = b - a @ x0
        # slack crash (module docstring); the slacks are the last m columns
        rows = np.arange(m)
        slack = nreal - m + rows
        coef = a[rows, slack]
        s0 = x0[slack] + resid / coef
        crash = (lo[slack] < up[slack]) & (s0 >= lo[slack]) & (s0 <= up[slack])
        x0[slack[crash]] = s0[crash]
        resid[crash] = 0.0
        sign = np.where(resid >= 0, 1.0, -1.0)
        self._setup(a, np.hstack([a, np.diag(sign)]) if m else a, b,
                    np.concatenate([lo, np.zeros(m)]),
                    np.concatenate([up, np.full(m, INF)]),
                    np.concatenate([x0, np.abs(resid)]),
                    np.where(crash, slack, nreal + rows),
                    np.diag(np.where(crash, 1.0 / coef, sign)), 0)
        self.cap = cap

    @classmethod
    def resume(cls, start: _Simplex, lo, up):
        """A copy of `start` under new column bounds (lo, up of the real
        columns; artificials stay pinned at zero), for repair. Nonbasic
        values move into their new range; `start` is never written."""
        sx = cls.__new__(cls)
        lo = np.concatenate([lo, np.zeros(start.m)])
        up = np.concatenate([up, np.zeros(start.m)])
        sx._setup(start.rows, start.a, start.b, lo, up, np.clip(start.val, lo, up),
                  start.basis.copy(), start.binv.copy(), start.pivots_since_refresh)
        return sx

    def _setup(self, rows, a, b, lo, up, val, basis, binv, pivots_since_refresh):
        """The simplex on a x = b, whose first columns are the
        standardized rows and whose last m columns are artificial."""
        self.rows, self.a, self.b = rows, a, b
        self.m, self.ntot = a.shape
        self.nreal = rows.shape[1]
        self.lo, self.up, self.val = lo, up, val
        self.basis = basis
        self.is_basic = np.zeros(self.ntot, dtype=bool)
        self.is_basic[basis] = True
        self.binv = binv
        self.iterations = 0
        self.pivots_since_refresh = pivots_since_refresh

    def _basic_values(self):
        """Values of the basic columns, from the nonbasic ones."""
        return self.binv @ (self.b - self.a @ np.where(self.is_basic, 0.0, self.val))

    def x_full(self):
        x = self.val.copy()
        x[self.basis] = self._basic_values()
        return x

    def _refactor(self):
        try:
            self.binv = linalg.invert(self.a[:, self.basis])
        except linalg.SingularMatrixError:
            self._repair_basis()
            self.binv = linalg.invert(self.a[:, self.basis])
        self.pivots_since_refresh = 0

    def _repair_basis(self):
        """The eta updates let a numerically dependent column slip into
        the basis. Keep a well-conditioned independent subset and plug
        the uncovered rows with their artificial unit columns."""
        m = self.m
        work = self.a[:, self.basis].copy()
        keep = np.zeros(m, dtype=bool)
        used_row = np.full(m, -1, dtype=int)
        thresh = 1e-7 * max(1.0, float(np.max(np.abs(work))))
        free_rows = np.ones(m, dtype=bool)
        for j in range(m):
            col = np.where(free_rows, work[:, j], 0.0)
            r = int(np.argmax(np.abs(col)))
            if abs(col[r]) <= thresh:
                continue
            keep[j] = True
            used_row[j] = r
            free_rows[r] = False
            if j + 1 < m:
                work[:, j + 1:] -= np.outer(work[:, j] / work[r, j],
                                            work[r, j + 1:])
        new_basis = np.empty(m, dtype=int)
        fill = iter(np.flatnonzero(free_rows))
        for j in range(m):
            if keep[j]:
                new_basis[j] = self.basis[j]
            else:
                old = self.basis[j]
                self.is_basic[old] = False
                lo, up = self.lo[old], self.up[old]
                self.val[old] = lo if lo > -_BIG else (up if up < _BIG else 0.0)
                r = next(fill)
                new_basis[j] = self.nreal + r
                self.is_basic[self.nreal + r] = True
        self.basis = new_basis

    def run(self, cost, phase):
        """Pivot until optimal for `cost`. Returns final status string."""
        m = self.m
        lo, up = self.lo, self.up  # fixed within a run
        span = up - lo > _PTOL
        lo_tol = 1e-9 * (1 + np.abs(lo))
        up_tol = 1e-9 * (1 + np.abs(up))
        lo_finite, up_finite = lo > -_BIG, up < _BIG
        degen_run = 0
        stalled = -1
        careful = False  # permanent Bland + exact ratios once progress stops
        best = np.inf
        no_progress = 0
        while True:
            self.iterations += 1
            if self.iterations > self.cap:
                raise IterationLimitError(
                    f"simplex exceeded {self.cap} iterations (phase {phase})"
                )
            xb = self._basic_values()
            cb = cost[self.basis]
            y = cb @ self.binv
            d = cost - y @ self.a
            # price relative to the dual scale, else rounding noise in d
            # (about eps * |y|) masquerades as an improving direction
            dt = _DTOL * max(1.0, float(np.max(np.abs(y))) if m else 0.0)

            obj = float(cb @ xb)
            # margin scaled by obj, not best: best starts at inf
            if obj < best - 1e-10 * (1.0 + abs(obj)):
                best = obj
                no_progress = 0
            else:
                no_progress += 1
            if not careful and no_progress > 2 * m + 100:
                # the Harris relaxation can random-walk on very degenerate
                # problems: snap to bounds and finish with exact pivoting
                careful = True
                near_lo = np.abs(self.val - lo) <= 1e-7 * (1 + np.abs(lo))
                near_up = np.abs(self.val - up) <= 1e-7 * (1 + np.abs(up))
                self.val = np.where(near_lo, lo, np.where(near_up, up, self.val))
                self._refactor()
                continue
            bland = careful or degen_run > _DEGEN_SWITCH

            movable = ~self.is_basic & span
            at_lo = movable & (np.abs(self.val - lo) <= lo_tol)
            at_up = movable & ~at_lo & (np.abs(self.val - up) <= up_tol)
            free = movable & ~at_lo & ~at_up
            elig = (at_lo & (d < -dt)) | (at_up & (d > dt)) | (free & (np.abs(d) > dt))
            cand = np.flatnonzero(elig)
            if cand.size == 0:
                return "optimal"
            if bland:
                e = int(cand[0])  # Bland: lowest index
            else:
                e = int(cand[np.argmax(np.abs(d[cand]))])  # Dantzig
            sigma = 1.0 if (at_lo[e] or (free[e] and d[e] < 0)) else -1.0

            w = self.binv @ self.a[:, e]
            delta = -sigma * w
            lob = lo[self.basis]
            upb = up[self.basis]
            dn = (delta < -_PTOL) & lo_finite[self.basis]
            up_mask = (delta > _PTOL) & up_finite[self.basis]
            lim = dn | up_mask
            absd = np.abs(delta)
            slack = np.maximum(np.where(dn, xb - lob, np.where(up_mask, upb - xb, 0.0)), 0.0)
            t_rows = np.divide(slack, absd, out=np.full(m, np.inf), where=lim)
            own = (up[e] - self.val[e]) if sigma > 0 else (self.val[e] - lo[e])
            t_own = own if own < _BIG else np.inf

            # Harris two-pass: pass 1 relaxes basic bounds by _EPS_F to
            # get a limit ratio, pass 2 takes the biggest pivot under it
            t_relaxed = np.divide(slack + _EPS_F, absd, out=np.full(m, np.inf), where=lim)
            t_limit = min(float(t_relaxed.min()) if m else np.inf, t_own)
            if not np.isfinite(t_limit) or t_limit >= _BIG:
                if phase == 1:
                    # numerically impossible (phase 1 is bounded): rebuild
                    # the basis inverse and retry, give up on a repeat
                    if stalled == e:
                        raise linalg.NumericalError("phase-1 simplex stalled numerically")
                    stalled = e
                    self._refactor()
                    continue
                return "unbounded"
            stalled = -1

            leave_row = -1
            if bland:
                # Bland: exact min ratio, lowest variable index among ties
                t_basic = float(t_rows.min()) if m else np.inf
                t = min(t_basic, t_own)
                tie = 1e-9 * (1.0 + t)
                ties = np.flatnonzero(t_rows <= t + tie)
                if ties.size:
                    r = int(ties[np.argmin(self.basis[ties])])
                    if t_own > t + tie or self.basis[r] < e:
                        leave_row = r
                        t = float(t_rows[r])
            else:
                cand = np.flatnonzero(lim & (t_rows <= t_limit))
                if cand.size and t_own >= float(t_rows[cand].min()):
                    leave_row = int(cand[np.argmax(absd[cand])])
                    t = float(t_rows[leave_row])
                else:
                    t = t_own

            degen_run = degen_run + 1 if t <= 1e-11 else 0

            if leave_row < 0:
                # bound flip: entering variable crosses to its other bound
                self.val[e] = up[e] if sigma > 0 else lo[e]
                continue

            hit_lower = delta[leave_row] < 0
            self.val[e] = self.val[e] + sigma * t  # becomes basic near here
            self._pivot(leave_row, e, w, lob[leave_row] if hit_lower else upb[leave_row])

    def _pivot(self, row, e, w, leave_value):
        """Column e enters at `row`, whose variable leaves at
        leave_value; w is binv @ a[:, e]. Product-form update of binv,
        refactorized every _REFRESH pivots."""
        lvar = self.basis[row]
        self.val[lvar] = leave_value
        self.basis[row] = e
        self.is_basic[lvar] = False
        self.is_basic[e] = True
        br = self.binv[row] / w[row]
        self.binv -= w[:, None] * br
        self.binv[row] = br
        self.pivots_since_refresh += 1
        if self.pivots_since_refresh >= _REFRESH:
            self._refactor()

    def repair(self, pivot_cap):
        """Zero-cost bounded dual simplex from a warm start (module
        docstring). Returns "optimal" once every basic value is within
        1e-9 (1 + |bound|) of its bounds; "infeasible" when the worst
        row has no eligible column, with that row of binv in self.y (to
        be certified); None after pivot_cap pivots, when the basic
        values stop being finite, or when the row and the column of a
        pivot still disagree on its value after a refactorization."""
        lo, up = self.lo, self.up
        lo_tol = 1e-9 * (1 + np.abs(lo))
        up_tol = 1e-9 * (1 + np.abs(up))
        movable = up - lo > _PTOL
        pivots = 0
        refactored = False
        while True:
            self.iterations += 1
            xb = self._basic_values()
            if not np.all(np.isfinite(xb)):
                return None
            basis = self.basis
            below = lo[basis] - xb
            above = xb - up[basis]
            bad = (below > lo_tol[basis]) | (above > up_tol[basis])
            if not bad.any():
                return "optimal"
            if pivots >= pivot_cap:
                return None
            r = int(np.argmax(np.where(bad, np.maximum(below, above), -np.inf)))
            rising = below[r] > 0  # x_B[r] must rise to its lower bound
            # one unit of nonbasic x_j moves x_B[r] by -alpha_j
            alpha = self.binv[r] @ self.a
            nonbasic = movable & ~self.is_basic
            can_rise = nonbasic & (self.val < up - up_tol)
            can_fall = nonbasic & (self.val > lo + lo_tol)
            if rising:
                elig = (can_rise & (alpha < -_PTOL)) | (can_fall & (alpha > _PTOL))
            else:
                elig = (can_rise & (alpha > _PTOL)) | (can_fall & (alpha < -_PTOL))
            cand = np.flatnonzero(elig)
            if cand.size == 0:
                self.y = self.binv[r].copy()
                return "infeasible"
            e = int(cand[np.argmax(np.abs(alpha[cand]))])
            w = self.binv @ self.a[:, e]
            # the pivot from the row (alpha[e]) and from the column (w[r])
            # must agree; an inaccurate binv is refactored and the step
            # taken again, and one that still disagrees ends the attempt
            if abs(alpha[e] - w[r]) > _PTOL * abs(alpha[e]):
                if refactored:
                    return None
                self._refactor()
                refactored = True
                continue
            refactored = False
            target = lo[basis[r]] if rising else up[basis[r]]
            self.val[e] += (xb[r] - target) / alpha[e]
            self._pivot(r, e, w, target)
            pivots += 1

    def pin_artificials(self):
        """After phase 1: pivot artificials out of the basis where
        possible and freeze them at zero."""
        nreal = self.nreal
        for r in range(self.m):
            if self.basis[r] < nreal:
                continue
            row = self.binv[r] @ self.a[:, :nreal]
            row[self.is_basic[:nreal]] = 0.0
            row[self.up[:nreal] - self.lo[:nreal] <= _PTOL] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > 1e-7:
                self._pivot(r, j, self.binv @ self.a[:, j], 0.0)
            # else: redundant row; the artificial stays basic at zero
        self.lo[nreal:] = 0.0
        self.up[nreal:] = 0.0
        self.val[nreal:][~self.is_basic[nreal:]] = 0.0


def _feasibility_margin(b) -> float:
    """The phase-1 threshold: an LP is infeasible when its least total
    row violation (in standardized rows) exceeds this."""
    return TOL_FEAS * (1.0 + float(np.max(np.abs(b), initial=0.0)))


def _certifies_infeasible(a, b, lo, up, y) -> bool:
    """True when y proves a x = b, lo <= x <= up infeasible: with y
    scaled to max|y| = 1, y.b lies outside the range of (y a) x over the
    bounds by more than the phase-1 threshold. Entries of y a at or
    below TOL_CERT_ZERO times its largest count as zero, else rounding
    noise on a column without bounds leaves the range unbounded."""
    y = y / np.max(np.abs(y))
    g = y @ a
    g[np.abs(g) <= TOL_CERT_ZERO * np.max(np.abs(g), initial=0.0)] = 0.0
    lo = np.where(lo > -_BIG, lo, -np.inf)
    up = np.where(up < _BIG, up, np.inf)
    pos, neg = g > 0, g < 0
    lowest = g[pos] @ lo[pos] + g[neg] @ up[neg]
    highest = g[pos] @ up[pos] + g[neg] @ lo[neg]
    margin = _feasibility_margin(b)
    yb = float(y @ b)
    return bool(yb > highest + margin or yb < lowest - margin)


def _same_rows(state, a, b) -> bool:
    """Whether state was built on the standardized rows a x = b: by
    identity for rows of the same StandardForm, else entry by entry."""
    if state.rows is a and state.b is b:
        return True
    return (state.rows.shape == a.shape and np.array_equal(state.b, b)
            and np.array_equal(state.rows, a))


def _run(lp, feasibility_only: bool, start=None) -> LpOutcome:
    a, b, c, lo, up = lp if isinstance(lp, StandardForm) else standardize(lp)
    m = b.size
    n = a.shape[1] - m
    sx, spent = None, 0  # spent: warm pivots before a cold fallback
    if start is not None and _same_rows(start, a, b):
        warm = _Simplex.resume(start, lo, up)
        status = warm.repair(warm_pivot_cap(m))
        if status == "optimal":
            sx = warm
        elif status == "infeasible" and _certifies_infeasible(a, b, lo, up, warm.y):
            return LpOutcome(status="infeasible", iterations=warm.iterations, y=warm.y)
        else:
            spent = warm.iterations

    if sx is None:
        sx = _Simplex(a, b, lo, up, 50 * (m + a.shape[1]))
        status = sx.run(np.concatenate([np.zeros(sx.nreal), np.ones(m)]), phase=1)
        if status != "optimal":  # phase 1 is bounded below by zero
            raise linalg.NumericalError("phase-1 simplex reported unbounded")
        p1 = float(sx.x_full()[sx.nreal :].sum())
        if p1 > _feasibility_margin(b):
            return LpOutcome(status="infeasible", iterations=spent + sx.iterations)
        sx.pin_artificials()

        if not feasibility_only:
            status = sx.run(np.concatenate([c, np.zeros(m)]), phase=2)
            if status == "unbounded":
                return LpOutcome(status="unbounded", iterations=sx.iterations)

    x = sx.x_full()
    xr = np.minimum(np.maximum(x[: n + m], lo), up)[:n]  # clamp drift
    return LpOutcome(status="optimal", x=xr, iterations=spent + sx.iterations, state=sx)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Minimize. Returns status optimal/infeasible/unbounded; optimal
    outcomes carry a minimizing point."""
    return _run(lp, feasibility_only=False)


def check_feasibility(lp: LinearProgram | StandardForm, start=None) -> LpOutcome:
    """Phase-1 only: status "optimal" with some feasible point, or
    "infeasible". The objective is ignored. lp is a LinearProgram or
    its StandardForm, whose rows are then not standardized again.

    start None solves cold. The state of an earlier feasible outcome
    on the same rows starts warm (module docstring), any other state
    cold.
    """
    return _run(lp, feasibility_only=True, start=start)
