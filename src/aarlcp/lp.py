"""Linear programs with row senses and variable bounds, solved by a
two-phase bounded-variable revised simplex method.

Infinite bounds are encoded internally by the sentinels +/-1e30 and never
exposed. The basis inverse is kept explicitly, updated by the product
form after each pivot and refactorized from scratch (LAPACK LU) every
30 pivots. Degenerate stretches switch pricing to Bland's rule, whose
lowest-index tie-breaking (applied to entering and leaving variables
alike) prevents cycling. Both phases draw on one shared budget of
50 * (rows + columns) iterations, columns counting the row slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .tolerances import TOL_FEAS

__all__ = [
    "INF",
    "SENSES",
    "IterationLimitError",
    "LinearProgram",
    "LpOutcome",
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

SENSES = ("<=", "=", ">=")


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
        norm = {"<": "<=", ">": ">=", "<=": "<=", ">=": ">=", "=": "=", "==": "="}
        try:
            self.senses = [norm[s] for s in self.senses]
        except KeyError as exc:
            raise ValueError(f"unknown row sense {exc.args[0]!r}") from None
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
    objective: float | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0


def check_point(lp: LinearProgram, x, tol: float = TOL_FEAS) -> float:
    """Largest constraint/bound violation of x, computed directly."""
    x = linalg.as_vector(x, lp.lhs.shape[1])
    ax = lp.lhs @ x
    worst = 0.0
    for i, s in enumerate(lp.senses):
        gap = ax[i] - lp.rhs[i]
        if s == "<=":
            worst = max(worst, gap)
        elif s == ">=":
            worst = max(worst, -gap)
        else:
            worst = max(worst, abs(gap))
    lo = np.where(np.isfinite(lp.lower), lp.lower, -np.inf)
    up = np.where(np.isfinite(lp.upper), lp.upper, np.inf)
    worst = max(worst, float(np.max(lo - x, initial=0.0)))
    worst = max(worst, float(np.max(x - up, initial=0.0)))
    return worst


def _standardize(lp: LinearProgram):
    """Append one slack per row: lhs x + s = rhs with sense-dependent
    slack bounds. Rows are equilibrated (divided by their largest
    coefficient) so mixed scales such as big-M rows keep the absolute
    pivot tolerances meaningful; slack values are unaffected because
    their coefficients scale along."""
    m, n = lp.lhs.shape
    a = np.hstack([lp.lhs, np.eye(m)]) if m else lp.lhs.copy()
    lo = np.concatenate([lp.lower, np.zeros(m)])
    up = np.concatenate([lp.upper, np.zeros(m)])
    for i, s in enumerate(lp.senses):
        if s == "<=":
            lo[n + i], up[n + i] = 0.0, np.inf
        elif s == ">=":
            lo[n + i], up[n + i] = -np.inf, 0.0
        else:
            lo[n + i], up[n + i] = 0.0, 0.0
    lo = np.where(lo < -_BIG, -INF, lo)
    up = np.where(up > _BIG, INF, up)
    np.clip(lo, -INF, INF, out=lo)
    np.clip(up, -INF, INF, out=up)
    c = np.concatenate([lp.objective, np.zeros(m)])
    b = lp.rhs.copy()
    row_scale = np.maximum(1.0, np.max(np.abs(lp.lhs), axis=1, initial=0.0)) if m else np.ones(0)
    a /= row_scale[:, None] if m else 1.0
    b /= row_scale if m else 1.0
    return a, b, c, lo, up, row_scale


class _Simplex:
    """One standardized problem instance plus pivoting state."""

    def __init__(self, a, b, lo, up, cap):
        m, nreal = a.shape
        self.m, self.nreal = m, nreal
        resid = b - a @ self._initial_values(lo, up)
        sign = np.where(resid >= 0, 1.0, -1.0)
        self.a = np.hstack([a, np.diag(sign)]) if m else a
        self.b = b
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.up = np.concatenate([up, np.full(m, INF)])
        self.ntot = nreal + m
        self.val = np.concatenate([self._initial_values(lo, up), np.abs(resid)])
        self.basis = np.arange(nreal, nreal + m)
        self.is_basic = np.zeros(self.ntot, dtype=bool)
        self.is_basic[self.basis] = True
        self.binv = np.diag(sign)
        self.cap = cap
        self.iterations = 0
        self.pivots_since_refresh = 0

    @staticmethod
    def _initial_values(lo, up):
        v = np.where(lo > -_BIG, lo, np.where(up < _BIG, up, 0.0))
        return v.astype(float)

    def x_full(self):
        v = np.where(self.is_basic, 0.0, self.val)
        xb = self.binv @ (self.b - self.a @ v)
        x = v.copy()
        x[self.basis] = xb
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
            v = np.where(self.is_basic, 0.0, self.val)
            xb = self.binv @ (self.b - self.a @ v)
            y = cost[self.basis] @ self.binv
            d = cost - y @ self.a
            # price relative to the dual scale, else rounding noise in d
            # (about eps * |y|) masquerades as an improving direction
            dt = _DTOL * max(1.0, float(np.max(np.abs(y))) if m else 0.0)

            obj = float(cost[self.basis] @ xb)
            if obj < best - 1e-10 * (1.0 + abs(best)):
                best = obj
                no_progress = 0
            else:
                no_progress += 1
            if not careful and no_progress > 2 * m + 100:
                # the Harris relaxation can random-walk on very degenerate
                # problems: snap to bounds and finish with exact pivoting
                careful = True
                near_lo = np.abs(self.val - self.lo) <= 1e-7 * (1 + np.abs(self.lo))
                near_up = np.abs(self.val - self.up) <= 1e-7 * (1 + np.abs(self.up))
                self.val = np.where(near_lo, self.lo, np.where(near_up, self.up, self.val))
                self._refactor()
                continue
            bland = careful or degen_run > _DEGEN_SWITCH

            movable = ~self.is_basic & (self.up - self.lo > _PTOL)
            at_lo = movable & (np.abs(self.val - self.lo) <= 1e-9 * (1 + np.abs(self.lo)))
            at_up = movable & ~at_lo & (np.abs(self.val - self.up) <= 1e-9 * (1 + np.abs(self.up)))
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
            lob = self.lo[self.basis]
            upb = self.up[self.basis]
            dn = (delta < -_PTOL) & (lob > -_BIG)
            up_mask = (delta > _PTOL) & (upb < _BIG)
            lim = dn | up_mask
            absd = np.abs(delta)
            slack = np.zeros(m)
            slack[dn] = xb[dn] - lob[dn]
            slack[up_mask] = upb[up_mask] - xb[up_mask]
            slack = np.maximum(slack, 0.0)
            t_rows = np.full(m, np.inf)
            t_rows[lim] = slack[lim] / absd[lim]
            own = (self.up[e] - self.val[e]) if sigma > 0 else (self.val[e] - self.lo[e])
            t_own = own if own < _BIG else np.inf

            # Harris two-pass: pass 1 relaxes basic bounds by _EPS_F to
            # get a limit ratio, pass 2 takes the biggest pivot under it
            t_relaxed = np.full(m, np.inf)
            t_relaxed[lim] = (slack[lim] + _EPS_F) / absd[lim]
            t_limit = min(float(t_relaxed.min()) if m else np.inf, t_own)
            if not np.isfinite(t_limit) or t_limit >= _BIG:
                if phase == 1:
                    # numerically impossible (phase 1 is bounded): rebuild
                    # the basis inverse and retry, give up on a repeat
                    if stalled == e:
                        raise RuntimeError("phase-1 simplex stalled numerically")
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
                leave_var = e if t_own <= t + tie else self.ntot + 1
                for r in np.flatnonzero(t_rows <= t + tie):
                    if self.basis[r] < leave_var:
                        leave_var = self.basis[r]
                        leave_row = int(r)
                t = t if leave_row < 0 else float(t_rows[leave_row])
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
                self.val[e] = self.up[e] if sigma > 0 else self.lo[e]
                continue

            hit_lower = delta[leave_row] < 0
            lvar = self.basis[leave_row]
            self.val[lvar] = lob[leave_row] if hit_lower else upb[leave_row]
            self.val[e] = self.val[e] + sigma * t  # becomes basic near here
            self.basis[leave_row] = e
            self.is_basic[lvar] = False
            self.is_basic[e] = True
            br = self.binv[leave_row] / w[leave_row]
            self.binv -= np.outer(w, br)
            self.binv[leave_row] = br
            self.pivots_since_refresh += 1
            if self.pivots_since_refresh >= _REFRESH:
                self._refactor()

    def pin_artificials(self, feas_tol):
        """After phase 1: pivot artificials out of the basis where
        possible and freeze them at zero."""
        nreal, ntot = self.nreal, self.ntot
        for r in range(self.m):
            avar = self.basis[r]
            if avar < nreal:
                continue
            row = self.binv[r] @ self.a[:, :nreal]
            row[self.is_basic[:nreal]] = 0.0
            row[self.up[:nreal] - self.lo[:nreal] <= _PTOL] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > 1e-7:
                w = self.binv @ self.a[:, j]
                self.val[avar] = 0.0
                self.basis[r] = j
                self.is_basic[avar] = False
                self.is_basic[j] = True
                br = self.binv[r] / w[r]
                self.binv -= np.outer(w, br)
                self.binv[r] = br
            # else: redundant row; the artificial stays basic at zero
        self.lo[nreal:] = 0.0
        self.up[nreal:] = 0.0
        self.val[nreal:][~self.is_basic[nreal:]] = 0.0


def _run(lp: LinearProgram, tol: float, feasibility_only: bool) -> LpOutcome:
    a, b, c, lo, up, row_scale = _standardize(lp)
    m, n = lp.lhs.shape
    cap = 50 * (m + a.shape[1])
    sx = _Simplex(a, b, lo, up, cap)

    cost1 = np.concatenate([np.zeros(sx.nreal), np.ones(m)])
    status = sx.run(cost1, phase=1)
    if status != "optimal":  # phase 1 is bounded below by zero
        raise RuntimeError("phase-1 simplex reported unbounded")
    x = sx.x_full()
    p1 = float(x[sx.nreal :].sum())
    if p1 > tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        return LpOutcome(status="infeasible", iterations=sx.iterations)
    sx.pin_artificials(tol)

    cost2 = np.concatenate([c, np.zeros(m)])
    if not feasibility_only:
        status = sx.run(cost2, phase=2)
        if status == "unbounded":
            return LpOutcome(status="unbounded", iterations=sx.iterations)

    x = sx.x_full()
    xr = np.minimum(np.maximum(x[: n + m], lo), up)[:n]  # clamp drift
    y = cost2[sx.basis] @ sx.binv
    d = (cost2 - y @ sx.a)[:n]
    return LpOutcome(
        status="optimal",
        x=xr,
        objective=float(lp.objective @ xr),
        duals=y / row_scale if m else y.copy(),  # undo row equilibration
        reduced_costs=d,
        iterations=sx.iterations,
    )


def solve_lp(lp: LinearProgram, tol: float = TOL_FEAS) -> LpOutcome:
    """Minimize. Returns status optimal/infeasible/unbounded; optimal
    outcomes carry the point, objective, duals and reduced costs."""
    return _run(lp, tol, feasibility_only=False)


def check_feasibility(lp: LinearProgram, tol: float = TOL_FEAS) -> LpOutcome:
    """Phase-1 only: status "optimal" with some feasible point, or
    "infeasible". The objective is ignored."""
    return _run(lp, tol, feasibility_only=True)
