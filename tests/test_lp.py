import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aarlcp import generate_random, linalg, lp as lp_module, parse_instance
from aarlcp.lp import (INF as LP_INF, LinearProgram, _REFRESH, _Simplex,
                       check_feasibility, check_point, solve_lp)
from aarlcp.robust_q import build_mip, default_big_m
from conftest import lcp_brute_force

INF = np.inf


def _lp(objective, lhs, senses, rhs, lower=None, upper=None):
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    ncols = lhs.shape[1]
    return LinearProgram(
        np.asarray(objective, dtype=float),
        lhs,
        list(senses),
        np.asarray(rhs, dtype=float),
        np.full(ncols, -INF) if lower is None else np.asarray(lower, dtype=float),
        np.full(ncols, INF) if upper is None else np.asarray(upper, dtype=float),
    )


def test_min_x_above_three():
    out = solve_lp(_lp([1.0], [[1.0]], [">="], [3.0]))
    assert out.status == "optimal"
    assert out.x == pytest.approx([3.0])


def test_contradictory_bounds_infeasible():
    out = solve_lp(_lp([0.0], [[1.0]], ["<="], [-1.0], lower=[0.0]))
    assert out.status == "infeasible"


def test_unbounded():
    out = solve_lp(_lp([-1.0], [[1.0]], [">="], [0.0]))
    assert out.status == "unbounded"


def test_check_feasibility_examples():
    feas = check_feasibility(_lp([0.0], [[1.0]], ["="], [1.0], lower=[0.0]))
    assert feas.status == "optimal"
    assert feas.x == pytest.approx([1.0])

    infeas = check_feasibility(
        _lp([0.0], [[1.0], [1.0]], ["=", "="], [1.0, 2.0]))
    assert infeas.status == "infeasible"


def test_max_coordinate_over_lcp_solution_polyhedron():
    """Maximizing z1 over the solution set of a 2x2 complementarity
    system with positive definite symmetric matrix. The set is a single
    point, recovered independently by support enumeration."""
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    q = np.array([-5.0, -3.0])
    ref = lcp_brute_force(m, q)
    assert len(ref) == 1
    sym = m + m.T
    # polyhedron: z >= 0, Mz + q >= 0, q.(z - zref) = 0, (M+M^T)(z - zref) = 0
    lhs = np.vstack([m, q[None, :], sym])
    senses = [">=", ">=", "="] + ["="] * 2
    rhs = np.concatenate([-q, [q @ ref[0]], sym @ ref[0]])
    out = solve_lp(_lp([-1.0, 0.0], lhs, senses, rhs, lower=[0.0, 0.0]))
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(ref[0][0], abs=1e-8)


def test_optimal_certificates():
    # a dual certificate must prove each optimal point optimal: row
    # multipliers y of the right signs (taken from scipy's HiGHS, checked
    # here) give the lower bound b.y + (reduced costs at their bounds)
    # on c.x by weak duality, and it must equal c.x
    rng = np.random.default_rng(3)
    for _ in range(40):
        ncols = int(rng.integers(1, 7))
        nrows = int(rng.integers(1, 7))
        lp = _lp(
            rng.uniform(-2.0, 2.0, ncols),
            rng.uniform(-2.0, 2.0, (nrows, ncols)),
            [("<=", "=", ">=")[int(k)] for k in rng.integers(0, 3, nrows)],
            rng.uniform(-3.0, 3.0, nrows),
            lower=np.zeros(ncols),
            upper=rng.uniform(0.5, 4.0, ncols),
        )
        out = solve_lp(lp)
        if out.status != "optimal":
            continue
        assert check_point(lp, out.x) <= 1e-7
        y = _row_duals(lp, _highs(lp, lp.objective))
        senses = np.array(lp.senses)
        assert np.all(y[senses == "<="] <= 1e-9) and np.all(y[senses == ">="] >= -1e-9)
        reduced = lp.objective - lp.lhs.T @ y
        dual_obj = lp.rhs @ y + np.where(reduced > 0, lp.lower, lp.upper) @ reduced
        assert dual_obj == pytest.approx(lp.objective @ out.x, abs=1e-6)


def test_feasibility_invariant_under_row_permutation():
    rng = np.random.default_rng(4)
    for trial in range(30):
        ncols = int(rng.integers(1, 6))
        nrows = int(rng.integers(2, 7))
        lhs = rng.uniform(-2.0, 2.0, (nrows, ncols))
        senses = [("<=", "=", ">=")[int(k)] for k in rng.integers(0, 3, nrows)]
        rhs = rng.uniform(-3.0, 3.0, nrows)
        lp = _lp(np.zeros(ncols), lhs, senses, rhs, lower=np.zeros(ncols))
        perm = rng.permutation(nrows)
        lp2 = _lp(np.zeros(ncols), lhs[perm], [senses[i] for i in perm],
                  rhs[perm], lower=np.zeros(ncols))
        assert check_feasibility(lp).status == check_feasibility(lp2).status


def _highs(lp, objective):
    """scipy's HiGHS on the same program, ">=" rows negated into A_ub.
    Presolve stays off: it calls some feasible unbounded programs
    infeasible. Without it HiGHS leaves some programs with an all-zero
    row at status 4 ("model_status is Unknown"); those are solved again
    with presolve, which removes the row."""
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, s, b in zip(lp.lhs, lp.senses, lp.rhs):
        if s == "<=":
            a_ub.append(row); b_ub.append(b)
        elif s == ">=":
            a_ub.append(-row); b_ub.append(-b)
        else:
            a_eq.append(row); b_eq.append(b)
    program = dict(
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(lo if lo > -1e29 else None, up if up < 1e29 else None)
                for lo, up in zip(lp.lower, lp.upper)],
        method="highs",
    )
    ref = linprog(objective, **program, options={"presolve": False})
    if ref.status == 4:
        ref = linprog(objective, **program, options={"presolve": True})
    return ref


def _linprog(lp, objective):
    """scipy's HiGHS on the same program: "optimal", "infeasible" or
    "unbounded", plus the optimal value."""
    ref = _highs(lp, objective)
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status), ref.fun


def _row_duals(lp, ref):
    """HiGHS's row multipliers in the senses of lp's own rows."""
    eq = iter(ref.eqlin.marginals)
    ineq = iter(ref.ineqlin.marginals)
    return np.array([next(eq) if s == "=" else next(ineq) * (1.0 if s == "<=" else -1.0)
                     for s in lp.senses])


def test_matches_scipy_on_random_problems():
    """Independent route: statuses and objectives against scipy's HiGHS
    on a mixed stream of bounded/unbounded, all senses, free and fixed
    variables."""
    rng = np.random.default_rng(12345)
    agree = 0
    for trial in range(120):
        ncols = int(rng.integers(1, 8))
        nrows = int(rng.integers(1, 8))
        lhs = rng.uniform(-3.0, 3.0, (nrows, ncols)).round(3)
        senses = [("<=", "=", ">=")[int(k)] for k in rng.integers(0, 3, nrows)]
        rhs = rng.uniform(-4.0, 4.0, nrows).round(3)
        cost = rng.uniform(-2.0, 2.0, ncols).round(3)
        lower = np.where(rng.random(ncols) < 0.8, 0.0, -INF)
        upper = np.where(rng.random(ncols) < 0.6,
                         rng.uniform(0.5, 5.0, ncols).round(3), INF)
        lp = _lp(cost, lhs, senses, rhs, lower=lower, upper=upper)
        out = solve_lp(lp)
        ref_status, ref_fun = _linprog(lp, cost)
        assert out.status == ref_status, f"trial {trial}"
        if out.status == "optimal":
            assert cost @ out.x == pytest.approx(ref_fun, abs=1e-6)
        agree += 1
    assert agree == 120


def test_bland_pricing_matches_scipy_on_degenerate_cones(monkeypatch):
    """Bland's rule from the first pivot on LPs whose rows all pass
    through the origin, so the leaving rows tie at ratio 0: statuses and
    objectives against scipy's HiGHS."""
    monkeypatch.setattr(lp_module, "_DEGEN_SWITCH", -1)
    rng = np.random.default_rng(29)
    for trial in range(40):
        ncols = int(rng.integers(3, 9))
        nrows = int(rng.integers(2 * ncols, 5 * ncols))
        lhs = rng.integers(-2, 3, (nrows, ncols)).astype(float)
        cost = rng.integers(-3, 4, ncols).astype(float)
        lp = _lp(cost, lhs, ["<="] * nrows, np.zeros(nrows),
                 lower=-np.ones(ncols), upper=np.ones(ncols))
        out = solve_lp(lp)
        status, fun = _linprog(lp, cost)
        assert out.status == status == "optimal", f"trial {trial}"
        assert cost @ out.x == pytest.approx(fun, abs=1e-7), f"trial {trial}"


def test_start_point_satisfying_every_row_needs_no_pivot():
    # x = 0 (the lower bounds) satisfies each inequality, so every row
    # starts on its own slack and phase 1 is optimal at once
    lp = _lp([0.0, 0.0, 0.0], [[1.0, 2.0, 0.0], [1.0, -1.0, 3.0], [0.0, 1.0, 1.0]],
             ["<=", ">=", "<="], [5.0, -3.0, 0.0], lower=[0.0, 0.0, 0.0])
    out = check_feasibility(lp)
    assert out.status == "optimal"
    assert out.iterations == 1
    assert out.x == pytest.approx([0.0, 0.0, 0.0])


# (n, seed) of `generate_random("uncertain-q", n, seed=seed)`, then the
# status and iteration count of check_feasibility on its big-M program
# and of solve_lp maximizing sum r over it. Several runs pass the
# refactorization interval; a change to pricing, the ratio test or the
# inverse update that moves any pivot shows here.
_MIP_LPS = [
    ((3, 0), ("infeasible", 30), ("infeasible", 30)),
    ((3, 1), ("optimal", 27), ("optimal", 34)),
    ((4, 2), ("optimal", 49), ("optimal", 70)),
    ((4, 3), ("infeasible", 75), ("infeasible", 75)),
    ((5, 4), ("optimal", 86), ("optimal", 124)),
]


@pytest.mark.parametrize("shape, feasibility, maximum", _MIP_LPS)
def test_big_m_programs_keep_their_pivots(shape, feasibility, maximum):
    inst = parse_instance(generate_random("uncertain-q", shape[0], seed=shape[1]))
    prog, lay = build_mip(inst, default_big_m(inst))
    lp = prog.lp
    feas = check_feasibility(lp)
    assert (feas.status, feas.iterations) == feasibility
    cost = np.zeros(lp.shape[1])
    cost[lay.r] = -1.0
    out = solve_lp(LinearProgram(cost, lp.lhs, lp.senses, lp.rhs, lp.lower, lp.upper))
    assert (out.status, out.iterations) == maximum
    ref_status, ref_fun = _linprog(lp, cost)
    assert out.status == ref_status
    if out.status == "optimal":
        assert check_point(lp, out.x) <= 1e-7
        assert cost @ out.x == pytest.approx(ref_fun, rel=1e-9)


# bounds a column may draw: nonnegative, free, boxed, fixed, nonpositive
_BOUNDS = [(0.0, INF), (-INF, INF), (-2.0, 3.0), (1.0, 1.0), (-INF, 0.0)]


@st.composite
def _small_lps(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 4))
    ints = st.integers(-3, 3).map(float)
    lhs = np.array(draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                                 min_size=nrows, max_size=nrows)))
    senses = draw(st.lists(st.sampled_from(("<=", "=", ">=")),
                           min_size=nrows, max_size=nrows))
    # right-hand sides of either sign, so the start point misses some
    # rows on the wrong side of their slack's bound
    rhs = np.array(draw(st.lists(st.integers(-6, 6).map(float),
                                 min_size=nrows, max_size=nrows)))
    bounds = draw(st.lists(st.sampled_from(_BOUNDS), min_size=ncols, max_size=ncols))
    cost = np.array(draw(st.lists(ints, min_size=ncols, max_size=ncols)))
    lower, upper = (np.array(b) for b in zip(*bounds))
    return _lp(cost, lhs, senses, rhs, lower=lower, upper=upper)


@settings(max_examples=300, deadline=None)
@given(_small_lps())
# feasible (x = 0) and unbounded along x2 -> -inf, x3 -> +inf
@example(_lp([0.0, 0.0, -1.0], [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]], [">=", ">="],
             [0.0, -1.0], lower=[0.0, -INF, 0.0]))
# unbounded along x0; the all-zero row leaves HiGHS without presolve at
# status 4
@example(_lp([-1.0, 0.0, -1.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [1.0, 0.0, 1.0]],
             ["<=", ">=", ">="], [0.0, -1.0, -1.0], lower=[0.0, 0.0, 0.0]))
def test_crash_start_agrees_with_scipy(lp):
    feasible, _ = _linprog(lp, np.zeros(lp.shape[1]))
    feas = check_feasibility(lp)
    assert feas.status == feasible
    if feas.status == "optimal":
        assert check_point(lp, feas.x) <= 1e-7

    out = solve_lp(lp)
    if feasible == "infeasible":
        assert out.status == "infeasible"
        return
    ref_status, ref_fun = _linprog(lp, lp.objective)
    assert out.status == ref_status
    if out.status == "optimal":
        assert check_point(lp, out.x) <= 1e-7
        assert lp.objective @ out.x == pytest.approx(ref_fun, abs=1e-6)


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearProgram(np.zeros(2), np.ones((1, 3)), ["<="], np.zeros(1),
                      np.zeros(3), np.ones(3))


def test_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        _lp([1.0], [[1.0]], ["<="], [1.0], lower=[2.0], upper=[1.0])


@pytest.mark.parametrize("sense", ["==", "<", ">", "=<"])
def test_rejects_unknown_senses(sense):
    with pytest.raises(ValueError, match="unknown row sense"):
        _lp([1.0], [[1.0]], [sense], [1.0])


def _klee_minty(n):
    """max sum_j 10^(n-j) x_j s.t. 2 sum_{j<i} 10^(i-j) x_j + x_i <=
    100^(i-1), x >= 0: Dantzig pricing visits all 2^n vertices, each
    pivot strictly improving (Chvatal, Linear Programming, 1983)."""
    lhs = np.tril(2.0 * 10.0 ** np.subtract.outer(np.arange(n), np.arange(n)), -1)
    lhs += np.eye(n)
    cost = -10.0 ** (n - 1 - np.arange(n))
    return _lp(cost, lhs, ["<="] * n, 100.0 ** np.arange(n), lower=np.zeros(n))


def test_improving_pivots_never_trip_the_stall_guard(monkeypatch):
    # 255 strictly improving pivots on 8 rows outlast the stall guard's
    # 2m + 100 steps without progress; the guard must not fire, so every
    # phase-2 refactorization is a scheduled one
    calls = []
    run, refactor = _Simplex.run, _Simplex._refactor

    def spy_run(self, cost, phase):
        self.phase = phase
        return run(self, cost, phase)

    def spy_refactor(self):
        calls.append((self.phase, self.pivots_since_refresh))
        refactor(self)

    monkeypatch.setattr(_Simplex, "run", spy_run)
    monkeypatch.setattr(_Simplex, "_refactor", spy_refactor)
    lp = _klee_minty(8)
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert calls and all(k == _REFRESH for phase, k in calls if phase == 2)
    assert out.iterations == 257  # one phase-1 check, 255 pivots, one check
    assert lp.objective @ out.x == pytest.approx(-100.0 ** 7)


def test_repair_basis_swaps_dependent_columns_for_artificials():
    # column 2 is twice column 0, so the basis [0, 1, 2] is singular
    a = np.hstack([np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]),
                   np.eye(3)])
    sx = _Simplex(a, np.ones(3), np.zeros(6), np.full(6, LP_INF), cap=100)
    sx.is_basic[sx.basis] = False
    sx.basis = np.array([0, 1, 2])
    sx.is_basic[sx.basis] = True
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(sx.a[:, sx.basis])
    sx._refactor()
    assert sx.binv @ sx.a[:, sx.basis] == pytest.approx(np.eye(3))
    # the dropped position holds the artificial of row 2, the one row
    # neither kept column pivots on
    assert sx.basis.tolist() == [0, 1, sx.nreal + 2]
    assert not sx.is_basic[2] and sx.val[2] == 0.0


def _check_point_by_rows(lp, x):
    """check_point written as a loop over the rows."""
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
    return max(worst, float(np.max(x - up, initial=0.0)))


def test_check_point_matches_the_row_loop():
    rng = np.random.default_rng(31)
    for _ in range(300):
        nrows, ncols = int(rng.integers(0, 6)), int(rng.integers(1, 6))
        bounds = [_BOUNDS[k] for k in rng.integers(0, len(_BOUNDS), ncols)]
        lower, upper = (np.array(b) for b in zip(*bounds))
        lp = _lp(np.zeros(ncols), rng.normal(size=(nrows, ncols)),
                 rng.choice(["<=", "=", ">="], nrows), rng.normal(size=nrows),
                 lower=lower, upper=upper)
        for x in (rng.normal(size=ncols) * 3.0, np.clip(np.zeros(ncols), lower, upper)):
            assert check_point(lp, x) == _check_point_by_rows(lp, x)
