import itertools
from dataclasses import replace

import numpy as np
import pytest

from aarlcp import (DispatchError, NumericalError, SolveOptions, build_lcp,
                    dispatch_solve, generate_random, lcp, linalg, parse_instance,
                    robust_q)
from aarlcp.lcp import (NominalLcp, compute_support_P, describe_solution_set,
                        lcp_residuals, solve_lemke)
from aarlcp.lp import LinearProgram, check_feasibility, solve_lp
from aarlcp.mip import solve_mip_feasibility
from aarlcp.robust_q import (AffineSolutionQ, PsdPathOutcome, SizeLimitError,
                             UncertainLcpQ, build_mip, check_char_system,
                             default_big_m, sample_violation_q,
                             solve_enumeration, solve_mip_q, solve_psd,
                             uniqueness_check_psd, verify_affine_q)
from aarlcp.tolerances import TOL_SUPPORT
from conftest import random_low_rank_psd_lcp, random_psd_matrix

# recurring instances: a 2x2 with multiple robust rules, and a positive
# definite one with none
MULTI = UncertainLcpQ(m=np.array([[4.0, 10.0], [1.0, 2.0]]),
                      qbar=np.array([-100.0, -22.0]),
                      ubar=np.array([1.0, 1.0]), h=0)
NONE_PD = UncertainLcpQ(m=np.array([[1.0, 0.5], [0.5, 1.0]]),
                        qbar=np.array([-5.0, -3.0]),
                        ubar=np.array([1.0, 1.0]), h=0)

SOL_1 = AffineSolutionQ(d=np.array([[-0.25, 0.0], [0.0, 0.0]]),
                        r=np.array([25.0, 0.0]))
SOL_2 = AffineSolutionQ(d=np.array([[0.0, 0.0], [0.0, -0.5]]),
                        r=np.array([0.0, 11.0]))


def _random_instance(rng, n, h):
    return UncertainLcpQ(
        m=rng.uniform(-3.0, 3.0, (n, n)).round(2),
        qbar=rng.uniform(-5.0, 3.0, n).round(2),
        ubar=rng.uniform(0.1, 1.0, n).round(2),
        h=h,
    )


def test_instance_partitions_coordinates():
    inst = UncertainLcpQ(m=np.eye(3), qbar=np.zeros(3),
                         ubar=np.array([1.0, 0.0, 0.5]), h=1)
    assert np.array_equal(inst.uncertain_set(), [0, 2])
    assert np.array_equal(inst.certain_set(), [1])


def test_instance_rejects_bad_data():
    with pytest.raises(ValueError):
        UncertainLcpQ(m=np.eye(2), qbar=np.zeros(2),
                      ubar=np.array([-0.1, 1.0]), h=0)
    with pytest.raises(ValueError):
        UncertainLcpQ(m=np.eye(2), qbar=np.zeros(3), ubar=np.ones(2), h=0)
    with pytest.raises(ValueError):
        UncertainLcpQ(m=np.eye(2), qbar=np.zeros(2), ubar=np.ones(2), h=3)


def test_verify_accepts_known_solution():
    report = verify_affine_q(MULTI, SOL_1)
    assert report.overall
    assert all(c.passed for c in report.checks)


def test_verify_rejects_constant_rule_with_wrong_slope():
    # dropping the u-dependence leaves the active row varying with u
    bad = AffineSolutionQ(d=np.zeros((2, 2)), r=np.array([25.0, 0.0]))
    report = verify_affine_q(MULTI, bad)
    assert not report.overall
    failed = {c.condition for c in report.checks if not c.passed}
    assert "active-rows-vanish" in failed


def test_verify_trivial_zero_rule():
    inst = UncertainLcpQ(m=np.array([[3.0, -1.0], [2.0, 5.0]]),
                         qbar=np.array([2.0, 1.5]),
                         ubar=np.array([1.0, 1.0]), h=0)
    zero = AffineSolutionQ(d=np.zeros((2, 2)), r=np.zeros(2))
    assert verify_affine_q(inst, zero).overall


def _check(report, condition):
    check, = [c for c in report.checks if c.condition == condition]
    return check


def test_verify_fails_an_overflowing_active_row():
    # row 0 of M r + qbar overflows, to NaN or +-inf by summation order;
    # both fail, though sampling is the only other check that sees it
    m = np.eye(4)
    m[0] = [1e308, -1e308, 1e308, -1e308]
    inst = UncertainLcpQ(m=m, qbar=np.array([0.0, -1.0, -1.0, -1.0]),
                         ubar=np.full(4, 1e-3), h=0)
    d = -np.eye(4)
    d[0] = [-1e-308, -1.0, 1.0, -1.0]
    sol = AffineSolutionQ(d=d, r=np.ones(4))
    with np.errstate(all="ignore"):
        report = verify_affine_q(inst, sol)
        assert sample_violation_q(inst, sol) > 1e200
    check = _check(report, "active-rows-vanish")
    assert not report.overall and not check.passed
    assert not np.isfinite(check.worst_value)


def test_verify_fails_a_nan_active_row():
    # NaN coefficients, set after validation, reach the reduction as NaN
    # whatever the summation order
    inst = replace(MULTI, m=MULTI.m.copy())
    inst.m[0, 1] = np.nan
    report = verify_affine_q(inst, SOL_1)
    check = _check(report, "active-rows-vanish")
    assert not report.overall and not check.passed
    assert np.isnan(check.worst_value)


def test_verify_active_rows_worst_point():
    # the first row with the largest residual; zeros, never -0.0, when
    # every support row vanishes
    check = _check(verify_affine_q(MULTI, SOL_1), "active-rows-vanish")
    assert check.worst_value == 0.0
    assert np.array_equal(check.worst_point, np.zeros(2))
    assert not np.any(np.signbit(check.worst_point))
    both = AffineSolutionQ(d=np.zeros((2, 2)), r=np.array([1.0, 1.0]))
    # M r + qbar = (-86, -19) with u-coefficients I: row 0 is worst, at
    # the vertex sign(-86) sign(coefficients) ubar
    check = _check(verify_affine_q(MULTI, both), "active-rows-vanish")
    assert check.worst_value == 86.0
    assert np.array_equal(check.worst_point, [-1.0, 0.0])


def test_active_rows_check_matches_the_row_loop():
    # reference: per support row max(|const|, max |coeff|), the first row
    # strictly above the running worst (from 0.0) winning
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        inst = _random_instance(rng, n, 0)
        r = np.where(rng.random(n) < 0.6, rng.uniform(0.5, 2.0, n), 0.0)
        d = np.where(rng.random((n, n)) < 0.5, rng.integers(-1, 2, (n, n)), 0.0)
        sol = AffineSolutionQ(d=d, r=r)
        coeff = inst.m @ sol.d + np.eye(n)
        const = inst.m @ sol.r + inst.qbar
        worst_val, worst_u = 0.0, np.zeros(n)
        for i in sol.support():
            resid = max(abs(const[i]), float(np.max(np.abs(coeff[i]))))
            if resid > worst_val:
                worst_val = resid
                worst_u = (1.0 if const[i] >= 0 else -1.0) * np.sign(coeff[i]) * inst.ubar
        check = _check(verify_affine_q(inst, sol), "active-rows-vanish")
        assert check.worst_value == worst_val
        assert check.worst_point.tobytes() == worst_u.tobytes()


def test_verify_structural_errors():
    with pytest.raises(ValueError, match="solution dimensions do not match the instance"):
        verify_affine_q(MULTI, AffineSolutionQ(d=np.zeros((3, 3)),
                                               r=np.zeros(3)))
    h1 = UncertainLcpQ(m=MULTI.m, qbar=MULTI.qbar, ubar=MULTI.ubar, h=1)
    with pytest.raises(ValueError):
        # first row must be zero when it is a here-and-now coordinate
        verify_affine_q(h1, SOL_1)
    # coordinate 0 is certain, and SOL_1 moves z_0 with u_0
    certain = UncertainLcpQ(m=MULTI.m, qbar=MULTI.qbar, ubar=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="columns of D on certain coordinates must be zero"):
        verify_affine_q(certain, SOL_1)


def test_char_system_examples():
    assert check_char_system(MULTI, SOL_1)
    bumped = AffineSolutionQ(d=SOL_1.d, r=np.array([26.0, 0.0]))
    assert not check_char_system(MULTI, bumped)
    zero = AffineSolutionQ(d=np.zeros((2, 2)), r=np.zeros(2))
    assert check_char_system(MULTI, zero)  # empty support, vacuous


def test_char_system_certain_coordinates():
    # K = {0, 1}, S = {1}: the certain support row 1 must not see u_0,
    # M[K&S, J] D[J, U] = D[1, 0] = 0, while the other blocks hold
    inst = UncertainLcpQ(m=np.eye(2), qbar=np.array([-1.0, -1.0]),
                         ubar=np.array([1.0, 0.0]), h=0)
    d = np.array([[-1.0, 0.0], [0.0, 0.0]])
    assert check_char_system(inst, AffineSolutionQ(d=d, r=np.ones(2)))
    d[1, 0] = 0.5
    assert not check_char_system(inst, AffineSolutionQ(d=d, r=np.ones(2)))


def test_enumeration_finds_both_listed_rules():
    sols = solve_enumeration(MULTI)
    hits = 0
    for sol in sols:
        for ref in (SOL_1, SOL_2):
            if (np.max(np.abs(sol.d - ref.d)) <= 1e-9
                    and np.max(np.abs(sol.r - ref.r)) <= 1e-9):
                hits += 1
    assert hits == 2
    for sol in sols:
        assert verify_affine_q(MULTI, sol).overall


def test_enumeration_empty_on_pd_nonexistence():
    assert solve_enumeration(NONE_PD) == []


def test_enumeration_contains_trivial_rule_when_q_dominates():
    inst = UncertainLcpQ(m=np.array([[0.0, 7.0], [-3.0, 2.0]]),
                         qbar=np.array([1.0, 1.0]),
                         ubar=np.array([1.0, 1.0]), h=0)
    sols = solve_enumeration(inst)
    assert any(np.all(s.r == 0.0) and np.all(s.d == 0.0) for s in sols)


def test_enumeration_requires_full_uncertainty():
    inst = UncertainLcpQ(m=np.eye(2), qbar=np.zeros(2),
                         ubar=np.array([1.0, 0.0]), h=0)
    with pytest.raises(ValueError):
        solve_enumeration(inst)


def test_enumeration_size_cap():
    n = 22
    inst = UncertainLcpQ(m=np.eye(n), qbar=np.zeros(n), ubar=np.ones(n), h=0)
    with pytest.raises(SizeLimitError):
        solve_enumeration(inst)


def test_default_big_m_formula():
    expected = 100.0 * (1.0 + 100.0 + 1.0) * (1.0 + 10.0)
    assert default_big_m(MULTI) == pytest.approx(expected)


def test_build_mip_row_count_hand_expanded():
    """n=1, h=0, one uncertain coordinate. By hand: one row tying r to
    its binary, two rows bracketing M r + q, two rows bracketing the
    rule row M D + I, two envelope rows on z, one row for the worst-case
    z sum, two envelope rows on M z + q, one worst-case row for it:
    11 rows over the 5 columns (x, r, d, a, c)."""
    inst = UncertainLcpQ(m=np.array([[2.0]]), qbar=np.array([-3.0]),
                         ubar=np.array([0.5]), h=0)
    prob, layout = build_mip(inst, 100.0)
    assert prob.lp.lhs.shape == (11, 5)
    assert np.array_equal(prob.binaries, layout.x)


def test_build_mip_pins_here_and_now_rows():
    inst = UncertainLcpQ(m=np.array([[2.0, 0.3], [0.1, 1.5]]),
                         qbar=np.array([1.0, 2.0]),
                         ubar=np.array([0.4, 0.4]), h=2)
    prob, layout = build_mip(inst, 50.0)
    for idx in layout.d.ravel():
        assert prob.lp.lower[idx] == 0.0
        assert prob.lp.upper[idx] == 0.0
    out = solve_mip_feasibility(prob)
    assert out.status == "feasible"  # constant r = 0 is robust here


def test_build_mip_rejects_a_nonpositive_big_m():
    for big_m in (0.0, -1.0):
        with pytest.raises(ValueError, match="big_m must be positive"):
            build_mip(MULTI, big_m)


@pytest.mark.parametrize("seed, regime", [(0, "pmatrix"), (10, "general")])
def test_mip_point_is_exactly_zero_on_its_pinned_columns(seed, regime):
    # the structural zeros of a mip rule (here-and-now row 0, certain
    # column 2) come from the bounds lower = upper = 0 alone: the found
    # point needs no cleanup there
    inst = parse_instance(generate_random("uncertain-q", 3, h=1, seed=seed, regime=regime))
    inst = UncertainLcpQ(inst.m, inst.qbar, np.array([*inst.ubar[:2], 0.0]), h=1)
    prob, lay = build_mip(inst, default_big_m(inst))
    out = solve_mip_feasibility(prob)
    assert out.status == "feasible"
    d = lay.extract(out.x).d
    assert np.all(d[0] == 0.0) and np.all(d[:, 2] == 0.0)
    assert solve_mip_q(inst).status == "solution"


def _build_mip_oracle(inst, big_m):
    """build_mip's LP written out row by row: per row i the binary link
    and the bracket on M_i r + qbar_i; per uncertain j and row i the
    bracketed rule row M_i . D_col_j = -delta_ij; then per row i the box
    envelopes, per uncertain j two rows on a_ij (for z_i) and two on c_ij
    (for (M z + q)_i), and last the two worst-case sums. Returns (lhs,
    senses, rhs, lower, upper, binaries)."""
    n, m, ub = inst.n, inst.m, inst.ubar
    u_set = inst.uncertain_set()
    ncols = 2 * n + 3 * n * n
    x_idx, r_idx = np.arange(n), n + np.arange(n)
    d_idx, a_idx, c_idx = (2 * n + k * n * n + np.arange(n * n).reshape(n, n)
                           for k in range(3))
    lower = np.full(ncols, -np.inf)
    upper = np.full(ncols, np.inf)
    lower[x_idx], upper[x_idx], lower[r_idx] = 0.0, 1.0, 0.0
    for grid in (d_idx, a_idx, c_idx):
        lower[grid[:, inst.certain_set()]] = upper[grid[:, inst.certain_set()]] = 0.0
    lower[d_idx[: inst.h]] = upper[d_idx[: inst.h]] = 0.0
    lhs, senses, rhs = [], [], []

    def add(cols, coefs, sense, b):
        row = np.zeros(ncols)
        row[np.asarray(cols, dtype=int)] = coefs
        lhs.append(row)
        senses.append(sense)
        rhs.append(float(b))

    for i in range(n):
        add([r_idx[i], x_idx[i]], [1.0, -big_m], "<=", 0.0)
        add(r_idx, m[i], ">=", -inst.qbar[i])
        add(np.append(r_idx, x_idx[i]), np.append(m[i], big_m), "<=",
            big_m - inst.qbar[i])
    for j in u_set:
        for i in range(n):
            cols = np.append(d_idx[:, j], x_idx[i])
            add(cols, np.append(m[i], big_m), "<=", big_m - float(i == j))
            add(cols, np.append(m[i], -big_m), ">=", -big_m - float(i == j))
    for i in range(n):
        for j in u_set:
            add([a_idx[i, j], d_idx[i, j]], [1.0, ub[j]], "<=", 0.0)
            add([a_idx[i, j], d_idx[i, j]], [1.0, -ub[j]], "<=", 0.0)
            cols = np.append(c_idx[i, j], d_idx[:, j])
            add(cols, np.append(1.0, ub[j] * m[i]), "<=", -float(i == j) * ub[j])
            add(cols, np.append(1.0, -ub[j] * m[i]), "<=", float(i == j) * ub[j])
        add(np.append(a_idx[i, u_set], r_idx[i]), np.ones(u_set.size + 1), ">=", 0.0)
        add(np.append(c_idx[i, u_set], r_idx), np.append(np.ones(u_set.size), m[i]),
            ">=", -inst.qbar[i])
    return np.array(lhs), senses, np.array(rhs), lower, upper, x_idx


def test_build_mip_matches_the_row_by_row_oracle():
    rng = np.random.default_rng(2031)
    shapes = set()
    for t in range(40):
        n = int(rng.integers(1, 6))
        inst = _random_instance(rng, n, int(rng.integers(0, n + 1)) if t % 2 else 0)
        if t % 3 == 1:
            inst = replace(inst, ubar=inst.ubar * (rng.random(n) < 0.5))
        elif t % 5 == 4:
            inst = replace(inst, ubar=np.zeros(n))
        shapes.add((inst.h > 0, inst.certain_set().size > 0,
                    inst.uncertain_set().size > 0))
        big_m = float(rng.uniform(10.0, 1000.0))
        prob, _ = build_mip(inst, big_m)
        lhs, senses, rhs, lower, upper, binaries = _build_mip_oracle(inst, big_m)
        assert np.array_equal(prob.lp.lhs, lhs)
        assert list(prob.lp.senses) == senses
        assert np.array_equal(prob.lp.rhs, rhs)
        assert np.array_equal(prob.lp.lower, lower)
        assert np.array_equal(prob.lp.upper, upper)
        assert np.array_equal(prob.binaries, binaries)
    # here-and-now rows, certain beside uncertain coordinates, empty U
    assert {(True, True, True), (False, True, True), (True, False, True),
            (False, False, True), (False, True, False)} <= shapes


def test_mip_solution_on_multi_instance_matches_enumeration():
    out = solve_mip_q(MULTI)
    assert out.status == "solution"
    assert out.verification.overall
    refs = solve_enumeration(MULTI)
    close = [np.max(np.abs(out.solution.d - s.d))
             + np.max(np.abs(out.solution.r - s.r)) for s in refs]
    assert min(close) <= 1e-6


def test_mip_nonexistence_with_exact_fallback():
    out = solve_mip_q(NONE_PD)
    assert out.status == "no-solution"
    assert out.certificate == "exact"
    assert out.fallback_used


# a certain coordinate blocks the enumeration fallback of the mip pathway
BLOCKED = UncertainLcpQ(m=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                        qbar=np.array([-1.0, -1.0]),
                        ubar=np.array([1.0, 0.0]), h=0)


def test_mip_nonexistence_big_m_caveat_without_fallback():
    # the verdict keeps the bounded big-M caveat
    out = solve_mip_q(BLOCKED)
    assert out.status == "no-solution"
    assert out.certificate == "big-M bounded"


def test_mip_builds_and_searches_once(monkeypatch):
    # one big-M, one search, whichever way the verdict goes
    calls = []

    def spy(name, fn):
        def traced(*args, **kwargs):
            calls.append((name, args[1] if name == "build_mip" else None))
            return fn(*args, **kwargs)
        monkeypatch.setattr(robust_q, name, traced)

    spy("build_mip", build_mip)
    spy("solve_mip_feasibility", solve_mip_feasibility)
    for inst, certificate in ((MULTI, "verified"), (NONE_PD, "exact"),
                              (BLOCKED, "big-M bounded")):
        calls.clear()
        out = solve_mip_q(inst)
        assert out.certificate == certificate
        assert calls == [("build_mip", default_big_m(inst)),
                         ("solve_mip_feasibility", None)]
        assert out.big_m_final == default_big_m(inst)


def test_mip_agrees_with_enumeration_on_small_random_instances():
    rng = np.random.default_rng(20)
    for trial in range(20):
        inst = _random_instance(rng, 3, 0)
        sols = solve_enumeration(inst)
        out = solve_mip_q(inst)
        assert (out.status == "solution") == bool(sols), f"trial {trial}"
        if out.status == "solution":
            assert verify_affine_q(inst, out.solution).overall


def test_psd_pathway_closed_form_identity_case():
    inst = UncertainLcpQ(m=np.eye(2), qbar=np.array([-5.0, -3.0]),
                         ubar=np.array([1.0, 1.0]), h=0)
    out = solve_psd(inst)
    assert out.status == "solution"
    assert out.solution.r == pytest.approx([5.0, 3.0], abs=1e-9)
    assert out.solution.d == pytest.approx(-np.eye(2), abs=1e-9)
    assert out.verification.overall


def test_psd_pathway_proves_nonexistence():
    out = solve_psd(NONE_PD)
    assert out.status == "no-solution"
    assert solve_enumeration(NONE_PD) == []


def test_psd_pathway_rejects_indefinite():
    with pytest.raises(ValueError):
        solve_psd(MULTI)


def test_numerical_trouble_is_a_typed_limit():
    # (qbar, ubar) times 1e-6 and M times 1e6: Lemke's point fails its own
    # recheck of M z + q, a limit of the solver rather than an input error
    inst = parse_instance(generate_random("uncertain-q", 3, seed=0, regime="psd"))
    scaled = UncertainLcpQ(m=1e6 * inst.m, qbar=1e-6 * inst.qbar,
                           ubar=1e-6 * inst.ubar, h=inst.h)
    with pytest.raises(NumericalError, match=r"pivoting produced M z \+ q with entry"):
        solve_psd(scaled)
    with pytest.raises(DispatchError) as err:
        dispatch_solve(scaled, SolveOptions(pathway="psd-lp"))
    assert err.value.is_limit and isinstance(err.value.cause, NumericalError)


def test_uniqueness_verdicts():
    assert uniqueness_check_psd(NONE_PD, solve_psd(NONE_PD)) == "unique-if-exists"
    # a zero half-width leaves the instance outside the verdict's class
    certain = UncertainLcpQ(m=np.eye(2), qbar=np.array([-1.0, -1.0]),
                            ubar=np.array([1.0, 0.0]), h=0)
    assert uniqueness_check_psd(certain, solve_psd(certain)) == "not-applicable"
    flat = UncertainLcpQ(m=np.zeros((1, 1)), qbar=np.zeros(1),
                         ubar=np.ones(1), h=0)
    assert uniqueness_check_psd(flat, solve_psd(flat)) == "multiple-nominal-no-aar"
    # nominal solutions (t, 0, 1), 0 <= t <= 1, on which rows 0 and 2 of
    # M z + q vanish and row 1 = 1 - t does not: from either end (at the
    # top no coordinate can rise) P and K leave a kernel of rank one
    seg = UncertainLcpQ(m=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0]]),
                        qbar=np.array([0.0, 1.0, -1.0]), ubar=np.ones(3))
    for end in ([1.0, 0.0, 1.0], [0.0, 0.0, 1.0]):
        end = np.array(end)
        p, k = compute_support_P(describe_solution_set(
            NominalLcp(seg.m, seg.qbar), end))
        assert np.array_equal(p, [0, 2]) and np.array_equal(k, [0, 2])
        outcome = PsdPathOutcome("no-solution", support_p=p, nominal=end,
                                 vanishing_rows=k)
        assert uniqueness_check_psd(seg, outcome) == "multiple-nominal-no-aar"
    assert uniqueness_check_psd(seg, solve_psd(seg)) == "multiple-nominal-no-aar"


def _psd_sweep_instances(seed=2026, count=60):
    """PSD M of every rank, a skew part on every third; on every second
    instance qbar = -M y with y >= 0, so y solves the nominal problem and
    a rank-deficient M leaves room for a non-singleton solution set. On
    every fourth, M is a singular block beside a positive definite one,
    shuffled, so that only some coordinates of P can move."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(2, 6))
        b = rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, n + 1))))
        m = b @ b.T
        if t % 4 == 2:
            k = int(rng.integers(1, n))
            b = rng.uniform(-1.0, 1.0, (n, n))
            b[:k, k - 1:] = 0.0  # rank k - 1 on the first k coordinates
            b[k:, :k] = 0.0
            perm = rng.permutation(n)
            m = (b @ b.T + np.diag([0.0] * k + [0.5] * (n - k)))[np.ix_(perm, perm)]
        if t % 3 == 0:
            c = rng.uniform(-1.0, 1.0, (n, n))
            m = m + 0.5 * (c - c.T)
        if t % 2 == 0:
            qbar = -m @ (rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.8))
        else:
            qbar = rng.uniform(-2.0, 0.5, n)
        out.append(UncertainLcpQ(m=m, qbar=qbar, ubar=rng.uniform(0.02, 0.3, n)))
    return out


def _low_rank_instances(seed=2028, count=40):
    """PSD M = B (I + S) B^T of rank below n, a skew part S on every
    second one, and qbar = w0 - M z0 with z0 a nominal solution: most
    nominal solution sets have more than one point."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(2, 6))
        m, qbar, _ = random_low_rank_psd_lcp(rng, n, skew=t % 2 == 1)
        out.append(UncertainLcpQ(m=m, qbar=qbar, ubar=rng.uniform(0.02, 0.3, n)))
    return out


def _uniqueness_all_coordinates(inst):
    """Minimize and maximize every coordinate over the nominal solution
    set; any move beyond TOL_SUPPORT from zbar means several points."""
    prob = NominalLcp(inst.m, inst.qbar)
    nominal = solve_lemke(prob)
    if nominal.status == "ray":
        return "unique-if-exists"
    zbar = nominal.solution.z
    skeleton = describe_solution_set(prob, zbar)
    for j in range(inst.n):
        for sense in (-1.0, 1.0):
            obj = np.zeros(inst.n)
            obj[j] = sense
            out = solve_lp(LinearProgram(obj, skeleton.lhs, skeleton.senses,
                                         skeleton.rhs, skeleton.lower,
                                         skeleton.upper))
            if out.status == "unbounded" or (
                    out.status == "optimal" and abs(out.x[j] - zbar[j]) > TOL_SUPPORT):
                return "multiple-nominal-no-aar"
    return "unique-if-exists"


def test_uniqueness_over_p_matches_the_all_coordinate_sweep():
    verdicts = []
    sweep, low_rank = _psd_sweep_instances(), _low_rank_instances()
    for inst in sweep + low_rank:
        out = solve_psd(inst)
        verdict = uniqueness_check_psd(inst, out)
        assert verdict == _uniqueness_all_coordinates(inst)
        if verdict == "multiple-nominal-no-aar":
            assert out.status == "no-solution"
            assert solve_enumeration(inst) == []
        verdicts.append((verdict, out.status))
    # the sweep reaches every verdict the PSD pathway can pair
    assert {("multiple-nominal-no-aar", "no-solution"),
            ("unique-if-exists", "no-solution"),
            ("unique-if-exists", "solution")} <= set(verdicts)
    multiple = ("multiple-nominal-no-aar", "no-solution")
    assert verdicts[:len(sweep)].count(multiple) >= 5
    assert verdicts[len(sweep):].count(multiple) >= 20


def test_uniqueness_reuses_the_psd_outcome(monkeypatch):
    # the sweep plus a nominal set that is a half-line and one whose only
    # solution is zero (P empty)
    insts = _psd_sweep_instances(count=24) + [
        UncertainLcpQ(m=np.zeros((1, 1)), qbar=np.zeros(1), ubar=np.ones(1)),
        UncertainLcpQ(m=np.eye(2), qbar=np.ones(2), ubar=np.ones(2))]
    outs = [solve_psd(inst) for inst in insts]
    verdicts = [uniqueness_check_psd(inst, out) for inst, out in zip(insts, outs)]

    def refuse(*args, **kwargs):
        raise AssertionError("the outcome already holds P and K, and the "
                             "rank test solves no LP")

    monkeypatch.setattr(robust_q, "solve_lemke", refuse)
    monkeypatch.setattr(robust_q, "compute_support_P", refuse)
    monkeypatch.setattr(robust_q, "solve_lp", refuse)
    monkeypatch.setattr(robust_q, "check_feasibility", refuse)
    monkeypatch.setattr(lcp, "solve_lp", refuse)
    cases = set()
    for inst, out, verdict in zip(insts, outs, verdicts):
        assert uniqueness_check_psd(inst, out) == verdict
        if out.nominal is None:
            continue
        if out.support_p.size == 0:
            cases.add("P empty")
            assert verdict == "unique-if-exists"
        elif verdict == "multiple-nominal-no-aar":
            cases.add("rank deficient")
        else:
            cases.add("full rank")
    assert cases == {"P empty", "rank deficient", "full rank"}


def _count_psd_dispatch(monkeypatch, inst):
    """dispatch_solve on inst with its nominal-set work counted: LPs of
    robust_q and of the support-P sweep, describe_solution_set, and
    eigenvalue decompositions (each linalg.is_psd or
    is_positive_definite call makes one)."""
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    describe = counted("describe", lcp.describe_solution_set)
    for module in (lcp, robust_q):
        monkeypatch.setattr(module, "describe_solution_set", describe)
    monkeypatch.setattr(robust_q, "solve_lp", counted("lp", robust_q.solve_lp))
    monkeypatch.setattr(lcp, "solve_lp", counted("support lp", lcp.solve_lp))
    monkeypatch.setattr(linalg, "symmetric_eigenvalues",
                        counted("eig", linalg.symmetric_eigenvalues))
    report = dispatch_solve(inst)
    assert (report.pathway, report.status) == ("psd-lp", "solution")
    # a one-point nominal set: the uniqueness check reaches its rank test
    assert report.uniqueness == "unique-if-exists"
    assert calls.count("lp") == 0  # the uniqueness check is a rank test
    return calls


def test_psd_dispatch_states_the_nominal_set_once(monkeypatch):
    # positive definite and strictly complementary: Lemke's zbar gives P,
    # K and the one candidate rule, with no LP and no solution-set
    # description; M is decomposed by auto_pathway and once by solve_psd
    inst = UncertainLcpQ(m=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         qbar=np.array([-3.0, -3.0]), ubar=np.array([0.1, 0.1]))
    calls = _count_psd_dispatch(monkeypatch, inst)
    assert calls.count("support lp") == 0
    assert calls.count("describe") == 0
    assert calls.count("eig") == 2


def test_psd_singular_dispatch_states_the_nominal_set_once(monkeypatch):
    # positive semidefinite and singular: the LP route finds P and K with
    # one LP over the one solution-set description, whose input guard
    # decomposes M a third time
    inst = UncertainLcpQ(m=np.array([[1.0, 0.0], [0.0, 0.0]]),
                         qbar=np.array([-1.0, 1.0]), ubar=np.array([0.1, 0.1]))
    calls = _count_psd_dispatch(monkeypatch, inst)
    assert calls.count("support lp") == 1
    assert calls.count("describe") == 1
    assert calls.count("eig") == 3


def _psd_lp_oracle(inst, zbar, p_set):
    """The psd-lp LP with D among its variables: r in the nominal
    solution set, D pinned to zero off (P minus here-and-now rows) x U,
    M_i . D_col_j = -delta_ij on P x U, and envelope variables a (P x U)
    for z_P(u) >= 0 and c (L x U) for (M z(u) + q(u))_L >= 0. Returns
    the status solve_psd should report."""
    n, m, ub = inst.n, inst.m, inst.ubar
    l_set = np.setdiff1d(np.arange(n), p_set)
    u_set = inst.uncertain_set()
    na, nc = p_set.size * u_set.size, l_set.size * u_set.size
    ncols = n + n * n + na + nc
    r_idx = np.arange(n)
    d_idx = (n + np.arange(n * n)).reshape(n, n)
    a_idx = (n + n * n + np.arange(na)).reshape(p_set.size, u_set.size)
    c_idx = (n + n * n + na + np.arange(nc)).reshape(l_set.size, u_set.size)
    lower = np.full(ncols, -np.inf)
    upper = np.full(ncols, np.inf)
    lower[r_idx] = 0.0
    dead = np.zeros((n, n), dtype=bool)
    dead[l_set, :] = True
    dead[: inst.h, :] = True
    dead[:, inst.certain_set()] = True
    lower[d_idx[dead]] = 0.0
    upper[d_idx[dead]] = 0.0
    lhs, senses, rhs = [], [], []

    def add(cols, coefs, sense, b):
        row = np.zeros(ncols)
        row[np.asarray(cols, dtype=int)] = coefs
        lhs.append(row)
        senses.append(sense)
        rhs.append(float(b))

    sym = m + m.T
    for i in range(n):
        add(r_idx, m[i], ">=", -inst.qbar[i])
    add(r_idx, inst.qbar, "=", inst.qbar @ zbar)
    for i in range(n):
        add(r_idx, sym[i], "=", sym[i] @ zbar)
    for i in p_set:
        for j in u_set:
            add(d_idx[:, j], m[i], "=", -float(i == j))
    if u_set.size:
        for pi, i in enumerate(p_set):
            for uj, j in enumerate(u_set):
                add([a_idx[pi, uj], d_idx[i, j]], [1.0, ub[j]], "<=", 0.0)
                add([a_idx[pi, uj], d_idx[i, j]], [1.0, -ub[j]], "<=", 0.0)
            add(np.append(a_idx[pi], i), np.ones(u_set.size + 1), ">=", 0.0)
        for li, i in enumerate(l_set):
            for uj, j in enumerate(u_set):
                cols = np.append(c_idx[li, uj], d_idx[:, j])
                add(cols, np.append(1.0, ub[j] * m[i]), "<=", -float(i == j) * ub[j])
                add(cols, np.append(1.0, -ub[j] * m[i]), "<=", float(i == j) * ub[j])
            add(np.append(c_idx[li], r_idx), np.append(np.ones(u_set.size), m[i]),
                ">=", -inst.qbar[i])
    out = check_feasibility(LinearProgram(np.zeros(ncols), np.array(lhs), senses,
                                          np.array(rhs), lower, upper))
    return "solution" if out.status == "optimal" else "no-solution"


def _psd_variants(seed=2027):
    """Per sweep instance three variants that leave the square block:
    here-and-now rows and certain coordinates at random; the nominal
    support P made certain, with the first coordinate here-and-now on
    every second one (M[P, A] rectangular or singular, E[P, U] = 0);
    and, on half of them, a shuffled extra coordinate with a zero
    diagonal and a skew coupling, so that the kernel of M[P, A] can move
    rows of M z + q outside P."""
    rng = np.random.default_rng(seed)
    out = []
    for t, inst in enumerate(_psd_sweep_instances()):
        n = inst.n
        out.append(UncertainLcpQ(m=inst.m, qbar=inst.qbar, h=int(rng.integers(1, n)),
                                 ubar=inst.ubar * (rng.random(n) < 0.6)))
        prob = NominalLcp(inst.m, inst.qbar)
        nominal = solve_lemke(prob)
        if nominal.status == "solution":
            ubar = inst.ubar.copy()
            nominal_set = describe_solution_set(prob, nominal.solution.z)
            ubar[compute_support_P(nominal_set)[0]] = 0.0
            out.append(UncertainLcpQ(m=inst.m, qbar=inst.qbar, ubar=ubar, h=t % 2))
        if t % 2:
            continue
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = inst.m
        c = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.5)
        m[n, :n], m[:n, n] = c, -c
        qbar = np.append(inst.qbar, 0.0 if rng.random() < 0.7 else 0.3)
        ubar = np.append(inst.ubar, 0.0 if rng.random() < 0.7 else 0.1)
        perm = rng.permutation(n + 1)
        out.append(UncertainLcpQ(m=m[np.ix_(perm, perm)], qbar=qbar[perm],
                                 ubar=ubar[perm]))
    return out


def test_psd_lp_matches_the_lp_over_d(monkeypatch):
    """solve_psd finds D by linear algebra; the LP that kept D among its
    variables must give the same status on every branch."""
    blocks = []
    pinned = robust_q._pinned_block

    def spy(m_pa, e):
        out = pinned(m_pa, e)
        blocks.append((m_pa.shape, out))
        return out

    monkeypatch.setattr(robust_q, "_pinned_block", spy)
    branches = []
    for inst in _psd_sweep_instances() + _psd_variants():
        blocks.clear()
        out = solve_psd(inst)
        if out.nominal is None:
            continue  # a ray: no nominal solution, neither LP is built
        assert out.status == _psd_lp_oracle(inst, out.nominal, out.support_p)
        if out.status == "solution":
            assert verify_affine_q(inst, out.solution).overall
            assert sample_violation_q(inst, out.solution) <= 1e-7
        ((rows, cols), block), = blocks
        if block is None:
            branches.append(("inconsistent", out.status))
        elif rows == cols and block[1].shape[1] == 0:
            branches.append(("square nonsingular", out.status))
        else:
            moved = np.any(inst.m[np.ix_(out.support_l, out.support_p[
                out.support_p >= inst.h])] @ block[1] != 0.0)
            branches.append(("kernel moves M z + q" if moved
                             else "kernel or rectangular", out.status))
    assert branches.count(("inconsistent", "no-solution")) >= 5
    assert branches.count(("square nonsingular", "solution")) >= 5
    assert branches.count(("square nonsingular", "no-solution")) >= 5
    assert (branches.count(("kernel or rectangular", "solution"))
            + branches.count(("kernel moves M z + q", "solution"))) >= 5
    assert ("kernel moves M z + q", "solution") in branches
    assert ("kernel moves M z + q", "no-solution") in branches



def test_pinned_block_square_nonsingular_matches_solve():
    rng = np.random.default_rng(5)
    for size in range(1, 11):
        m_pa = rng.normal(size=(size, size)) + size * np.eye(size)
        e = (rng.random((size, 3)) < 0.5).astype(float)
        x0, kernel = robust_q._pinned_block(m_pa, e)
        ref = -np.linalg.solve(m_pa, e)
        assert np.max(np.abs(x0 - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert kernel.shape == (size, 0)


def test_pinned_block_singular_consistent_returns_a_kernel():
    # row 2 = row 0 + row 1 and e obeys the same relation: a line of
    # solutions along the kernel direction (1, 1, -1)
    m_pa = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    e = np.array([[1.0], [2.0], [3.0]])
    x0, kernel = robust_q._pinned_block(m_pa, e)
    assert kernel.shape == (3, 1)
    assert np.allclose(m_pa @ kernel, 0.0, atol=1e-12)
    assert np.allclose(np.abs(kernel[:, 0]), 1.0 / np.sqrt(3.0))
    t = np.array([[0.7]])
    assert np.allclose(m_pa @ (x0 + kernel @ t), -e, atol=1e-12)


def test_pinned_block_inconsistent_is_none():
    m_pa = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert robust_q._pinned_block(m_pa, np.array([[1.0], [0.0]])) is None
    # more rows than columns: e outside the range of a full-rank block
    assert robust_q._pinned_block(np.array([[1.0], [1.0]]),
                                  np.array([[1.0], [0.0]])) is None


def test_pinned_block_empty():
    x0, kernel = robust_q._pinned_block(np.zeros((0, 0)), np.zeros((0, 2)))
    assert x0.shape == (0, 2) and kernel.shape == (0, 0)


def _planted_psd(rng, n, support, rank=None):
    """M with qbar planted so that the rule with D[K, K] = -inv(M[K, K])
    and r_K above its envelope solves the instance with margin; the rule
    is unique. M is positive definite, or with rank >= support the PSD
    B B^T for an n x rank B, whose block M[K, K] stays nonsingular."""
    if rank is None:
        m = random_psd_matrix(rng, n, ridge=1.0)
    else:
        b = rng.uniform(-1.0, 1.0, (n, rank))
        m = b @ b.T
    ubar = rng.uniform(0.05, 0.3, n)
    k = np.sort(rng.choice(n, size=support, replace=False))
    rest = np.setdiff1d(np.arange(n), k)
    inv = np.linalg.inv(m[np.ix_(k, k)])
    r = np.zeros(n)
    r[k] = np.abs(inv) @ ubar[k] + rng.uniform(0.5, 1.5, k.size)
    g = m[np.ix_(rest, k)] @ inv
    qbar = -m[:, k] @ r[k]
    qbar[rest] += ubar[rest] + np.abs(g) @ ubar[k] + rng.uniform(0.5, 1.5, rest.size)
    d = np.zeros((n, n))
    d[np.ix_(k, k)] = -inv
    return UncertainLcpQ(m=m, qbar=qbar, ubar=ubar), d, r


def test_psd_lp_is_an_lp_in_r_alone(monkeypatch):
    """With M[P, A] square and nonsingular the LP has the n columns of r
    and the 2n + 1 rows of the nominal solution set (M of rank 20 at
    n = 30); a positive definite M needs no LP at all. Both planted rules
    at n = 30 come back quickly."""
    lps = []
    monkeypatch.setattr(robust_q, "check_feasibility",
                        lambda lp: lps.append(lp) or check_feasibility(lp))
    for rank, lp_count in ((20, 1), (None, 0)):
        inst, d, r = _planted_psd(np.random.default_rng(30), 30, 12, rank)
        lam = linalg.symmetric_eigenvalues(inst.m)[0]
        assert abs(lam) <= 1e-9 if rank else lam > 0.5
        lps.clear()
        out = solve_psd(inst)
        assert out.status == "solution"
        assert np.array_equal(out.support_p, np.flatnonzero(r))
        assert len(lps) == lp_count
        if lps:
            assert lps[0].lhs.shape == (2 * inst.n + 1, inst.n)
        assert np.allclose(out.solution.d, d, atol=1e-9)
        assert np.allclose(out.solution.r, r, atol=1e-9)


def _lp_route(monkeypatch, inst):
    """solve_psd forced to find P and K with compute_support_P."""
    with monkeypatch.context() as patch:
        patch.setattr(robust_q, "_strict_support", lambda *args: None)
        return solve_psd(inst)


def _route_instances(seed=2029):
    """(kind, instance): positive definite M, random and planted, many
    with here-and-now rows or certain coordinates; positive definite M
    with a planted degenerate coordinate (zbar_i = w_i = 0); and
    PSD-singular M."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(240):
        n = int(rng.integers(2, 7))
        h = int(rng.integers(1, n)) if t % 5 < 2 else 0
        ubar = rng.uniform(0.02, 0.3, n) * (rng.random(n) < 0.8 if t % 7 == 0 else 1.0)
        kind = ("planted", "random", "planted", "random", "degenerate", "singular")[t % 6]
        if kind == "planted":
            planted = _planted_psd(rng, n, int(rng.integers(0, n + 1)))[0]
            m, qbar, ubar = planted.m, planted.qbar, planted.ubar
        elif kind == "singular":
            m, qbar, _ = random_low_rank_psd_lcp(rng, n, skew=t % 4 == 1)
        else:
            m = random_psd_matrix(rng, n, ridge=float(rng.uniform(0.05, 1.0)))
        if kind == "random":
            c = rng.uniform(-1.0, 1.0, (n, n))
            m = m + 0.5 * (c - c.T)
            qbar = rng.uniform(-2.0, 1.0, n)
        if kind == "degenerate":
            z0 = rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.5)
            w0 = rng.uniform(0.2, 1.0, n) * (z0 == 0.0)
            i = int(rng.integers(n))
            z0[i] = w0[i] = 0.0  # zbar_i = w_i = 0
            qbar = w0 - m @ z0
        out.append((kind, UncertainLcpQ(m=m, qbar=qbar, ubar=ubar, h=h)))
    return out


def test_positive_definite_route_agrees_with_the_lp_route(monkeypatch):
    """solve_psd with P and K from a strictly complementary zbar, for
    positive definite M, against the same instance with P and K from
    compute_support_P: status, P, K and the rule within 1e-9. Degenerate
    and PSD-singular instances must find P and K by the LP."""
    support_lp = robust_q.compute_support_P
    routes = []
    monkeypatch.setattr(robust_q, "compute_support_P",
                        lambda *args: routes.append("lp") or support_lp(*args))
    seen, instances = set(), _route_instances()
    assert len(instances) >= 200
    for kind, inst in instances:
        routes.clear()
        out = solve_psd(inst)
        route = "lp" if routes else "pd"
        ref = _lp_route(monkeypatch, inst)
        if ref.nominal is None:
            assert out.status == "no-solution" and out.nominal is None
            continue
        if kind in ("degenerate", "singular"):
            assert route == "lp", kind
        seen.add((kind, route, out.status, inst.h > 0))
        assert out.status == ref.status, kind
        assert np.array_equal(out.support_p, ref.support_p)
        assert np.array_equal(out.vanishing_rows, ref.vanishing_rows)
        if out.status == "solution":
            assert np.allclose(out.solution.d, ref.solution.d, rtol=0.0, atol=1e-9)
            assert np.allclose(out.solution.r, ref.solution.r, rtol=0.0, atol=1e-9)
    assert {("random", "pd", "solution"), ("random", "pd", "no-solution"),
            ("planted", "pd", "solution"), ("planted", "pd", "no-solution")
            } <= {s[:3] for s in seen}
    assert any(s[1:] == ("pd", "solution", True) for s in seen)  # with h > 0
    assert {("degenerate", "lp"), ("singular", "lp")} <= {s[:2] for s in seen}


def test_positive_definite_block_with_a_numerical_kernel_takes_the_lp_route(monkeypatch):
    # all-ones plus 2e-9 I on P (30 coordinates, all certain) beside one
    # uncertain coordinate with w > 0: M is positive definite past TOL_PD
    # and zbar strictly complementary, yet the SVD of M[P, P] (singular
    # values 30 and 2e-9) finds a kernel at TOL_RANK, and E[P, U] = 0
    # lies in its range, so the candidate is not unique numerically. P
    # and K stay those of zbar and one envelope LP decides r; its point
    # fails verification on this ill-conditioned block, a limit
    n = 31
    m = np.eye(n)
    m[:30, :30] = np.ones((30, 30)) + 2e-9 * np.eye(30)
    qbar = np.append(-m[:30, :30] @ np.linspace(1.0, 2.0, 30), 1.0)
    inst = UncertainLcpQ(m=m, qbar=qbar, ubar=np.append(np.zeros(30), 0.1))
    calls = []
    for name in ("compute_support_P", "check_feasibility"):
        fn = getattr(robust_q, name)
        monkeypatch.setattr(robust_q, name,
                            lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    with pytest.raises(DispatchError) as err:
        dispatch_solve(inst)
    assert err.value.is_limit
    assert "psd pathway produced a point that fails verification" in str(err.value)
    assert calls == ["check_feasibility"]


def _strictly_complementary_psd():
    """(PSD LCP as an UncertainLcpQ, Lemke's zbar, P by _strict_support)
    for every draw whose zbar is strictly complementary: PSD-singular
    low-rank LCPs, skew every other draw, and the LCPs of PSD markets."""
    rng = np.random.default_rng(0)
    insts = []
    for t in range(2000):
        m, qbar, _ = random_low_rank_psd_lcp(rng, 2 + t % 6, skew=t % 2 == 1)
        insts.append(UncertainLcpQ(m=m, qbar=qbar, ubar=np.zeros(m.shape[0])))
    for n, k, seed in itertools.product(range(2, 7), (1, 2), range(20)):
        market = parse_instance(generate_random("market", n, k=k, seed=seed, regime="psd"))
        insts.append(build_lcp(market)[0])
    for inst in insts:
        nominal = solve_lemke(NominalLcp(inst.m, inst.qbar))
        if nominal.status == "solution":
            p_set = robust_q._strict_support(inst, nominal.solution.z)
            if p_set is not None:
                yield inst, nominal.solution.z, p_set


def test_strictly_complementary_zbar_gives_the_support_of_the_solution_set():
    """For PSD M any two solutions have z1.w2 = z2.w1 = 0, so a strictly
    complementary zbar fixes P = K = {i : zbar_i > 0}, singular M (every
    draw here) included: the LP of compute_support_P over the whole
    solution set agrees."""
    count = 0
    for inst, zbar, p_set in _strictly_complementary_psd():
        count += 1
        nominal_set = describe_solution_set(NominalLcp(inst.m, inst.qbar), zbar)
        got_p, got_k = compute_support_P(nominal_set)
        assert np.array_equal(got_p, p_set) and np.array_equal(got_k, p_set)
    assert count >= 400  # 285 low-rank draws and all 200 markets


def test_psd_enumeration_returns_at_most_one_with_inverse_block():
    # positive definite data: the enumeration list has at most one rule
    # and its D is the negated block inverse on the support
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(15):
        n = int(rng.integers(2, 6))
        inst = UncertainLcpQ(m=random_psd_matrix(rng, n),
                             qbar=rng.uniform(-4.0, 2.0, n).round(2),
                             ubar=rng.uniform(0.1, 0.8, n).round(2), h=0)
        sols = solve_enumeration(inst)
        assert len(sols) <= 1
        if sols:
            found += 1
            sol = sols[0]
            k = sol.support()
            inv = np.linalg.inv(inst.m[np.ix_(k, k)])
            assert sol.d[np.ix_(k, k)] == pytest.approx(-inv, abs=1e-8)
            mask = np.ones((n, n), dtype=bool)
            mask[np.ix_(k, k)] = False
            assert np.all(sol.d[mask] == 0.0)
    assert found >= 3


def test_solutions_solve_nominal_problem_and_zero_inactive_rows():
    rng = np.random.default_rng(22)
    for _ in range(15):
        inst = _random_instance(rng, int(rng.integers(2, 5)), 0)
        for sol in solve_enumeration(inst):
            zneg, wneg, comp = lcp_residuals(NominalLcp(inst.m, inst.qbar),
                                             sol.r)
            assert zneg >= -1e-9 and wneg >= -1e-8 and comp <= 1e-7
            for i in np.flatnonzero(sol.r <= 1e-7):
                assert np.all(sol.d[i] == 0.0)


def test_sampling_never_beats_analytic_verification():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = _random_instance(rng, int(rng.integers(2, 5)), 0)
        for sol in solve_enumeration(inst):
            assert sample_violation_q(inst, sol, count=1000) <= 1e-7


def test_here_and_now_split_respected():
    rng = np.random.default_rng(24)
    for _ in range(10):
        inst = _random_instance(rng, 4, 1)
        for sol in solve_enumeration(inst):
            assert np.all(sol.d[0] == 0.0)  # first row is here-and-now
            assert verify_affine_q(inst, sol).overall
