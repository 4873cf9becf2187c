import itertools
import json

import numpy as np
import pytest

from aarlcp import (DispatchError, SizeLimitError, boxopt, dispatch_solve, linalg,
                    robust_m, serialize_instance)
from aarlcp.boxopt import BoxBudgetError
from aarlcp.cli import main
from aarlcp.robust_m import (AffineSolutionM, UncertainLcpM,
                             characterize_for_J, check_box_conditions,
                             check_kernel_condition, mtilde,
                             sample_violation_m, solve_enumeration_m,
                             solve_enumeration_m_detailed, uniqueness_m,
                             verify_affine_m)
from aarlcp.tolerances import TOL_FEAS, TOL_SUPPORT
from conftest import worked_m_with_row

# worked instance: one perturbation direction in the top-right entry
INST = UncertainLcpM(m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
                     perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                     q=np.array([-8.0, -16.0]), h=0)
SOL = AffineSolutionM(d=np.array([[-1.0], [0.0]]), r=np.array([1.0, 4.0]))


def test_instance_validation():
    with pytest.raises(ValueError):
        UncertainLcpM(m0=np.eye(2), perturbations=[], q=np.zeros(2), h=0)
    with pytest.raises(ValueError):
        UncertainLcpM(m0=np.eye(2), perturbations=[np.eye(3)],
                      q=np.zeros(2), h=0)
    with pytest.raises(ValueError):
        UncertainLcpM(m0=np.eye(2), perturbations=[np.eye(2)],
                      q=np.zeros(2), h=5)


def test_matrix_at():
    assert INST.matrix_at(np.array([0.5])) == pytest.approx(
        np.array([[4.0, 1.5], [0.0, 4.0]]))


def _active_rows_vanish(inst, sol):
    """verify_affine_m's check that the support rows of M(zeta) z(zeta)
    + q vanish as a polynomial in zeta."""
    check, = [c for c in verify_affine_m(inst, sol).checks
              if c.condition == "active-rows-vanish"]
    return check


def test_necessary_conditions_hold_on_worked_solution():
    assert _active_rows_vanish(INST, SOL).passed


def test_necessary_conditions_catch_wrong_r():
    bad = AffineSolutionM(d=SOL.d, r=np.array([1.0, 5.0]))
    assert not _active_rows_vanish(INST, bad).passed


def test_necessary_conditions_vacuous_on_empty_support():
    zero = AffineSolutionM(d=np.zeros((2, 1)), r=np.zeros(2))
    assert _active_rows_vanish(INST, zero).passed


def test_characterize_full_support():
    cand = characterize_for_J(INST, np.array([0, 1]))
    assert cand.r == pytest.approx([1.0, 4.0], abs=1e-12)
    assert cand.d == pytest.approx(np.array([[-1.0], [0.0]]), abs=1e-12)


def test_characterize_empty_support_is_zero():
    cand = characterize_for_J(INST, np.array([], dtype=int))
    assert np.all(cand.r == 0.0) and np.all(cand.d == 0.0)


def test_characterize_singular_block_flagged():
    inst = UncertainLcpM(m0=np.array([[0.0, 0.0], [1.0, 1.0]]),
                         perturbations=[np.zeros((2, 2))],
                         q=np.array([-1.0, -1.0]), h=0)
    assert characterize_for_J(inst, np.array([0])) is None
    assert characterize_for_J(inst, np.array([0, 1])) is None


def test_mtilde_value():
    got = mtilde(INST, np.array([0, 1]), 0)
    assert got == pytest.approx(np.array([[0.0, 1.0 / 16.0], [0.0, 0.0]]),
                                abs=1e-12)


def test_kernel_condition_direct_substitution():
    j = np.array([0, 1])
    assert check_kernel_condition(INST, j, characterize_for_J(INST, j))
    # independent arithmetic: P^1_J mtilde q must vanish (k=1 case)
    resid = INST.perturbations[0] @ (mtilde(INST, j, 0) @ INST.q)
    assert np.max(np.abs(2.0 * resid)) <= 1e-12


def test_kernel_condition_trivial_when_perturbation_zero():
    inst = UncertainLcpM(m0=np.array([[2.0, 0.5], [0.1, 3.0]]),
                         perturbations=[np.zeros((2, 2))],
                         q=np.array([-1.0, -2.0]), h=0)
    j = np.array([0, 1])
    assert check_kernel_condition(inst, j, characterize_for_J(inst, j))


def test_kernel_condition_variant_q():
    # same matrices, different q: still passes because the composite
    # matrix is identically zero here, so any q is in its kernel
    inst = UncertainLcpM(m0=INST.m0, perturbations=INST.perturbations,
                         q=np.array([-8.0, -15.0]), h=0)
    j = np.array([0, 1])
    cand = characterize_for_J(inst, j)
    assert check_kernel_condition(inst, j, cand)
    assert cand.r == pytest.approx([17.0 / 16.0, 15.0 / 4.0], abs=1e-12)


def test_kernel_condition_reads_the_candidate_polynomial():
    # D = P q = (-2, -1), so the zeta^2 coefficients P D = (-1, -2) of
    # the support rows survive
    inst = UncertainLcpM(m0=np.eye(2),
                         perturbations=[np.array([[0.0, 1.0], [1.0, 0.0]])],
                         q=np.array([-1.0, -2.0]), h=0)
    j = np.array([0, 1])
    cand = characterize_for_J(inst, j)
    assert not check_kernel_condition(inst, j, cand)


def test_box_conditions_pass_on_worked_instance():
    cand = characterize_for_J(INST, np.array([0, 1]))
    report = check_box_conditions(INST, np.array([0, 1]), cand)
    assert report.overall and report.certified


def _overflow_case(tmp_path):
    """The worked example plus a third row whose perturbation entry sits
    near the float max: w_3(zeta) = 1 + 1e308 zeta (1 - zeta), whose
    minimum 1 - 2e308 at zeta = -1 overflows. Returns
    the instance, the worked rule padded with a zero row, and the paths
    of both written out."""
    inst = UncertainLcpM(
        m0=np.array([[4.0, 1.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
        perturbations=[np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                 [1e308, 0.0, 0.0]])],
        q=np.array([-8.0, -16.0, 1.0]), h=0)
    sol = AffineSolutionM(d=np.array([[-1.0], [0.0], [0.0]]),
                          r=np.array([1.0, 4.0, 0.0]))
    inst_path = tmp_path / "inst.txt"
    sol_path = tmp_path / "sol.txt"
    inst_path.write_text(serialize_instance(inst))
    sol_path.write_text(serialize_instance(sol))
    return inst, sol, str(inst_path), str(sol_path)


def test_overflowing_off_support_row_fails(tmp_path, capsys):
    inst, sol, inst_path, sol_path = _overflow_case(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not verify_affine_m(inst, sol).overall
        assert not check_box_conditions(inst, np.array([0, 1]), sol).overall
        assert main(["verify", inst_path, sol_path]) == 1
    assert "NOT verified" in capsys.readouterr().out


def test_json_output_is_strict_on_overflow(tmp_path, capsys):
    # the overflowed worst value prints as null, never as a bare NaN or
    # Infinity token that strict parsers reject
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    _, _, inst_path, sol_path = _overflow_case(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--json", inst_path, sol_path]) == 1
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        worst = [c["worst_value"] for c in out["checks"]]
        assert None in worst and not out["overall"]
        main(["solve", "--json", inst_path])
        json.loads(capsys.readouterr().out, parse_constant=refuse)


# (s, a, c1, q3) of rules whose off-support row has its minimum 0 just
# above the sweep's floor, on a set of positive dimension
FLAT_ROWS = {
    # (2 + 2 zeta_1)(1 + zeta_2 / 2): q_3 = 0 and an entry M_31(zeta)
    # whose range [0, 4] touches 0; zero on the face zeta_1 = -1
    "bilinear": ((0.0, -0.5, 0.0), (2.0, 0.0, 0.0), 2.0, 0.0),
    # (s . zeta - 0.1)^2, zero on a plane through the box
    "rank-one": ((0.15, -0.35, 0.25), (-0.15, 0.35, -0.25), -0.8, 0.81),
}


@pytest.mark.parametrize("name", sorted(FLAT_ROWS))
def test_rule_whose_row_is_flat_at_zero_is_found_at_k3(name):
    s = FLAT_ROWS[name][0]
    inst = worked_m_with_row(*FLAT_ROWS[name])
    sols = solve_enumeration_m(inst)
    assert len(sols) == 1
    assert sols[0].r.tolist() == [1.0, 4.0, 0.0]
    assert sols[0].d[0].tolist() == [-x for x in s]
    report = verify_affine_m(inst, sols[0])
    assert report.overall and report.certified


def test_rule_with_an_indefinite_row_certifies_at_k16(monkeypatch):
    # the third row (c1 + a . zeta)(1 - s . zeta) has its minimum 0 at a
    # vertex; the whole box does not decide it, so the branch and bound
    # halves it before the rule is proved
    s = [(-1.0) ** i / 32 for i in range(16)]
    a = [0.1 * (1 + i % 3) for i in range(16)]
    inst = worked_m_with_row(s, a, float(np.sum(a)), 0.0)
    sols = solve_enumeration_m(inst)
    assert len(sols) == 1
    assert sols[0].r.tolist() == [1.0, 4.0, 0.0]
    assert sols[0].d[0] == pytest.approx([-x for x in s], abs=1e-15)
    report = verify_affine_m(inst, sols[0])
    assert report.overall and report.certified
    monkeypatch.setattr(boxopt, "BOX_BUDGET", 0)
    assert not verify_affine_m(inst, sols[0]).certified


def test_undecided_box_check_is_a_limit(tmp_path, monkeypatch, capsys):
    # with no box beyond the whole one, the third row stays undecided: the
    # sweep stops rather than report the rule, and verify exits 4
    inst = worked_m_with_row(*FLAT_ROWS["bilinear"])
    sol = solve_enumeration_m(inst)[0]
    inst_path, sol_path = tmp_path / "inst.txt", tmp_path / "sol.txt"
    inst_path.write_text(serialize_instance(inst))
    sol_path.write_text(serialize_instance(sol))
    monkeypatch.setattr(boxopt, "BOX_BUDGET", 0)
    report = verify_affine_m(inst, sol)
    assert report.overall and not report.certified
    with pytest.raises(BoxBudgetError, match="budget"):
        solve_enumeration_m(inst)
    assert main(["solve", str(inst_path)]) == 4
    assert "box budget" in capsys.readouterr().err
    assert main(["verify", str(inst_path), str(sol_path)]) == 4
    assert "undecided" in capsys.readouterr().out
    assert main(["verify", "--json", str(inst_path), str(sol_path)]) == 4
    assert json.loads(capsys.readouterr().out)["certified"] is False


def test_box_conditions_flag_negative_support_row():
    # shrink q so the support row dips below zero at zeta = 1
    inst = UncertainLcpM(m0=INST.m0, perturbations=INST.perturbations,
                         q=np.array([-4.2, -16.0]), h=0)
    j = np.array([0, 1])
    cand = characterize_for_J(inst, j)
    assert cand.r[0] < 1.0  # support value thinner than the slope
    report = check_box_conditions(inst, j, cand)
    assert not report.overall


def test_box_conditions_off_support_quadratic_vs_sampling():
    # J = {1} leaves row 0 quadratic in zeta; compare the exact face
    # minimum with dense sampling
    inst = UncertainLcpM(m0=np.array([[3.0, 0.5], [0.0, 2.0]]),
                         perturbations=[np.array([[0.2, 0.4], [0.0, 0.3]])],
                         q=np.array([2.0, -4.0]), h=0)
    j = np.array([1])
    cand = characterize_for_J(inst, j)
    report = check_box_conditions(inst, j, cand)
    zetas = np.linspace(-1.0, 1.0, 2001)[:, None]
    worst = min(float((inst.matrix_at(z) @ cand.evaluate(z) + inst.q)[0])
                for z in zetas)
    off = {c.condition: c for c in report.checks}["off-support-rows-nonnegative"]
    assert off.worst_value == pytest.approx(worst, abs=1e-6)


def test_enumeration_reproduces_worked_solution():
    sols = solve_enumeration_m(INST)
    assert len(sols) == 1
    assert sols[0].r == pytest.approx([1.0, 4.0], abs=1e-9)
    assert sols[0].d == pytest.approx(np.array([[-1.0], [0.0]]), abs=1e-9)


def test_enumeration_trivial_support_when_q_nonnegative():
    inst = UncertainLcpM(m0=np.array([[1.0, 0.2], [0.0, 1.0]]),
                         perturbations=[np.zeros((2, 2))],
                         q=np.array([1.0, 0.5]), h=0)
    sols = solve_enumeration_m(inst)
    assert any(np.all(s.r == 0.0) and np.all(s.d == 0.0) for s in sols)


def test_enumeration_reports_singular_supports():
    inst = UncertainLcpM(m0=np.array([[0.0, 0.0], [1.0, 1.0]]),
                         perturbations=[np.zeros((2, 2))],
                         q=np.array([-1.0, -1.0]), h=0)
    out = solve_enumeration_m_detailed(inst)
    reported = [list(s) for s in out.singular_supports]
    assert [0] in reported and [0, 1] in reported


@pytest.mark.parametrize("n, h", [(21, 0), (25, 5)])
def test_sweep_size_guard_on_both_conditions(n, h):
    # n - h above ENUMERATION_SIZE_CAP = 20; then n above TOTAL_SIZE_CAP_M
    # = 24 with n - h at the cap. Both refuse before any support is built.
    # -I is not positive definite, so the sweep runs (I takes the route
    # through its nominal solution, which has no cap)
    inst = UncertainLcpM(m0=-np.eye(n), perturbations=[np.zeros((n, n))],
                         q=-np.ones(n), h=h)
    with pytest.raises(SizeLimitError, match="refused"):
        solve_enumeration_m_detailed(inst)
    with pytest.raises(DispatchError) as err:
        dispatch_solve(inst)
    assert err.value.is_limit and err.value.pathway == "uncertain-m"


def _solvable_instance(rng, n):
    """Upper-triangular nominal matrix with the perturbation confined to
    the last column: the kernel condition then holds for any q, and
    q = -m0 r* makes r* the full-support nominal solution."""
    m0 = np.triu(rng.uniform(-0.5, 0.5, (n, n))) + np.diag(rng.uniform(1.5, 3.0, n))
    pert = np.zeros((n, n))
    pert[: n - 1, n - 1] = rng.uniform(-0.3, 0.3, n - 1)
    rstar = rng.uniform(1.0, 3.0, n)
    return UncertainLcpM(m0=m0.round(3), perturbations=[pert.round(3)],
                         q=-(m0.round(3) @ rstar).round(3), h=0)


def test_enumeration_random_instances_pass_sampling():
    rng = np.random.default_rng(31)
    accepted = 0
    for _ in range(12):
        inst = _solvable_instance(rng, 3)
        for sol in solve_enumeration_m(inst):
            accepted += 1
            assert sample_violation_m(inst, sol, count=1000) <= 1e-8
            assert _active_rows_vanish(inst, sol).passed
            assert verify_affine_m(inst, sol).overall
    assert accepted >= 8


def test_hostile_random_instances_accept_nothing_false():
    # generic perturbations almost never admit an affine rule; whatever
    # the sweep does return must still verify
    rng = np.random.default_rng(34)
    for _ in range(8):
        inst = UncertainLcpM(
            m0=(np.eye(3) * 2.0 + rng.uniform(-0.5, 0.5, (3, 3))).round(3),
            perturbations=[rng.uniform(-0.3, 0.3, (3, 3)).round(3)],
            q=rng.uniform(-4.0, 2.0, 3).round(2), h=0)
        for sol in solve_enumeration_m(inst):
            assert verify_affine_m(inst, sol).overall
            assert sample_violation_m(inst, sol, count=1000) <= 1e-8


def test_rule_identity_against_mtilde_form():
    # accepted rules satisfy D_J zeta = sum_i zeta_i mtilde^{J,i} q_J
    rng = np.random.default_rng(32)
    j = np.array([0, 1])
    tilde = mtilde(INST, j, 0)
    for _ in range(100):
        zeta = rng.uniform(-1.0, 1.0, 1)
        lhs = SOL.d[j] @ zeta
        rhs = zeta[0] * (tilde @ INST.q[j])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_uniqueness_verdicts():
    # the positive definiteness test is relative: the worked example keeps
    # its verdict in any unit
    for scale in (1.0, 1e-12, 1e12):
        scaled = UncertainLcpM(m0=scale * INST.m0,
                               perturbations=[scale * p for p in INST.perturbations],
                               q=INST.q, h=0)
        assert uniqueness_m(scaled) == "unique-if-exists", scale
    singular = UncertainLcpM(m0=np.diag([1.0, 0.0]),
                             perturbations=[np.zeros((2, 2))], q=np.ones(2), h=0)
    assert uniqueness_m(singular) == "unknown"
    zero = UncertainLcpM(m0=np.zeros((2, 2)),
                         perturbations=[np.zeros((2, 2))],
                         q=np.ones(2), h=0)
    assert uniqueness_m(zero) == "unknown"
    ident = UncertainLcpM(m0=np.eye(2), perturbations=[np.zeros((2, 2))],
                          q=np.ones(2), h=0)
    assert uniqueness_m(ident) == "unique-if-exists"


def test_unique_verdict_bounds_solution_count():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = 3
        g = rng.uniform(-1.0, 1.0, (n, n))
        m0 = (g.T @ g + 0.5 * np.eye(n)).round(3)  # definite by ridge
        inst = UncertainLcpM(m0=m0,
                             perturbations=[rng.uniform(-0.2, 0.2, (n, n)).round(3)],
                             q=rng.uniform(-3.0, 2.0, n).round(2), h=0)
        assert uniqueness_m(inst) == "unique-if-exists"
        assert len(solve_enumeration_m(inst)) <= 1


def test_verify_affine_m_passes_and_fails():
    assert verify_affine_m(INST, SOL).overall
    bad = AffineSolutionM(d=np.array([[-1.2], [0.0]]), r=np.array([1.0, 4.0]))
    assert not verify_affine_m(INST, bad).overall


def test_verify_affine_m_fails_a_nan_active_coefficient():
    # a NaN perturbation entry, set after validation, makes the linear and
    # quadratic coefficients of support row 0 NaN while its constant stays
    # finite; the NaN must fail the check, not drop out of the maximum
    inst = UncertainLcpM(m0=INST.m0, perturbations=[INST.perturbations[0].copy()],
                         q=INST.q, h=0)
    inst.perturbations[0][0, 0] = np.nan
    report = verify_affine_m(inst, SOL)
    check = _active_rows_vanish(inst, SOL)
    assert not report.overall and not check.passed
    assert np.isnan(check.worst_value)


def test_active_rows_check_matches_the_coefficient_loop():
    # reference: the largest of max|const|, max|lin| and max|quad| over
    # the support rows, each reduced on its own
    rng = np.random.default_rng(22)
    for _ in range(100):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        inst = UncertainLcpM(m0=rng.uniform(-2, 2, (n, n)),
                             perturbations=list(rng.uniform(-1, 1, (k, n, n))),
                             q=rng.uniform(-2, 2, n), h=0)
        sol = AffineSolutionM(d=rng.uniform(-1, 1, (n, k)),
                              r=np.where(rng.random(n) < 0.6, 1.0, 0.0))
        coefficients = robust_m._residual_coefficients(inst, sol, sol.support())
        worst = max(float(np.max(np.abs(c), initial=0.0)) for c in coefficients)
        assert _active_rows_vanish(inst, sol).worst_value == worst


def test_verify_affine_m_structural_errors():
    with pytest.raises(ValueError, match="solution dimensions do not match the instance"):
        verify_affine_m(INST, AffineSolutionM(d=np.zeros((3, 1)),
                                              r=np.zeros(3)))
    with pytest.raises(ValueError, match="r must be nonnegative"):
        verify_affine_m(INST, AffineSolutionM(d=SOL.d, r=np.array([1.0, -1.0])))
    h1 = UncertainLcpM(m0=INST.m0, perturbations=INST.perturbations,
                       q=INST.q, h=1)
    with pytest.raises(ValueError):
        verify_affine_m(h1, SOL)  # nonzero first row of D


def test_here_and_now_rows_force_rejection():
    # the only candidate needs a reacting first coordinate, so h=1
    # leaves nothing
    h1 = UncertainLcpM(m0=INST.m0, perturbations=INST.perturbations,
                       q=INST.q, h=1)
    assert solve_enumeration_m(h1) == []


def test_box_conditions_support_rows_use_verification_threshold():
    # min z_0 = 1 - 1.000000015 = -1.5e-8 at zeta = 1: below -tol, so the
    # rule fails verify_affine_m and the sweep must not return it
    inst = UncertainLcpM(m0=np.eye(2),
                         perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                         q=np.array([-1.0, -1.000000015]), h=0)
    cand = characterize_for_J(inst, np.array([0, 1]))
    assert not verify_affine_m(inst, cand).overall
    assert not check_box_conditions(inst, np.array([0, 1]), cand).overall
    assert solve_enumeration_m(inst) == []


def _sweep_instance(rng, n, k, h, planted, rank_deficient):
    """Random uncertain-M instance. Planted ones have a block-diagonal,
    upper-triangular m0 (no coupling between the first h coordinates
    and the rest) and perturbations confined to the last column below
    row h, so the kernel condition holds on every support and the
    here-and-now rows of D vanish; q = -m0 r* + slack plants r*.
    Rank-deficient ones repeat a column of m0, so every support that
    holds both copies is singular."""
    if planted:
        m0 = np.triu(rng.uniform(-0.5, 0.5, (n, n))) + np.diag(rng.uniform(1.5, 3.0, n))
        m0[:h, h:] = 0.0
        perts = []
        for _ in range(k):
            p = np.zeros((n, n))
            p[h: n - 1, n - 1] = rng.uniform(-0.1, 0.1, n - 1 - h)
            perts.append(p)
        rstar = rng.uniform(1.0, 3.0, n) * (rng.uniform(size=n) < 0.8)
        q = -(m0 @ rstar) + np.where(rstar == 0.0, rng.uniform(0.5, 1.5, n), 0.0)
    else:
        m0 = np.eye(n) * 2.0 + rng.uniform(-0.5, 0.5, (n, n))
        perts = [rng.uniform(-0.3, 0.3, (n, n)) for _ in range(k)]
        q = rng.uniform(-4.0, 2.0, n)
    if rank_deficient:
        a, b = rng.choice(n, 2, replace=False)
        m0[:, b] = m0[:, a]
    return UncertainLcpM(m0=m0.round(3), perturbations=[p.round(3) for p in perts],
                         q=q.round(3), h=h)


def _reference_sweep(inst, tol=1e-8):
    """The support sweep written out: closed form, kernel residual from
    mtilde, box conditions and the sampling backstop."""
    solutions, singular = [], []
    for size in range(inst.n + 1):
        for j_tuple in itertools.combinations(range(inst.n), size):
            j = np.array(j_tuple, dtype=int)
            cand = characterize_for_J(inst, j)
            if cand is None:
                singular.append(j)
                continue
            if j.size and np.min(cand.r[j]) <= 1e-7:
                continue
            here = j[j < inst.h]
            if here.size and np.max(np.abs(cand.d[here])) > tol:
                continue
            if j.size:
                qj = inst.q[j]
                tq = [mtilde(inst, j, i) @ qj for i in range(inst.k)]
                pj = [p[np.ix_(j, j)] for p in inst.perturbations]
                resid = max(np.max(np.abs(pj[a] @ tq[b] + pj[b] @ tq[a]))
                            for a in range(inst.k) for b in range(a, inst.k))
                if resid > tol * (1.0 + np.max(np.abs(qj))):
                    continue
            cand.d[: inst.h] = 0.0
            if not check_box_conditions(inst, j, cand).overall:
                continue
            if sample_violation_m(inst, cand, count=1000, seed=0) > tol * 10:
                continue
            solutions.append(cand)
    return solutions, singular


def test_sweep_matches_written_out_reference():
    rng = np.random.default_rng(41)
    accepted = singular = 0
    for case in range(40):
        k, h = 1 + case % 3, (case // 3) % 3
        inst = _sweep_instance(rng, n=4, k=k, h=h, planted=case % 2 == 0,
                               rank_deficient=case % 5 == 1)
        out = solve_enumeration_m_detailed(inst)
        ref_sols, ref_singular = _reference_sweep(inst)
        assert len(out.solutions) == len(ref_sols)
        for got, want in zip(out.solutions, ref_sols):
            assert np.array_equal(got.r, want.r) and np.array_equal(got.d, want.d)
        assert [s.tolist() for s in out.singular_supports] == \
            [s.tolist() for s in ref_singular]
        accepted += len(ref_sols)
        singular += len(ref_singular)
    assert accepted >= 10 and singular >= 10


def test_sweep_inverts_each_surviving_support_once(monkeypatch):
    # the stacked LU screens every support, on r_J > 0 and on
    # the nominal condition w_N(0) = m0[N, J] r_J + q_N >= 0 at
    # check_box_conditions' threshold; each survivor reaches the closed
    # form once, and nothing calls linalg.invert
    closed = []
    characterize = robust_m.characterize_for_J
    monkeypatch.setattr(robust_m, "characterize_for_J",
                        lambda inst, j: closed.append(tuple(j)) or characterize(inst, j))

    def refuse(a):
        raise AssertionError("the sweep called linalg.invert")

    monkeypatch.setattr(linalg, "invert", refuse)
    rng = np.random.default_rng(42)
    insts = [_sweep_instance(rng, n=4, k=2, h=0, planted=True, rank_deficient=False)]
    insts += [_sweep_instance(rng, n=6, k=2, h=0, planted=planted, rank_deficient=False)
              for planted in (True, False, False)]
    assert solve_enumeration_m(insts[0])
    for inst in insts:
        closed.clear()
        # every m0 here is positive definite: call the sweep of all
        # supports, not the route through the nominal solution
        robust_m._support_sweep(inst)
        assert len(set(closed)) == len(closed)
        threshold = -TOL_FEAS * (1.0 + np.max(np.abs(inst.q)))
        for size in range(inst.n + 1):
            for j in itertools.combinations(range(inst.n), size):
                rows = [t for t in range(inst.n) if t not in j]
                r = -np.linalg.solve(inst.m0[np.ix_(j, j)], inst.q[list(j)])
                w = inst.m0[np.ix_(rows, j)] @ r + inst.q[rows]
                if np.min(r, initial=np.inf) > TOL_SUPPORT and \
                        np.min(w, initial=np.inf) >= threshold:
                    assert j in closed, j
                if np.min(w, initial=np.inf) < 1e3 * threshold:
                    assert j not in closed, j
        assert len(closed) < 2 ** inst.n


def test_sample_violation_matches_pointwise_loop():
    rng = np.random.default_rng(43)
    for case in range(6):
        inst = _sweep_instance(rng, n=4, k=1 + case % 3, h=0,
                               planted=False, rank_deficient=False)
        sol = AffineSolutionM(d=rng.uniform(-1.0, 1.0, (4, inst.k)),
                              r=rng.uniform(0.0, 2.0, 4))
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, (300, inst.k))
        worst = zmax = 0.0
        for zeta in pts:
            z = sol.evaluate(zeta)
            w = inst.matrix_at(zeta) @ z + inst.q
            worst = max(worst, np.max(-z), np.max(-w), np.max(np.abs(z * w)))
            zmax = max(zmax, np.max(np.abs(z)))
        scale = (1.0 + np.max(np.abs(inst.q))) * (1.0 + zmax)
        got = sample_violation_m(inst, sol, count=300, seed=7)
        assert abs(got - worst) <= 1e-12 * scale
