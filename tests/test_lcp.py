import numpy as np
import pytest

from aarlcp import linalg
from aarlcp import lcp
from aarlcp.lcp import (NominalLcp, _lex_argmin, compute_support_P,
                        describe_solution_set, lcp_residuals,
                        solve_block_pivoting, solve_lemke)
from aarlcp.linalg import NumericalError
from aarlcp.lp import LinearProgram, solve_lp
from conftest import is_p_matrix, lcp_brute_force, random_low_rank_psd_lcp, \
    random_p_matrix, random_psd_matrix


def _over_solution_set(m, q, zbar, objective):
    """Minimize objective . z over the solution-set conditions written
    out: z >= 0, M z + q >= 0, q.(z - zbar) = 0 and (M + M^T)(z - zbar)
    = 0. Returns the minimum (-inf when unbounded)."""
    n = q.size
    sym = m + m.T
    lhs = np.vstack([m, q.reshape(1, n), sym])
    rhs = np.concatenate([-q, [q @ zbar], sym @ zbar])
    senses = [">="] * n + ["="] * (n + 1)
    out = solve_lp(LinearProgram(objective, lhs, senses, rhs, np.zeros(n),
                                 np.full(n, np.inf)))
    return -np.inf if out.status == "unbounded" else float(objective @ out.x)


def _coordinate_maxima(m, q, zbar):
    """The largest value of each z_j over the solution set, one max-LP
    per coordinate (inf when unbounded)."""
    n = q.size
    return np.array([-_over_solution_set(m, q, zbar, -np.eye(n)[j])
                     for j in range(n)])


def test_nonnegative_q_solved_by_zero():
    out = solve_lemke(NominalLcp(np.eye(2), np.array([1.0, 1.0])))
    assert out.status == "solution"
    assert out.solution.z == pytest.approx([0.0, 0.0])


def test_positive_definite_two_by_two():
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    q = np.array([-5.0, -3.0])
    ref = lcp_brute_force(m, q)
    assert len(ref) == 1
    out = solve_lemke(NominalLcp(m, q))
    assert out.status == "solution"
    assert out.solution.z == pytest.approx(ref[0], abs=1e-9)


def test_indefinite_instance_finds_a_known_support():
    out = solve_lemke(NominalLcp(np.array([[4.0, 10.0], [1.0, 2.0]]),
                                 np.array([-100.0, -22.0])))
    assert out.status == "solution"
    z = out.solution.z
    ok = (np.allclose(z, [25.0, 0.0], atol=1e-8)
          or np.allclose(z, [0.0, 11.0], atol=1e-8)
          or np.allclose(z, [10.0, 6.0], atol=1e-8))
    assert ok, z


def test_residuals_rechecked_independently():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = random_p_matrix(rng, n)
        q = rng.uniform(-5.0, 3.0, n).round(2)
        out = solve_lemke(NominalLcp(m, q))
        assert out.status == "solution"
        zneg, wneg, comp = lcp_residuals(NominalLcp(m, q), out.solution.z)
        assert zneg >= -1e-8
        assert wneg >= -1e-8 * (1.0 + np.max(np.abs(q)))
        assert comp <= 1e-7


def test_p_matrix_solutions_match_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        m = random_p_matrix(rng, n)
        assert is_p_matrix(m)
        q = rng.uniform(-5.0, 3.0, n).round(2)
        ref = lcp_brute_force(m, q)
        assert len(ref) == 1  # P-matrix: unique solution
        out = solve_lemke(NominalLcp(m, q))
        assert out.status == "solution"
        assert out.solution.z == pytest.approx(ref[0], abs=1e-8)


def test_block_pivoting_matches_brute_force_on_positive_definite():
    # skew parts make M nonsymmetric; its symmetric part stays definite
    rng = np.random.default_rng(14)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        c = rng.uniform(-1.0, 1.0, (n, n))
        m = random_psd_matrix(rng, n, ridge=0.25) + (c - c.T) * (trial % 2)
        q = rng.uniform(-5.0, 3.0, n).round(2)
        ref = lcp_brute_force(m, q)
        assert len(ref) == 1
        out = solve_block_pivoting(NominalLcp(m, q))
        assert out is not None, trial
        assert out.z == pytest.approx(ref[0], abs=1e-8)
        assert out.comp_residual == lcp_residuals(NominalLcp(m, q), out.z)[2]


def test_block_pivoting_nonnegative_q_is_zero():
    out = solve_block_pivoting(NominalLcp(np.eye(3), np.array([1.0, 0.0, 2.0])))
    assert np.array_equal(out.z, np.zeros(3))


def _gives_up_when(monkeypatch, solve):
    """solve_block_pivoting's result on a positive definite instance
    whose block solves go through `solve`."""
    monkeypatch.setattr(lcp.np.linalg, "solve", solve)
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    return solve_block_pivoting(NominalLcp(m, np.array([-1.0, -2.0, 1.0])))


@pytest.mark.filterwarnings("error")
def test_block_pivoting_gives_up_instead_of_guessing(monkeypatch):
    real = np.linalg.solve

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    assert _gives_up_when(monkeypatch, singular) is None
    assert _gives_up_when(monkeypatch, lambda a, b: np.full(b.shape, np.inf)) is None
    assert _gives_up_when(monkeypatch, lambda a, b: np.full(b.shape, np.nan)) is None
    # every free coordinate comes back negative: the infeasible set never
    # empties, and the iteration cap ends the attempt
    assert _gives_up_when(monkeypatch, lambda a, b: -np.ones(b.shape)) is None
    # a point off by more than the recheck allows
    assert _gives_up_when(monkeypatch, lambda a, b: real(a, b) * (1 + 1e-3)) is None
    assert _gives_up_when(monkeypatch, real) is not None


def test_block_pivoting_overflow_is_not_an_answer():
    # the overflowed-ray instance of the psd-lp pathway: positive
    # definite, but a block solve overflows to inf; no warning, no point
    m = np.array([[9e278, -0.02, -2e214], [-0.02, 8e-282, 0.0],
                  [-2e214, 0.0, 1.2e151]])
    assert linalg.is_positive_definite(m)
    prob = NominalLcp(m, np.array([-4e78, -2e243, 3e54]))
    with np.errstate(all="raise"):
        assert solve_block_pivoting(prob) is None


def test_psd_cross_complementarity():
    # any two solutions z1, z2 of a semidefinite instance satisfy
    # z1 . (q + M z2) = 0
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        g = rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, n + 1))))
        m = g @ g.T  # rank-deficient PSD invites multiplicity
        q = rng.uniform(-2.0, 2.0, n).round(2)
        sols = lcp_brute_force(m, q)
        out = solve_lemke(NominalLcp(m, q))
        if out.status == "solution":
            sols = sols + [out.solution.z]
        # an absolute 1e-8 identity is not certifiable in float64 once
        # solutions reach norm ~1e4 (scale^2 * eps exceeds the bound);
        # keep the tame ones, which is where the identity has content
        sols = [z for z in sols if np.max(np.abs(z)) <= 1e3]
        for z1 in sols:
            for z2 in sols:
                assert abs(z1 @ (q + m @ z2)) <= 1e-8 * (1 + np.max(np.abs(q)))
                checked += 1
    assert checked > 50


def test_cross_complementarity_on_degenerate_continuum():
    # rank-one instance whose solution set is the segment between
    # (1,0) and (0,1); distinct solutions must annihilate each other
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    q = np.array([-1.0, -1.0])
    sols = lcp_brute_force(m, q)
    assert len(sols) == 2
    z1, z2 = sols
    assert np.max(np.abs(z1 - z2)) > 0.5  # genuinely different points
    assert abs(z1 @ (q + m @ z2)) <= 1e-12
    assert abs(z2 @ (q + m @ z1)) <= 1e-12
    out = solve_lemke(NominalLcp(m, q))
    assert out.status == "solution"
    p, _ = compute_support_P(describe_solution_set(NominalLcp(m, q),
                                                   out.solution.z))
    assert np.array_equal(p, [0, 1])  # each coordinate positive somewhere


def test_support_p_with_unbounded_direction():
    # z = (t, 1) solves for every t >= 0: coordinate 0 enters P through
    # the unbounded LP, coordinate 1 through its positive value
    m = np.array([[0.0, 0.0], [0.0, 1.0]])
    q = np.array([0.0, -1.0])
    out = solve_lemke(NominalLcp(m, q))
    assert out.status == "solution"
    p, _ = compute_support_P(describe_solution_set(NominalLcp(m, q),
                                                   out.solution.z))
    assert np.array_equal(p, [0, 1])


def test_ray_termination_on_unsolvable_psd():
    # w1 = -1 + z2, w2 = -1 + z1 admits a solution; flip the sign to kill it:
    # M = [[0,-1],[-1,0]] with q < 0 has no solution and M is not PSD, so
    # use a PSD certificate instance instead: M = 0, q with a negative entry.
    out = solve_lemke(NominalLcp(np.zeros((2, 2)), np.array([-1.0, 1.0])))
    assert out.status == "ray"


def test_lex_argmin_keeps_the_near_ties_of_each_column():
    # column 0 keeps the rows within 1e-12 of its minimum 0: rows 0 and 1,
    # not row 2, although row 2 lies within 1e-12 of row 1; column 1 then
    # picks row 1
    chain = np.array([[0.0, 3.0], [0.6e-12, 2.0], [1.2e-12, 1.0]])
    assert _lex_argmin(chain) == 1
    assert _lex_argmin(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0  # full tie
    assert _lex_argmin(np.array([[np.inf, 0.0], [-np.inf, 0.0]])) == 1


def test_lex_argmin_nan_entries_tie():
    nan = np.nan
    # a NaN in the first row ties in its column; the next column decides
    assert _lex_argmin(np.array([[nan, 5.0], [1.0, 3.0], [1.0, 4.0]])) == 1
    assert _lex_argmin(np.array([[nan, 2.0], [1.0, 3.0]])) == 0
    assert _lex_argmin(np.array([[nan, nan], [nan, nan]])) == 0
    # a column NaN in every row decides nothing
    assert _lex_argmin(np.array([[nan, 2.0], [nan, 1.0]])) == 1
    # a NaN in a later row ties with the first row, which then stays
    # ahead of it, so the later row drops out
    assert _lex_argmin(np.array([[1.0, 3.0], [nan, 0.0], [0.5, 4.0]])) == 2
    assert _lex_argmin(np.array([[1.0, 3.0], [nan, nan]])) == 0


def _lex_argmin_pairwise(keys):
    """Reference: keep the running minimum, replacing it only by a row
    smaller by more than 1e-12 at the first column where they differ by
    more than that (a NaN compare is a tie)."""
    best = 0
    for i in range(1, len(keys)):
        for x, y in zip(keys[i], keys[best]):
            if x < y - 1e-12:
                best = i
                break
            if x > y + 1e-12:
                break
    return best


def test_lex_argmin_matches_the_pairwise_scan():
    # small integers tie exactly and never chain within 1e-12; rows NaN
    # throughout and columns NaN in every row stand for an overflowed
    # tableau's
    rng = np.random.default_rng(8)
    for _ in range(3000):
        keys = rng.integers(-2, 3, (int(rng.integers(1, 9)), int(rng.integers(1, 5))))
        keys = keys.astype(float)
        keys[rng.random(len(keys)) < 0.15] = np.nan
        keys[:, rng.random(keys.shape[1]) < 0.15] = np.nan
        assert _lex_argmin(keys) == _lex_argmin_pairwise(keys), keys


@pytest.mark.filterwarnings("error")
def test_overflowing_tableau_ends_in_an_outcome_or_a_typed_limit():
    # entries near 1e308 overflow the tableau to inf and NaN, silently:
    # warnings are errors here
    rng = np.random.default_rng(3)
    outcomes = set()
    for n in range(2, 8):
        for _ in range(10):
            m = rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.5, 1.0, (n, n)) * 1e308
            q = rng.normal(size=n) * 10.0 ** rng.integers(0, 300, n)
            try:
                outcomes.add(solve_lemke(NominalLcp(m, q)).status)
            except NumericalError:
                outcomes.add("limit")
    assert outcomes <= {"solution", "ray", "limit"}


@pytest.mark.filterwarnings("error")
def test_ray_from_an_overflowed_tableau_is_a_typed_limit():
    # PSD by is_psd; the pivots overflow the tableau to inf and NaN before
    # the entering column runs out of positive entries. The overflow is
    # reported by the NumericalError alone: with warnings as errors, a
    # RuntimeWarning from the pivot would fail the test first
    m = np.array([[9e278, -0.02, -2e214], [-0.02, 8e-282, 0.0], [-2e214, 0.0, 1.2e151]])
    q = np.array([-4e78, -2e243, 3e54])
    assert linalg.is_psd(m)
    with pytest.raises(NumericalError, match="inf or NaN at a ray"):
        solve_lemke(NominalLcp(m, q))


def test_describe_solution_set_singleton():
    prob = NominalLcp(np.array([[1.0]]), np.array([-1.0]))
    skeleton = describe_solution_set(prob, np.array([1.0]))
    for sense in (1.0, -1.0):
        lp = LinearProgram(np.array([sense]), skeleton.lhs, skeleton.senses,
                           skeleton.rhs, skeleton.lower, skeleton.upper)
        out = solve_lp(lp)
        assert out.status == "optimal"
        assert out.x[0] == pytest.approx(1.0, abs=1e-9)


def test_describe_solution_set_halfline():
    # LCP(0, 0): every z >= 0 solves; the polyhedron is unbounded above
    prob = NominalLcp(np.zeros((1, 1)), np.zeros(1))
    skeleton = describe_solution_set(prob, np.zeros(1))
    lp = LinearProgram(np.array([-1.0]), skeleton.lhs, skeleton.senses,
                       skeleton.rhs, skeleton.lower, skeleton.upper)
    assert solve_lp(lp).status == "unbounded"


def test_describe_solution_set_rejects_indefinite():
    with pytest.raises(ValueError):
        describe_solution_set(NominalLcp(np.array([[4.0, 10.0], [1.0, 2.0]]),
                                         np.zeros(2)), np.zeros(2))


def test_describe_solution_set_rejects_a_non_solution():
    prob = NominalLcp(np.eye(2), np.array([-1.0, -1.0]))
    with pytest.raises(ValueError, match="zbar does not solve the instance"):
        describe_solution_set(prob, np.zeros(2))  # w = q < 0
    describe_solution_set(prob, np.ones(2))


def test_support_p_singleton():
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    q = np.array([-5.0, -3.0])
    z = lcp_brute_force(m, q)[0]
    p, _ = compute_support_P(describe_solution_set(NominalLcp(m, q), z))
    assert np.array_equal(p, np.flatnonzero(z > 1e-7))


def test_support_p_unbounded_coordinate_included():
    m, q, zbar = np.zeros((1, 1)), np.zeros(1), np.zeros(1)
    p, k = compute_support_P(describe_solution_set(NominalLcp(m, q), zbar))
    assert np.array_equal(p, [0])
    assert np.array_equal(k, [0])  # M z + q = 0 for every z
    assert np.array_equal(_coordinate_maxima(m, q, zbar), [np.inf])


def test_support_p_matches_vertex_enumeration_on_random_psd():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = 4
        m = random_psd_matrix(rng, n)
        q = rng.uniform(-3.0, 2.0, n).round(2)
        out = solve_lemke(NominalLcp(m, q))
        assert out.status == "solution"
        p, _ = compute_support_P(describe_solution_set(NominalLcp(m, q),
                                                       out.solution.z))
        # oracle: union of supports over all complementary-basis solutions
        union = set()
        for z in lcp_brute_force(m, q):
            union |= set(np.flatnonzero(z > 1e-7).tolist())
        assert union <= set(p.tolist())
        # and the max-LP of each coordinate over the solution set
        zmax = _coordinate_maxima(m, q, out.solution.z)
        assert np.array_equal(p, np.flatnonzero(zmax > 1e-7))


def test_support_p_and_vanishing_rows_match_per_row_lps_on_low_rank_psd():
    # solution sets of more than one point: P against the max-LP of each
    # coordinate, K against the min-LP of each row of M z + q
    rng = np.random.default_rng(15)
    spread = 0
    for t in range(30):
        n = int(rng.integers(2, 7))
        m, q, _ = random_low_rank_psd_lcp(rng, n, skew=t % 2 == 1)
        out = solve_lemke(NominalLcp(m, q))
        assert out.status == "solution"
        zbar = out.solution.z
        p, k = compute_support_P(describe_solution_set(NominalLcp(m, q), zbar))
        zmax = _coordinate_maxima(m, q, zbar)
        assert np.array_equal(p, np.flatnonzero(zmax > 1e-7))
        wmin = np.array([_over_solution_set(m, q, zbar, m[i]) + q[i]
                         for i in range(n)])
        assert np.array_equal(k, np.flatnonzero(wmin <= 1e-7))
        spread += bool(np.any(zmax - zbar > 1e-7))
    assert spread >= 10
