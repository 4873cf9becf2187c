import warnings

import numpy as np
import pytest

from aarlcp import linalg


def test_index_set_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        linalg.index_set([2], 2)
    with pytest.raises(ValueError, match="out of range"):
        linalg.index_set([-1, 0], 2)


def test_index_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate indices"):
        linalg.index_set([1, 0, 1], 3)
    assert linalg.index_set([2, 0], 3).tolist() == [0, 2]


def test_coercions_reject_wrong_shapes():
    with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        linalg.as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(ValueError, match="expected a vector, got ndim=2"):
        linalg.as_vector(np.zeros((2, 2)))


def test_solve_identity():
    # the two solve routes left: the inverse, and the stacked LU
    b = np.array([1.0, 2.0, 3.0])
    assert linalg.invert(np.eye(3)) @ b == pytest.approx(b)
    lu, perm, singular = linalg.factor_stack(np.eye(3)[None])
    assert not singular[0]
    assert linalg.solve_stack(lu, perm, b[None])[0] == pytest.approx(b)


def test_solve_one_by_one():
    a, b = np.array([[4.0]]), np.array([100.0])
    assert linalg.invert(a) @ b == pytest.approx([25.0])
    lu, perm, singular = linalg.factor_stack(a[None])
    assert not singular[0]
    assert linalg.solve_stack(lu, perm, b[None])[0] == pytest.approx([25.0])


@pytest.mark.parametrize("blocks", [1, 3])
def test_factor_stack_leaves_its_input(blocks):
    a = np.random.default_rng(blocks).normal(size=(blocks, 4, 4))
    kept = a.copy()
    linalg.factor_stack(a)
    assert np.array_equal(a, kept)


def test_one_block_stack_keeps_the_pivot_rule_of_invert():
    # U[2, 2] = 2.5e-10 lies below 1e-10 * max|a| = 3e-10 but above
    # 1e-10 * max|LU| = 2e-10: the rule reads the block, not its LU
    a = np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -3.0 + 2.5e-10]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(a)
    assert linalg.factor_stack(a[None])[2].tolist() == [True]
    assert linalg.factor_stack(np.stack([a, np.eye(3)]))[2].tolist() == [True, False]


def test_invert_rank_deficient_flags_singular():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(a)


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.invert(np.ones((2, 3)))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_singularity_is_scale_relative(scale):
    rng = np.random.default_rng(11)
    g = rng.normal(size=(5, 2))
    for a in (np.array([[1.0, 1.0], [2.0, 2.0]]), g @ g.T):  # ranks 1, 2
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(scale * a)
    a = np.eye(4) + rng.uniform(-0.3, 0.3, (4, 4))
    x = rng.uniform(-5.0, 5.0, 4)
    got = linalg.invert(scale * a) @ (scale * (a @ x))
    assert np.max(np.abs(got - x)) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_pivot_threshold_boundary():
    # the default factor 1e-10 sits between the two small pivots
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(np.diag([1.0, 1e-11]))
    assert linalg.invert(np.diag([1.0, 1e-9])) == pytest.approx(np.diag([1.0, 1e9]))


def test_exactly_singular_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(linalg.SingularMatrixError):
                linalg.invert(a)


def test_nan_pivot_counts_as_singular():
    # the NaN stays on the diagonal through the elimination, so it is a
    # pivot of both routes: numpy's inverse and the stacked LU; an
    # infinite entry leaves no finite scale for the rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf):
            a = np.eye(3)
            a[-1, -1] = bad
            with pytest.raises(linalg.SingularMatrixError):
                linalg.invert(a)


def test_infinite_pivot_counts_as_singular():
    # the elimination overflows: U[2, 2] becomes -inf, which once let a
    # solve return [nan, nan, -0.] without raising
    a = 1e308 * np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.7]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(a)


def test_empty_conventions():
    e = np.zeros((0, 0))
    assert linalg.invert(e).shape == (0, 0)
    assert linalg.is_psd(e)
    assert linalg.symmetric_eigenvalues(e).shape == (0,)
    assert not linalg.is_positive_definite(e)


def test_invert_scalars():
    assert linalg.invert(np.array([[4.0]])) == pytest.approx(np.array([[0.25]]))
    assert linalg.invert(np.array([[2.0]])) == pytest.approx(np.array([[0.5]]))


def test_invert_identity():
    assert linalg.invert(np.eye(4)) == pytest.approx(np.eye(4))


def test_lu_recovers_random_solutions():
    # well-conditioned systems: invert(A) A x must return x
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
        x = rng.uniform(-5.0, 5.0, n)
        got = linalg.invert(a) @ (a @ x)
        assert np.max(np.abs(got - x)) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_invert_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = np.eye(n) + rng.uniform(-0.4, 0.4, (n, n))
        assert linalg.invert(a) == pytest.approx(np.linalg.inv(a), abs=1e-8)


def _near_singular(rng, n, cond):
    """An n x n matrix with singular values spread from 1 to 1/cond,
    its rows then scaled over up to four decades."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.logspace(0.0, -np.log10(cond), n)
    return (10.0 ** rng.uniform(-4.0, 0.0, n))[:, None] * (u * s) @ v.T


def test_numpy_inverse_never_returns_a_flagged_matrix(monkeypatch):
    # invert returns numpy's inverse only where a bound puts every pivot
    # past the rule of factor_stack, so on matrices near that rule
    # (cond 1e6-1e14) it must agree with the stacked LU's flag wherever
    # it took that route; both routes are reached
    factor_stack = linalg.factor_stack
    fallbacks = []
    monkeypatch.setattr(linalg, "factor_stack",
                        lambda a: fallbacks.append(1) or factor_stack(a))
    rng = np.random.default_rng(74)
    routes = {"numpy": 0, "stacked": 0}
    for n in (2, 3, 5, 8, 13, 21, 40):
        for cond in 10.0 ** np.arange(6, 15):
            a = _near_singular(rng, n, cond)
            fallbacks.clear()
            try:
                linalg.invert(a)
                raised = False
            except linalg.SingularMatrixError:
                raised = True
            if fallbacks:
                routes["stacked"] += 1
            else:
                routes["numpy"] += 1
                assert not raised
                assert not factor_stack(a[None])[2][0], (n, cond)
    assert min(routes.values()) >= 10, routes


def test_is_psd_examples():
    assert linalg.is_psd(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert not linalg.is_psd(np.array([[4.0, 10.0], [1.0, 2.0]]))
    assert linalg.is_psd(np.zeros((3, 3)))


def test_is_psd_equals_symmetric_part_reduction():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, (n, n))
        assert linalg.is_psd(a) == linalg.is_psd((a + a.T) / 2.0)


def test_symmetric_eigenvalues_match_numpy():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-3.0, 3.0, (n, n))
        s = (a + a.T) / 2.0
        mine = np.sort(linalg.symmetric_eigenvalues(s))
        ref = np.sort(np.linalg.eigvalsh(s))
        assert mine == pytest.approx(ref, abs=1e-9)


def test_eigenvalues_of_nonsymmetric_input_are_those_of_its_symmetric_part():
    a = np.array([[4.0, 10.0], [1.0, 2.0]])  # symmetric part [[4, 5.5], [5.5, 2]]
    ev = linalg.symmetric_eigenvalues(a)
    disc = np.sqrt(1.0 + 5.5 ** 2)
    assert ev == pytest.approx([3.0 - disc, 3.0 + disc])
    # 3 - disc < 0, so neither a nor its symmetric part is PSD
    assert not linalg.is_psd(a) and not linalg.is_psd(0.5 * (a + a.T))


def test_complement():
    got = linalg.complement(np.array([1, 3]), 5)
    assert np.array_equal(got, [0, 2, 4])
    assert np.array_equal(linalg.complement(np.array([], dtype=int), 3), [0, 1, 2])
