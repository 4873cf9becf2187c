import warnings

import numpy as np
import pytest

from aarlcp import linalg


def test_submatrix_identity_slice():
    a = np.eye(2)
    assert linalg.submatrix(a, [0], [1]) == pytest.approx(np.array([[0.0]]))


def test_submatrix_single_entry():
    a = np.array([[4.0, 10.0], [1.0, 2.0]])
    assert linalg.submatrix(a, [0], [0]) == pytest.approx(np.array([[4.0]]))


def test_submatrix_full_slice_is_identity_op():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    full = np.arange(5)
    assert np.array_equal(linalg.submatrix(a, full, full), a)


def test_submatrix_composes():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    r, c = np.array([0, 2, 5]), np.array([1, 3, 4])
    r2, c2 = np.array([0, 2]), np.array([1])
    inner = linalg.submatrix(linalg.submatrix(a, r, c), r2, c2)
    assert np.array_equal(inner, linalg.submatrix(a, r[r2], c[c2]))


def test_submatrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        linalg.submatrix(np.eye(2), [2], [0])


def test_solve_identity():
    x = linalg.solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert x == pytest.approx([1.0, 2.0, 3.0])


def test_solve_one_by_one():
    assert linalg.solve(np.array([[4.0]]), np.array([100.0])) == pytest.approx([25.0])


def test_solve_rank_deficient_flags_singular():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(a, np.array([1.0, 0.0]))


def test_solve_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.solve(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_singularity_is_scale_relative(scale):
    rng = np.random.default_rng(11)
    g = rng.normal(size=(5, 2))
    for a in (np.array([[1.0, 1.0], [2.0, 2.0]]), g @ g.T):  # ranks 1, 2
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(scale * a, np.ones(a.shape[0]))
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(scale * a)
    a = np.eye(4) + rng.uniform(-0.3, 0.3, (4, 4))
    x = rng.uniform(-5.0, 5.0, 4)
    got = linalg.solve(scale * a, scale * (a @ x))
    assert np.max(np.abs(got - x)) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_pivot_threshold_boundary():
    # the default factor 1e-10 sits between the two small pivots
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(np.diag([1.0, 1e-11]), np.ones(2))
    assert linalg.solve(np.diag([1.0, 1e-9]), np.ones(2)) == \
        pytest.approx([1.0, 1e9])


def test_exactly_singular_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(linalg.SingularMatrixError):
                linalg.solve(a, np.ones(a.shape[0]))
            with pytest.raises(linalg.SingularMatrixError):
                linalg.invert(a)


def test_nan_pivot_counts_as_singular(monkeypatch):
    def nan_lu(a):
        lu = np.array(a, dtype=float)
        lu[-1, -1] = np.nan
        return lu, np.arange(a.shape[0], dtype=np.int32), 0

    monkeypatch.setattr(linalg, "dgetrf", nan_lu)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(np.eye(3), np.ones(3))


def test_solve_matrix_right_hand_side():
    rng = np.random.default_rng(12)
    a = np.eye(4) + rng.uniform(-0.3, 0.3, (4, 4))
    x = rng.uniform(-5.0, 5.0, (4, 3))
    got = linalg.solve(a, a @ x)
    assert got.shape == (4, 3)
    assert got == pytest.approx(x, abs=1e-9)


def test_empty_conventions():
    e = np.zeros((0, 0))
    assert linalg.solve(e, np.zeros(0)).shape == (0,)
    assert linalg.solve(e, np.zeros((0, 3))).shape == (0, 3)
    assert linalg.invert(e).shape == (0, 0)
    assert linalg.is_psd(e)
    assert linalg.symmetric_eigenvalues(e).shape == (0,)
    assert linalg.min_symmetric_eigenvalue(e) == 0.0


def test_invert_scalars():
    assert linalg.invert(np.array([[4.0]])) == pytest.approx(np.array([[0.25]]))
    assert linalg.invert(np.array([[2.0]])) == pytest.approx(np.array([[0.5]]))


def test_invert_identity():
    assert linalg.invert(np.eye(4)) == pytest.approx(np.eye(4))


def test_lu_recovers_random_solutions():
    # well-conditioned systems: solve(A, A x) must return x
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
        x = rng.uniform(-5.0, 5.0, n)
        got = linalg.solve(a, a @ x)
        assert np.max(np.abs(got - x)) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_invert_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = np.eye(n) + rng.uniform(-0.4, 0.4, (n, n))
        assert linalg.invert(a) == pytest.approx(np.linalg.inv(a), abs=1e-8)


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
    assert linalg.min_symmetric_eigenvalue(a) == pytest.approx(3.0 - disc)


def test_complement():
    got = linalg.complement(np.array([1, 3]), 5)
    assert np.array_equal(got, [0, 2, 4])
    assert np.array_equal(linalg.complement(np.array([], dtype=int), 3), [0, 1, 2])
