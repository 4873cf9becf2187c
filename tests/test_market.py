"""Market model assembly: block layout, PSD regime, permutations."""

import numpy as np
import pytest

from aarlcp import MarketModel, NominalLcp, build_lcp, is_psd, solve_lemke

from conftest import random_psd_matrix


def _desk_model(**kw):
    """Two producers, one shared capacity row, one market.

    Worked by hand: costs (1, 2), clearing x1 + x2 = Dd p + d with
    Dd = -1, d = 5. Cheap producer sets the price, so the equilibrium
    is x = (4, 0), lam = 0, p = 1 and the market trades 4 units.
    """
    base = dict(
        costs=[1.0, 2.0],
        technology=[[1.0, 1.0]],
        capacity=[-10.0],
        demand_matrix=[[1.0, 1.0]],
        sensitivity=[[-1.0]],
        demand=[5.0],
        demand_halfwidth=[0.5],
    )
    base.update(kw)
    return MarketModel(**base)


def test_desk_instance_assembly():
    inst, bmap = build_lcp(_desk_model())
    expected_m = np.array([
        [0.0, 0.0, -1.0, -1.0],
        [0.0, 0.0, -1.0, -1.0],
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0],
    ])
    assert np.array_equal(inst.m, expected_m)
    assert np.array_equal(inst.qbar, [1.0, 2.0, 10.0, -5.0])
    assert np.array_equal(inst.ubar, [0.0, 0.0, 0.0, 0.5])
    assert inst.h == 0
    assert np.array_equal(bmap.perm, [0, 1, 2, 3])
    assert is_psd(inst.m)


def test_desk_instance_equilibrium():
    inst, _ = build_lcp(_desk_model())
    out = solve_lemke(NominalLcp(inst.m, inst.qbar))
    assert out.status == "solution"
    assert out.solution.z == pytest.approx([4.0, 0.0, 0.0, 1.0], abs=1e-9)
    # clearing: supply G x equals demand response Dd p + d
    x, p = out.solution.z[:2], out.solution.z[3]
    assert x.sum() == pytest.approx(-1.0 * p + 5.0, abs=1e-9)


def test_block_skew_structure():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, m, k = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3)
        mm = MarketModel(
            costs=rng.uniform(0.5, 3.0, n),
            technology=rng.uniform(0.0, 2.0, (m, n)),
            capacity=rng.uniform(-8.0, -2.0, m),
            demand_matrix=rng.uniform(0.0, 2.0, (k, n)),
            sensitivity=rng.uniform(-2.0, 2.0, (k, k)),
            demand=rng.uniform(2.0, 6.0, k),
            demand_halfwidth=rng.uniform(0.05, 0.5, k),
        )
        big_m = build_lcp(mm)[0].m
        # off-diagonal blocks cancel in the symmetric part
        assert np.array_equal(big_m[:n, n:n + m], -big_m[n:n + m, :n].T)
        assert np.array_equal(big_m[:n, n + m:], -big_m[n + m:, :n].T)
        assert np.array_equal(big_m[n + m:, n + m:], -mm.sensitivity)
        assert np.all(big_m[:n, :n] == 0)
        assert np.all(big_m[n:n + m, n:n + m] == 0)
        assert np.all(big_m[n:n + m, n + m:] == 0)


def test_nsd_sensitivity_gives_psd_lcp():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n, m, k = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 4)
        mm = MarketModel(
            costs=rng.uniform(0.5, 3.0, n),
            technology=rng.uniform(0.0, 2.0, (m, n)),
            capacity=rng.uniform(-8.0, -2.0, m),
            demand_matrix=rng.uniform(0.0, 2.0, (k, n)),
            sensitivity=-random_psd_matrix(rng, k),
            demand=rng.uniform(2.0, 6.0, k),
            demand_halfwidth=rng.uniform(0.05, 0.5, k),
        )
        assert is_psd(build_lcp(mm)[0].m)


def test_indefinite_sensitivity_breaks_psd():
    mm = _desk_model(sensitivity=[[1.0]])
    assert not is_psd(build_lcp(mm)[0].m)


def test_permutation_round_trip():
    mm = _desk_model(nonadjustable_producers=(1,))
    inst, bmap = build_lcp(mm)
    assert inst.h == 1
    assert np.array_equal(bmap.perm, [1, 0, 2, 3])
    canonical = np.array([4.0, 0.0, 0.0, 1.0])
    shuffled = bmap.from_canonical(canonical)
    assert np.array_equal(shuffled, [0.0, 4.0, 0.0, 1.0])
    assert np.array_equal(bmap.to_canonical(shuffled), canonical)
    # permuting the desk matrix by hand must match the built instance
    base = build_lcp(_desk_model())[0]
    ix = np.ix_(bmap.perm, bmap.perm)
    assert np.array_equal(inst.m, base.m[ix])
    assert np.array_equal(inst.qbar, base.qbar[bmap.perm])
    assert np.array_equal(inst.ubar, base.ubar[bmap.perm])


def test_round_trip_random_vectors():
    rng = np.random.default_rng(7)
    mm = _desk_model(nonadjustable_producers=(0, 1), adjustable_duals=False)
    inst, bmap = build_lcp(mm)
    assert inst.h == 3  # two producers pinned plus the dual block
    for _ in range(20):
        v = rng.normal(size=4)
        assert bmap.to_canonical(bmap.from_canonical(v)) == pytest.approx(v)
        assert bmap.from_canonical(bmap.to_canonical(v)) == pytest.approx(v)


def test_block_positions():
    mm = _desk_model(nonadjustable_producers=(1,), adjustable_prices=False)
    inst, bmap = build_lcp(mm)
    # fixed coordinates (producer 2, the price) sit up front
    assert inst.h == 2
    assert np.array_equal(bmap.perm, [1, 3, 0, 2])
    assert np.array_equal(bmap.producer_positions, [2, 0])
    assert np.array_equal(bmap.dual_positions, [3])
    assert np.array_equal(bmap.price_positions, [1])


def test_model_validation():
    with pytest.raises(ValueError):
        _desk_model(technology=[[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        _desk_model(demand_matrix=[[1.0]])
    with pytest.raises(ValueError):
        _desk_model(sensitivity=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        _desk_model(demand_halfwidth=[-0.1])
    with pytest.raises(ValueError):
        _desk_model(nonadjustable_producers=(0, 0))
    with pytest.raises(ValueError):
        _desk_model(nonadjustable_producers=(2,))
