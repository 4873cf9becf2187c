import itertools

import numpy as np
import pytest

from aarlcp import dispatch_solve, parse_instance
from aarlcp.lp import LinearProgram, check_feasibility, check_point
from aarlcp.mip import (MixedBinaryProgram, NodeLimitError,
                        solve_mip_feasibility)

INF = np.inf


def _prob(lhs, senses, rhs, lower, upper, binaries):
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    lp = LinearProgram(np.zeros(lhs.shape[1]), lhs, list(senses),
                       np.asarray(rhs, dtype=float),
                       np.asarray(lower, dtype=float),
                       np.asarray(upper, dtype=float))
    return MixedBinaryProgram(lp, np.asarray(binaries, dtype=int))


def test_no_binaries_feasible_in_one_node():
    out = solve_mip_feasibility(_prob([[1.0]], ["<="], [2.0], [0.0], [INF], []))
    assert out.status == "feasible"
    assert out.nodes == 1


def test_fractional_band_infeasible_within_three_nodes():
    # 0.3 <= x <= 0.7 admits no integral point
    p = _prob([[1.0], [1.0]], [">=", "<="], [0.3, 0.7], [0.0], [1.0], [0])
    out = solve_mip_feasibility(p)
    assert out.status == "infeasible"
    assert out.nodes <= 3


def test_feasible_assignment_is_integral_and_rechecked():
    # x1 + x2 >= 1, x1 + 2 y <= 2 with y continuous
    p = _prob([[1.0, 1.0, 0.0], [1.0, 0.0, 2.0]], [">=", "<="], [1.0, 2.0],
              [0.0, 0.0, 0.0], [1.0, 1.0, 5.0], [0, 1])
    out = solve_mip_feasibility(p)
    assert out.status == "feasible"
    frac = np.abs(out.x[:2] - np.round(out.x[:2]))
    assert np.max(frac) <= 1e-6
    assert check_point(p.lp, out.x) <= 1e-7


def test_matches_exhaustive_binary_enumeration():
    """Feasibility verdicts against trying all 2^n binary patterns, each
    pattern checked by LP feasibility with the binaries pinned."""
    rng = np.random.default_rng(6)
    for trial in range(25):
        nbin = int(rng.integers(1, 7))
        ncont = int(rng.integers(0, 3))
        ncols = nbin + ncont
        nrows = int(rng.integers(1, 6))
        lhs = rng.uniform(-2.0, 2.0, (nrows, ncols)).round(2)
        senses = [("<=", ">=")[int(k)] for k in rng.integers(0, 2, nrows)]
        rhs = rng.uniform(-2.0, 2.0, nrows).round(2)
        lower = np.zeros(ncols)
        upper = np.concatenate([np.ones(nbin), np.full(ncont, 3.0)])
        p = _prob(lhs, senses, rhs, lower, upper, np.arange(nbin))
        out = solve_mip_feasibility(p)

        exhaustive = False
        for bits in itertools.product((0.0, 1.0), repeat=nbin):
            lo, up = lower.copy(), upper.copy()
            lo[:nbin] = bits
            up[:nbin] = bits
            pinned = LinearProgram(np.zeros(ncols), lhs, list(senses),
                                   rhs, lo, up)
            if check_feasibility(pinned).status == "optimal":
                exhaustive = True
                break
        assert (out.status == "feasible") == exhaustive, f"trial {trial}"
        if out.status == "feasible":
            assert check_point(p.lp, out.x) <= 1e-7


def test_node_limit_raises():
    # every branch is LP-feasible but fractional until pinned; a limit of
    # one node cannot finish
    rng = np.random.default_rng(7)
    lhs = rng.uniform(0.4, 1.0, (1, 6))
    p = _prob(lhs, ["="], [float(lhs.sum()) / 2.0], np.zeros(6), np.ones(6),
              np.arange(6))
    with pytest.raises(NodeLimitError):
        solve_mip_feasibility(p, node_limit=1)


def test_binary_bounds_enforced():
    with pytest.raises(ValueError):
        _prob([[1.0]], ["<="], [1.0], [0.0], [2.0], [0])


def test_deterministic_node_counts():
    p = _prob([[1.0, 1.0, 1.0]], ["="], [2.0], np.zeros(3), np.ones(3),
              [0, 1, 2])
    a = solve_mip_feasibility(p)
    b = solve_mip_feasibility(p)
    assert a.status == b.status == "feasible"
    assert a.nodes == b.nodes
    assert np.array_equal(a.x, b.x)


# perfbench mip pool candidate mip-p1k1-fixed-6: a market with its one
# producer fixed, whose node LPs used to stall in phase 1
FIXED_PRODUCER_MARKET = """\
kind market
producers 1
constraints 1
markets 1
costs
1.3928
technology
0.27400000000000002
capacity
-3.9529999999999998
demand-matrix
1.3023
sensitivity
1.5299
demand
2.0217999999999998
demand-halfwidth
0.071300000000000002
nonadjustable-producers 1
"""


def test_fixed_producer_market_decided_without_stall():
    report = dispatch_solve(parse_instance(FIXED_PRODUCER_MARKET))
    assert report.pathway == "mip"
    assert report.status == "no-solution"
    assert "big-M" in report.caveat
