import itertools

import numpy as np
import pytest

from aarlcp import dispatch_solve, lp as lp_module, mip as mip_module, parse_instance
from aarlcp.instances import generate_random
from aarlcp.lp import (LinearProgram, StandardForm, _Simplex, check_feasibility,
                       check_point, standardize)
from aarlcp.mip import (MixedBinaryProgram, NodeLimitError,
                        solve_mip_feasibility)
from aarlcp.robust_q import build_mip, default_big_m
from aarlcp.tolerances import TOL_CERT_ZERO, TOL_FEAS

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


def _random_prob(rng):
    """A program of up to 6 binaries, 2 continuous columns in [0, 3] and
    5 inequality rows, the binaries first."""
    nbin = int(rng.integers(1, 7))
    ncont = int(rng.integers(0, 3))
    ncols = nbin + ncont
    nrows = int(rng.integers(1, 6))
    lhs = rng.uniform(-2.0, 2.0, (nrows, ncols)).round(2)
    senses = [("<=", ">=")[int(k)] for k in rng.integers(0, 2, nrows)]
    rhs = rng.uniform(-2.0, 2.0, nrows).round(2)
    lower = np.zeros(ncols)
    upper = np.concatenate([np.ones(nbin), np.full(ncont, 3.0)])
    return _prob(lhs, senses, rhs, lower, upper, np.arange(nbin))


def _pinned(lp, bins, lo_bits, up_bits):
    lo, up = lp.lower.copy(), lp.upper.copy()
    lo[bins], up[bins] = lo_bits, up_bits
    return LinearProgram(lp.objective, lp.lhs, lp.senses, lp.rhs, lo, up)


def test_matches_exhaustive_binary_enumeration():
    """Feasibility verdicts against trying all 2^n binary patterns, each
    pattern checked by LP feasibility with the binaries pinned."""
    rng = np.random.default_rng(6)
    for trial in range(25):
        p = _random_prob(rng)
        nbin = p.binaries.size
        out = solve_mip_feasibility(p)

        exhaustive = False
        for bits in itertools.product((0.0, 1.0), repeat=nbin):
            pinned = _pinned(p.lp, p.binaries, bits, bits)
            if check_feasibility(pinned).status == "optimal":
                exhaustive = True
                break
        assert (out.status == "feasible") == exhaustive, f"trial {trial}"
        if out.status == "feasible":
            assert check_point(p.lp, out.x) <= 1e-7


def _row_proves_infeasible(lp, y):
    """The interval check of a warm infeasible verdict, restated: over
    the bounds of the standardized program, (y A) x cannot reach y b."""
    a, b, _, lo, up = standardize(lp)
    y = y / np.abs(y).max()
    g = y @ a
    g[np.abs(g) <= TOL_CERT_ZERO * np.abs(g).max()] = 0.0
    lo = np.where(lo <= -1e29, -np.inf, lo)
    up = np.where(up >= 1e29, np.inf, up)
    with np.errstate(invalid="ignore"):
        ends = np.stack([g * lo, g * up])
    ends[:, g == 0.0] = 0.0
    margin = TOL_FEAS * (1.0 + np.abs(b).max())
    return not (ends.min(axis=0).sum() - margin <= y @ b
                <= ends.max(axis=0).sum() + margin)


def test_warm_starts_agree_with_cold_solves():
    # children fix one binary of a feasible parent, grandchildren pin all
    # of them; each warm check starts from its parent's final simplex
    rng = np.random.default_rng(16)
    proofs = 0
    for trial in range(60):
        p = _random_prob(rng)
        lp, bins = p.lp, p.binaries
        root = check_feasibility(lp)
        if root.status != "optimal":
            continue
        parts = ("basis", "binv", "val", "is_basic", "lo", "up")
        kept = [getattr(root.state, k).copy() for k in parts]
        for j, value in itertools.product(range(bins.size), (0.0, 1.0)):
            blo, bup = lp.lower[bins].copy(), lp.upper[bins].copy()
            blo[j] = bup[j] = value
            child_lp = _pinned(lp, bins, blo, bup)
            child = check_feasibility(child_lp, start=root.state)
            bits = rng.integers(0, 2, bins.size).astype(float)
            bits[j] = value
            pairs = [(child_lp, child)]
            if child.status == "optimal":
                leaf_lp = _pinned(lp, bins, bits, bits)
                pairs.append((leaf_lp, check_feasibility(leaf_lp, start=child.state)))
            for node_lp, warm in pairs:
                assert warm.status == check_feasibility(node_lp).status, trial
                if warm.status == "optimal":
                    assert warm.state is not None and warm.state is not root.state
                    assert check_point(node_lp, warm.x) <= 1e-7
                elif warm.y is not None:
                    assert _row_proves_infeasible(node_lp, warm.y)
                    proofs += 1
        # the children copied the root's simplex
        assert all(np.array_equal(v, getattr(root.state, k)) for v, k in zip(kept, parts))
    assert proofs > 0


def test_start_from_other_rows_is_a_cold_solve():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p, q = _random_prob(rng), _random_prob(rng)
        other = check_feasibility(q.lp)
        if other.status != "optimal":
            continue
        warm = check_feasibility(p.lp, start=other.state)
        cold = check_feasibility(p.lp)
        assert (cold.state is not None) == (cold.status == "optimal")
        assert warm.y is None
        assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
        if cold.status == "optimal":
            assert np.array_equal(warm.x, cold.x)


def _same_outcome(a, b):
    return ((a.status, a.iterations) == (b.status, b.iterations)
            and all(u is v is None or np.array_equal(u, v)
                    for u, v in ((a.x, b.x), (a.y, b.y))))


def test_bounds_only_nodes_match_fresh_programs(monkeypatch):
    # every node LP of the search, solved on the tree's standard form,
    # against a LinearProgram built afresh with the node's bounds
    rng = np.random.default_rng(19)
    calls = []

    def compare(node, start=None):
        assert isinstance(node, StandardForm)
        lo, up = prob.lp.lower.copy(), prob.lp.upper.copy()
        lo[prob.binaries] = node.lo[prob.binaries]
        up[prob.binaries] = node.up[prob.binaries]
        fresh = LinearProgram(prob.lp.objective, prob.lp.lhs, prob.lp.senses,
                              prob.lp.rhs, lo, up)
        out = check_feasibility(node, start=start)
        assert _same_outcome(out, check_feasibility(fresh, start=start))
        calls.append((start is None, out.y is not None))
        return out

    monkeypatch.setattr(mip_module, "check_feasibility", compare)
    for _ in range(40):
        prob = _random_prob(rng)
        solve_mip_feasibility(prob)
    cold, proofs = (sum(flags) for flags in zip(*calls))
    assert cold == 40 and len(calls) > 2 * cold  # warm beyond the roots
    assert proofs > 0  # warm infeasible verdicts with their multipliers


def test_tree_standardizes_its_rows_once(monkeypatch):
    count = []

    def counted(lp):
        count.append(1)
        return standardize(lp)

    monkeypatch.setattr(lp_module, "standardize", counted)
    monkeypatch.setattr(mip_module, "standardize", counted)
    rng = np.random.default_rng(7)
    lhs = rng.uniform(0.4, 1.0, (1, 6))
    p = _prob(lhs, ["="], [float(lhs.sum()) / 2.0], np.zeros(6), np.ones(6),
              np.arange(6))
    out = solve_mip_feasibility(p)
    assert out.nodes >= 2
    assert len(count) == 1


def test_stale_rows_are_never_reused(monkeypatch):
    resumed = []
    resume = _Simplex.resume.__func__
    monkeypatch.setattr(_Simplex, "resume", classmethod(
        lambda cls, *args: resumed.append(1) or resume(cls, *args)))
    rng = np.random.default_rng(20)
    changed = 0
    for _ in range(30):
        p = _random_prob(rng).lp
        root = check_feasibility(p)
        if root.status != "optimal":
            continue
        lhs, rhs = p.lhs.copy(), p.rhs.copy()
        lhs[0, 0] += 0.5
        rhs[-1] -= 0.5
        for other in (LinearProgram(p.objective, lhs, p.senses, p.rhs, p.lower, p.upper),
                      LinearProgram(p.objective, p.lhs, p.senses, rhs, p.lower, p.upper)):
            warm = check_feasibility(other, start=root.state)
            assert _same_outcome(warm, check_feasibility(other))
        # the caller's rows changed in place after the solve
        p.lhs[0, 0] += 0.5
        warm = check_feasibility(p, start=root.state)
        assert _same_outcome(warm, check_feasibility(p))
        changed += 1
        assert resumed == []
    assert changed > 10
    # rows of the same program still start warm; a standard form and a
    # simplex built on it cannot be changed in place
    form = standardize(_prob([[1.0, 1.0]], ["<="], [1.5], [0.0, 0.0], [1.0, 1.0], []).lp)
    root = check_feasibility(form)
    assert check_feasibility(form.with_bounds([0], [1.0], [1.0]),
                             start=root.state).status == "optimal"
    assert resumed == [1]
    for rows in (form.a, form.b, root.state.rows):
        with pytest.raises(ValueError):
            rows[0] = 1.0


@pytest.mark.parametrize("give_up", ["pivot cap", "certificate"])
def test_cold_fallback_keeps_branch_and_bound_verdicts(monkeypatch, give_up):
    rng = np.random.default_rng(18)
    probs = [_random_prob(rng) for _ in range(40)]
    with monkeypatch.context() as cold:
        # every node solved cold; its simplex is kept, so the search is
        # unchanged
        cold.setattr(mip_module, "check_feasibility",
                     lambda lp, start=None: check_feasibility(lp))
        reference = [solve_mip_feasibility(p).status for p in probs]

    builds = []
    build = _Simplex.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(_Simplex, "__init__", counted)
    if give_up == "pivot cap":
        monkeypatch.setattr(lp_module, "warm_pivot_cap", lambda rows: 0)
    else:
        monkeypatch.setattr(lp_module, "_certifies_infeasible", lambda *args: False)
    assert [solve_mip_feasibility(p).status for p in probs] == reference
    assert len(builds) > len(probs)  # more cold solves than roots


def test_node_limit_raises():
    # every branch is LP-feasible but fractional until pinned; a limit of
    # one node cannot finish
    rng = np.random.default_rng(7)
    lhs = rng.uniform(0.4, 1.0, (1, 6))
    p = _prob(lhs, ["="], [float(lhs.sum()) / 2.0], np.zeros(6), np.ones(6),
              np.arange(6))
    with pytest.raises(NodeLimitError):
        solve_mip_feasibility(p, node_limit=1)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="node_limit must be at least 1"):
            solve_mip_feasibility(p, node_limit=budget)


def test_pinned_rounding_counts_against_node_limit():
    # the root point x0 = 1, y = 0 is integral with x0 unfixed, so the
    # search needs a second node: the pinned rounding
    p = _prob([[1.0, 1.0]], ["="], [1.0], [0.0, 0.0], [1.0, INF], [0])
    with pytest.raises(NodeLimitError) as exc:
        solve_mip_feasibility(p, node_limit=1)
    assert exc.value.nodes == 1
    out = solve_mip_feasibility(p, node_limit=2)
    assert (out.status, out.nodes) == ("feasible", 2)


def test_binary_bounds_enforced():
    with pytest.raises(ValueError):
        _prob([[1.0]], ["<="], [1.0], [0.0], [2.0], [0])


def test_fractional_binary_bounds_admit_no_point():
    # 0.3 <= x <= 0.7 holds no integral value: the children that fix x at
    # 0 and at 1 leave those bounds, and their points must not come back
    p = _prob([[1.0]], ["<="], [5.0], [0.3], [0.7], [0])
    assert solve_mip_feasibility(p).status == "infeasible"


def test_big_m_search_counts_are_pinned(monkeypatch):
    # nodes and simplex iterations of the big-M search on 20 seeded
    # instances; a change that moves a pivot or a branch moves these, and
    # one that does so on purpose records the new values
    iterations = []

    def counted(lp, start=None):
        out = check_feasibility(lp, start=start)
        iterations.append(out.iterations)
        return out

    monkeypatch.setattr(mip_module, "check_feasibility", counted)
    nodes, feasible = 0, 0
    for n, seed in itertools.product((3, 4), range(10)):
        inst = parse_instance(generate_random("uncertain-q", n, seed=seed))
        prob, _ = build_mip(inst, default_big_m(inst))
        out = solve_mip_feasibility(prob)
        nodes += out.nodes
        feasible += out.status == "feasible"
    assert (nodes, sum(iterations), feasible) == (57, 1471, 4)


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
