"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line with its runtime (visible with -s;
under plain pytest -v the test name itself is the per-criterion line).
Solutions produced by criteria 1-5 are pooled for the sampling audit in
criterion 6, so test order in this file matters.
"""

import time

import numpy as np
import pytest

from aarlcp import (
    AffineSolutionQ,
    MarketModel,
    NominalLcp,
    UncertainLcpM,
    UncertainLcpQ,
    build_lcp,
    is_psd,
    sample_violation_m,
    sample_violation_q,
    solve_enumeration,
    solve_enumeration_m,
    solve_lemke,
    solve_mip_q,
    solve_psd,
    verify_affine_q,
)
from conftest import lcp_brute_force, random_p_matrix, random_psd_matrix

EX1 = UncertainLcpQ(m=np.array([[4.0, 10.0], [1.0, 2.0]]),
                    qbar=np.array([-100.0, -22.0]),
                    ubar=np.array([1.0, 1.0]), h=0)
EX1_PAIRS = [
    AffineSolutionQ(d=np.array([[-0.25, 0.0], [0.0, 0.0]]),
                    r=np.array([25.0, 0.0])),
    AffineSolutionQ(d=np.array([[0.0, 0.0], [0.0, -0.5]]),
                    r=np.array([0.0, 11.0])),
]

NO_SOLUTION = UncertainLcpQ(m=np.array([[1.0, 0.5], [0.5, 1.0]]),
                            qbar=np.array([-5.0, -3.0]),
                            ubar=np.array([1.0, 1.0]), h=0)

WORKED_M = UncertainLcpM(m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
                         perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                         q=np.array([-8.0, -16.0]), h=0)

# (kind, instance, solution) pool that criterion 6 audits by sampling
COLLECTED = []


def _pass(num, name, start):
    print(f"criterion {num} ({name}): PASS in {time.perf_counter() - start:.2f}s")


def _matches(sol, ref, tol=1e-9):
    return (np.max(np.abs(sol.r - ref.r)) <= tol
            and np.max(np.abs(sol.d - ref.d)) <= tol)


def test_criterion_1_worked_example_enumeration():
    start = time.perf_counter()
    sols = solve_enumeration(EX1)
    hits = [sum(_matches(s, ref) for s in sols) for ref in EX1_PAIRS]
    # both published rules recovered, each exactly once
    assert hits == [1, 1]
    assert sum(sum(_matches(s, ref) for ref in EX1_PAIRS) for s in sols) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    COLLECTED.extend(("q", EX1, s) for s in sols)
    _pass(1, "worked example, enumeration", start)


def test_criterion_2_nonexistence_on_all_pathways():
    start = time.perf_counter()
    assert solve_enumeration(NO_SOLUTION) == []
    assert solve_psd(NO_SOLUTION).status == "no-solution"
    mip = solve_mip_q(NO_SOLUTION)
    assert mip.status == "no-solution"
    assert mip.certificate in ("exact", "big-M bounded")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(2, "nonexistence, three pathways", start)


def test_criterion_3_worked_example_uncertain_matrix():
    start = time.perf_counter()
    sols = solve_enumeration_m(WORKED_M)
    assert len(sols) == 1
    assert np.max(np.abs(sols[0].r - [1.0, 4.0])) <= 1e-9
    assert np.max(np.abs(sols[0].d - np.array([[-1.0], [0.0]]))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    COLLECTED.append(("m", WORKED_M, sols[0]))
    _pass(3, "worked example, uncertain matrix", start)


def test_criterion_4_mip_agrees_with_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        inst = UncertainLcpQ(
            m=rng.uniform(-3.0, 3.0, (n, n)).round(2),
            qbar=rng.uniform(-5.0, 3.0, n).round(2),
            ubar=rng.uniform(0.1, 1.0, n).round(2),
            h=int(rng.integers(0, 2)),
        )
        enum_sols = solve_enumeration(inst)
        mip = solve_mip_q(inst)
        assert (mip.status == "solution") == bool(enum_sols)
        if mip.status == "solution":
            solved += 1
            # each route's answer passes the other's acceptance check
            assert verify_affine_q(inst, mip.solution).overall
            for s in enum_sols:
                assert verify_affine_q(inst, s).overall
            COLLECTED.append(("q", inst, mip.solution))
            COLLECTED.extend(("q", inst, s) for s in enum_sols)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert solved > 0  # the sweep must exercise the solution branch
    _pass(4, f"mip vs enumeration on 50 instances, {solved} solvable", start)


def test_criterion_5_psd_pathway_agrees_with_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    both = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        inst = UncertainLcpQ(
            m=random_psd_matrix(rng, n),
            qbar=rng.uniform(-5.0, 3.0, n).round(2),
            ubar=rng.uniform(0.1, 1.0, n).round(2),
            h=0,
        )
        psd = solve_psd(inst)
        enum_sols = solve_enumeration(inst)
        assert (psd.status == "solution") == bool(enum_sols)
        if psd.status == "solution":
            both += 1
            assert len(enum_sols) == 1  # unique under full-dimensional boxes
            assert np.max(np.abs(psd.solution.r - enum_sols[0].r)) <= 1e-7
            assert np.max(np.abs(psd.solution.d - enum_sols[0].d)) <= 1e-7
            COLLECTED.append(("q", inst, psd.solution))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert both > 0
    _pass(5, f"psd vs enumeration on 30 instances, {both} solvable", start)


def test_criterion_6_sampling_audit_of_all_solutions():
    start = time.perf_counter()
    assert COLLECTED  # criteria 1-5 must have contributed
    worst = 0.0
    for kind, inst, sol in COLLECTED:
        sampler = sample_violation_q if kind == "q" else sample_violation_m
        worst = max(worst, sampler(inst, sol, count=1000))
    assert worst <= 1e-7
    _pass(6, f"sampled {len(COLLECTED)} solutions, worst {worst:.2e}", start)


def test_criterion_7_nominal_solver_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = random_p_matrix(rng, n)
        q = rng.uniform(-5.0, 5.0, n).round(2)
        out = solve_lemke(NominalLcp(m, q))
        assert out.status == "solution"  # P-matrices always admit one
        refs = lcp_brute_force(m, q)
        assert refs and min(np.max(np.abs(out.solution.z - z))
                            for z in refs) <= 1e-8

    rng = np.random.default_rng(13)
    pairs = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-1.5, 1.5, (n, int(rng.integers(1, n + 1))))
        m = g @ g.T
        q = rng.uniform(-4.0, 4.0, n).round(2)
        sols = list(lcp_brute_force(m, q))
        out = solve_lemke(NominalLcp(m, q))
        if out.status == "solution":
            sols.append(out.solution.z)
        # float64 cannot certify an absolute 1e-8 identity once solution
        # norms reach ~1e4, so keep the audit on the certifiable scale
        sols = [z for z in sols if np.max(np.abs(z)) <= 1e3]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                za, zb = sols[i], sols[j]
                assert abs(za @ (m @ zb + q)) <= 1e-8
                assert abs(zb @ (m @ za + q)) <= 1e-8
                pairs += 1
    assert pairs > 50  # the sweep must hit genuinely multi-solution cases
    _pass(7, f"lemke vs oracle, {pairs} cross pairs", start)


def test_criterion_8_market_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m_rows = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        fixed = tuple(int(i) for i in
                      rng.choice(n, size=rng.integers(0, n + 1), replace=False))
        mm = MarketModel(
            costs=rng.uniform(0.5, 3.0, n),
            technology=rng.uniform(0.0, 2.0, (m_rows, n)),
            capacity=rng.uniform(-8.0, -2.0, m_rows),
            demand_matrix=rng.uniform(0.0, 2.0, (k, n)),
            sensitivity=-random_psd_matrix(rng, k),
            demand=rng.uniform(2.0, 6.0, k),
            demand_halfwidth=rng.uniform(0.05, 0.5, k),
            nonadjustable_producers=fixed,
            adjustable_duals=bool(rng.integers(0, 2)),
        )
        inst, bmap = build_lcp(mm)
        assert is_psd(inst.m)
        assert inst.h == bmap.h == len(fixed) + (
            0 if mm.adjustable_duals else m_rows)
        # permuting the canonical build must reproduce the instance exactly
        base, _ = build_lcp(MarketModel(
            costs=mm.costs, technology=mm.technology, capacity=mm.capacity,
            demand_matrix=mm.demand_matrix, sensitivity=mm.sensitivity,
            demand=mm.demand, demand_halfwidth=mm.demand_halfwidth))
        ix = np.ix_(bmap.perm, bmap.perm)
        assert np.array_equal(inst.m, base.m[ix])
        assert np.array_equal(inst.qbar, base.qbar[bmap.perm])
        assert np.array_equal(inst.ubar, base.ubar[bmap.perm])
        v = rng.normal(size=inst.n)
        assert np.array_equal(bmap.to_canonical(bmap.from_canonical(v)), v)
    _pass(8, "20 market builds psd + permutation round-trip", start)
