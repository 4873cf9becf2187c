"""The uncertain-M route through the one nominal solution: a positive
definite m0 is decided at the support of Lemke's solution of (m0, q),
joined with every subset of the coordinates that the sweep's floor
cannot decide, and must return exactly the rules of the sweep of all
2^n supports. Lemke's ray or failure, a zbar that is not strictly
complementary and too many undecided coordinates fall back to the
sweep."""

import time

import numpy as np
import pytest

from aarlcp import (DispatchError, SizeLimitError, dispatch_solve, generate_random,
                    linalg, parse_instance, robust_m, robust_q)
from aarlcp.lcp import LemkeOutcome
from aarlcp.lp import IterationLimitError
from aarlcp.robust_m import UncertainLcpM, _support_sweep, solve_enumeration_m_detailed
from test_support_sweeps import _m_instance


def _planted(rng, n, k):
    """(instance, r*): m0 upper triangular with a diagonal of 2 to 3 and
    entries of at most 0.1 above it, so positive definite for n < 40;
    the k perturbations in the last column above the diagonal, so the
    kernel condition holds on every support; q = -m0 r* plus a slack of
    0.5 to 1.5 off the support of r*, which is zero on about a fifth of
    the coordinates."""
    m0 = np.diag(rng.uniform(2.0, 3.0, n)) + np.triu(rng.uniform(-0.1, 0.1, (n, n)), 1)
    perts = []
    for _ in range(k):
        p = np.zeros((n, n))
        p[: n - 1, n - 1] = rng.uniform(-0.1, 0.1, n - 1)
        perts.append(p)
    rstar = rng.uniform(1.0, 3.0, n) * (rng.uniform(size=n) < 0.8)
    q = -(m0 @ rstar) + np.where(rstar == 0.0, rng.uniform(0.5, 1.5, n), 0.0)
    return UncertainLcpM(m0=m0, perturbations=perts, q=q, h=0), rstar


def _assert_same(got, want):
    assert len(got.solutions) == len(want.solutions)
    for a, b in zip(got.solutions, want.solutions):
        assert np.array_equal(a.r, b.r) and np.array_equal(a.d, b.d)
    assert [s.tolist() for s in got.singular_supports] == \
        [s.tolist() for s in want.singular_supports]


def test_route_returns_the_sweeps_rules():
    insts = [parse_instance(generate_random("uncertain-m", n, k=k, seed=seed, regime=regime))
             for regime in ("general", "psd", "pmatrix") for n in (4, 6, 8)
             for k in (1, 2) for seed in range(20)]
    rng = np.random.default_rng(5)
    insts += [_planted(rng, n, k)[0] for n in (4, 6, 8, 10) for k in (1, 2)
              for _ in range(6)]
    routed = rules = 0
    for inst in insts:
        if linalg.is_positive_definite(inst.m0) and \
                robust_m._nominal_chunks(inst) is not None:
            routed += 1
            want = _support_sweep(inst)
            _assert_same(solve_enumeration_m_detailed(inst), want)
            rules += len(want.solutions)
    assert routed == 288 and rules >= 40


def _case_42():
    rng = np.random.default_rng(71)
    for case in range(43):
        inst = _m_instance(rng, case)
    return inst


def test_coordinate_the_floor_cannot_decide_keeps_both_supports():
    # case 42 of test_stacked_m_sweep_matches_the_per_support_loop: m0
    # is scaled by 1e-3 and zbar_7 = 1.08e-5 (1-based) is strictly
    # positive, but dropping it moves w by less than the sweep's floor:
    # w_7 at the support {3, 4, 6} is -1.7e-8, above the floor -2.5e-8
    inst = _case_42()
    assert linalg.is_positive_definite(inst.m0)
    chunks = [c.tolist() for c in robust_m._nominal_chunks(inst)]
    assert chunks == [[[2, 3, 5]], [[2, 3, 5, 6]]]
    want = _support_sweep(inst)
    assert [s.support().tolist() for s in want.solutions] == [[2, 3, 5], [2, 3, 5, 6]]
    _assert_same(solve_enumeration_m_detailed(inst), want)


# m0 = 1e-3 I and zbar = (1, 1e-6): the floor 1.001e-8 cannot tell
# zbar_2 from zero (its swing is 1e-9), so {1} (w_2 = -1e-9) and {1, 2}
# (r_2 = 1e-6 above TOL_SUPPORT) both carry a rule
DEGENERATE = UncertainLcpM(m0=1e-3 * np.eye(2), perturbations=[np.zeros((2, 2))],
                           q=np.array([-1e-3, -1e-9]), h=0)


def test_degenerate_coordinate_is_decided_both_ways():
    assert [c.tolist() for c in robust_m._nominal_chunks(DEGENERATE)] == [[[0]], [[0, 1]]]
    got = solve_enumeration_m_detailed(DEGENERATE)
    assert [s.support().tolist() for s in got.solutions] == [[0], [0, 1]]
    _assert_same(got, _support_sweep(DEGENERATE))


def test_planted_n24_is_decided_past_the_caps():
    inst, rstar = _planted(np.random.default_rng(24), 24, 2)
    with pytest.raises(SizeLimitError, match="not positive definite"):
        _support_sweep(inst)
    start = time.perf_counter()
    report = dispatch_solve(inst)
    assert time.perf_counter() - start < 1.0
    assert report.status == "solution" and report.uniqueness == "unique-if-exists"
    assert report.caveat is None
    rule, = report.solutions
    assert rule.verification.overall and rule.verification.certified
    assert np.allclose(rule.solution.r, rstar, rtol=1e-9, atol=1e-12)


def test_indefinite_m0_past_the_caps_is_still_refused():
    inst, _ = _planted(np.random.default_rng(24), 24, 2)
    inst.m0[0, 0] = -inst.m0[0, 0]
    assert not linalg.is_positive_definite(inst.m0)
    with pytest.raises(DispatchError) as err:
        dispatch_solve(inst)
    assert err.value.is_limit and isinstance(err.value.cause, SizeLimitError)


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


# (robust_q attribute, replacement): Lemke ends in a ray, Lemke fails
# two ways, zbar is not strictly complementary
FALLBACKS = {
    "ray": ("solve_lemke", lambda prob: LemkeOutcome("ray")),
    "numerical": ("solve_lemke", _raise(linalg.NumericalError("overflow"))),
    "iterations": ("solve_lemke", _raise(IterationLimitError("too many pivots"))),
    "not-strict": ("_strict_support", lambda *args: None),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_nominal_failure_falls_back_to_the_sweep(monkeypatch, name):
    inst, _ = _planted(np.random.default_rng(6), 6, 2)
    swept = []
    sweep = robust_m._support_sweep
    monkeypatch.setattr(robust_m, "_support_sweep",
                        lambda inst: swept.append(inst) or sweep(inst))
    want = solve_enumeration_m_detailed(inst)
    assert not swept and len(want.solutions) == 1
    monkeypatch.setattr(robust_q, *FALLBACKS[name])
    _assert_same(solve_enumeration_m_detailed(inst), want)
    assert swept == [inst]


def test_more_undecided_coordinates_than_the_cap_fall_back(monkeypatch):
    # DEGENERATE has one undecided coordinate: past a cap of 0 the sweep
    # runs, and refuses
    monkeypatch.setattr(robust_m, "ENUMERATION_SIZE_CAP", 0)
    with pytest.raises(SizeLimitError):
        solve_enumeration_m_detailed(DEGENERATE)


def test_dispatch_tests_m0_once(monkeypatch):
    # the route's own test of m0 carries the uniqueness verdict: one
    # is_positive_definite call per dispatch, the verdict uniqueness_m's
    insts = [_planted(np.random.default_rng(5), 6, 2)[0],
             parse_instance(generate_random("uncertain-m", 4, k=2, seed=3))]
    insts.append(UncertainLcpM(m0=-insts[0].m0, perturbations=insts[0].perturbations,
                               q=insts[0].q, h=0))
    verdicts = []
    for inst in insts:
        calls = []
        test = linalg.is_positive_definite
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "is_positive_definite",
                       lambda a: calls.append(1) or test(a))
            report = dispatch_solve(inst)
        assert len(calls) == 1
        assert report.uniqueness == robust_m.uniqueness_m(inst)
        assert solve_enumeration_m_detailed(inst).uniqueness == report.uniqueness
        verdicts.append(report.uniqueness)
    assert set(verdicts) == {"unique-if-exists", "unknown"}
