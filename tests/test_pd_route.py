"""The psd-lp route for a positive definite M: block principal pivoting
solves the nominal LCP, Lemke takes over whenever it gives up, and the
verification holds each rule to floors in its own units."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aarlcp import (UncertainLcpQ, dispatch_solve, generate_random, lcp, linalg,
                    parse_instance, robust_q, solve_psd, verify_affine_q)
from aarlcp.robust_q import AffineSolutionQ

BUILDER = Path(__file__).resolve().parents[1] / "perfbench" / "builder.py"


def _builder():
    spec = importlib.util.spec_from_file_location("perfbench_builder", BUILDER)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the module executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _pd_instances():
    """The psd regime at n = 2-10, seeds 0-24, and the benchmark's
    positive definite uncertain-q shapes, planted and not, up to n = 60."""
    insts = [parse_instance(generate_random("uncertain-q", n, seed=seed, regime="psd"))
             for n in range(2, 11) for seed in range(25)]
    builder = _builder()
    for n in (12, 20, 40, 60):
        for seed in range(3):
            for plant in (False, True):
                rng = np.random.default_rng([n, seed])
                insts.append(parse_instance(
                    builder.uncertain_q(rng, n, 0, "psd", plant, "pd").text))
    return insts


def _lemke_only(monkeypatch):
    monkeypatch.setattr(robust_q, "solve_block_pivoting", lambda prob: None)


def _doc(report) -> dict:
    doc = report.to_json()
    doc.pop("timing_seconds")
    return doc


def test_block_pivoting_and_lemke_dispatch_alike(monkeypatch):
    solved = []
    spy = robust_q.solve_block_pivoting
    monkeypatch.setattr(robust_q, "solve_block_pivoting",
                        lambda prob: solved.append(spy(prob)) or solved[-1])
    insts = _pd_instances()
    reports = [dispatch_solve(inst, "psd-lp") for inst in insts]
    # every M here is positive definite, and block pivoting solved each
    assert len(solved) == len(insts) and all(s is not None for s in solved)
    _lemke_only(monkeypatch)
    statuses = set()
    for inst, got in zip(insts, reports):
        want = dispatch_solve(inst, "psd-lp")
        assert (got.status, got.uniqueness, got.psd_info, len(got.solutions)) == \
            (want.status, want.uniqueness, want.psd_info, len(want.solutions))
        for a, b in zip(got.solutions, want.solutions):
            assert np.max(np.abs(a.solution.r - b.solution.r)) <= 1e-10
            assert np.max(np.abs(a.solution.d - b.solution.d)) <= 1e-10
        statuses.add(got.status)
    assert statuses == {"solution", "no-solution"}


@pytest.mark.parametrize("mode", ["singular", "inf", "nan", "stall", "recheck"])
def test_forced_fallback_reports_are_lemkes(monkeypatch, mode):
    # each way block pivoting gives up hands the instance to Lemke, and
    # the report is the one Lemke alone gives
    insts = [parse_instance(generate_random("uncertain-q", n, seed=seed, regime="psd"))
             for n in (3, 6, 9) for seed in range(4)]
    with monkeypatch.context() as mp:
        _lemke_only(mp)
        want = [_doc(dispatch_solve(inst)) for inst in insts]
    real = np.linalg.solve

    def broken(a, b):
        if mode == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        if mode in ("inf", "nan"):
            return np.full(b.shape, np.inf if mode == "inf" else np.nan)
        if mode == "stall":
            return -np.ones(b.shape)
        return real(a, b) * (1.0 + 1e-3)

    monkeypatch.setattr(lcp.np.linalg, "solve", broken)
    lemke = []
    spy = robust_q.solve_lemke
    monkeypatch.setattr(robust_q, "solve_lemke",
                        lambda prob: lemke.append(1) or spy(prob))
    got = [_doc(dispatch_solve(inst)) for inst in insts]
    # the instances whose q is nonnegative need no block solve
    assert len(lemke) >= len(insts) - 2
    assert got == want


def test_overflowed_ray_still_reaches_lemke():
    # positive definite, so block pivoting runs first; its block solve
    # overflows, and Lemke's overflowed ray is the typed limit it was
    inst = UncertainLcpQ(m=np.array([[9e278, -0.02, -2e214],
                                     [-0.02, 8e-282, 0.0],
                                     [-2e214, 0.0, 1.2e151]]),
                         qbar=np.array([-4e78, -2e243, 3e54]), ubar=np.ones(3))
    assert linalg.is_positive_definite(inst.m)
    with pytest.raises(linalg.NumericalError, match="lemke tableau holds inf or NaN"):
        with np.errstate(all="ignore"):
            solve_psd(inst)


def test_psd_verdicts_hold_under_rescaling():
    # the unit-scale verdicts of seeds 0-19 under four changes of units;
    # at absolute floors 10 of these read "solution" and 8 raised
    scalings = [(1.0, 1e-9), (1.0, 1e9), (1e-9, 1.0), (1e6, 1e-6)]
    same = 0
    for seed in range(20):
        inst = parse_instance(generate_random("uncertain-q", 3, seed=seed, regime="psd"))
        want = solve_psd(inst).status
        for m_scale, q_scale in scalings:
            scaled = UncertainLcpQ(m=m_scale * inst.m, qbar=q_scale * inst.qbar,
                                   ubar=q_scale * inst.ubar, h=inst.h)
            same += solve_psd(scaled).status == want
    assert same == 80


def _check(report, name):
    return next(c for c in report.checks if c.condition == name)


def test_z_floor_follows_the_rule_scale():
    # z_0(u) = 1e-12 - 1.0062e-12 u_0 dips to -6.2e-15 on the box: a rule
    # of scale 1e-12 breaks its own sign condition by 0.6%. The absolute
    # floor -TOL_FEAS let it through; its row floor is TOL_FEAS times its
    # envelope, about 2e-20
    inst = UncertainLcpQ(m=np.eye(2), qbar=np.array([-1e-12, 1.0]),
                         ubar=np.array([1.0, 1.0]))
    sol = AffineSolutionQ(d=np.diag([-1.0062e-12, 0.0]), r=np.array([1e-12, 0.0]))
    check = _check(verify_affine_q(inst, sol), "z-nonnegative")
    assert not check.passed
    assert check.worst_value == pytest.approx(-6.2e-15)
    # in unit scale the floor stays -TOL_FEAS: a dip of 5e-9 passes, one
    # of 2e-8 fails, as before
    for dip, passed in ((5e-9, True), (2e-8, False)):
        sol = AffineSolutionQ(d=np.diag([-(1.0 + dip), 0.0]), r=np.array([1.0, 0.0]))
        inst = UncertainLcpQ(m=np.eye(2), qbar=np.array([-1.0, 1.0]),
                             ubar=np.array([1.0, 1.0]))
        assert _check(verify_affine_q(inst, sol), "z-nonnegative").passed is passed


def _inactive_dip(scale, dip):
    """The inactive-rows check of the rule z = (scale - u_0, 0), whose
    row 1 of M z + q, qbar_1 - scale + u_0 + u_1 over a box of
    half-width 0.1 scale, dips to -dip."""
    inst = UncertainLcpQ(m=np.array([[1.0, 0.0], [-1.0, 1.0]]),
                         qbar=np.array([-scale, 1.2 * scale - dip]),
                         ubar=np.array([0.1 * scale, 0.1 * scale]))
    sol = AffineSolutionQ(d=np.diag([-1.0, 0.0]), r=np.array([scale, 0.0]))
    return _check(verify_affine_q(inst, sol), "inactive-rows-nonnegative")


def test_inactive_floor_follows_the_row_scale():
    # terms of order 1e-12: a dip of 1e-14 is 1% of the row and fails,
    # where the absolute floor -TOL_FEAS (1 + max|qbar|) passed it
    check = _inactive_dip(1e-12, 1e-14)
    assert not check.passed
    assert check.worst_value == pytest.approx(-1e-14, rel=1e-3)
    # in unit scale the floor is -TOL_FEAS (1 + max|qbar|), as before
    assert _inactive_dip(1.0, 5e-9).passed
    assert not _inactive_dip(1.0, 5e-8).passed
