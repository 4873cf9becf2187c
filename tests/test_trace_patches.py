"""The benchmark's tracer patches public names of the package by
(module, attribute); a refactor that drops or stops calling one of them
would otherwise show only as a failing or silent traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import aarlcp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_resolve():
    spans = _spans()
    for mod_name, attr, _ in spans.PATCHES:
        assert callable(getattr(getattr(aarlcp, mod_name), attr)), (mod_name, attr)
    assert callable(aarlcp.reporting.SolveReport.to_json)


# per pathway: a small instance and the spans its solve must record
# besides those of dispatch (for uncertain-m: every robust_m patch)
CASES = {
    # the zero rule fails the nominal screen (q_0 < 0); the support {0}
    # (r_0 = 2) reaches the box check with the off-support row w_1 = 2
    # zeta + 4, so min_quadratic_over_box runs on a nonempty support
    "uncertain-m": (
        aarlcp.UncertainLcpM(m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
                             perturbations=[np.array([[0.0, 1.0], [1.0, 0.0]])],
                             q=np.array([-8.0, 4.0]), h=0),
        None),
    # positive semidefinite and singular, so solve_psd takes its LP route;
    # a one-point nominal set, so the uniqueness check reaches its rank
    # test
    "psd-lp": (
        aarlcp.UncertainLcpQ(m=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             qbar=np.array([-1.0, 1.0]),
                             ubar=np.array([0.1, 0.1])),
        {"robust_q.solve_psd", "robust_q.uniqueness_check_psd",
         "lcp.solve_lemke", "lcp.compute_support_P", "lp.solve_lp",
         "lp.check_feasibility", "robust_q.verify_affine_q",
         "boxopt.min_affine_over_box", "linalg.is_psd"}),
    # general 3x3 (`aarlcp gen uncertain-q 3 --seed 4`): the rule its
    # nominal solution names fails, so the big-M search runs, and some
    # node LP runs past the refactorization interval, so the simplex
    # reaches linalg.invert
    "mip": (
        aarlcp.UncertainLcpQ(m=np.array([[2.6583, 0.068, 2.8575],
                                         [-2.515, 0.6441, -0.7411],
                                         [1.8114, -1.9528, 2.2298]]),
                             qbar=np.array([-0.6485, 2.2177, -1.1828]),
                             ubar=np.array([0.4874, 0.8101, 0.9857])),
        {"robust_q.solve_mip_q", "lcp.solve_lemke", "robust_q.build_mip",
         "mip.solve_mip_feasibility", "lp.check_feasibility",
         "robust_q.verify_affine_q", "boxopt.min_affine_over_box",
         "linalg.invert"}),
}


@pytest.mark.parametrize("pathway", sorted(CASES))
def test_patches_are_on_the_call_path(pathway):
    spans = _spans()
    inst, wanted = CASES[pathway]
    if wanted is None:
        wanted = {span for mod_name, _, span in spans.PATCHES
                  if mod_name == "robust_m" or span.startswith("robust_m.")}
    tracer = spans.Tracer()
    with tracer.patched(aarlcp):
        report = aarlcp.dispatch_solve(inst, pathway)
    assert report.status == "solution"
    names = [s[spans.NAME] for s in tracer.spans]
    assert wanted <= set(names), wanted - set(names)

    def lps_under(parent):
        return sum(1 for s in tracer.spans if s[spans.NAME] == "lp.solve_lp"
                   and s[spans.PARENT] != -1
                   and names[s[spans.PARENT]] == parent)

    support = lps_under("lcp.compute_support_P")
    uniqueness = lps_under("robust_q.uniqueness_check_psd")
    # perfbench counts the support-P LPs as the solve_lp children of
    # compute_support_P, one per call; the uniqueness check solves none
    assert support == names.count("lcp.compute_support_P")
    assert uniqueness == 0
    assert names.count("lp.solve_lp") == support + uniqueness
    if pathway == "psd-lp":
        # perfbench's lp.check_feasibility.* metrics measure the psd-lp LP:
        # exactly one per solve, under solve_psd
        psd = [k for k, name in enumerate(names) if name == "robust_q.solve_psd"]
        feas = [s[spans.PARENT] for s in tracer.spans
                if s[spans.NAME] == "lp.check_feasibility"]
        assert sorted(feas) == psd
