"""The benchmark's tracer patches public names of the package by
(module, attribute); a refactor that drops or stops calling one of them
would otherwise show only as a failing or silent traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_uncertain_m_patches_are_on_the_call_path():
    spans = _spans()
    inst = aarlcp.UncertainLcpM(m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
                                perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                                q=np.array([-8.0, -16.0]), h=0)
    tracer = spans.Tracer()
    with tracer.patched(aarlcp):
        assert aarlcp.dispatch_solve(inst).status == "solution"
    seen = {s[spans.NAME] for s in tracer.spans}
    wanted = {span for mod_name, _, span in spans.PATCHES
              if mod_name == "robust_m" or span.startswith("robust_m.")}
    assert wanted <= seen, wanted - seen
