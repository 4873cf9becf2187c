"""Spans around aarlcp's public functions, recorded from outside src/.

Each public name is patched where its caller looks it up: names that a
module imported with `from .x import y` are patched in that module,
names called as `linalg.invert` are patched on the module object. A span
records (name, start, end, parent span, instance, info); info comes from
the return value or the raised exception (simplex iterations, B&B nodes,
Lemke iterations, SingularMatrixError, ...). Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

# (module, attribute, span name); the same span name may be patched at
# several lookup sites, one per caller module
PATCHES = [
    ("instances", "parse_instance", "instances.parse"),
    ("instances", "serialize_instance", "instances.serialize"),
    ("reporting", "dispatch_solve", "reporting.dispatch_solve"),
    ("reporting", "auto_pathway", "reporting.auto_pathway"),
    ("reporting", "build_lcp", "market.build_lcp"),
    ("reporting", "solve_enumeration", "robust_q.solve_enumeration"),
    ("robust_q", "solve_enumeration", "robust_q.solve_enumeration"),
    ("reporting", "solve_psd", "robust_q.solve_psd"),
    ("reporting", "uniqueness_check_psd", "robust_q.uniqueness_check_psd"),
    ("reporting", "solve_mip_q", "robust_q.solve_mip_q"),
    ("robust_q", "build_mip", "robust_q.build_mip"),
    ("reporting", "verify_affine_q", "robust_q.verify_affine_q"),
    ("robust_q", "verify_affine_q", "robust_q.verify_affine_q"),
    ("reporting", "solve_enumeration_m_detailed", "robust_m.sweep"),
    ("reporting", "verify_affine_m", "robust_m.verify_affine_m"),
    ("robust_m", "characterize_for_J", "robust_m.characterize_for_J"),
    ("robust_m", "check_kernel_condition", "robust_m.check_kernel_condition"),
    ("robust_m", "check_box_conditions", "robust_m.check_box_conditions"),
    ("robust_m", "sample_violation_m", "robust_m.sample_violation_m"),
    ("robust_q", "solve_lemke", "lcp.solve_lemke"),
    ("robust_q", "compute_support_P", "lcp.compute_support_P"),
    ("robust_q", "solve_lp", "lp.solve_lp"),
    ("lcp", "solve_lp", "lp.solve_lp"),
    ("robust_q", "check_feasibility", "lp.check_feasibility"),
    ("mip", "check_feasibility", "lp.check_feasibility"),
    ("robust_q", "solve_mip_feasibility", "mip.solve_mip_feasibility"),
    ("robust_q", "min_affine_over_box", "boxopt.min_affine_over_box"),
    ("robust_m", "min_affine_over_box", "boxopt.min_affine_over_box"),
    ("robust_m", "min_quadratic_over_box", "boxopt.min_quadratic_over_box"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "is_psd", "linalg.is_psd"),
]

# SolveReport.to_json is a method, patched on the class
TO_JSON = "reporting.to_json"

NAME, START, END, PARENT, INSTANCE, INFO = range(6)


def _info(out):
    """What a return value tells: status, iterations, nodes, counts."""
    if out is None:
        return "none"
    if isinstance(out, list):
        return len(out)
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[2], bool):
        return "exact" if out[2] else "sampled"  # min_quadratic_over_box
    status = getattr(out, "status", None)
    if status is None:
        return None
    if hasattr(out, "nodes") and not hasattr(out, "doublings"):
        return [status, out.nodes]  # MipOutcome
    if hasattr(out, "iterations"):
        return [status, out.iterations]  # LpOutcome, LemkeOutcome
    return [status]


class Tracer:
    """Collects spans while its patches are applied."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.instance = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[INFO] = ["raise", type(exc).__name__,
                              getattr(exc, "nodes", None)]
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            span[INFO] = _info(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, aarlcp):
        """Apply every patch to the imported aarlcp package; undo on exit."""
        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = getattr(aarlcp, mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            cls = aarlcp.reporting.SolveReport
            saved.append((cls, "to_json", cls.to_json))
            cls.to_json = self.wrap(TO_JSON, cls.to_json)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def write(self, path) -> None:
        """Spans as one JSON document: field names plus one row per span."""
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "instance", "info"],
            "spans": self.spans}))


def layer_metrics(spans: list, instances: int) -> dict:
    """Per-layer metrics of one traced sweep, as {name: (value, unit)}."""
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in idx(name))

    def raised(i, exc=None):
        info = spans[i][INFO]
        return (isinstance(info, list) and info[0] == "raise"
                and (exc is None or info[1] == exc))

    def under(i, prefixes):
        p = spans[i][PARENT]
        while p != -1:
            if spans[p][NAME].startswith(prefixes):
                return True
            p = spans[p][PARENT]
        return False

    def child_of(i, name):
        p = spans[i][PARENT]
        return p != -1 and spans[p][NAME] == name

    def ratio(a, b):
        return a / b if b else 0.0

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children.get(i, []))
                   for i in idx(name))

    def outcome_sum(name, pos):
        return sum(spans[i][INFO][pos] for i in idx(name)
                   if isinstance(spans[i][INFO], list)
                   and spans[i][INFO][0] != "raise")

    def outcome_count(name, status):
        return sum(1 for i in idx(name) if isinstance(spans[i][INFO], list)
                   and spans[i][INFO][0] == status)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("instances.parse_s", total("instances.parse"), "s")
    put("instances.serialize_s", total("instances.serialize"), "s")
    put("reporting.dispatch_solve.self_s", self_time("reporting.dispatch_solve"), "s")
    put("reporting.auto_pathway_s", total("reporting.auto_pathway"), "s")
    put("reporting.to_json_s", total(TO_JSON), "s")

    enum = "robust_q.solve_enumeration"
    tried = [i for i in idx("linalg.invert") if child_of(i, enum)]
    enum_s = total(enum)
    accepted = sum(spans[i][INFO] for i in idx(enum)
                   if isinstance(spans[i][INFO], int))
    put("robust_q.solve_enumeration_s", enum_s, "s")
    put("robust_q.enum.supports_tried", len(tried), "count")
    put("robust_q.enum.supports_singular",
        sum(1 for i in tried if raised(i, "SingularMatrixError")), "count")
    put("robust_q.enum.supports_per_s", ratio(len(tried), enum_s), "1/s")
    put("robust_q.enum.accept_ratio", ratio(accepted, len(tried)), "1")
    put("robust_q.solve_psd_s", total("robust_q.solve_psd"), "s")
    put("robust_q.uniqueness_check_psd_s",
        total("robust_q.uniqueness_check_psd"), "s")
    mip_q = idx("robust_q.solve_mip_q")
    put("robust_q.solve_mip_q_s", total("robust_q.solve_mip_q"), "s")
    put("robust_q.build_mip.calls", len(idx("robust_q.build_mip")), "count")
    put("robust_q.mip.rungs_per_verdict",
        ratio(len(idx("robust_q.build_mip")), len(mip_q)), "1")
    put("robust_q.verify_affine_q.calls", len(idx("robust_q.verify_affine_q")),
        "count")
    put("robust_q.verify_affine_q.s", total("robust_q.verify_affine_q"), "s")

    put("robust_m.sweep_s", total("robust_m.sweep"), "s")
    put("robust_m.characterize_for_J.calls",
        len(idx("robust_m.characterize_for_J")), "count")
    put("robust_m.characterize_for_J.singular",
        sum(1 for i in idx("robust_m.characterize_for_J")
            if spans[i][INFO] == "none"), "count")
    for fn in ("check_kernel_condition", "check_box_conditions",
               "sample_violation_m"):
        put(f"robust_m.{fn}.calls", len(idx(f"robust_m.{fn}")), "count")
        put(f"robust_m.{fn}.s", total(f"robust_m.{fn}"), "s")
    put("robust_m.verify_affine_m_s", total("robust_m.verify_affine_m"), "s")

    put("lcp.solve_lemke.calls", len(idx("lcp.solve_lemke")), "count")
    put("lcp.solve_lemke.s", total("lcp.solve_lemke"), "s")
    put("lcp.solve_lemke.iterations", outcome_sum("lcp.solve_lemke", 1), "count")
    put("lcp.compute_support_P.s", total("lcp.compute_support_P"), "s")
    put("lcp.compute_support_P.lp_calls",
        sum(1 for i in idx("lp.solve_lp")
            if child_of(i, "lcp.compute_support_P")), "count")

    lp_calls = 0
    for fn in ("solve_lp", "check_feasibility"):
        name = f"lp.{fn}"
        lp_calls += len(idx(name))
        put(f"{name}.calls", len(idx(name)), "count")
        put(f"{name}.s", total(name), "s")
        put(f"{name}.iterations", outcome_sum(name, 1), "count")
    infeasible = (outcome_count("lp.solve_lp", "infeasible")
                  + outcome_count("lp.check_feasibility", "infeasible"))
    put("lp.infeasible_ratio", ratio(infeasible, lp_calls), "1")
    refactor = [i for i in idx("linalg.invert") if under(i, ("lp.",))]
    put("lp.refactorizations", len(refactor), "count")
    put("lp.refactor_s", sum(dur(i) for i in refactor), "s")
    put("lp.iteration_limit_errors",
        sum(1 for name in ("lp.solve_lp", "lp.check_feasibility")
            for i in idx(name) if raised(i, "IterationLimitError")), "count")

    mip_name = "mip.solve_mip_feasibility"
    mip_s = total(mip_name)
    nodes = outcome_sum(mip_name, 1) + sum(
        spans[i][INFO][2] or 0 for i in idx(mip_name) if raised(i))
    node_lps = [i for i in idx("lp.check_feasibility") if child_of(i, mip_name)]
    put(f"{mip_name}.calls", len(idx(mip_name)), "count")
    put(f"{mip_name}.s", mip_s, "s")
    put("mip.nodes", nodes, "count")
    put("mip.pruned", sum(1 for i in node_lps
                          if isinstance(spans[i][INFO], list)
                          and spans[i][INFO][0] == "infeasible"), "count")
    put("mip.nodes_per_s", ratio(nodes, mip_s), "1/s")
    put("mip.lp_s_per_node", ratio(sum(dur(i) for i in node_lps), nodes), "s")

    quad = idx("boxopt.min_quadratic_over_box")
    put("boxopt.min_quadratic_over_box.calls", len(quad), "count")
    put("boxopt.min_quadratic_over_box.s", total("boxopt.min_quadratic_over_box"), "s")
    put("boxopt.min_quadratic_over_box.exact_ratio",
        ratio(sum(1 for i in quad if spans[i][INFO] == "exact"), len(quad)), "1")
    put("boxopt.min_affine_over_box.calls",
        len(idx("boxopt.min_affine_over_box")), "count")

    put("linalg.invert.calls", len(idx("linalg.invert")), "count")
    put("linalg.invert.s", total("linalg.invert"), "s")
    put("linalg.is_psd.calls", len(idx("linalg.is_psd")), "count")
    put("linalg.is_psd.s", total("linalg.is_psd"), "s")
    put("linalg.is_psd.calls_per_instance",
        ratio(len(idx("linalg.is_psd")), instances), "1")
    put("linalg.singular_errors",
        sum(1 for i in idx("linalg.invert") if raised(i, "SingularMatrixError")),
        "count")

    put("market.build_lcp.calls", len(idx("market.build_lcp")), "count")
    put("market.build_lcp.s", total("market.build_lcp"), "s")
    return m
