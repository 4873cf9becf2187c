"""Solver dispatch and report assembly.

dispatch_solve routes a parsed instance to a pathway (auto selection or
an explicit override), re-verifies every solution analytically, and
packages the result as a SolveReport that renders to human-readable
text or versioned JSON (schema 1). A report never carries a solution
whose verification failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .market import MarketModel, build_lcp
from .robust_m import (AffineSolutionM, UncertainLcpM,
                       solve_enumeration_m_detailed, uniqueness_m,
                       verify_affine_m)
from .robust_q import (AffineSolutionQ, UncertainLcpQ,
                       ENUMERATION_SIZE_CAP, solve_enumeration, solve_mip_q,
                       solve_psd, uniqueness_check_psd, verify_affine_q)

__all__ = [
    "SolveOptions",
    "SolutionRecord",
    "SolveReport",
    "DispatchError",
    "auto_pathway",
    "dispatch_solve",
]

SCHEMA_VERSION = 1

PATHWAYS = ("auto", "enumeration", "psd-lp", "mip", "uncertain-m")


@dataclass
class SolveOptions:
    """Dispatch knobs.

    pathway: one of auto, enumeration, psd-lp, mip, uncertain-m
    node_limit: branch-and-bound node budget (None = solver default)
    """

    pathway: str = "auto"
    node_limit: int | None = None

    def __post_init__(self):
        if self.pathway not in PATHWAYS:
            raise ValueError(f"unknown pathway {self.pathway!r} "
                             f"(choose from {', '.join(PATHWAYS)})")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node_limit must be at least 1, got {self.node_limit}")


class DispatchError(RuntimeError):
    """A solver error annotated with the pathway that raised it.

    A ValueError cause is an input error. Any other RuntimeError cause is
    a limit: a node, iteration or size budget, or numerical trouble such
    as a stalled simplex or a singular basis.
    """

    def __init__(self, pathway: str, cause: BaseException):
        self.pathway = pathway
        self.cause = cause
        self.is_input = isinstance(cause, ValueError)
        self.is_limit = isinstance(cause, RuntimeError) and not self.is_input
        super().__init__(f"pathway {pathway}: {cause}")


@dataclass
class SolutionRecord:
    """One robust solution plus its passing verification."""

    solution: object  # AffineSolutionQ or AffineSolutionM
    verification: object  # VerificationReport
    index_sets: dict  # 1-based, e.g. {"J": [...], "K": [...], "N": [...]}

    def to_json(self) -> dict:
        return {
            "r": self.solution.r.tolist(),
            "d": self.solution.d.tolist(),
            "index_sets": self.index_sets,
            "verification": verification_json(self.verification),
        }


def verification_json(report) -> dict:
    """The JSON block of a VerificationReport: overall, certified, and
    per check its condition, verdict, worst value and worst point."""
    return {
        "overall": bool(report.overall),
        "certified": bool(report.certified),
        "checks": [
            {
                "condition": c.condition,
                "passed": bool(c.passed),
                "worst_value": float(c.worst_value),
                "worst_point": np.asarray(c.worst_point).tolist(),
            }
            for c in report.checks
        ],
    }


def check_lines(report) -> list:
    """One text line per check of a VerificationReport."""
    return [f"check {c.condition}: {'pass' if c.passed else 'FAIL'} "
            f"(worst {c.worst_value:.3e})" for c in report.checks]


@dataclass
class SolveReport:
    kind: str  # uncertain-q | uncertain-m | market
    pathway: str  # enumeration | psd-lp | mip | uncertain-m
    status: str  # "solution" | "no-solution"
    solutions: list = field(default_factory=list)  # SolutionRecord
    caveat: str | None = None
    uniqueness: str | None = None
    timing_seconds: float = 0.0
    instance_text: str = ""
    mip_info: dict | None = None
    psd_info: dict | None = None
    market_info: dict | None = None
    singular_supports: list | None = None  # 1-based supports, uncertain-m

    def exit_code(self) -> int:
        if self.status == "solution":
            return 0
        return 2 if self.caveat else 1

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "pathway": self.pathway,
            "status": self.status,
            "caveat": self.caveat,
            "uniqueness": self.uniqueness,
            "timing_seconds": self.timing_seconds,
            "solutions": [rec.to_json() for rec in self.solutions],
            "instance": self.instance_text,
        }
        if self.mip_info is not None:
            out["mip"] = self.mip_info
        if self.psd_info is not None:
            out["psd"] = self.psd_info
        if self.market_info is not None:
            out["market"] = self.market_info
        if self.singular_supports is not None:
            out["singular_supports"] = self.singular_supports
        return out

    def to_text(self) -> str:
        lines = [
            f"kind:      {self.kind}",
            f"pathway:   {self.pathway}",
            f"status:    {self.status}"
            + (f" ({len(self.solutions)} found)" if self.solutions else ""),
        ]
        if self.caveat:
            lines.append(f"caveat:    {self.caveat}")
        if self.uniqueness:
            lines.append(f"uniqueness: {self.uniqueness}")
        lines.append(f"time:      {self.timing_seconds * 1000.0:.1f} ms")
        if self.mip_info:
            lines.append("mip:       B={big_m_final:g} nodes={nodes} "
                         "fallback={fallback_used}".format(**self.mip_info))
        if self.psd_info:
            lines.append(f"psd:       P={self.psd_info.get('P')} "
                         f"L={self.psd_info.get('L')}")
        if self.market_info:
            lines.append(f"market:    h={self.market_info['h']} "
                         f"permutation={self.market_info['permutation']} "
                         "(solutions are in permuted coordinates)")
        if self.singular_supports:
            lines.append(f"singular supports (characterization unavailable): "
                         f"{self.singular_supports}")
        for i, rec in enumerate(self.solutions, start=1):
            lines.append(f"solution {i}:")
            sets = "   ".join(f"{k}={v}" for k, v in rec.index_sets.items())
            lines.append(f"  {sets}")
            lines.append("  r = " + np.array2string(rec.solution.r, precision=9))
            dtxt = np.array2string(rec.solution.d, precision=9)
            lines.append("  D = " + dtxt.replace("\n", "\n      "))
            lines += ["  " + line for line in check_lines(rec.verification)]
        return "\n".join(lines) + "\n"


def _one_based(idx) -> list:
    return [int(i) + 1 for i in np.atleast_1d(np.asarray(idx, dtype=int))]


def _sets_q(inst: UncertainLcpQ, sol: AffineSolutionQ) -> dict:
    k_set = sol.support()
    n_set = linalg.complement(k_set, inst.n)
    j_set = k_set[k_set >= inst.h]
    return {"J": _one_based(j_set), "K": _one_based(k_set),
            "N": _one_based(n_set)}


def _sets_m(inst: UncertainLcpM, sol: AffineSolutionM) -> dict:
    j_set = sol.support()
    n_set = linalg.complement(j_set, inst.n)
    return {"J": _one_based(j_set), "N": _one_based(n_set)}


def auto_pathway(inst: UncertainLcpQ) -> str:
    """psd-lp when M allows it, enumeration when every coordinate is
    uncertain and the adjustable block is small, mip otherwise."""
    if linalg.is_psd(inst.m):
        return "psd-lp"
    if inst.certain_set().size == 0 and inst.n - inst.h <= ENUMERATION_SIZE_CAP:
        return "enumeration"
    return "mip"


def _record(pathway: str, sol, report, sets: dict) -> SolutionRecord:
    """A rule of either kind with its verification report and index
    sets; a report that fails means the solver is at fault."""
    if not report.overall:
        raise DispatchError(pathway, RuntimeError(
            "solver returned a solution that fails verification"))
    return SolutionRecord(sol, report, sets)


def _solve_q(inst: UncertainLcpQ, options: SolveOptions,
             report: SolveReport) -> None:
    pathway = options.pathway
    if pathway == "auto":
        pathway = auto_pathway(inst)
    if pathway == "uncertain-m":
        raise DispatchError(pathway, ValueError(
            "uncertain-m pathway does not apply to an uncertain-q instance"))
    report.pathway = pathway
    try:
        if pathway == "enumeration":
            sols = solve_enumeration(inst)
            report.solutions = [_record(pathway, s, verify_affine_q(inst, s),
                                        _sets_q(inst, s)) for s in sols]
            report.status = "solution" if sols else "no-solution"
            if sols:
                report.uniqueness = "unique" if len(sols) == 1 else "multiple"
        elif pathway == "psd-lp":
            out = solve_psd(inst)
            report.status = out.status
            if out.support_p is not None:
                report.psd_info = {"P": _one_based(out.support_p),
                                   "L": _one_based(out.support_l)}
            if out.solution is not None:
                report.solutions = [_record(pathway, out.solution, out.verification,
                                            {**_sets_q(inst, out.solution),
                                             **report.psd_info})]
            report.uniqueness = uniqueness_check_psd(inst, out)
        elif pathway == "mip":
            kwargs = {}
            if options.node_limit is not None:
                kwargs["node_limit"] = options.node_limit
            out = solve_mip_q(inst, **kwargs)
            report.status = out.status
            report.mip_info = {
                "big_m_final": out.big_m_final,
                "nodes": out.nodes,
                "fallback_used": out.fallback_used,
            }
            if out.solution is not None:
                report.solutions = [_record(pathway, out.solution, out.verification,
                                            _sets_q(inst, out.solution))]
            if out.status == "no-solution" and out.certificate == "big-M bounded":
                report.caveat = ("nonexistence is relative to the bounded "
                                 "big-M search, not a proof")
            report.uniqueness = "unknown" if out.status == "solution" else None
        else:
            raise ValueError(f"unknown pathway {pathway!r}")
    except DispatchError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise DispatchError(pathway, exc) from exc


def _solve_m(inst: UncertainLcpM, options: SolveOptions,
             report: SolveReport) -> None:
    if options.pathway not in ("auto", "uncertain-m"):
        raise DispatchError(options.pathway, ValueError(
            "uncertain-m instances support only the uncertain-m pathway"))
    report.pathway = "uncertain-m"
    try:
        out = solve_enumeration_m_detailed(inst)
    except (ValueError, RuntimeError) as exc:
        raise DispatchError("uncertain-m", exc) from exc
    records = [_record("uncertain-m", sol, verify_affine_m(inst, sol), _sets_m(inst, sol))
               for sol in out.solutions]
    report.solutions = records
    report.status = "solution" if records else "no-solution"
    report.uniqueness = uniqueness_m(inst)
    if out.singular_supports:
        report.singular_supports = [_one_based(s) for s in out.singular_supports]
        report.caveat = ("enumeration skipped supports with a singular "
                         "nominal block; no characterization is available "
                         "there, so nonexistence is not proved"
                         if not records else
                         "supports with a singular nominal block were "
                         "skipped; further solutions could hide there")


def dispatch_solve(instance, options: SolveOptions | None = None) -> SolveReport:
    """Route an instance to a solver pathway and assemble the report."""
    from .instances import serialize_instance

    options = options or SolveOptions()
    start = time.perf_counter()
    if isinstance(instance, MarketModel):
        inst, bmap = build_lcp(instance)
        report = SolveReport(kind="market", pathway="", status="")
        report.market_info = {
            "h": bmap.h,
            "permutation": _one_based(bmap.perm),
            "n_producers": bmap.n_producers,
            "n_duals": bmap.n_duals,
            "n_prices": bmap.n_prices,
        }
        _solve_q(inst, options, report)
    elif isinstance(instance, UncertainLcpM):
        report = SolveReport(kind="uncertain-m", pathway="", status="")
        _solve_m(instance, options, report)
    elif isinstance(instance, UncertainLcpQ):
        report = SolveReport(kind="uncertain-q", pathway="", status="")
        _solve_q(instance, options, report)
    else:
        raise DispatchError(options.pathway, ValueError(
            f"cannot dispatch {type(instance).__name__}"))
    report.timing_seconds = time.perf_counter() - start
    report.instance_text = serialize_instance(instance)
    return report
