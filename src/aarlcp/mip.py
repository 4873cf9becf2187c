"""Feasibility search for linear programs with binary variables by
depth-first branch and bound.

Each node solves the phase-1 LP relaxation with some binaries fixed.
Infeasible relaxations prune; a relaxation point whose binaries are all
fixed and integral is a leaf, accepted when its rounded point passes a
direct check of the original rows. Otherwise the most fractional binary is branched
(ties to the lowest variable index), exploring the nearer integer value
first. A point whose binaries are integral but not all fixed first
tries one more node with every binary pinned at its rounding, then
branches on its lowest unfixed binary. Every node counts against
NODE_LIMIT, read at call time. Runs are deterministic.

A child differs from its parent only in its binaries' bounds, so the
tree standardizes its rows once (lp.standardize) and each node LP is
those rows under its own bounds (StandardForm.with_bounds). The root LP
is solved cold; every other node LP starts warm from its parent's final
simplex (LpOutcome.state, lp.check_feasibility) and falls back to a
cold phase 1 where the warm start cannot decide. A parent's simplex is
dropped once every child that carries it has been solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .lp import LinearProgram, check_feasibility, check_point, standardize
from .tolerances import TOL_FEAS, TOL_INT

__all__ = [
    "NODE_LIMIT",
    "NodeLimitError",
    "MixedBinaryProgram",
    "MipOutcome",
    "solve_mip_feasibility",
]

NODE_LIMIT = 100_000


class NodeLimitError(RuntimeError):
    """Branch and bound exhausted its node budget undecided."""

    def __init__(self, nodes: int):
        super().__init__(f"node limit reached after {nodes} nodes")
        self.nodes = nodes


@dataclass
class MixedBinaryProgram:
    """A LinearProgram plus the indices of its binary variables.

    Binary columns must have bounds within [0, 1].
    """

    lp: LinearProgram
    binaries: np.ndarray

    def __post_init__(self):
        n = self.lp.lhs.shape[1]
        self.binaries = linalg.index_set(self.binaries, n)
        lo = self.lp.lower[self.binaries]
        up = self.lp.upper[self.binaries]
        if np.any(lo < -1e-12) or np.any(up > 1.0 + 1e-12):
            raise ValueError("binary variables must have bounds inside [0, 1]")


@dataclass
class MipOutcome:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None = None
    nodes: int = 0


def solve_mip_feasibility(prob: MixedBinaryProgram) -> MipOutcome:
    """Find any point satisfying all constraints, binaries integral to TOL_INT.

    Returns MipOutcome("feasible", x, nodes) or MipOutcome("infeasible",
    None, nodes). Raises NodeLimitError when NODE_LIMIT nodes run out
    first. Every feasible answer is re-checked against the original rows
    and bounds directly, independent of the simplex bookkeeping.
    """
    lp = prob.lp
    bins = prob.binaries
    scale = 1.0 + float(np.max(np.abs(lp.rhs), initial=0.0))
    form = standardize(lp)

    nodes = 0
    # stack entries: (lower-override, upper-override) for the binaries
    # only, and the final simplex of the parent (None at the root)
    stack = [(lp.lower[bins].copy(), lp.upper[bins].copy(), None)]
    while stack:
        blo, bup, start = stack.pop()
        if nodes >= NODE_LIMIT:
            raise NodeLimitError(nodes)
        nodes += 1
        out = check_feasibility(form.with_bounds(bins, blo, bup), start=start)
        del start  # a parent's simplex lives only while a child still waits
        if out.status != "optimal":
            continue  # prune
        xb = out.x[bins]
        frac = np.abs(xb - np.round(xb))
        integral = float(frac.max(initial=0.0)) <= TOL_INT
        unfixed = np.flatnonzero(bup - blo > 0.5)
        if integral and unfixed.size == 0:
            x = out.x.copy()
            x[bins] = np.round(xb)  # bounds pin these already
            if check_point(lp, x) <= TOL_FEAS * scale:
                return MipOutcome("feasible", x, nodes)
            continue
        # most fractional (ties -> lowest index); when nearly integral,
        # the lowest unfixed binary after the pinned rounding (pushed
        # last, so it pops first)
        j = int(unfixed[0]) if integral else int(np.argmax(frac))
        near = float(np.round(np.clip(xb[j], 0.0, 1.0)))
        far = 1.0 - near
        for value in (far, near):  # pushed far-first so near pops first
            clo, cup = blo.copy(), bup.copy()
            clo[j] = cup[j] = value
            stack.append((clo, cup, out.state))
        if integral:
            pinned = np.round(xb)
            stack.append((pinned, pinned, out.state))
    return MipOutcome("infeasible", None, nodes)
