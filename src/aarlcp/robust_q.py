"""Robust solutions of LCPs whose constant vector q is uncertain.

The instance is M z + q(u) with q(u) = qbar + u and u ranging over the
box |u_i| <= ubar_i. A robust solution is an affine rule z(u) = D u + r
that solves the complementarity problem for every u in the box, where
the first h coordinates of z are here-and-now decisions (their D rows
are zero) and coordinates with ubar_i = 0 never vary (their D columns
are zero).

Index-set conventions (0-based internally):
    U = {i : ubar_i > 0}        uncertain coordinates
    S = {i : ubar_i = 0}        certain coordinates
    K = {i : r_i != 0}          rows active at the nominal point
    N = complement of K
    I = K within the here-and-now block, J = K outside it

Three solvers cover the pathways: support-set enumeration (complete for
S empty), a big-M mixed-binary encoding (general, with an exactness
caveat tied to the big-M constant), and for positive semidefinite M
one route: linear algebra for D, and for r either the one nominal
solution (M positive definite, that solution strictly complementary,
the pinned block free of a kernel) or one small linear program over
the nominal solution set (exact both ways; see solve_psd).

Every rule has z(0) = r, so r solves the nominal LCP (M, qbar), and the
support P of a strictly complementary nominal solution zbar pins D by
linear algebra. _nominal_candidate builds that rule (r = zbar on P);
solve_psd takes it as its one candidate, and solve_mip_q tries it
before it builds the big-M program. _nominal_solution (Lemke and
_strict_support) serves uncertain M too: robust_m decides a positive
definite m0 at the support of its one nominal solution.

Enumeration visits 2^(n-h) supports J, each fixing D[J, J] =
-inv(M[J, J]) and r_J. It works per support size in chunks: numpy's
batched LAPACK inverse of the chunk's principal blocks
(linalg.invert_stack) yields the inverses, the stacked LU deciding
singularity by the pivot rule of linalg.invert for every block whose
pivots the LAPACK inverse cannot certify, and both box conditions are
array expressions over the chunk: one LAPACK call per chunk, and Python
work only per rule that passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .boxopt import min_affine_over_box
from .lcp import (NominalLcp, compute_support_P, describe_solution_set,
                  solve_block_pivoting, solve_lemke)
# solve_lp is not called here, but perfbench/spans.py traces LPs by
# patching robust_q.solve_lp
from .lp import (LinearProgram, IterationLimitError, solve_lp,  # noqa: F401
                 check_feasibility)
from .mip import MixedBinaryProgram, solve_mip_feasibility
from .tolerances import (TOL_DEDUP, TOL_FEAS, TOL_RANK, TOL_STRICT,
                         TOL_SUPPORT)

__all__ = [
    "SizeLimitError",
    "UncertainLcpQ",
    "AffineSolutionQ",
    "ConditionCheck",
    "VerificationReport",
    "verify_affine_q",
    "check_char_system",
    "solve_enumeration",
    "default_big_m",
    "build_mip",
    "MipVariableLayout",
    "solve_mip_q",
    "MipPathOutcome",
    "solve_psd",
    "PsdPathOutcome",
    "uniqueness_check_psd",
    "sample_violation_q",
]

ENUMERATION_SIZE_CAP = 20


class SizeLimitError(RuntimeError):
    """Instance exceeds a solver's combinatorial size guard."""


@dataclass
class UncertainLcpQ:
    """LCP data (m, qbar) with box half-widths ubar and h here-and-now
    coordinates (the first h)."""

    m: np.ndarray
    qbar: np.ndarray
    ubar: np.ndarray
    h: int = 0

    def __post_init__(self):
        self.m = linalg.as_matrix(self.m, square=True)
        n = self.m.shape[0]
        self.qbar = linalg.as_vector(self.qbar, n)
        self.ubar = linalg.as_vector(self.ubar, n)
        if np.any(self.ubar < 0):
            raise ValueError("box half-widths must be nonnegative")
        self.h = int(self.h)
        if not 0 <= self.h <= n:
            raise ValueError(f"h must lie in [0, {n}]")

    @property
    def n(self) -> int:
        return self.qbar.size

    def uncertain_set(self) -> np.ndarray:
        """U: coordinates with positive half-width."""
        return np.flatnonzero(self.ubar > 0)

    def certain_set(self) -> np.ndarray:
        """S: coordinates with zero half-width."""
        return np.flatnonzero(self.ubar == 0)


@dataclass(slots=True)
class AffineSolutionQ:
    """Affine rule z(u) = d u + r."""

    d: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.d = linalg.as_matrix(self.d, square=True)
        self.r = linalg.as_vector(self.r, self.d.shape[0])

    def support(self) -> np.ndarray:
        """K: coordinates where |r| exceeds TOL_SUPPORT."""
        return np.flatnonzero(np.abs(self.r) > TOL_SUPPORT)

    def evaluate(self, u) -> np.ndarray:
        return self.d @ np.asarray(u, dtype=float) + self.r


@dataclass(slots=True)
class ConditionCheck:
    condition: str
    passed: bool
    worst_value: float  # of a quadratic box check: see min_quadratic_over_box
    worst_point: np.ndarray


@dataclass(slots=True)
class VerificationReport:
    overall: bool
    checks: list = field(default_factory=list)
    certified: bool = True  # False when a box check ran out of budget undecided


def _structural_check(h: int, sol, d_shape: tuple, zero_cols: np.ndarray):
    """The structural rules of a rule z = D u + r under either kind of
    uncertainty: D of shape d_shape, r nonnegative, the first h
    (here-and-now) rows of D zero, and the columns zero_cols of D zero
    (the certain coordinates for uncertain q, none for uncertain M).
    A violation raises ValueError."""
    if sol.d.shape != d_shape:
        raise ValueError("solution dimensions do not match the instance")
    if np.any(sol.r < -TOL_FEAS):
        raise ValueError("r must be nonnegative")
    if h and np.max(np.abs(sol.d[:h, :]), initial=0.0) > TOL_FEAS:
        raise ValueError("here-and-now rows of D must be zero")
    if zero_cols.size and np.max(np.abs(sol.d[:, zero_cols]), initial=0.0) > TOL_FEAS:
        raise ValueError("columns of D on certain coordinates must be zero")


def _box_rows_check(inst: UncertainLcpQ, condition: str, u_set: np.ndarray,
                    coeff: np.ndarray, const: np.ndarray, terms, cap: float
                    ) -> ConditionCheck:
    """Whether every row t of const_t + coeff_t . u_U stays nonnegative
    over the box, each held to its own floor: a negative minimum must be
    at least -TOL_FEAS min(cap, envelope_t). The envelope bounds the
    magnitude of the terms the row sums: terms() (what sums to const) at
    t plus the swing |coeff_t| . ubar_U, which is const_t less the
    minimum. So a row in small units is held to its own scale, and no
    floor is looser than -TOL_FEAS cap. terms is called only when some
    minimum is negative. The worst row is the first smallest minimum; its
    minimum and a full-length u attaining it are reported, 0.0 and zeros
    for no rows."""
    worst_u = np.zeros(inst.n)
    if const.size == 0:
        return ConditionCheck(condition, True, 0.0, worst_u)
    vals, args = min_affine_over_box(coeff, const, inst.ubar[u_set])
    t = int(np.argmin(vals))
    worst_u[u_set] = args[t]
    # fmin: an overflowed envelope (NaN) takes the cap; a NaN minimum fails
    passed = vals[t] >= 0 or np.all(
        vals >= -TOL_FEAS * np.fmin(cap, terms() + (const - vals)))
    return ConditionCheck(condition, bool(passed), float(vals[t]), worst_u)


def verify_affine_q(inst: UncertainLcpQ, sol: AffineSolutionQ) -> VerificationReport:
    """Check the three robust-solution conditions over the whole box.

    All three are decided analytically: the worst case of an affine
    expression over a box is attained at a sign vertex.

      z-nonnegative        min over the box of z_i(u), every row i
      active-rows-vanish   (M z(u) + q(u))_i identically zero, rows with
                           r_i != 0 (constant and u-coefficients vanish)
      inactive-rows-nonneg min over the box of (M z(u) + q(u))_i, other rows

    The two box minima are held to row-relative floors (_box_rows_check):
    z_i(u) >= -TOL_FEAS min(1, |r_i| + |D_i,U| ubar_U), and (M z(u) +
    q(u))_i >= -TOL_FEAS min(1 + max|qbar|, |M_i| |r| + |qbar_i| +
    |(M D + I)_i,U| ubar_U), never looser than the fixed floors -TOL_FEAS
    and -TOL_FEAS (1 + max|qbar|). The vanishing rows are held to TOL_FEAS
    (1 + max|qbar|).

    Structural violations (nonzero here-and-now rows, nonzero columns on
    certain coordinates, negative r) raise ValueError; the report is
    reserved for the box conditions themselves. Running the first check
    over every row (not only the support) also pins the rows outside the
    support to a zero affine part, which the support-only reading would
    let slip.
    """
    _structural_check(inst.h, sol, (inst.n, inst.n), inst.certain_set())
    n = inst.n
    u_set = inst.uncertain_set()
    k_set = sol.support()
    n_set = linalg.complement(k_set, n)
    wscale = 1.0 + float(np.max(np.abs(inst.qbar), initial=0.0))
    checks = []

    # z_i(u) >= 0 for all rows
    checks.append(_box_rows_check(inst, "z-nonnegative", u_set, sol.d[:, u_set],
                                  sol.r, lambda: np.abs(sol.r), 1.0))

    # (M z(u) + q(u)) = (M d + I) u + (M r + qbar); rows split by support
    coeff = inst.m @ sol.d + np.eye(n)
    const = inst.m @ sol.r + inst.qbar

    # per support row the largest |constant| or |u-coefficient|; the worst
    # row is the first NaN one (which fails), else the first largest, and
    # none (t = -1) when every row vanishes
    resid = np.max(np.abs(np.column_stack([const[k_set], coeff[k_set[:, None], u_set]])),
                   axis=1)
    t = int(np.argmax(np.append(0.0, resid))) - 1
    worst_val, worst_row_u = 0.0, np.zeros(n)
    if t >= 0:
        i = k_set[t]
        worst_val = float(resid[t])
        sign = 1.0 if const[i] >= 0 else -1.0
        worst_row_u[u_set] = sign * np.sign(coeff[i, u_set]) * inst.ubar[u_set]
    checks.append(ConditionCheck(
        "active-rows-vanish", bool(worst_val <= TOL_FEAS * wscale), float(worst_val),
        worst_row_u))

    checks.append(_box_rows_check(
        inst, "inactive-rows-nonnegative", u_set, coeff[n_set[:, None], u_set],
        const[n_set], lambda: np.abs(inst.m[n_set]) @ np.abs(sol.r)
        + np.abs(inst.qbar[n_set]), wscale))

    return VerificationReport(overall=all(c.passed for c in checks), checks=checks)


def check_char_system(inst: UncertainLcpQ, sol: AffineSolutionQ) -> bool:
    """Evaluate the support-set characterization equations on a candidate.

    With K the support of r, J its adjustable part, N the complement,
    U/S the uncertain/certain coordinates:

        M[K&S, J] D[J, U]    = 0
        M[K&U, J] D[J, K&U]  = -Identity
        M[K&U, J] D[J, N&U]  = 0
        M[K, K] r[K]         = -qbar[K]
    """
    n = inst.n
    u_set = inst.uncertain_set()
    s_set = inst.certain_set()
    k_set = sol.support()
    n_set = linalg.complement(k_set, n)
    j_set = k_set[k_set >= inst.h]
    ks = np.intersect1d(k_set, s_set)
    ku = np.intersect1d(k_set, u_set)
    nu = np.intersect1d(n_set, u_set)
    wscale = 1.0 + float(np.max(np.abs(inst.qbar), initial=0.0))

    def block(rows, cols):
        return inst.m[np.ix_(rows, j_set)] @ sol.d[np.ix_(j_set, cols)]

    resid = 0.0
    if ks.size and u_set.size:
        resid = max(resid, float(np.max(np.abs(block(ks, u_set)), initial=0.0)))
    if ku.size:
        resid = max(resid, float(np.max(np.abs(block(ku, ku) + np.eye(ku.size)))))
        if nu.size:
            resid = max(resid, float(np.max(np.abs(block(ku, nu)))))
    if k_set.size:
        lhs = inst.m[np.ix_(k_set, k_set)] @ sol.r[k_set]
        resid = max(resid, float(np.max(np.abs(lhs + inst.qbar[k_set]))))
    return resid <= TOL_FEAS * wscale


def solve_enumeration(inst: UncertainLcpQ) -> list:
    """All robust solutions of an instance with every coordinate
    uncertain (S empty), by enumerating adjustable support sets J; more
    than ENUMERATION_SIZE_CAP adjustable coordinates raise SizeLimitError.

    For each J with invertible block M[J, J] the candidate is
    D[J, J] = -inv(M[J, J]), r[J] = -inv(M[J, J]) qbar[J], zeros
    elsewhere; it is kept when the two analytic box conditions hold:
    the candidate's own rows stay nonnegative over the box, and the rows
    outside J keep M z(u) + q(u) nonnegative over the box. Duplicates
    within TOL_DEDUP entrywise are dropped: rules of distinct supports
    differ in which rows of D are nonzero, so only a block whose inverse
    is that small (entries near 1e308, say) yields one. Deterministic:
    subsets by increasing cardinality, lexicographic within each size.

    Instances with S nonempty are not covered by this characterization;
    they raise ValueError and belong to the MIP pathway.
    """
    n = inst.n
    if inst.certain_set().size:
        raise ValueError(
            "enumeration requires every coordinate uncertain (ubar > 0); "
            "use the MIP pathway for instances with certain coordinates"
        )
    if n - inst.h > ENUMERATION_SIZE_CAP:
        raise SizeLimitError(
            f"enumeration over {n - inst.h} adjustable coordinates exceeds "
            f"the cap of {ENUMERATION_SIZE_CAP}"
        )
    m, qbar, ubar = inst.m, inst.qbar, inst.ubar
    wscale = 1.0 + float(np.max(np.abs(qbar), initial=0.0))
    found: list[AffineSolutionQ] = []
    for size in range(n - inst.h + 1):
        for j in linalg.support_chunks(range(inst.h, n), size):
            inv, singular = linalg.invert_stack(m[j[:, :, None], j[:, None, :]])
            inv[singular] = 0.0  # no inverse there; dropped below
            r_j = -np.einsum("cij,cj->ci", inv, qbar[j])
            # own rows: min z_J(u) = r_J - |inv| ubar_J rowwise
            own = r_j - np.einsum("cij,cj->ci", np.abs(inv), ubar[j])
            keep = np.flatnonzero(~singular & ~np.any(own < -TOL_FEAS, axis=1))
            j, inv, r_j = j[keep], inv[keep], r_j[keep]
            # rows outside J: min (M z(u) + q(u))_N over the box, per row
            outside = np.ones((keep.size, n), dtype=bool)
            outside[np.arange(keep.size)[:, None], j] = False
            n_rows = np.nonzero(outside)[1].reshape(keep.size, n - size)
            g = m[n_rows[:, :, None], j[:, None, :]] @ inv
            margin = (qbar[n_rows] - np.einsum("cij,cj->ci", g, qbar[j])
                      - ubar[n_rows] - np.einsum("cij,cj->ci", np.abs(g), ubar[j]))
            ok = ~np.any(margin < -TOL_FEAS * wscale, axis=1)
            j, inv, r_j = j[ok], inv[ok], r_j[ok]
            for jc, inv_c, r_c in zip(j, inv, r_j):
                d = np.zeros((n, n))
                r = np.zeros(n)
                d[np.ix_(jc, jc)] = -inv_c
                d += 0.0  # normalize -0.0 entries
                r[jc] = r_c
                sol = AffineSolutionQ(d, r)
                if not any(np.max(np.abs(sol.d - s.d)) <= TOL_DEDUP
                           and np.max(np.abs(sol.r - s.r)) <= TOL_DEDUP
                           for s in found):
                    found.append(sol)
    return found


def default_big_m(inst: UncertainLcpQ) -> float:
    """100 (1 + |qbar|_inf + |ubar|_inf) (1 + max |M_ij|), in Python
    floats (no numpy overflow warning); linalg.NumericalError when that
    exceeds the float range."""
    big_m = (100.0
             * (1.0 + float(np.max(np.abs(inst.qbar), initial=0.0))
                + float(np.max(np.abs(inst.ubar), initial=0.0)))
             * (1.0 + float(np.max(np.abs(inst.m), initial=0.0))))
    if not math.isfinite(big_m):
        raise linalg.NumericalError("default big-M overflows: the data's scale "
                                    "exceeds the float range")
    return big_m


@dataclass
class MipVariableLayout:
    """Column indices of each variable group in the mixed-binary
    encoding: binaries x, nominal values r, rule coefficients d, and the
    two envelope grids a (on z) and c (on M z + q)."""

    n: int
    x: np.ndarray
    r: np.ndarray
    d: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def extract(self, point: np.ndarray) -> AffineSolutionQ:
        """Read the affine rule out of a feasible point."""
        d = point[self.d.reshape(-1)].reshape(self.n, self.n)
        r = point[self.r]
        return AffineSolutionQ(d.copy(), r.copy())


def _program(blocks, lower: np.ndarray, upper: np.ndarray) -> LinearProgram:
    """The feasibility program whose rows are the blocks (lhs, senses,
    rhs) stacked in order."""
    lhs, senses, rhs = zip(*blocks)
    return LinearProgram(np.zeros(lower.size), np.vstack(lhs),
                         [s for block in senses for s in block],
                         np.concatenate(rhs), lower, upper)


def _envelopes(ncols: int, ub: np.ndarray, families):
    """Box envelopes of rows whose u-coefficients are affine in LP
    columns, for G groups at once. A family (env, const, var, coef,
    sum_cols, sum_coefs, rhs) has in group g one row with u_j-coefficient
    const[g, j] + coef[g] . x[var[g, :, j]]: the envelope column
    env[g, j] takes e_j <= -+ that coefficient times ub[j], and the row
    stays nonnegative over the box when sum_j e_j + sum_coefs[g] .
    x[sum_cols[g]] >= rhs[g]. Per group, per j each family's two rows
    follow in the order given, and one sum row per family comes last.
    Returns the block (lhs, senses, rhs) over ncols columns."""
    groups, nu, nf = len(families[0][0]), ub.size, len(families)
    pairs = np.zeros((groups, nu, nf, 2, ncols))
    pair_rhs = np.zeros((groups, nu, nf, 2))
    sums = np.zeros((groups, nf, ncols))
    g, j = np.arange(groups)[:, None], np.arange(nu)
    for f, (env, const, var, coef, sum_cols, sum_coefs, _) in enumerate(families):
        pairs[g, j, f, 0, env] = pairs[g, j, f, 1, env] = 1.0
        terms = ub * coef[:, :, None]  # [g, k, j]: ub[j] coef[g, k] on var[g, k, j]
        pairs[g[:, :, None], j, f, 0, var] = terms
        pairs[g[:, :, None], j, f, 1, var] = -terms
        pair_rhs[:, :, f, 0] = -ub * const
        pair_rhs[:, :, f, 1] = ub * const
        sums[g, f, env] = 1.0
        sums[g, f, sum_cols] = sum_coefs
    lhs = np.concatenate([pairs.reshape(groups, 2 * nu * nf, ncols), sums], axis=1)
    rhs = np.concatenate([pair_rhs.reshape(groups, 2 * nu * nf),
                          np.stack([fam[6] for fam in families], axis=1)], axis=1)
    return (lhs.reshape(-1, ncols), (["<="] * (2 * nu * nf) + [">="] * nf) * groups,
            rhs.reshape(-1))


def build_mip(inst: UncertainLcpQ, big_m: float):
    """Mixed-binary feasibility encoding of the robust-solution
    conditions with indicator binaries x_i (x_i = 1 marks r_i free to be
    positive, x_i = 0 pins r_i = 0 and relaxes the paired row).

    Returns (MixedBinaryProgram, MipVariableLayout). Feasible points map
    to robust solutions for any big_m; only the nonexistence direction
    depends on big_m being large enough.
    """
    if big_m <= 0:
        raise ValueError("big_m must be positive")
    n = inst.n
    u_set = inst.uncertain_set()
    s_set = inst.certain_set()
    m = inst.m
    ncols = 2 * n + 3 * n * n
    idx = np.arange(ncols)
    lay = MipVariableLayout(
        n=n,
        x=idx[:n],
        r=idx[n : 2 * n],
        d=idx[2 * n : 2 * n + n * n].reshape(n, n),
        a=idx[2 * n + n * n : 2 * n + 2 * n * n].reshape(n, n),
        c=idx[2 * n + 2 * n * n :].reshape(n, n),
    )

    lower = np.full(ncols, -np.inf)
    upper = np.full(ncols, np.inf)
    lower[lay.x] = 0.0
    upper[lay.x] = 1.0
    lower[lay.r] = 0.0
    # unused grid columns are pinned at zero
    pinned = [grid[:, s_set] for grid in (lay.d, lay.a, lay.c)] + [lay.d[: inst.h]]
    pinned = np.concatenate([cols.reshape(-1) for cols in pinned])
    lower[pinned] = upper[pinned] = 0.0

    # per row i: r_i <= big_m x_i, then 0 <= M_i r + qbar_i <= big_m (1 - x_i)
    rows = np.arange(n)
    link = np.zeros((n, 3, ncols))
    link[rows, 0, lay.r] = 1.0
    link[rows, 0, lay.x] = -big_m
    link[:, 1, lay.r] = link[:, 2, lay.r] = m
    link[rows, 2, lay.x] = big_m
    link_rhs = np.stack([np.zeros(n), -inst.qbar, big_m - inst.qbar], axis=1)

    # per uncertain j and row i: M_i . D_col_j = -delta_ij unless x_i = 0
    # relaxes row i
    nu = u_set.size
    rule = np.zeros((nu, n, 2, ncols))
    j, dcols = np.arange(nu)[:, None, None], lay.d[:, u_set].T[:, None, :]
    rule[j, rows[:, None], 0, dcols] = rule[j, rows[:, None], 1, dcols] = m
    rule[:, rows, 0, lay.x] = big_m
    rule[:, rows, 1, lay.x] = -big_m
    delta = (u_set[:, None] == rows).astype(float)
    rule_rhs = np.stack([big_m - delta, -big_m - delta], axis=2)

    # box envelopes of row i: z_i(u) >= 0 on the grid a, (M z(u) + q(u))_i
    # >= 0 on the grid c, whose u_j-coefficients are d_ij and M_i . D_col_j
    # + delta_ij
    envelopes = _envelopes(ncols, inst.ubar[u_set], [
        (lay.a[:, u_set], np.zeros((n, nu)), lay.d[:, None, u_set], np.ones((n, 1)),
         lay.r[:, None], np.ones((n, 1)), np.zeros(n)),
        (lay.c[:, u_set], delta.T, np.broadcast_to(lay.d[:, u_set], (n, n, nu)), m,
         np.broadcast_to(lay.r, (n, n)), m, -inst.qbar)])

    lp = _program([(link.reshape(-1, ncols), ["<=", ">=", "<="] * n, link_rhs.reshape(-1)),
                   (rule.reshape(-1, ncols), ["<=", ">="] * (nu * n), rule_rhs.reshape(-1)),
                   envelopes], lower, upper)
    return MixedBinaryProgram(lp, lay.x), lay


@dataclass
class MipPathOutcome:
    status: str  # "solution" | "no-solution"
    solution: AffineSolutionQ | None = None
    verification: VerificationReport | None = None
    certificate: str = "verified"  # "verified" | "exact" | "big-M bounded"
    big_m_final: float = 0.0
    nodes: int = 0
    fallback_used: bool = False


def solve_mip_q(inst: UncertainLcpQ) -> MipPathOutcome:
    """General pathway: the rule the nominal solution names, else one
    mixed-binary search over supports at the scale-derived big-M of
    default_big_m.

    First Lemke solves the nominal LCP (M, qbar); a strictly
    complementary solution zbar names the rule of _nominal_candidate.
    When that rule passes verify_affine_q it is the verdict (certificate
    "verified") and no program is built: nodes and big_m_final read 0.
    A ray, a Lemke iteration limit or NumericalError, a zbar that is not
    strictly complementary, an inconsistent block or a failed check
    prove nothing, and the search runs as if the candidate had not been
    tried.

    A feasible point of the search is extracted and re-verified
    analytically, so a rule is sound at any big-M. A search that finds
    no verified point is inconclusive: when the instance fits the
    enumeration pathway (S empty, n - h small) enumeration runs as the
    definitive fallback and the answer becomes exact; otherwise the
    verdict is "no-solution" with the certificate "big-M bounded". A
    big-M beyond the float range raises linalg.NumericalError, and a
    search that spends mip.NODE_LIMIT nodes undecided raises
    mip.NodeLimitError.
    """
    found = _nominal_rule(inst)
    if found is not None:
        sol, report = found
        return MipPathOutcome("solution", sol, report, "verified")
    b = default_big_m(inst)
    prob, lay = build_mip(inst, b)
    out = solve_mip_feasibility(prob)
    if out.status == "feasible":
        sol = _clean_solution(lay.extract(out.x))
        report = verify_affine_q(inst, sol)
        if report.overall:
            return MipPathOutcome("solution", sol, report, "verified", b, out.nodes)

    if inst.certain_set().size == 0 and inst.n - inst.h <= ENUMERATION_SIZE_CAP:
        sols = solve_enumeration(inst)
        if sols:
            report = verify_affine_q(inst, sols[0])
            return MipPathOutcome("solution", sols[0], report, "verified",
                                  b, out.nodes, fallback_used=True)
        return MipPathOutcome("no-solution", None, None, "exact",
                              b, out.nodes, fallback_used=True)
    return MipPathOutcome("no-solution", None, None, "big-M bounded", b, out.nodes)


def _nominal_solution(m: np.ndarray, q: np.ndarray):
    """(zbar, P) for Lemke's solution zbar of the nominal LCP (m, q) and
    its strict support P (_strict_support), or None when Lemke ends in a
    ray or fails (IterationLimitError, linalg.NumericalError) or zbar is
    not strictly complementary. Both kinds of uncertainty call it, so
    every such Lemke call is robust_q.solve_lemke."""
    try:
        nominal = solve_lemke(NominalLcp(m, q))
    except (IterationLimitError, linalg.NumericalError):
        return None
    if nominal.status == "ray":
        return None
    zbar = nominal.solution.z
    p_set = _strict_support(m, q, zbar)
    return None if p_set is None else (zbar, p_set)


def _nominal_rule(inst: UncertainLcpQ):
    """solve_mip_q's first try: (rule, report) for the rule of
    _nominal_candidate at Lemke's nominal solution when it passes
    verify_affine_q, else None."""
    nominal = _nominal_solution(inst.m, inst.qbar)
    if nominal is None:
        return None
    zbar, p_set = nominal
    found = _nominal_candidate(inst, p_set, zbar)
    if found is None:
        return None
    report = verify_affine_q(inst, found[0])
    return (found[0], report) if report.overall else None


def _clean_solution(sol: AffineSolutionQ) -> AffineSolutionQ:
    """Snap numerical dust (and -0.0) to zero before verification. The
    structural zeros are exact already: the mip pins those columns at
    lower = upper = 0, and solve_psd writes D only on A x U."""
    d = sol.d.copy()
    r = sol.r.copy()
    r[np.abs(r) <= TOL_FEAS] = 0.0
    r[r < 0] = 0.0
    d[np.abs(d) <= TOL_FEAS] = 0.0
    return AffineSolutionQ(d, r)


@dataclass
class PsdPathOutcome:
    status: str  # "solution" | "no-solution"
    solution: AffineSolutionQ | None = None
    verification: VerificationReport | None = None
    support_p: np.ndarray | None = None
    support_l: np.ndarray | None = None
    nominal: np.ndarray | None = None
    vanishing_rows: np.ndarray | None = None
    # True when nominal is the only solution of the nominal LCP: M
    # positive definite and P read off nominal by _strict_support
    sole_nominal: bool = False


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values s: those at or below TOL_RANK
    times the largest count as zero."""
    return int(np.sum(s > TOL_RANK * np.max(s, initial=0.0)))


def _pinned_block(m_pa: np.ndarray, e: np.ndarray):
    """Every solution X of m_pa X = -e, as (x0, kernel) with X = x0 +
    kernel T for any T, or None when there is none.

    One SVD (numpy's LAPACK) decides every block, square or not:
    singular values at or below TOL_RANK times the largest count as
    zero, e having a component beyond TOL_FEAS outside the range of m_pa
    means no solution, and kernel entries at or below TOL_RANK (its
    columns have unit norm) are set to zero, so that rows the kernel
    does not reach stay exact. A square block of full rank gives x0 =
    -inv(m_pa) e up to rounding and an empty kernel."""
    u, s, vt = np.linalg.svd(m_pa)
    rank = _rank(s)
    if np.max(np.abs(u[:, rank:].T @ e), initial=0.0) > TOL_FEAS:
        return None
    x0 = -vt[:rank].T @ ((u[:, :rank].T @ e) / s[:rank, None])
    kernel = vt[rank:].T
    kernel[np.abs(kernel) <= TOL_RANK] = 0.0
    return x0, kernel


def _nominal_candidate(inst: UncertainLcpQ, p_set: np.ndarray, zbar: np.ndarray):
    """The rule that the nominal solution zbar names through the support
    P: D[A, U] = x0 of _pinned_block (A the adjustable part of P; x0 of
    least norm when the block has a kernel) and r = zbar on P, exact
    zeros elsewhere. Returns (rule, x0, kernel), or None when M[P, A] X
    = -E[P, U] has no solution."""
    a_set = p_set[p_set >= inst.h]
    u_set = inst.uncertain_set()
    block = _pinned_block(inst.m[p_set[:, None], a_set],
                          (p_set[:, None] == u_set).astype(float))
    if block is None:
        return None
    x0, kernel = block
    n = inst.n
    d, r = np.zeros((n, n)), np.zeros(n)
    d[a_set[:, None], u_set] = x0
    d += 0.0  # normalize -0.0 entries
    r[p_set] = zbar[p_set]
    return AffineSolutionQ(d, r), x0, kernel


def _strict_support(m: np.ndarray, q: np.ndarray, zbar: np.ndarray):
    """{i : zbar_i > 0} when the solution zbar of the nominal LCP (m, q)
    is strictly complementary, else None. Strict: each i has exactly one
    of zbar_i (above TOL_STRICT times max_j zbar_j) and w_i = (m zbar +
    q)_i (above TOL_STRICT times the largest entry of |m zbar| and |q|,
    the terms it sums) positive, thresholds that move with the data.

    For PSD M the set is then both P and K of the nominal solution set:
    solutions z1, z2 (w1, w2) have (z1 - z2).(w1 - w2) = (z1 - z2).M(z1 -
    z2) >= 0, which is also -z1.w2 - z2.w1 <= 0, so z1.w2 = z2.w1 = 0.
    With z1 = zbar, every solution is zero where w_i > 0 and has w_i = 0
    where zbar_i > 0."""
    mz = m @ zbar
    wscale = max(np.max(np.abs(mz), initial=0.0), np.max(np.abs(q), initial=0.0))
    z_pos = zbar > TOL_STRICT * np.max(zbar, initial=0.0)
    w_pos = mz + q > TOL_STRICT * wscale
    return None if np.any(z_pos == w_pos) else np.flatnonzero(z_pos)


def solve_psd(inst: UncertainLcpQ) -> PsdPathOutcome:
    """Exact pathway for positive semidefinite M: linear algebra for D,
    and for r the nominal solution or one small linear program.

    The definiteness of M is decided once per dispatch
    (linalg._definiteness). For a positive definite M the nominal
    problem is solved by block principal pivoting
    (lcp.solve_block_pivoting); when that gives up, and for every other
    PSD M, by complementary pivoting (a ray certifies nonexistence
    outright for PSD data; solve_lemke returns one only from a finite
    tableau). P collects the coordinates
    positive somewhere in the nominal solution set, L the rest, K the
    rows of M z + q that vanish on all of it, and A the adjustable part
    of P. A positive definite M (by
    linalg.is_positive_definite) with a strictly complementary zbar
    gives P = K = {i : zbar_i > 0} (_strict_support);
    otherwise compute_support_P finds them with one LP over the nominal
    solution set (lcp.describe_solution_set).

    A robust rule has r in the nominal solution set (u = 0 lies in the
    box), rows of D outside A zero, columns of D on certain coordinates
    zero, and P-rows of M z(u) + q(u) that vanish identically:
    M[P, A] D[A, U] = -E[P, U] (E the identity). _pinned_block gives
    every solution X0 + N T of that system, or proves there is none.

    With P from zbar, zbar is the one nominal solution (Cottle, Pang &
    Stone 1992, Thm 3.3.7); with no kernel N either, the one candidate
    (X0, zbar) of _nominal_candidate, which solve_mip_q tries first too,
    passes verify_affine_q or no rule exists, and no LP runs.
    Otherwise one feasibility LP over the nominal solution set decides r
    and T. Rows that T does not move have closed-form box conditions:
    z_A(u) >= 0 is the bound r_A >= |X0| ubar_U, and (M z(u) + q(u))_L
    >= 0 is M_L r + qbar_L >= |M_L D + I|_{:,U} ubar_U. Without a kernel
    (M[P, A] square and nonsingular, say: enumeration's candidate for
    the support P) the LP is the nominal solution set with those bounds
    and right-hand sides, n columns and 2n + 1 rows; a kernel adds
    columns for T and envelope columns for the rows it moves.
    Infeasibility proves nonexistence (no big-M caveat).
    """
    definiteness = linalg._definiteness(inst.m)
    if definiteness is None:
        raise ValueError("psd pathway requires a positive semidefinite matrix")
    definite = definiteness == "definite"
    prob = NominalLcp(inst.m, inst.qbar)
    nominal = solve_block_pivoting(prob) if definite else None
    if nominal is None:
        lemke = solve_lemke(prob)
        if lemke.status == "ray":
            return PsdPathOutcome("no-solution")
        nominal = lemke.solution
    zbar = nominal.z
    n = inst.n
    nominal_set = p_set = None
    if definite:
        p_set = k_set = _strict_support(inst.m, inst.qbar, zbar)
    if p_set is None:
        nominal_set = describe_solution_set(prob, zbar)
        p_set, k_set = compute_support_P(nominal_set)
    l_set = linalg.complement(p_set, n)
    a_set = p_set[p_set >= inst.h]
    u_set = inst.uncertain_set()
    sole = nominal_set is None
    nothing = PsdPathOutcome("no-solution", support_p=p_set, support_l=l_set,
                             nominal=zbar, vanishing_rows=k_set, sole_nominal=sole)

    found = _nominal_candidate(inst, p_set, zbar)
    if found is None:
        return nothing
    # the candidate has exact zeros off A x U and off P: nothing for
    # _clean_solution to snap, whose absolute TOL_FEAS would erase a rule
    # in small units
    sol, x0, kernel = found
    unique = sole and not kernel.shape[1]
    if not unique:
        if nominal_set is None:
            nominal_set = describe_solution_set(prob, zbar)
        found = _envelope_lp(inst, nominal_set, a_set, l_set, u_set, x0, kernel)
        if found is None:
            return nothing
        r, t = found
        d = np.zeros((n, n))
        d[np.ix_(a_set, u_set)] = x0 + kernel @ t
        sol = _clean_solution(AffineSolutionQ(d, r))
    report = verify_affine_q(inst, sol)
    if report.overall:
        return PsdPathOutcome("solution", sol, report, p_set, l_set, zbar, k_set, sole)
    if unique:
        return nothing  # the one candidate fails: no rule exists
    raise linalg.NumericalError("psd pathway produced a point that fails verification")


def _envelope_lp(inst: UncertainLcpQ, nominal_set: LinearProgram, a_set: np.ndarray,
                 l_set: np.ndarray, u_set: np.ndarray, x0: np.ndarray,
                 kernel: np.ndarray):
    """solve_psd's feasibility LP for r, and T of D[A, U] = x0 + kernel
    T: (r, T) from a feasible point, or None when it is infeasible."""
    n = inst.n
    m, ub = inst.m, inst.ubar[u_set]
    # u-coefficients of M z(u) + q(u) on L: g0 + g_t T
    m_la = m[np.ix_(l_set, a_set)]
    g0 = m_la @ x0 + (l_set[:, None] == u_set)
    g_t = m_la @ kernel
    z_moves = np.any(kernel != 0.0, axis=1)
    w_moves = np.any(g_t != 0.0, axis=1)
    r_idx = np.arange(n)
    zk, wk = np.flatnonzero(z_moves), np.flatnonzero(w_moves)

    # columns: r (n) | T (kernel x U) | envelopes (moved rows x U)
    nt = kernel.shape[1] * u_set.size
    ncols = n + nt + (zk.size + wk.size) * u_set.size
    t_idx = (n + np.arange(nt)).reshape(kernel.shape[1], u_set.size)
    env_idx = (n + nt + np.arange((zk.size + wk.size) * u_set.size)).reshape(
        zk.size + wk.size, u_set.size)
    # r in the nominal solution set, whose first n rows are M r + qbar
    # >= 0: z_A and M_L r + qbar_L raised to their envelope floors where
    # T does not move them
    lower = np.concatenate([nominal_set.lower, np.full(ncols - n, -np.inf)])
    upper = np.concatenate([nominal_set.upper, np.full(ncols - n, np.inf)])
    lower[a_set[~z_moves]] += np.abs(x0[~z_moves]) @ ub
    rhs = nominal_set.rhs.copy()
    rhs[l_set[~w_moves]] += np.abs(g0[~w_moves]) @ ub

    nominal_rows = np.zeros((rhs.size, ncols))
    nominal_rows[:, r_idx] = nominal_set.lhs
    blocks = [(nominal_rows, nominal_set.senses, rhs)]
    # envelopes of the rows that T moves: z_A first, then M_L r + qbar_L
    for env, const, coef, sum_cols, sum_coefs, b in (
            (env_idx[:zk.size], x0[zk], kernel[zk], a_set[zk, None],
             np.ones((zk.size, 1)), np.zeros(zk.size)),
            (env_idx[zk.size:], g0[wk], g_t[wk], np.broadcast_to(r_idx, (wk.size, n)),
             m[l_set[wk]], -inst.qbar[l_set[wk]])):
        if b.size:
            blocks.append(_envelopes(ncols, ub, [
                (env, const, np.broadcast_to(t_idx, (b.size, *t_idx.shape)), coef,
                 sum_cols, sum_coefs, b)]))

    out = check_feasibility(_program(blocks, lower, upper))
    if out.status != "optimal":
        return None
    return out.x[r_idx], out.x[t_idx]


def uniqueness_check_psd(inst: UncertainLcpQ, outcome: PsdPathOutcome) -> str:
    """Uniqueness verdict for PSD instances with every coordinate
    uncertain: "multiple-nominal-no-aar" when the nominal solution set
    has more than one point (then no robust rule exists), otherwise
    "unique-if-exists". Instances with certain coordinates:
    "not-applicable".

    outcome, solve_psd's result on the same instance, supplies the
    verdict outright when it records its nominal solution as the only
    one (sole_nominal: M positive definite, Cottle, Pang & Stone 1992,
    Thm 3.3.7). Otherwise it supplies P and K, the rows of M z + q that
    vanish on the whole set. Those and the coordinates outside P are the
    constraints active everywhere, so the affine hull of the set is
    {z : z_L = 0, (M z + q)_K = 0, q.(z - zbar) = 0, (M + M^T)(z -
    zbar) = 0}, and the set is one point exactly when A = [M[K, P];
    qbar[P]; (M + M^T)[:, P]] has rank |P|. One SVD of A, its rows
    scaled to unit norm, decides that by _rank (TOL_RANK). No LP is
    solved.
    """
    if inst.certain_set().size:
        return "not-applicable"
    p_set = outcome.support_p
    if outcome.sole_nominal or outcome.nominal is None or p_set.size == 0:
        return "unique-if-exists"  # no nominal solution, or only zbar
    m = inst.m[:, p_set]
    a = np.vstack([m[outcome.vanishing_rows], inst.qbar[p_set],
                   m + inst.m.T[:, p_set]])
    norms = np.linalg.norm(a, axis=1)
    keep = norms > 0.0
    a = a[keep] / norms[keep, None]
    full = _rank(np.linalg.svd(a, compute_uv=False)) == p_set.size
    return "unique-if-exists" if full else "multiple-nominal-no-aar"


def sample_violation_q(inst: UncertainLcpQ, sol: AffineSolutionQ,
                       count: int = 1000, seed: int = 0) -> float:
    """Largest violation of the LCP conditions over `count` uniform box
    samples: max of -z_i(u), -(M z(u) + q(u))_i and |z(u) . w(u)|."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (count, inst.n)) * inst.ubar
    zs = pts @ sol.d.T + sol.r
    ws = zs @ inst.m.T + inst.qbar + pts
    comp = np.abs(np.einsum("ij,ij->i", zs, ws))
    return float(max(np.max(-zs, initial=0.0), np.max(-ws, initial=0.0),
                     np.max(comp, initial=0.0)))
