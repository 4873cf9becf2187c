"""Robust affine rules when the matrix itself is uncertain.

Here the matrix wanders, M(zeta) = m0 + sum_i zeta_i P_i for zeta in
[-1, 1]^k, while q stays fixed. A rule z(zeta) = D zeta + r with
support J = {j : r_j > 0} solves every realization exactly when

  * the J block of the expanded residual vanishes identically, which
    pins r_J and the J rows of D in closed form once m0_J inverts and
    forces a kernel condition that cancels the quadratic terms, and
  * two sign conditions hold over the whole box: the J rows of z stay
    nonnegative (affine in zeta, minimized at a vertex) and the
    remaining rows of M(zeta) z(zeta) + q stay above a small negative
    floor (quadratic in zeta, decided for any k by the branch and bound
    of boxopt.min_quadratic_over_box, which either finds a point of the
    box below the floor or proves there is none).

Rows outside J carry r_j = 0 and zero D rows, so their z component is
identically zero. The first h coordinates are here-and-now decisions:
their D rows must be zero, which is checked on each closed-form
candidate and rejects supports whose rows refuse to comply.

When m0 is positive definite (linalg.is_positive_definite) the nominal
LCP (m0, q) has exactly one solution zbar (Cottle, Pang & Stone 1992,
Thm 3.3.7), and every rule has r = z(0) = zbar: only the support of
zbar can carry a rule. Lemke finds zbar, and its strict support is
read as for uncertain q (robust_q._nominal_solution). The coordinates
that the floor TOL_FEAS (1 + max|q|) cannot decide (_nominal_chunks)
are tried both ways, every subset of them, and each candidate goes
through the screen and the gates of the sweep below, in its order: the
route stands in for the sweep, with no size cap. Lemke's ray
or failure, a zbar that is not strictly complementary, or more than
ENUMERATION_SIZE_CAP undecided coordinates fall back to the sweep; the
sweep alone is refused past n - h = ENUMERATION_SIZE_CAP or n =
TOTAL_SIZE_CAP_M. Supports with a singular m0_J, which the report
names in a caveat, come from the sweep, or on the route from a block
of a positive definite m0 that the pivot rule still flags (a badly
scaled diagonal, or entries that overflow).

The sweep screens the supports of one size in chunks: one batched
inverse of the blocks m0_J (linalg.invert_stack: numpy's LAPACK
inverse, with the stacked LU deciding the blocks it cannot certify)
finds the singular supports and gives r_J. A support whose r_J can be
positive is then held to the nominal condition w_N(0) = m0[N, J] r_J +
q_N >= 0 on its off-support rows N, one batched product per chunk:
zeta = 0 is a point of the box, so a support that fails it there fails
check_box_conditions. Only the survivors get the closed form and the
checks above, one support at a time; the off-support rows of a
candidate go to min_quadratic_over_box as one stack. The closed form
inverts its block with the same invert_stack (a stack of one), so the
screen and the closed form share one pivot rule; their r_J differ only
by rounding, which the screen's margins are there to absorb. A box check
that passes undecided (out of boxopt.BOX_BUDGET) stops the sweep with
BoxBudgetError, a limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, robust_q
from .boxopt import (BoxBudgetError, min_affine_over_box,
                     min_quadratic_over_box)
from .robust_q import (ENUMERATION_SIZE_CAP, ConditionCheck, SizeLimitError,
                       VerificationReport, _structural_check)
from .tolerances import TOL_FEAS, TOL_SUPPORT

__all__ = [
    "UncertainLcpM",
    "AffineSolutionM",
    "EnumerationOutcomeM",
    "mtilde",
    "characterize_for_J",
    "check_kernel_condition",
    "check_box_conditions",
    "verify_affine_m",
    "solve_enumeration_m",
    "solve_enumeration_m_detailed",
    "uniqueness_m",
    "sample_violation_m",
]

# hard cap on the total subset count 2^n regardless of h
TOTAL_SIZE_CAP_M = 24


@dataclass
class UncertainLcpM:
    """LCP data with M(zeta) = m0 + sum_i zeta_i perturbations[i] on
    zeta in [-1, 1]^k; q is certain and the first h coordinates of z
    are here-and-now."""

    m0: np.ndarray
    perturbations: list
    q: np.ndarray
    h: int = 0

    def __post_init__(self):
        self.m0 = linalg.as_matrix(self.m0, square=True)
        n = self.m0.shape[0]
        if len(self.perturbations) < 1:
            raise ValueError("at least one perturbation matrix is required")
        self.perturbations = [linalg.as_matrix(p, square=True)
                              for p in self.perturbations]
        for p in self.perturbations:
            if p.shape != (n, n):
                raise ValueError("perturbation shape differs from m0")
        self.q = linalg.as_vector(self.q, n)
        self.h = int(self.h)
        if not 0 <= self.h <= n:
            raise ValueError(f"h must lie in [0, {n}]")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def k(self) -> int:
        return len(self.perturbations)

    def matrix_at(self, zeta) -> np.ndarray:
        """M(zeta) for one realization."""
        zeta = linalg.as_vector(zeta, self.k)
        m = self.m0.copy()
        for zi, p in zip(zeta, self.perturbations):
            m += zi * p
        return m


@dataclass
class AffineSolutionM:
    """Affine rule z(zeta) = d zeta + r with d of shape (n, k)."""

    d: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.d = linalg.as_matrix(self.d)
        self.r = linalg.as_vector(self.r, self.d.shape[0])

    def support(self) -> np.ndarray:
        """J: coordinates with r above TOL_SUPPORT."""
        return np.flatnonzero(self.r > TOL_SUPPORT)

    def evaluate(self, zeta) -> np.ndarray:
        return self.d @ np.asarray(zeta, dtype=float) + self.r


def _m0_inverse(inst: UncertainLcpM, j: np.ndarray):
    """inv(m0_J) from linalg.invert_stack on a stack of one block, so
    the pivot rule is that of the sweep's screen. None when m0_J is
    singular."""
    inv, singular = linalg.invert_stack(inst.m0[np.ix_(j, j)][None])
    return None if singular[0] else inv[0]


def mtilde(inst: UncertainLcpM, j_set, i: int) -> np.ndarray:
    """(m0_J)^-1 P_J (m0_J)^-1 for perturbation i, the kernel of the
    closed-form D columns: D_{J,i} = mtilde(inst, J, i) @ q_J. A
    singular m0_J raises linalg.SingularMatrixError."""
    j = linalg.index_set(j_set, inst.n)
    inv = _m0_inverse(inst, j)
    if inv is None:
        raise linalg.SingularMatrixError(f"m0 block of support {j.tolist()} is singular")
    return inv @ inst.perturbations[i][np.ix_(j, j)] @ inv


def _residual_coefficients(inst: UncertainLcpM, sol: AffineSolutionM,
                           rows: np.ndarray):
    """Coefficients of w(zeta) = M(zeta) z(zeta) + q on the given rows:
    w_t(zeta) = const[t] + lin[t] @ zeta + zeta @ quad[t] @ zeta with
    const (rows,), lin (rows, k) and quad (rows, k, k), where quad[t] is
    upper triangular: [t, i, j] is the zeta_i zeta_j coefficient of row
    t for i <= j. w is quadratic in zeta because both M and z are
    affine."""
    perts = [p[rows] for p in inst.perturbations]
    const = inst.m0[rows] @ sol.r + inst.q[rows]
    lin = np.column_stack([p @ sol.r for p in perts]) + inst.m0[rows] @ sol.d
    pd = np.stack([p @ sol.d for p in perts], axis=1)  # [t, i, j] = (P_i D_j)_t
    quad = np.triu(pd) + np.triu(pd.transpose(0, 2, 1), 1)
    return const, lin, quad


def _affine_rows_min(inst: UncertainLcpM, sol: AffineSolutionM, rows):
    """(min over the box and the given rows of z_t(zeta), its argmin),
    the first smallest row winning; the minimum is 0.0 for no rows."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return 0.0, np.zeros(inst.k)
    vals, args = min_affine_over_box(sol.d[rows], sol.r[rows], np.ones(inst.k))
    t = int(np.argmin(vals))
    return float(vals[t]), args[t]


def _inactive_rows_check(inst: UncertainLcpM, sol: AffineSolutionM,
                         rows: np.ndarray, condition: str):
    """(the check that w_t(zeta) stays at least -TOL_FEAS (1 + max|q|)
    over the box on the given rows, whether min_quadratic_over_box
    decided every row). Its worst value is 0.0 for no rows, and NaN when
    some row's arithmetic overflows, which fails."""
    floor = -TOL_FEAS * (1.0 + float(np.max(np.abs(inst.q), initial=0.0)))
    if rows.size == 0:
        return ConditionCheck(condition, True, 0.0, np.zeros(inst.k)), True
    const, lin, quad = _residual_coefficients(inst, sol, rows)
    vals, args, certified = min_quadratic_over_box(quad, lin, const, floor)
    t = int(np.argmin(vals))  # the first NaN row, else the first smallest
    return ConditionCheck(condition, bool(vals[t] >= floor), float(vals[t]), args[t]), certified


def characterize_for_J(inst: UncertainLcpM, j_set) -> AffineSolutionM | None:
    """Closed-form candidate for a support: r_J = -(m0_J)^-1 q_J and
    D_{J,i} = (m0_J)^-1 P_J (m0_J)^-1 q_J, zeros elsewhere. Returns
    None when m0_J is singular (no characterization available). The
    candidate is unvalidated: positivity of r_J, the kernel condition
    and the box conditions are separate checks."""
    j = linalg.index_set(j_set, inst.n)
    d = np.zeros((inst.n, inst.k))
    r = np.zeros(inst.n)
    if j.size == 0:
        return AffineSolutionM(d, r)
    inv = _m0_inverse(inst, j)
    if inv is None:
        return None
    v = inv @ inst.q[j]  # equals -r_J
    r[j] = -v
    d[j] = inv @ np.column_stack([p[np.ix_(j, j)] @ v for p in inst.perturbations])
    return AffineSolutionM(d, r)


def check_kernel_condition(inst: UncertainLcpM, j_set,
                           cand: AffineSolutionM) -> bool:
    """Whether the zeta_i zeta_j terms of the support rows of w(zeta)
    cancel: (P_i_J mtilde_j + P_j_J mtilde_i) q_J = 0 for all pairs
    i <= j, within TOL_FEAS * (1 + max|q_J|). cand is the closed form of
    J (characterize_for_J). With the closed-form D these products are
    exactly the quadratic coefficients of the J rows of
    M(zeta) z(zeta) + q, so they are read off the candidate's own
    residual polynomial (the diagonal counted twice, as in the sum)."""
    j = linalg.index_set(j_set, inst.n)
    _, _, quad = _residual_coefficients(inst, cand, j)
    scale = 1.0 + float(np.max(np.abs(inst.q[j]), initial=0.0))
    worst = float(np.max(np.abs(quad + quad.transpose(0, 2, 1)), initial=0.0))
    return worst <= TOL_FEAS * scale


def check_box_conditions(inst: UncertainLcpM, j_set,
                         cand: AffineSolutionM) -> VerificationReport:
    """The two quantified sign conditions for a closed-form candidate.

      support-rows-nonnegative      min over the box of z_j(zeta), j in J,
                                    at least -TOL_FEAS (affine, vertex
                                    minimum, exact); the threshold of
                                    verify_affine_m's z-nonnegative
      off-support-rows-nonnegative  min over the box of w_t(zeta), t not
                                    in J, at least -TOL_FEAS (1 + max|q|)
                                    (quadratic; decided by branch and
                                    bound, for any k)

    certified is False when the branch and bound left a row undecided.
    """
    j = linalg.index_set(j_set, inst.n)
    n_set = linalg.complement(j, inst.n)
    worst_val, worst_pt = _affine_rows_min(inst, cand, j)
    checks = [ConditionCheck("support-rows-nonnegative", bool(worst_val >= -TOL_FEAS),
                             float(worst_val), worst_pt)]
    check, certified = _inactive_rows_check(inst, cand, n_set, "off-support-rows-nonnegative")
    checks.append(check)
    return VerificationReport(all(c.passed for c in checks), checks, certified)


def verify_affine_m(inst: UncertainLcpM, sol: AffineSolutionM) -> VerificationReport:
    """Direct check of an arbitrary rule against every realization.

      z-nonnegative            min over the box of z_i(zeta), every row
      active-rows-vanish       support rows of M(zeta) z(zeta) + q are
                               identically zero (all polynomial
                               coefficients vanish; exact for any k)
      inactive-rows-nonneg     min over the box of w_t(zeta), the other
                               rows, at least -TOL_FEAS (1 + max|q|)
                               (quadratic; decided by branch and bound)

    certified is False when the branch and bound left a row undecided.

    Structural violations (wrong shapes, negative r, nonzero
    here-and-now rows of D) raise ValueError.
    """
    _structural_check(inst.h, sol, (inst.n, inst.k), np.zeros(0, dtype=int))
    n, k = inst.n, inst.k
    j_set = sol.support()
    n_set = linalg.complement(j_set, n)
    scale = 1.0 + float(np.max(np.abs(inst.q), initial=0.0))
    checks = []

    worst_val, worst_pt = _affine_rows_min(inst, sol, range(n))
    checks.append(ConditionCheck(
        "z-nonnegative", bool(worst_val >= -TOL_FEAS), float(worst_val), worst_pt))

    # the largest coefficient of the support rows, NaN when any is NaN
    const, lin, quad = _residual_coefficients(inst, sol, j_set)
    worst = float(np.max(np.abs(np.concatenate([const, lin.ravel(), quad.ravel()])),
                         initial=0.0))
    checks.append(ConditionCheck(
        "active-rows-vanish", bool(worst <= TOL_FEAS * scale), float(worst),
        np.zeros(k)))

    check, certified = _inactive_rows_check(inst, sol, n_set, "inactive-rows-nonnegative")
    checks.append(check)
    return VerificationReport(all(c.passed for c in checks), checks, certified)


@dataclass
class EnumerationOutcomeM:
    """Everything the subset sweep learned, and uniqueness_m's verdict
    from the sweep's own test of m0."""

    solutions: list = field(default_factory=list)
    singular_supports: list = field(default_factory=list)
    uniqueness: str = "unknown"


def _nominal_screen(inst: UncertainLcpM, supports: np.ndarray,
                    r: np.ndarray, scale: float) -> np.ndarray:
    """Which supports (C, s), nonsingular with r_J (C, s), hold the
    nominal condition: every off-support row of w(0) = m0[:, J] r_J + q
    at least -TOL_FEAS * scale, check_box_conditions' threshold at
    zeta = 0, less TOL_FEAS * (|m0[t, J]| @ |r_J|). That allowance covers
    the rounding between this product and the closed form's residual
    polynomial. Rows that read NaN pass; the box check fails them."""
    cols = inst.m0[:, supports]  # (n, C, s)
    with np.errstate(all="ignore"):
        w = np.einsum("tcs,cs->ct", cols, r) + inst.q
        allowance = np.einsum("tcs,cs->ct", np.abs(cols), np.abs(r))
        low = w < -TOL_FEAS * (scale + allowance)
    low[np.arange(len(supports))[:, None], supports] = False  # rows of J
    return ~np.any(low, axis=1)


def _decide(inst: UncertainLcpM, chunks) -> EnumerationOutcomeM:
    """Hold each support of chunks, stacks (C, s) of supports of one
    size in the sweep's order, to the screen and the gates of the sweep
    (see solve_enumeration_m_detailed)."""
    out = EnumerationOutcomeM()
    scale = 1.0 + float(np.max(np.abs(inst.q), initial=0.0))
    for chunk in chunks:
        inv, singular = linalg.invert_stack(
            inst.m0[chunk[:, :, None], chunk[:, None, :]])
        out.singular_supports.extend(chunk[singular])
        r = -np.einsum("cij,cj->ci", inv, inst.q[chunk])
        # a superset of the supports with r_J > TOL_SUPPORT: the
        # closed form below inverts the block again and tests its r_J
        live = ~singular & ~np.any(r <= 0.5 * TOL_SUPPORT, axis=1)
        # for the zero rule w is q on the whole box, so the screen
        # makes check_box_conditions' decision
        live[live] = _nominal_screen(inst, chunk[live], r[live], scale)
        for j in chunk[live]:
            cand = characterize_for_J(inst, j)
            if j.size and np.min(cand.r[j]) <= TOL_SUPPORT:
                continue  # support demands strictly positive r
            rows = j[j < inst.h]
            if rows.size and np.max(np.abs(cand.d[rows, :])) > TOL_FEAS:
                continue  # here-and-now rows refuse to stay fixed
            if not check_kernel_condition(inst, j, cand):
                continue
            cand.d[: inst.h, :] = 0.0
            box = check_box_conditions(inst, j, cand)
            if not box.overall:
                continue
            if not box.certified:
                raise BoxBudgetError(
                    f"box check of support {(j + 1).tolist()} ran out "
                    "of its box budget undecided")
            if sample_violation_m(inst, cand, count=1000, seed=0) > TOL_FEAS * 10:
                continue  # sampling backstop against tolerance leaks
            out.solutions.append(cand)
    return out


def _support_sweep(inst: UncertainLcpM) -> EnumerationOutcomeM:
    """_decide on all 2^n supports, in chunks of linalg.support_chunks;
    refused past the caps."""
    n = inst.n
    if n - inst.h > ENUMERATION_SIZE_CAP or n > TOTAL_SIZE_CAP_M:
        raise SizeLimitError(
            f"enumeration over 2^{n} supports refused (limit n - h <= "
            f"{ENUMERATION_SIZE_CAP}, n <= {TOTAL_SIZE_CAP_M}; the caps apply "
            "when m0 is not positive definite, or when its nominal solution "
            "cannot name the supports)")
    return _decide(inst, (chunk for size in range(n + 1)
                          for chunk in linalg.support_chunks(range(n), size)))


def _nominal_chunks(inst: UncertainLcpM):
    """The supports that can carry a rule when m0 is positive definite,
    as chunks for _decide, or None when Lemke's nominal solution zbar
    cannot name them: a ray, a failure, a zbar that is not strictly
    complementary, or more than ENUMERATION_SIZE_CAP ambiguous
    coordinates. Those are the coordinates that the floor TOL_FEAS (1 +
    max|q|) of the sweep cannot decide: on the support P of zbar the
    swing zbar_i max_t |m0[t, i]| of dropping i, off it w_i = (m0 zbar
    + q)_i, at or below the floor. The chunks are P less the ambiguous
    coordinates joined with every subset of them, in the sweep's order:
    a fixed disjoint part keeps the lexicographic order of the
    subsets."""
    found = robust_q._nominal_solution(inst.m0, inst.q)
    if found is None:
        return None
    zbar, p_set = found
    floor = TOL_FEAS * (1.0 + float(np.max(np.abs(inst.q), initial=0.0)))
    on_p = np.isin(np.arange(inst.n), p_set)
    with np.errstate(all="ignore"):
        swing = np.where(on_p, zbar * np.max(np.abs(inst.m0), axis=0),
                         inst.m0 @ zbar + inst.q)
    ambiguous = np.flatnonzero(swing <= floor)
    if ambiguous.size > ENUMERATION_SIZE_CAP:
        return None
    base = np.flatnonzero(on_p & (swing > floor))
    return (np.sort(np.hstack([np.tile(base, (len(chunk), 1)), chunk]), axis=1)
            for size in range(ambiguous.size + 1)
            for chunk in linalg.support_chunks(ambiguous, size))


def solve_enumeration_m_detailed(inst: UncertainLcpM) -> EnumerationOutcomeM:
    """Supports J that pass every gate, by cardinality then
    lexicographically. A positive definite m0 takes the supports of
    _nominal_chunks, with no size cap; any other m0, or one whose
    nominal solution cannot name them, takes the sweep of all 2^n,
    refused past n - h = ENUMERATION_SIZE_CAP or n = TOTAL_SIZE_CAP_M.
    Supports with a singular m0_J have no characterization and are
    collected, not searched (the caller may report the caveat). A
    batched inverse per chunk of supports screens out the singular
    ones, those whose r_J is not positive and those that fail the
    nominal condition (see the module docstring). A box check that
    passes undecided raises BoxBudgetError."""
    definite = linalg.is_positive_definite(inst.m0)
    chunks = _nominal_chunks(inst) if definite else None
    out = _support_sweep(inst) if chunks is None else _decide(inst, chunks)
    out.uniqueness = _uniqueness(definite)
    return out


def solve_enumeration_m(inst: UncertainLcpM) -> list:
    """All affine rules the support sweep certifies, ordered by support
    cardinality then lexicographically."""
    return solve_enumeration_m_detailed(inst).solutions


def uniqueness_m(inst: UncertainLcpM) -> str:
    """"unique-if-exists" when the symmetric part of m0 is positive
    definite by linalg.is_positive_definite, else "unknown". A dispatch
    reads the same verdict off solve_enumeration_m_detailed's outcome."""
    return _uniqueness(linalg.is_positive_definite(inst.m0))


def _uniqueness(definite: bool) -> str:
    return "unique-if-exists" if definite else "unknown"


def sample_violation_m(inst: UncertainLcpM, sol: AffineSolutionM,
                       count: int = 1000, seed: int = 0) -> float:
    """Largest violation of the LCP conditions over `count` uniform box
    samples: max of -z_i, -w_i and |z_i w_i| with w = M(zeta) z + q."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (count, inst.k))
    zs = pts @ sol.d.T + sol.r
    ws = (zs @ inst.m0.T + inst.q
          + np.einsum("si,itj,sj->st", pts, np.stack(inst.perturbations), zs))
    return float(max(np.max(-zs, initial=0.0), np.max(-ws, initial=0.0),
                     np.max(np.abs(zs * ws), initial=0.0)))
