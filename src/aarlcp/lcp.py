"""Nominal linear complementarity problems: find z >= 0 with
w = M z + q >= 0 and z^T w = 0.

solve_lemke runs complementary pivoting with the all-ones covering
vector on a dense tableau, one rank-1 update per pivot. The ratio test
is lexicographic over (rhs | initial identity columns), which breaks
every degenerate tie deterministically and prevents cycling. Ray
termination certifies that no solution exists only for positive
semidefinite (more generally copositive-plus) M, and only on a finite
tableau; for other matrices a ray is reported as such and the caller
decides, and on an overflowed tableau it raises NumericalError.

solve_block_pivoting serves a positive definite M, whose LCP has
exactly one solution: block principal pivoting (Judice & Pires, Comput.
Oper. Res. 21(5), 1994) guesses which coordinates are free, solves the
principal block of those by LAPACK, and exchanges every coordinate of
the wrong sign at once, or by Murty's single-pivot rule when that does
not shrink their number. It takes a few block solves where Lemke takes
a pivot per coordinate, and it hands back only a point that passes the
same recheck as Lemke's; when it gives up, the caller runs Lemke.

describe_solution_set encodes, for PSD M, the full solution set as a
polyhedron around any one solution; compute_support_P takes that
LinearProgram and, with one LP over its homogenization, returns P, the
coordinates positive somewhere in the set, and K, the rows of
M z + q >= 0 that vanish on all of it. The psd-lp pathway
(robust_q.solve_psd) reads P = K off a strictly complementary solution
when M is positive definite, and calls compute_support_P otherwise. It
fixes D from P by linear algebra and, unless that leaves one candidate
(r the one solution), decides the rest with one feasibility LP built
from the same polyhedron in r alone, stated at most once per instance,
its bounds and right-hand sides raised by the box envelopes. Its
uniqueness verdict needs no computation when M is positive definite and
P came from the one nominal solution, and is otherwise a rank test on
the affine hull that P and K span, with no LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .lp import LinearProgram, IterationLimitError, solve_lp
from .tolerances import TOL_COMP, TOL_FEAS, TOL_LEMKE_PIVOT, TOL_LEX_TIE

__all__ = [
    "NominalLcp",
    "LcpSolution",
    "LemkeOutcome",
    "lcp_residuals",
    "solve_lemke",
    "solve_block_pivoting",
    "describe_solution_set",
    "compute_support_P",
]


@dataclass
class NominalLcp:
    m: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.m = linalg.as_matrix(self.m, square=True)
        self.q = linalg.as_vector(self.q, self.m.shape[0])

    @property
    def n(self) -> int:
        return self.q.size


@dataclass
class LcpSolution:
    z: np.ndarray
    comp_residual: float


@dataclass
class LemkeOutcome:
    status: str  # "solution" | "ray"
    solution: LcpSolution | None = None
    iterations: int = 0


def lcp_residuals(prob: NominalLcp, z) -> tuple[float, float, float]:
    """(most negative z entry, most negative w entry, |z . w|), computed
    straight from the problem data."""
    z = linalg.as_vector(z, prob.n)
    w = prob.m @ z + prob.q
    return (
        float(np.min(z, initial=0.0)),
        float(np.min(w, initial=0.0)),
        abs(float(z @ w)),
    )


def _validate_solution(prob: NominalLcp, z) -> LcpSolution:
    zmin, wmin, comp = lcp_residuals(prob, z)
    qscale = 1.0 + float(np.max(np.abs(prob.q), initial=0.0))
    zscale = 1.0 + float(np.max(np.abs(z), initial=0.0))
    if zmin < -TOL_FEAS:
        raise linalg.NumericalError(f"pivoting produced z with entry {zmin:.3e}")
    if wmin < -TOL_FEAS * qscale:
        raise linalg.NumericalError(f"pivoting produced M z + q with entry {wmin:.3e}")
    if comp > TOL_COMP * qscale * zscale:
        raise linalg.NumericalError(f"complementarity residual {comp:.3e} too large")
    return LcpSolution(z=z, comp_residual=comp)


def solve_lemke(prob: NominalLcp) -> LemkeOutcome:
    """Complementary pivoting from the all-ones covering vector.

    Returns status "solution" with a validated LcpSolution, or "ray" when
    the entering column has no positive entries (secondary ray). The
    returned solution is re-checked against the original data,
    independently of the tableau arithmetic. A ray is returned only from
    a finite tableau; one that holds inf or NaN raises
    linalg.NumericalError instead. More than max(200, 25 n^2) pivots
    raise IterationLimitError.
    """
    n = prob.n
    max_iterations = max(200, 25 * n * n)
    if np.all(prob.q >= 0):
        return LemkeOutcome("solution", _validate_solution(prob, np.zeros(n)), 0)

    # tableau columns: rhs | w (n) | z (n) | z0; a row's lexicographic key
    # is its rhs and w part, columns 0..n, and the w block starts as the
    # identity
    t = np.zeros((n, 2 * n + 2))
    t[:, 0] = prob.q
    t[:, 1 : n + 1] = np.eye(n)
    t[:, n + 1 : 2 * n + 1] = -prob.m
    t[:, 2 * n + 1] = -1.0
    basis = np.arange(1, n + 1)  # w_i basic
    z0 = 2 * n + 1

    # initial pivot: bring z0 in against the lexicographic minimum of
    # (q_i, e_i) / 1 over rows with q_i < 0 (the most negative q wins;
    # the identity part breaks ties deterministically)
    rows = np.flatnonzero(prob.q < 0)
    row = rows[_lex_argmin(t[rows, : n + 1])]
    entering = z0
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise IterationLimitError(
                f"lemke pivoting exceeded {max_iterations} iterations"
            )
        if row is None:
            rows = np.flatnonzero(t[:, entering] > TOL_LEMKE_PIVOT)
            if rows.size == 0:
                # a ray proves nothing when the tableau has overflowed
                if not np.isfinite(t).all():
                    raise linalg.NumericalError(
                        "lemke tableau holds inf or NaN at a ray")
                return LemkeOutcome("ray", None, iterations)
            # an overflowed tableau is caught at a ray or by the
            # solution's check, without a warning on the way
            with np.errstate(all="ignore"):
                keys = t[rows, : n + 1] / t[rows, entering][:, None]
            row = rows[_lex_argmin(keys)]
        # pivot on (row, entering)
        leaving = basis[row]
        with np.errstate(all="ignore"):
            t[row] /= t[row, entering]
            col = t[:, entering].copy()
            col[row] = 0.0
            t -= np.outer(col, t[row])
        basis[row] = entering
        if leaving == z0:
            z = np.zeros(n)
            in_z = (basis > n) & (basis <= 2 * n)
            # fmax with 0.0 first maps NaN and -0.0 to 0.0
            z[basis[in_z] - n - 1] = np.fmax(0.0, t[in_z, 0])
            return LemkeOutcome("solution", _validate_solution(prob, z), iterations)
        entering = leaving + n if leaving <= n else leaving - n  # complement
        row = None


def solve_block_pivoting(prob: NominalLcp) -> LcpSolution | None:
    """The solution of the LCP of a positive definite M by block
    principal pivoting, or None when the method gives up.

    F holds the coordinates where z is free, z_F solving M[F, F] z_F =
    -q_F, and z is zero off F; F starts as {i : q_i < 0}. The infeasible
    set H holds the i in F with z_i < 0 and the i outside F with w_i =
    (M z + q)_i < 0. While H is smaller than every H before it, all of H
    changes sides at once; otherwise only its largest index does
    (Murty's rule, which ends for every P-matrix). An empty H gives the
    solution, which must pass the recheck solve_lemke applies to its own.

    None, for the caller to run solve_lemke instead, after n + 50
    iterations (a stall, which rounding can cause on a degenerate
    instance), on a block LAPACK finds singular, on a non-finite iterate
    and on a point that fails the recheck.
    """
    n = prob.n
    m, q = prob.m, prob.q
    free = q < 0
    fewest = n + 1
    with np.errstate(all="ignore"):
        for _ in range(n + 50):
            f = np.flatnonzero(free)
            z = np.zeros(n)
            if f.size:
                try:
                    z[f] = np.linalg.solve(m[f[:, None], f], -q[f])
                except np.linalg.LinAlgError:
                    return None
            w = m @ z + q
            if not (np.isfinite(z).all() and np.isfinite(w).all()):
                return None
            wrong = np.where(free, z < 0, w < 0)
            count = int(np.count_nonzero(wrong))
            if count == 0:
                try:
                    return _validate_solution(prob, z)
                except linalg.NumericalError:
                    return None
            if count < fewest:
                fewest = count
                free ^= wrong
            else:
                last = np.flatnonzero(wrong)[-1]
                free[last] = not free[last]
    return None


def _lex_argmin(keys: np.ndarray) -> int:
    """Index of the lexicographically smallest row of keys. Column by
    column, the rows within TOL_LEX_TIE of the smallest value left in
    that column stay, and the first row left wins. A NaN entry, which
    only an overflowed tableau holds, compares as a tie, and a later row
    never displaces an earlier one it ties with: a column NaN in every
    row left decides nothing, and otherwise a NaN keeps only the first
    row left."""
    left = np.arange(keys.shape[0])
    for col in keys.T:
        if left.size == 1:
            break
        vals = col[left]
        low = np.fmin.reduce(vals)
        if math.isnan(low):
            continue
        keep = vals <= low + TOL_LEX_TIE
        keep[0] |= math.isnan(vals[0])
        left = left[keep]
    return int(left[0])


def describe_solution_set(prob: NominalLcp, zbar) -> LinearProgram:
    """Polyhedral description of the full solution set of a PSD instance
    around the known solution zbar:

        z >= 0,  M z + q >= 0,  q.(z - zbar) = 0,  (M + M^T)(z - zbar) = 0.

    The returned LinearProgram has a zero objective; callers set one.
    Raises ValueError when M is not positive semidefinite or zbar fails
    the check solve_lemke applies to its own solutions. Within one
    dispatch the definiteness of M is decided once (linalg._definiteness).
    """
    if linalg._definiteness(prob.m) is None:
        raise ValueError("solution-set description requires a PSD matrix")
    zbar = linalg.as_vector(zbar, prob.n)
    try:
        _validate_solution(prob, zbar)
    except RuntimeError as exc:
        raise ValueError("zbar does not solve the instance") from exc
    n = prob.n
    sym = prob.m + prob.m.T
    lhs = np.vstack([prob.m, prob.q.reshape(1, n), sym])
    rhs = np.concatenate([-prob.q, [float(prob.q @ zbar)], sym @ zbar])
    senses = [">="] * n + ["="] * (n + 1)
    return LinearProgram(
        objective=np.zeros(n),
        lhs=lhs,
        senses=senses,
        rhs=rhs,
        lower=np.zeros(n),
        upper=np.full(n, np.inf),
    )


def compute_support_P(nominal_set: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """(P, K) over nominal_set, the solution set of a PSD instance as
    describe_solution_set states it: P holds the coordinates positive
    somewhere in the set, K the rows of M z + q >= 0 that vanish on all
    of it.

    One LP finds both (the always-active constraints of Freund, Roundy
    and Todd, 1985). It homogenizes the set with a scale s >= 1, each
    row a.z (sense) b becoming a.y - b s (sense) 0 with y >= 0, so y/s
    ranges over the set, and gives each sign constraint a cap t in
    [0, 1]: y_j >= t_j on z and a.y - b s >= t_i on the inequality rows.
    It maximizes sum t. Any point of the set scaled up by s reaches t = 1
    wherever it is positive, and an average of points does so wherever
    some point is, so at the optimum t is 1 off the always-active
    constraints and 0 on them: P = {j : t_j > 1/2} and K = {i : t_i <
    1/2}.
    """
    n = nominal_set.objective.size
    lhs, rhs = nominal_set.lhs, nominal_set.rhs
    ineq = np.array(nominal_set.senses) == ">="
    g = int(np.count_nonzero(ineq))
    rows = lhs.shape[0]
    # columns: y (n) | s | t_z (n) | t_w (g)
    a = np.zeros((rows + n, 2 * n + 1 + g))
    a[:rows, :n] = lhs
    a[:rows, n] = -rhs
    a[np.flatnonzero(ineq), 2 * n + 1 + np.arange(g)] = -1.0
    a[rows:, :n] = np.eye(n)
    a[rows:, n + 1 : 2 * n + 1] = -np.eye(n)
    lower = np.zeros(a.shape[1])
    lower[n] = 1.0
    upper = np.ones(a.shape[1])
    upper[: n + 1] = np.inf
    obj = np.zeros(a.shape[1])
    obj[n + 1 :] = -1.0
    out = solve_lp(LinearProgram(obj, a, nominal_set.senses + [">="] * n,
                                 np.zeros(rows + n), lower, upper))
    if out.status != "optimal":
        raise linalg.NumericalError("solution-set polyhedron reported infeasible")
    t = out.x[n + 1 :]
    return np.flatnonzero(t[:n] > 0.5), np.flatnonzero(t[n:] < 0.5)
