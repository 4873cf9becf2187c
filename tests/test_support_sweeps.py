"""The stacked support sweeps against the per-support loops they
replaced.

_enumeration_oracle and _enumeration_m_oracle are those loops as they
stood before the sweeps were stacked: one factorization per support and
every test in Python. Only a branch counter was added. The uncertain-q
oracle inverts each block with linalg.invert; the uncertain-M oracle
takes each support's closed form from characterize_for_J, which factors
its block with linalg.factor_stack (a stack of one), and it has no
nominal screen. On a seeded sweep of instances, run with a chunk size
that splits every support size across chunks, the stacked sweeps must
return the same rules in the same order, the same singular supports and
the same uncertain-M caveat."""

import itertools
from collections import Counter

import numpy as np

from aarlcp import linalg, reporting
from aarlcp.robust_m import (EnumerationOutcomeM, UncertainLcpM,
                             characterize_for_J, check_box_conditions,
                             check_kernel_condition, sample_violation_m,
                             solve_enumeration_m_detailed)
from aarlcp.robust_q import AffineSolutionQ, UncertainLcpQ, solve_enumeration
from aarlcp.tolerances import TOL_DEDUP, TOL_FEAS, TOL_SUPPORT

REL = 1e-12
# 1e308 times this block overflows in the elimination: U[2, 2] is inf
# in LAPACK and NaN in the stacked LU, singular either way
OVERFLOW = np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.7]])


def _enumeration_oracle(inst, branches, tol=TOL_FEAS):
    n = inst.n
    wscale = 1.0 + float(np.max(np.abs(inst.qbar), initial=0.0))
    adjustable = list(range(inst.h, n))
    found = []
    for size in range(len(adjustable) + 1):
        for j_tuple in itertools.combinations(adjustable, size):
            j = np.array(j_tuple, dtype=int)
            try:
                inv = linalg.invert(inst.m[np.ix_(j, j)])
            except linalg.SingularMatrixError:
                branches["singular"] += 1
                continue
            r_j = -inv @ inst.qbar[j]
            if np.any(r_j - np.abs(inv) @ inst.ubar[j] < -tol):
                branches["own rows"] += 1
                continue
            n_rows = linalg.complement(j, n)
            if n_rows.size:
                g = inst.m[np.ix_(n_rows, j)] @ inv
                margin = (inst.qbar[n_rows] - g @ inst.qbar[j]
                          - inst.ubar[n_rows] - np.abs(g) @ inst.ubar[j])
                if np.any(margin < -tol * wscale):
                    branches["margin"] += 1
                    continue
            d = np.zeros((n, n))
            r = np.zeros(n)
            if j.size:
                d[np.ix_(j, j)] = -inv
                d += 0.0
                r[j] = r_j
            sol = AffineSolutionQ(d, r)
            if not any(np.max(np.abs(sol.d - s.d)) <= TOL_DEDUP
                       and np.max(np.abs(sol.r - s.r)) <= TOL_DEDUP
                       for s in found):
                branches["kept"] += 1
                found.append(sol)
            else:
                branches["duplicate"] += 1
    return found


def _enumeration_m_oracle(inst, branches, tol=TOL_FEAS):
    out = EnumerationOutcomeM()
    for size in range(inst.n + 1):
        for j_tuple in itertools.combinations(range(inst.n), size):
            j = np.array(j_tuple, dtype=int)
            cand = characterize_for_J(inst, j)
            if cand is None:
                branches["singular"] += 1
                out.singular_supports.append(j)
                continue
            if j.size and np.min(cand.r[j]) <= TOL_SUPPORT:
                branches["r not positive"] += 1
                continue
            rows = j[j < inst.h]
            if rows.size and np.max(np.abs(cand.d[rows, :])) > tol:
                branches["here-and-now"] += 1
                continue
            if not check_kernel_condition(inst, j, cand):
                branches["kernel"] += 1
                continue
            cand.d[: inst.h, :] = 0.0
            if not check_box_conditions(inst, j, cand).overall:
                branches["box"] += 1
                continue
            if sample_violation_m(inst, cand, count=1000, seed=0) > tol * 10:
                branches["sampled"] += 1
                continue
            branches["kept"] += 1
            out.solutions.append(cand)
    return out


def _triangular(rng, n):
    """Upper triangular with diagonal pivots on both sides of
    TOL_PIVOT_FACTOR relative to the off-diagonal entries of size 1."""
    m = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    np.fill_diagonal(m, rng.choice([1.0, -2.0, 1e-9, -5e-10, 1e-11, 2e-11], n))
    return m


def _with_overflow_block(m):
    """The 1e308 block on the first three coordinates, uncoupled."""
    if m.shape[0] >= 3:
        m[:3, :] = 0.0
        m[:, :3] = 0.0
        m[:3, :3] = 1e308 * OVERFLOW
    return m


def _integer_singular(rng, n):
    """Small integers with a duplicated column: exactly singular blocks."""
    m = rng.integers(-2, 3, (n, n)).astype(float)
    if n >= 2:
        a, b = rng.choice(n, 2, replace=False)
        m[:, b] = m[:, a]
    return m


KINDS = ("planted", "random", "integer", "pivot", "overflow")


def _q_instance(rng, case):
    n = 1 + case % 9
    h = min((case // 9) % 4, n - 1)
    kind = KINDS[case % 5]
    scale = 10.0 ** (case % 7 - 3)
    ubar = rng.uniform(0.1, 1.0, n)
    m = {"planted": lambda: rng.uniform(-3.0, 3.0, (n, n)),
         "random": lambda: np.eye(n) * 2.0 + rng.uniform(-1.0, 1.0, (n, n)),
         "integer": lambda: _integer_singular(rng, n),
         "pivot": lambda: _triangular(rng, n),
         "overflow": lambda: _with_overflow_block(rng.uniform(-1.0, 1.0, (n, n)))}[kind]()
    if kind != "overflow":
        m = m * scale
    # qbar >= ubar on the overflow family keeps the zero rule, which the
    # rules of the 1e308 supports (entries near 1e-308) duplicate
    qbar = rng.uniform(1.0, 3.0, n) if kind == "overflow" else rng.uniform(-5.0, 3.0, n)
    if kind == "planted":
        size = int(rng.integers(1, n - h + 1))
        j = np.sort(rng.choice(np.arange(h, n), size, replace=False))
        qbar = _planted_qbar(rng, m, ubar, j, scale)
    return UncertainLcpQ(m=m, qbar=qbar, ubar=ubar, h=h)


def _planted_qbar(rng, m, ubar, j, scale=1.0):
    """qbar for which both enumeration conditions hold on support j with
    margin (r_J of order 1 / scale)."""
    inv = np.linalg.inv(m[np.ix_(j, j)])
    rest = np.setdiff1d(np.arange(len(ubar)), j)
    r_j = np.abs(inv) @ ubar[j] + rng.uniform(0.5, 2.0, j.size) / scale
    qbar = np.empty(len(ubar))
    qbar[j] = -m[np.ix_(j, j)] @ r_j
    g = m[np.ix_(rest, j)] @ inv
    qbar[rest] = (-(m[np.ix_(rest, j)] @ r_j) + ubar[rest]
                  + np.abs(g) @ ubar[j] + rng.uniform(0.5, 2.0, rest.size))
    return qbar


# the uncertain-M sweep also meets M-matrices with q < 0 (every r_J is
# positive, so only the nominal screen tells the supports apart) and
# planted rules whose off-support rows sit near the box check's threshold
M_KINDS = KINDS + ("m-matrix", "near")


def _m_instance(rng, case):
    n = 1 + case % 9
    k = 1 + case % 3
    h = min((case // 9) % 4, n - 1)
    kind = M_KINDS[case % 7]
    scale = 10.0 ** (case % 7 - 3)
    perts = [rng.uniform(-0.3, 0.3, (n, n)) for _ in range(k)]
    if kind == "planted":
        # block upper triangular, perturbations in the last column below
        # row h: the kernel condition holds on every support
        m0 = np.triu(rng.uniform(-0.5, 0.5, (n, n))) + np.diag(rng.uniform(1.5, 3.0, n))
        m0[:h, h:] = 0.0
        for p in perts:
            p[:] = 0.0
            p[h: n - 1, n - 1] = rng.uniform(-0.1, 0.1, n - 1 - h)
    elif kind == "m-matrix":
        # a I - b (11^T - I), strictly diagonally dominant
        b = rng.uniform(0.1, 0.3)
        m0 = (b * n + rng.uniform(0.5, 2.0)) * np.eye(n) - b * np.ones((n, n))
    elif kind == "near":
        # perturbations only among the rows and columns off a planted
        # support J: on J the rule is r*, and its off-support rows of w
        # are constant over the box
        m0 = np.eye(n) * 2.0 + rng.uniform(-0.5, 0.5, (n, n))
        j = rng.uniform(size=n) < 0.6
        for p in perts:
            p[j, :] = p[:, j] = 0.0
    else:
        m0 = {"random": lambda: np.eye(n) * 2.0 + rng.uniform(-0.5, 0.5, (n, n)),
              "integer": lambda: _integer_singular(rng, n),
              "pivot": lambda: _triangular(rng, n),
              "overflow": lambda: _with_overflow_block(rng.uniform(-1.0, 1.0, (n, n)))}[kind]()
        for p in perts:
            if kind == "overflow":
                p[:3, :] = p[:, :3] = 0.0
            if kind == "pivot":
                p[:] = np.triu(p, 1) * 0.1
    if kind != "overflow":
        m0 = m0 * scale
        perts = [p * scale for p in perts]
    q = rng.uniform(-4.0, 2.0, n)
    if kind == "planted":
        rstar = rng.uniform(1.0, 3.0, n) * (rng.uniform(size=n) < 0.8)
        rstar[-1] *= 1e-5  # one r_j just above TOL_SUPPORT
        q = -(m0 @ rstar) + np.where(rstar == 0.0, rng.uniform(0.5, 1.5, n), 0.0)
    elif kind == "m-matrix":
        q = -rng.uniform(0.5, 2.0, n)
    elif kind == "near":
        # w_t(0) = +-(0.5 to 3) TOL_FEAS (1 + max|q|) off J: the box check
        # passes exactly the rows at or above -TOL_FEAS (1 + max|q|)
        rstar = np.where(j, rng.uniform(1.0, 3.0, n), 0.0)
        q = -(m0 @ rstar)
        gap = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n)
        q += np.where(j, 0.0, gap * TOL_FEAS * (1.0 + np.max(np.abs(q))))
    return UncertainLcpM(m0=m0, perturbations=perts, q=q, h=h)


def _close(a, b):
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= \
        REL * (1.0 + np.max(np.abs(b), initial=0.0))


def _assert_same_rules(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _close(a.d, b.d) and _close(a.r, b.r)


def test_stacked_enumeration_matches_the_per_support_loop(monkeypatch):
    monkeypatch.setattr(linalg, "_SUPPORT_CHUNK", 7)
    rng = np.random.default_rng(70)
    branches = Counter()
    for case in range(135):
        inst = _q_instance(rng, case)
        want = _enumeration_oracle(inst, branches)
        _assert_same_rules(solve_enumeration(inst), want)
    for branch in ("singular", "own rows", "margin", "kept", "duplicate"):
        assert branches[branch] >= 5, branches


def test_stacked_m_sweep_matches_the_per_support_loop(monkeypatch):
    monkeypatch.setattr(linalg, "_SUPPORT_CHUNK", 7)
    rng = np.random.default_rng(71)
    branches = Counter()
    for case in range(63):
        inst = _m_instance(rng, case)
        want = _enumeration_m_oracle(inst, branches)
        got = solve_enumeration_m_detailed(inst)
        _assert_same_rules(got.solutions, want.solutions)
        assert [s.tolist() for s in got.singular_supports] == \
            [s.tolist() for s in want.singular_supports]
        # the caveat and the singular supports of the report
        reports = []
        for out in (got, want):
            monkeypatch.setattr(reporting, "solve_enumeration_m_detailed",
                                lambda inst, out=out: out)
            reports.append(reporting.dispatch_solve(inst))
        assert reports[0].caveat == reports[1].caveat
        assert reports[0].singular_supports == reports[1].singular_supports
    for branch in ("singular", "r not positive", "here-and-now", "kernel",
                   "box", "kept"):
        assert branches[branch] >= 5, branches


def test_overflow_block_dispatches_with_a_uniqueness_verdict():
    # the symmetric part of the 1e308 block is finite and positive
    # definite, so uniqueness holds; the singular supports get a caveat
    m0 = np.zeros((4, 4))
    m0[:3, :3] = 1e308 * OVERFLOW
    m0[3, 3] = 1.0
    inst = UncertainLcpM(m0=m0, perturbations=[np.zeros((4, 4))],
                         q=np.array([1.0, 1.0, 1.0, -1.0]), h=0)
    report = reporting.dispatch_solve(inst)
    assert report.status == "solution"
    assert report.uniqueness == "unique-if-exists"
    assert report.caveat is not None


def _blocks(rng):
    """Square blocks of sizes 1-4: the principal blocks of the sweep
    instances plus hand-made ones at the edges of the pivot rule."""
    mats = [_q_instance(rng, case).m for case in range(45)]
    mats += [_m_instance(rng, case).m0 for case in range(45)]
    by_size = {s: [] for s in range(1, 5)}
    for m in mats:
        for s in by_size:
            for j in linalg.support_chunks(range(m.shape[0]), s):
                by_size[s].extend(m[j[:, :, None], j[:, None, :]])
    by_size[2] += [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2)),
                   np.diag([1.0, 1e-9]), np.diag([1.0, 1e-11]),
                   np.array([[1e-300, 1.0], [1.0, 1.0]]),
                   np.full((2, 2), np.nan), np.array([[1.0, np.nan], [0.0, 1.0]])]
    by_size[3] += [1e308 * OVERFLOW, 1e-300 * OVERFLOW,
                   np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]),
                   np.diag([2.0, 1.0, 2.1e-10]), np.diag([2.0, 1.0, 1.9e-10])]
    return {s: np.array(b) for s, b in by_size.items()}


def test_stacked_pivot_rule_matches_invert():
    for size, stack in _blocks(np.random.default_rng(72)).items():
        _, _, singular = linalg.factor_stack(stack)
        for block, flagged in zip(stack, singular):
            if not np.all(np.isfinite(block)):
                assert flagged  # NaN pivots are singular
                continue
            try:
                linalg.invert(block)
                raised = False
            except linalg.SingularMatrixError:
                raised = True
            assert flagged == raised, block
    assert linalg.factor_stack(1e308 * OVERFLOW[None])[2].tolist() == [True]


def test_stacked_solves_match_lapack():
    rng = np.random.default_rng(73)
    for size in range(5):
        a = rng.uniform(-1.0, 1.0, (40, size, size)) + 2.0 * np.eye(size)
        lu, perm, singular = linalg.factor_stack(a)
        assert not singular.any()
        b = rng.uniform(-1.0, 1.0, (40, size))
        x = linalg.solve_stack(lu, perm, b)
        inv = linalg.solve_stack(lu, perm, np.broadcast_to(np.eye(size), a.shape))
        for c in range(40):
            assert np.allclose(x[c], np.linalg.solve(a[c], b[c]), rtol=1e-12, atol=1e-12)
            assert np.allclose(inv[c], linalg.invert(a[c]), rtol=1e-12, atol=1e-12)


def test_support_chunks_are_lexicographic(monkeypatch):
    monkeypatch.setattr(linalg, "_SUPPORT_CHUNK", 7)
    for size in range(6):
        chunks = list(linalg.support_chunks(range(1, 6), size))
        assert all(c.shape[0] <= 7 and c.shape[1] == size for c in chunks)
        assert [tuple(j) for c in chunks for j in c] == \
            list(itertools.combinations(range(1, 6), size))


def test_enumeration_at_n16_inverts_no_support_by_itself(monkeypatch):
    rng = np.random.default_rng(74)
    m = rng.uniform(-3.0, 3.0, (16, 16))
    ubar = rng.uniform(0.1, 1.0, 16)
    qbar = _planted_qbar(rng, m, ubar, np.array([2, 5, 11]))
    inst = UncertainLcpQ(m=m, qbar=qbar, ubar=ubar, h=0)
    want = _enumeration_oracle(inst, Counter())
    assert want

    def refuse(a):
        raise AssertionError("per-support linalg.invert call")

    monkeypatch.setattr(linalg, "invert", refuse)
    _assert_same_rules(solve_enumeration(inst), want)
