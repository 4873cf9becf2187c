"""Shared brute-force oracles, built on numpy only so they stay
independent of the package's own linear algebra."""

import itertools

import numpy as np


def lcp_brute_force(m, q, tol=1e-9):
    """All complementary-basis solutions of 0 <= z, m z + q >= 0,
    z . (m z + q) = 0.

    Walks every support set A, solves m[A, A] z_A = -q_A with numpy,
    keeps z when z_A >= -tol and the rows outside A keep m z + q above
    -tol. Deduplicates within 1e-9 entrywise. Exponential in n; oracle
    use only.
    """
    n = len(q)
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    sols = []
    for size in range(n + 1):
        for a in itertools.combinations(range(n), size):
            a = list(a)
            z = np.zeros(n)
            if a:
                sub = m[np.ix_(a, a)]
                # ill-conditioned blocks produce numerical junk, not
                # solutions; skipping them can only make the oracle miss
                # a solution, never report a wrong one
                if abs(np.linalg.det(sub)) < 1e-12 or np.linalg.cond(sub) > 1e7:
                    continue
                za = np.linalg.solve(sub, -q[a])
                # one round of iterative refinement keeps the block rows
                # of m z + q at roundoff even for cond ~ 1e6
                za -= np.linalg.solve(sub, sub @ za + q[a])
                z[a] = za
            if np.min(z, initial=0.0) < -tol:
                continue
            if np.min(m @ z + q, initial=0.0) < -tol:
                continue
            if not any(np.max(np.abs(z - s)) <= 1e-9 for s in sols):
                sols.append(z)
    return sols


def is_p_matrix(m, tol=1e-12):
    """Every principal minor positive, checked exhaustively (n <= 8)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    assert n <= 8, "exhaustive minor check is exponential"
    for size in range(1, n + 1):
        for a in itertools.combinations(range(n), size):
            if np.linalg.det(m[np.ix_(a, a)]) <= tol:
                return False
    return True


def random_psd_matrix(rng, n, ridge=0.05):
    g = rng.uniform(-1.5, 1.5, (n, n))
    return (g.T @ g + ridge * np.eye(n)).round(4)


def random_low_rank_psd_lcp(rng, n, skew=False):
    """(m, q, z0): m = B (I + S) B^T with B of rank below n and S
    skew-symmetric (zero unless asked), and q = w0 - m z0 with z0 >= 0,
    w0 >= 0 and z0 . w0 = 0, so z0 solves the LCP and the rank deficit
    leaves room for a solution set of more than one point."""
    rank = int(rng.integers(1, n))
    b = rng.uniform(-1.0, 1.0, (n, rank))
    c = rng.uniform(-1.0, 1.0, (rank, rank)) if skew else np.zeros((rank, rank))
    m = b @ (np.eye(rank) + 0.5 * (c - c.T)) @ b.T
    z0 = rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.6)
    w0 = rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.5) * (z0 == 0.0)
    return m, w0 - m @ z0, z0


def random_p_matrix(rng, n):
    # diagonally dominant with positive diagonal
    m = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(m, 0.0)
    diag = np.abs(m).sum(axis=1) + rng.uniform(0.5, 1.5, n)
    np.fill_diagonal(m, diag)
    return m.round(4)
