"""Seeded benchmark instances, written as aarlcp instance-file text.

Only numpy is used here, never aarlcp, so the inputs of a workload stay
the same while the program changes. Every instance comes from its own
generator (seeded by run seed, workload and index, or by pool class and
candidate index; see workloads.py), and the text carries 17 significant
digits, so one seed always gives byte-identical texts.

Random instances are almost never solvable at the sizes that matter, so
a share of each workload carries a planted robust rule:

  uncertain-q  pick a well-conditioned support J inside the adjustable
               block, choose r_J above the box swing of -inv(M_JJ) and
               set qbar so that the enumeration conditions hold with a
               positive margin; the rule D_JJ = -inv(M_JJ), r_J solves
               every realization.
  uncertain-m  M0 upper triangular and every perturbation living in the
               rows before a split index and the columns after it, as in
               the worked example; then every kernel condition holds, so
               candidates reach the box conditions. A planted support
               gets q_J = -M0_JJ r_J and q off J above the worst-case
               swing of M(zeta) z(zeta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# salts that keep the random streams of the workloads apart
_TAG = {"enumeration": 101, "psd-lp": 202, "mip": 303}


@dataclass(frozen=True)
class Instance:
    """One benchmark input.

    planted holds the rule the builder planted as (d, r) in the
    instance's own coordinates, or None.
    """

    name: str
    text: str
    size: int
    planted: tuple | None = None


def _fmt_row(values) -> str:
    return " ".join(f"{float(x):.17g}" for x in np.atleast_1d(values))


def _matrix_lines(a) -> list:
    return [_fmt_row(row) for row in np.atleast_2d(a)]


def q_text(m, qbar, ubar, h: int) -> str:
    lines = ["kind uncertain-q", f"n {len(qbar)}", f"h {h}", "m",
             *_matrix_lines(m), "qbar", _fmt_row(qbar), "ubar", _fmt_row(ubar)]
    return "\n".join(lines) + "\n"


def m_text(m0, perts, q, h: int) -> str:
    lines = ["kind uncertain-m", f"n {len(q)}", f"k {len(perts)}", f"h {h}",
             "m0", *_matrix_lines(m0)]
    for i, p in enumerate(perts, start=1):
        lines += [f"perturbation {i}", *_matrix_lines(p)]
    lines += ["q", _fmt_row(q)]
    return "\n".join(lines) + "\n"


def market_text(costs, technology, capacity, demand_matrix, sensitivity,
                demand, halfwidth, fixed_producers: int = 0) -> str:
    lines = ["kind market", f"producers {len(costs)}",
             f"constraints {len(capacity)}", f"markets {len(demand)}",
             "costs", _fmt_row(costs), "technology", *_matrix_lines(technology),
             "capacity", _fmt_row(capacity),
             "demand-matrix", *_matrix_lines(demand_matrix),
             "sensitivity", *_matrix_lines(sensitivity),
             "demand", _fmt_row(demand), "demand-halfwidth", _fmt_row(halfwidth)]
    if fixed_producers:
        lines.append("nonadjustable-producers "
                     + " ".join(str(i) for i in range(1, fixed_producers + 1)))
    return "\n".join(lines) + "\n"


def stream(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAG[workload], index])


def _complement(j: np.ndarray, n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[j] = False
    return np.flatnonzero(mask)


def _pick_support(rng, m, candidates, max_size: int) -> np.ndarray:
    """A random support inside `candidates` whose block is well
    conditioned (the condition number bounds how far the planted margin
    can be eroded by rounding)."""
    for _ in range(50):
        size = int(rng.integers(1, min(max_size, len(candidates)) + 1))
        j = np.sort(rng.choice(candidates, size=size, replace=False))
        if np.linalg.cond(m[np.ix_(j, j)]) < 50.0:
            return j
    raise RuntimeError("no well-conditioned support found")


def _planted_q(rng, m, ubar, h: int):
    """qbar and the planted rule (d, r) for the enumeration conditions."""
    n = len(ubar)
    j = _pick_support(rng, m, np.arange(h, n), max_size=4)
    inv = np.linalg.inv(m[np.ix_(j, j)])
    r_j = (np.abs(inv) @ ubar[j] + rng.uniform(0.5, 2.0, j.size)).round(4)
    qbar = np.empty(n)
    qbar[j] = -m[np.ix_(j, j)] @ r_j
    rest = _complement(j, n)
    g = m[np.ix_(rest, j)] @ inv
    qbar[rest] = (-(m[np.ix_(rest, j)] @ r_j) + ubar[rest]
                  + np.abs(g) @ ubar[j] + rng.uniform(0.5, 2.0, rest.size))
    d = np.zeros((n, n))
    d[np.ix_(j, j)] = -inv
    r = np.zeros(n)
    r[j] = r_j
    return qbar, (d, r)


def uncertain_q(rng, n: int, h: int, regime: str, plant: bool,
                name: str) -> Instance:
    """Every coordinate uncertain. regime general gives a matrix that is
    not PSD (auto routes it to enumeration), psd a positive definite one
    (auto routes it to psd-lp)."""
    if regime == "general":
        while True:
            m = rng.uniform(-3.0, 3.0, (n, n)).round(4)
            if np.linalg.eigvalsh(0.5 * (m + m.T))[0] < -0.1:
                break
    else:
        g = rng.uniform(-1.5, 1.5, (n, n))
        m = (g.T @ g + 0.25 * np.eye(n)).round(4)
    ubar = rng.uniform(0.1, 1.0, n).round(4)
    planted = None
    if plant:
        qbar, planted = _planted_q(rng, m, ubar, h)
    else:
        qbar = rng.uniform(-5.0, 3.0, n).round(4)
    return Instance(name, q_text(m, qbar, ubar, h), n, planted)


def uncertain_m(rng, n: int, k: int, plant: bool, name: str) -> Instance:
    """Matrix uncertainty shaped like the worked example: M0 upper
    triangular with a dominant diagonal, perturbations only in the block
    (rows < n//2, columns >= n//2)."""
    split = n // 2
    m0 = (np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
          + np.diag(rng.uniform(2.0, 4.0, n))).round(4)
    perts = []
    for _ in range(k):
        p = np.zeros((n, n))
        p[:split, split:] = rng.uniform(-0.3, 0.3, (split, n - split))
        perts.append(p.round(4))
    if not plant:
        q = rng.uniform(-5.0, 1.0, n).round(4)
        return Instance(name, m_text(m0, perts, q, 0), n)
    for _ in range(50):  # redraw until the support rows stay positive
        j = np.sort(rng.choice(n, size=int(rng.integers(2, n - 1)),
                               replace=False))
        r_j = rng.uniform(2.0, 4.0, j.size).round(4)
        inv = np.linalg.inv(m0[np.ix_(j, j)])
        d_j = np.column_stack([-inv @ (p[np.ix_(j, j)] @ r_j) for p in perts])
        swing = np.abs(d_j).sum(axis=1)
        if np.all(r_j - swing >= 0.5):
            break
    else:
        raise RuntimeError("no support with robustly positive rows found")
    rest = _complement(j, n)
    spread = np.abs(m0[np.ix_(rest, j)]) + sum(np.abs(p[np.ix_(rest, j)])
                                              for p in perts)
    q = np.empty(n)
    q[j] = -m0[np.ix_(j, j)] @ r_j
    q[rest] = spread @ (r_j + swing) + rng.uniform(0.5, 2.0, rest.size)
    d = np.zeros((n, k))
    d[j] = d_j
    r = np.zeros(n)
    r[j] = r_j
    return Instance(name, m_text(m0, perts, q, 0), n, (d, r))


def market(rng, producers: int, markets: int, regime: str, name: str,
           fixed_producers: int = 0) -> Instance:
    """A production/market model with one technology row. regime psd
    draws a negative definite price response (PSD LCP, psd-lp pathway);
    general draws one whose symmetric part has a positive eigenvalue
    (mip pathway: producers and duals are certain, so enumeration never
    applies). The first fixed_producers producers are here-and-now."""
    costs = rng.uniform(0.5, 3.0, producers).round(4)
    technology = rng.uniform(0.0, 2.0, (1, producers)).round(4)
    capacity = rng.uniform(-8.0, -2.0, 1).round(4)
    demand_matrix = rng.uniform(0.0, 2.0, (markets, producers)).round(4)
    if regime == "psd":
        g = rng.uniform(-1.0, 1.0, (markets, markets))
        sensitivity = (-(g.T @ g) - 0.05 * np.eye(markets)).round(4)
    else:
        while True:
            sensitivity = rng.uniform(-2.0, 2.0, (markets, markets)).round(4)
            sym = 0.5 * (sensitivity + sensitivity.T)
            if np.linalg.eigvalsh(sym)[-1] > 0.05:
                break
    demand = rng.uniform(2.0, 6.0, markets).round(4)
    halfwidth = rng.uniform(0.05, 0.5, markets).round(4)
    text = market_text(costs, technology, capacity, demand_matrix,
                       sensitivity, demand, halfwidth, fixed_producers)
    return Instance(name, text, producers + 1 + markets)
