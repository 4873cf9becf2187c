"""Market equilibrium models and their complementarity form.

Producers choose activity levels x >= 0 with linear costs, technology
rows bound them through dual prices lam, and demand rows clear against
prices p with a linear price response. Stationarity plus clearing packs
into one LCP over z = (x, lam, p):

    M = [[0, -A^T, -G^T],
         [A,  0,    0  ],
         [G,  0,   -Dd ]],      q = (c, -b, -d)

with A the technology rows, G the demand rows and Dd the price
response. The price response contributes the only symmetric part, so M
is positive semidefinite exactly when Dd is negative semidefinite.

Only the demand offset d is uncertain (a box around -d in the price
block of q); producers marked nonadjustable, and optionally the whole
dual or price block, become here-and-now coordinates by permuting them
to the front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .robust_q import UncertainLcpQ

__all__ = ["MarketModel", "MarketBlockMap", "build_lcp"]


@dataclass
class MarketModel:
    """Production-side data plus price-responsive demand.

    costs: per-producer linear cost (length n)
    technology: constraint rows A (m x n), dualized by lam
    capacity: right-hand sides b (length m)
    demand_matrix: demand rows G (k x n) linking production to markets
    sensitivity: price response Dd (k x k)
    demand: price-insensitive offsets d (length k)
    demand_halfwidth: box half-widths on d (length k, >= 0)
    nonadjustable_producers: x coordinates fixed before the uncertainty
        reveals itself
    adjustable_duals / adjustable_prices: whether lam and p may react;
        both default to reacting
    """

    costs: np.ndarray
    technology: np.ndarray
    capacity: np.ndarray
    demand_matrix: np.ndarray
    sensitivity: np.ndarray
    demand: np.ndarray
    demand_halfwidth: np.ndarray
    nonadjustable_producers: tuple = ()
    adjustable_duals: bool = True
    adjustable_prices: bool = True

    def __post_init__(self):
        self.costs = linalg.as_vector(self.costs)
        n = self.costs.size
        self.technology = linalg.as_matrix(self.technology)
        m = self.technology.shape[0]
        if self.technology.shape[1] != n:
            raise ValueError("technology columns must match the producer count")
        self.capacity = linalg.as_vector(self.capacity, m)
        self.demand_matrix = linalg.as_matrix(self.demand_matrix)
        k = self.demand_matrix.shape[0]
        if self.demand_matrix.shape[1] != n:
            raise ValueError("demand_matrix columns must match the producer count")
        self.sensitivity = linalg.as_matrix(self.sensitivity, square=True)
        if self.sensitivity.shape[0] != k:
            raise ValueError("sensitivity must be square of the demand size")
        self.demand = linalg.as_vector(self.demand, k)
        self.demand_halfwidth = linalg.as_vector(self.demand_halfwidth, k)
        if np.any(self.demand_halfwidth < 0):
            raise ValueError("demand_halfwidth must be nonnegative")
        self.nonadjustable_producers = tuple(
            int(i) for i in self.nonadjustable_producers)
        seen = set()
        for i in self.nonadjustable_producers:
            if not 0 <= i < n or i in seen:
                raise ValueError("nonadjustable_producers must be distinct "
                                 f"indices in [0, {n})")
            seen.add(i)

    @property
    def n_producers(self) -> int:
        return self.costs.size

    @property
    def n_duals(self) -> int:
        return self.capacity.size

    @property
    def n_prices(self) -> int:
        return self.demand.size


@dataclass
class MarketBlockMap:
    """Where each market quantity landed in the permuted LCP vector.

    perm[i] is the canonical coordinate sitting at LCP position i,
    canonical order being (x, lam, p). The positions arrays, derived
    from perm, give the LCP indices of each block in canonical member
    order.
    """

    n_producers: int
    n_duals: int
    n_prices: int
    perm: np.ndarray
    h: int
    producer_positions: np.ndarray = field(init=False)
    dual_positions: np.ndarray = field(init=False)
    price_positions: np.ndarray = field(init=False)

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=int)
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        n, m = self.n_producers, self.n_duals
        self.producer_positions = inv[:n]
        self.dual_positions = inv[n:n + m]
        self.price_positions = inv[n + m:]

    def to_canonical(self, vec) -> np.ndarray:
        """Reorder an LCP-space vector into (x, lam, p) order."""
        vec = linalg.as_vector(vec, self.perm.size)
        out = np.empty_like(vec)
        out[self.perm] = vec
        return out

    def from_canonical(self, vec) -> np.ndarray:
        """Reorder an (x, lam, p) vector into LCP-space order."""
        vec = linalg.as_vector(vec, self.perm.size)
        return vec[self.perm]


def build_lcp(mm: MarketModel):
    """Assemble the equilibrium LCP and expose the demand box.

    Returns (UncertainLcpQ, MarketBlockMap). Uncertainty sits only in
    the price block of q.
    """
    n, m, k = mm.n_producers, mm.n_duals, mm.n_prices
    size = n + m + k
    big_m = np.zeros((size, size))
    big_m[:n, n:n + m] = -mm.technology.T
    big_m[:n, n + m:] = -mm.demand_matrix.T
    big_m[n:n + m, :n] = mm.technology
    big_m[n + m:, :n] = mm.demand_matrix
    big_m[n + m:, n + m:] = -mm.sensitivity
    qbar = np.concatenate([mm.costs, -mm.capacity, -mm.demand])
    ubar = np.concatenate([np.zeros(n), np.zeros(m), mm.demand_halfwidth])

    fixed = list(mm.nonadjustable_producers)
    if not mm.adjustable_duals:
        fixed.extend(range(n, n + m))
    if not mm.adjustable_prices:
        fixed.extend(range(n + m, size))
    fixed_set = set(fixed)
    perm = np.array(fixed + [i for i in range(size) if i not in fixed_set],
                    dtype=int)

    inst = UncertainLcpQ(m=big_m[np.ix_(perm, perm)], qbar=qbar[perm],
                         ubar=ubar[perm], h=len(fixed))
    return inst, MarketBlockMap(n, m, k, perm, len(fixed))
