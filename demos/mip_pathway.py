"""Big-M search for instances the closed forms do not reach.

With a certain coordinate (zero half-width) the enumeration formulas no
longer apply, so the support choice becomes a binary program. One
branch-and-bound search runs at a big-M derived from the data's scale;
a rule it finds is re-verified analytically, and a search that finds
none is reported as nonexistence relative to that bound.
"""

import numpy as np

from aarlcp import UncertainLcpQ, default_big_m, solve_mip_q

inst = UncertainLcpQ(m=np.array([[2.0, -1.0, 0.5],
                                 [0.0, 3.0, -1.0],
                                 [1.0, 0.0, 2.5]]),
                     qbar=np.array([4.0, -6.0, -2.0]),
                     ubar=np.array([0.5, 0.0, 0.4]),  # coordinate 2 is certain
                     h=1)

print("default big-M for this data:", default_big_m(inst))

out = solve_mip_q(inst)
print("status:     ", out.status)
print("certificate:", out.certificate)
print("big-M used: ", out.big_m_final)
print("nodes:      ", out.nodes)

if out.status == "solution":
    print("r =", out.solution.r.round(6))
    print("D =", out.solution.d.round(6).tolist())
    # here-and-now row and the certain column must be frozen
    print("row 1 of D is zero:", not out.solution.d[0].any())
    print("column 2 of D is zero:", not out.solution.d[:, 1].any())

# an instance where the bounded search finds nothing: the answer is
# then only "no solution within the searched box", flagged as such
hard = UncertainLcpQ(m=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                     qbar=np.array([-1.0, -1.0]),
                     ubar=np.array([1.0, 0.0]), h=0)
out = solve_mip_q(hard)
print("\nhard instance:", out.status, "/", out.certificate)
