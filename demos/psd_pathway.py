"""Positive semidefinite route: nominal solve, supports, one feasibility LP."""

import numpy as np

from aarlcp import (NominalLcp, UncertainLcpQ, compute_support_P,
                    describe_solution_set, is_psd, sample_violation_q,
                    solve_lemke, solve_psd)

rng = np.random.default_rng(3)
g = rng.uniform(-1.5, 1.5, (4, 3))
inst = UncertainLcpQ(m=g @ g.T + 0.05 * np.eye(4),
                     qbar=rng.uniform(-5.0, 0.0, 4).round(2),
                     ubar=np.full(4, 0.3), h=0)
assert is_psd(inst.m)

out = solve_psd(inst)
print("status:", out.status)
print("P (positive in some nominal solution):",
      [int(i) for i in out.support_p + 1])
print("L (never positive):", [int(i) for i in out.support_l + 1])

if out.status == "solution":
    print("r =", out.solution.r.round(6))
    print("D =", out.solution.d.round(6))
    worst = sample_violation_q(inst, out.solution, count=2000)
    print(f"worst violation over 2000 sampled boxes: {worst:.2e}")

# shrinking q makes the nominal solution hug zero; for this definite
# instance no affine rule covers the whole box and the LP certifies it
tight = UncertainLcpQ(m=np.array([[1.0, 0.5], [0.5, 1.0]]),
                      qbar=np.array([-5.0, -3.0]),
                      ubar=np.array([1.0, 1.0]), h=0)
print("\ntight instance:", solve_psd(tight).status)
# the supports by hand: one nominal solution, the polyhedron of all
# nominal solutions around it, and one max-LP per coordinate over it
prob = NominalLcp(tight.m, tight.qbar)
zbar = solve_lemke(prob).solution.z
p_set, zmax = compute_support_P(describe_solution_set(prob, zbar))
print("support P for the tight instance:", [int(i) for i in p_set + 1])
print("largest value of each coordinate over its nominal solutions:",
      zmax.round(6))
