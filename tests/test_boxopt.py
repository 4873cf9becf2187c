import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aarlcp.boxopt import (EXACT_FACE_LIMIT, box_vertices, min_affine_over_box,
                           min_quadratic_over_box)


def test_affine_min_closed_form():
    val, arg = min_affine_over_box([2.0, -3.0], 1.0, [1.0, 0.5])
    # 1 - 2*1 - 3*0.5
    assert val == pytest.approx(-2.5)
    assert arg == pytest.approx([-1.0, 0.5])


def test_affine_min_zero_coefficient_sits_at_vertex():
    val, arg = min_affine_over_box([0.0], 2.0, [1.0])
    assert val == pytest.approx(2.0)
    assert abs(arg[0]) == pytest.approx(1.0)


def test_affine_min_dominates_sampling_and_attains():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        a = rng.uniform(-3.0, 3.0, k)
        c = float(rng.uniform(-2.0, 2.0))
        u = rng.uniform(0.0, 2.0, k)
        val, arg = min_affine_over_box(a, c, u)
        pts = rng.uniform(-1.0, 1.0, (10_000, k)) * u
        sampled = float(np.min(c + pts @ a))
        assert sampled >= val - 1e-8
        # the returned vertex attains the analytic value exactly
        assert c + a @ arg == val
    # a stack of rows gives each row's own value and vertex
    a = rng.uniform(-3.0, 3.0, (7, 4))
    a[2, 1] = 0.0
    c = rng.uniform(-2.0, 2.0, 7)
    u = rng.uniform(0.0, 2.0, 4)
    vals, args = min_affine_over_box(a, c, u)
    assert vals.shape == (7,) and args.shape == (7, 4)
    for t in range(7):
        val, arg = min_affine_over_box(a[t], c[t], u)
        assert vals[t] == val
        assert np.array_equal(args[t], arg)


def test_box_vertices_counts():
    assert box_vertices(0).shape == (1, 0)
    assert box_vertices(3).shape == (8, 3)
    assert set(np.unique(box_vertices(3))) == {-1.0, 1.0}


def test_scalar_quadratic_against_grid():
    # k=1: min over [-1,1] of a z^2 + b z + c, all stationary cases
    rng = np.random.default_rng(3)
    grid = np.linspace(-1.0, 1.0, 1001)[:, None]
    for _ in range(40):
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        val, arg, exact = min_quadratic_over_box([[a]], [b], c)
        assert exact
        ref = float(np.min(a * grid[:, 0] ** 2 + b * grid[:, 0] + c))
        assert val <= ref + 1e-12
        assert val == pytest.approx(ref, abs=1e-5)
        assert a * arg[0] ** 2 + b * arg[0] + c == pytest.approx(val, abs=1e-12)


def test_face_enumeration_matches_dense_grid_k2_k3():
    rng = np.random.default_rng(4)
    for k in (2, 3):
        axes = [np.linspace(-1.0, 1.0, 22 if k == 3 else 101)] * k
        mesh = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, k)
        for _ in range(10):
            q = rng.uniform(-2.0, 2.0, (k, k))
            b = rng.uniform(-2.0, 2.0, k)
            c = float(rng.uniform(-1.0, 1.0))
            val, arg, exact = min_quadratic_over_box(q, b, c)
            assert exact
            qs = 0.5 * (q + q.T)
            ref = float(np.min(c + mesh @ b + np.einsum("ij,jk,ik->i", mesh, qs, mesh)))
            assert val <= ref + 1e-9  # grid can only overestimate the min
            assert val == pytest.approx(ref, abs=2e-2)
            got = c + b @ arg + arg @ qs @ arg
            assert got == pytest.approx(val, abs=1e-9)


def test_indefinite_quadratic_min_is_on_boundary():
    # z1*z2 on the square: minimum -1 at two opposite corners
    val, arg, exact = min_quadratic_over_box([[0.0, 0.5], [0.5, 0.0]],
                                             [0.0, 0.0], 0.0)
    assert exact
    assert val == pytest.approx(-1.0)
    assert abs(arg[0] * arg[1] + 1.0) <= 1e-12


def test_interior_minimum_found():
    # strictly convex with stationary point inside the box
    val, arg, exact = min_quadratic_over_box(np.eye(2), [-0.5, 0.2], 1.0)
    assert exact
    assert arg == pytest.approx([0.25, -0.1])
    assert val == pytest.approx(1.0 - 0.25 ** 2 - 0.1 ** 2)


def test_overflowing_row_reads_nan():
    # 1 - 1e308 z + 1e308 z^2 has its minimum 1 - 2.5e307 at z = 0.5, but
    # the stationary system 2e308 z = 1e308 overflows; the vertex z = 1
    # alone would read 1.0
    q = np.array([[[1e308]], [[1.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        vals, _, exact = min_quadratic_over_box(q, [[-1e308], [0.0]], [1.0, 0.0])
    assert exact
    assert np.isnan(vals[0]) and vals[1] == 0.0


def test_large_dimension_falls_back_to_sampling():
    k = 12
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.0, 1.0, (k, k))
    b = rng.uniform(-1.0, 1.0, k)
    val, arg, exact = min_quadratic_over_box(q, b, 0.0)
    assert not exact
    assert arg.shape == (k,)
    qs = 0.5 * (q + q.T)
    assert b @ arg + arg @ qs @ arg == pytest.approx(val, abs=1e-9)


def test_zero_dimension():
    val, arg, exact = min_quadratic_over_box(np.zeros((0, 0)), [], 3.5)
    assert (val, exact) == (3.5, True)
    assert arg.size == 0


def _run_fresh(code):
    # stdout lines of code run in a fresh interpreter: this process has
    # scipy.linalg loaded (the pytest configuration's LinAlgWarning filter)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only the sampling fallback uses it
    code = "import sys, aarlcp; print('scipy.stats' in sys.modules)"
    assert _run_fresh(code)[0] == "False"


ENUMERATION_SOLVES = """\
import sys, aarlcp
print('scipy.linalg' in sys.modules)
for text, pathway in ((aarlcp.generate_random("uncertain-q", 6, seed=0), "enumeration"),
                      (aarlcp.generate_random("uncertain-m", 6, k=3, seed=0), "auto")):
    aarlcp.dispatch_solve(aarlcp.parse_instance(text), aarlcp.SolveOptions(pathway=pathway))
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""


def test_enumeration_solves_leave_scipy_unloaded():
    # the support sweeps of both enumeration pathways (k <=
    # EXACT_FACE_LIMIT) and their checks run on numpy alone
    assert _run_fresh(ENUMERATION_SOLVES)[:2] == ["False", "[]"]


SIMPLEX_SOLVES = """\
import sys, aarlcp
from aarlcp import linalg
sizes = []
invert = linalg.invert
linalg.invert = lambda a: sizes.append(len(a)) or invert(a)
for kind, n, seed, regime, pathway in {cases}:
    sizes.clear()
    text = aarlcp.generate_random(kind, n, k=3, seed=seed, regime=regime)
    aarlcp.dispatch_solve(aarlcp.parse_instance(text), aarlcp.SolveOptions(pathway=pathway))
    print(len(sizes) > 0, 'scipy.linalg' in sys.modules)
"""


def test_psd_lp_solve_leaves_scipy_unloaded():
    # a positive definite instance needs no LP; the market's LP
    # refactorizes its basis, on numpy alone
    cases = [("uncertain-q", 6, 0, "psd", "psd-lp"), ("market", 6, 0, "psd", "psd-lp")]
    out = _run_fresh(SIMPLEX_SOLVES.format(cases=cases))
    assert out[:2] == ["False False", "True False"]


def test_mip_solve_leaves_scipy_unloaded():
    # some node LP of the big-M search runs past the refactorization
    # interval
    cases = [("uncertain-q", 3, 1, "general", "mip")]
    assert _run_fresh(SIMPLEX_SOLVES.format(cases=cases))[0] == "True False"


def _min_quadratic_oracle(q, b, c):
    """The single-row face enumeration the stacked one replaced: one
    lstsq per face, in the product order of (-1, 1, free)."""
    qs = 0.5 * (q + q.T)
    k = b.size
    best_val, best_arg = np.inf, np.zeros(k)
    scale = 1.0 + abs(c) + np.max(np.abs(b), initial=0.0) + np.max(np.abs(qs), initial=0.0)
    for pattern in itertools.product((-1.0, 1.0, None), repeat=k):
        free = np.array([p is None for p in pattern], dtype=bool)
        z = np.array([0.0 if p is None else p for p in pattern])
        if free.any():
            qff = 2.0 * qs[np.ix_(free, free)]
            bpr = b[free] + 2.0 * qs[np.ix_(free, ~free)] @ z[~free]
            zf = np.linalg.lstsq(qff, -bpr, rcond=None)[0]
            if np.max(np.abs(qff @ zf + bpr)) > 1e-9 * scale or np.any(np.abs(zf) >= 1.0):
                continue
            z[free] = zf
        val = c + b @ z + z @ qs @ z
        if val < best_val:
            best_val, best_arg = val, z
    return (c if k == 0 else best_val), best_arg


def _quadratic_rows(rng, k, rows=16):
    """Indefinite, singular (rank one) and zero q, some b and c zero."""
    q = rng.uniform(-2.0, 2.0, (rows, k, k))
    v = rng.uniform(-1.0, 1.0, (rows, k))
    q[1::4] = v[1::4, :, None] * v[1::4, None, :]
    q[2::4] = 0.0
    q[3::4] = np.round(q[3::4])
    b = rng.uniform(-2.0, 2.0, (rows, k))
    b[::3] = 0.0
    c = rng.uniform(-1.0, 1.0, rows)
    c[::5] = 0.0
    return q, b, c


@pytest.mark.parametrize("k", range(5))
def test_stacked_rows_equal_per_row_calls(k):
    q, b, c = _quadratic_rows(np.random.default_rng(60 + k), k)
    vals, args, exact = min_quadratic_over_box(q, b, c)
    assert type(exact) is bool and exact  # perfbench reads a plain bool
    assert vals.shape == (16,) and args.shape == (16, k)
    for t in range(16):
        val, arg, one_exact = min_quadratic_over_box(q[t], b[t], c[t])
        assert type(val) is float and type(one_exact) is bool and one_exact
        assert val == pytest.approx(vals[t], rel=1e-12, abs=1e-12)
        assert arg == pytest.approx(args[t], abs=1e-12)
        ref, _ = _min_quadratic_oracle(q[t], b[t], c[t])
        assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)
        qs = 0.5 * (q[t] + q[t].T)
        assert c[t] + b[t] @ arg + arg @ qs @ arg == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_equal_minima_keep_the_first_face():
    # b = 0 and q = 0: every face ties; the first vertex (-1, ..., -1) wins
    vals, args, _ = min_quadratic_over_box(np.zeros((2, 3, 3)), np.zeros((2, 3)),
                                           [1.0, -1.0])
    assert vals.tolist() == [1.0, -1.0]
    assert args.tolist() == [[-1.0] * 3] * 2


def test_stacked_rows_beyond_the_face_limit_are_sampled():
    k = EXACT_FACE_LIMIT + 1
    q, b, c = _quadratic_rows(np.random.default_rng(65), k, rows=2)
    vals, args, exact = min_quadratic_over_box(q, b, c)
    assert exact is False
    for t in range(2):
        val, arg, one_exact = min_quadratic_over_box(q[t], b[t], c[t])
        assert one_exact is False
        assert (val, arg.tolist()) == (vals[t], args[t].tolist())
