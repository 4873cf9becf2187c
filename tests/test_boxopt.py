import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aarlcp.boxopt import (box_vertices, min_affine_over_box,
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only the sampling fallback uses it
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, aarlcp; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
