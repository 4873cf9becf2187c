import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aarlcp import boxopt, generate_random, serialize_instance
from aarlcp.boxopt import min_affine_over_box, min_quadratic_over_box
from conftest import worked_m_with_row


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


def _value(q, b, c, z):
    """c + b . z + z^T q z, written out."""
    return c + b @ z + z @ (0.5 * (q + q.T)) @ z


def _assert_witness(q, b, c, floor, val, arg):
    """A counterexample: a point of the box whose value, recomputed, is
    the returned value and lies below the floor."""
    assert np.all(np.abs(arg) <= 1.0)
    assert val < floor
    assert _value(np.asarray(q, dtype=float), np.asarray(b, dtype=float), c,
                  arg) == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_scalar_quadratic_against_grid():
    # k=1: a z^2 + b z + c over [-1,1], all stationary cases, decided on
    # both sides of the grid minimum
    rng = np.random.default_rng(3)
    grid = np.linspace(-1.0, 1.0, 1001)
    for _ in range(40):
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        ref = float(np.min(a * grid ** 2 + b * grid + c))
        val, arg, certified = min_quadratic_over_box([[a]], [b], c, ref - 1e-5)
        assert certified and val >= ref - 1e-5
        val, arg, certified = min_quadratic_over_box([[a]], [b], c, ref + 1e-12)
        assert certified
        _assert_witness([[a]], [b], c, ref + 1e-12, val, arg)


def test_face_enumeration_matches_dense_grid_k2_k3():
    # the grid can only overestimate the minimum: a floor just above the
    # grid's minimum has a counterexample, one well below it has none
    rng = np.random.default_rng(4)
    for k in (2, 3):
        axes = [np.linspace(-1.0, 1.0, 22 if k == 3 else 101)] * k
        mesh = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, k)
        for _ in range(10):
            q = rng.uniform(-2.0, 2.0, (k, k))
            b = rng.uniform(-2.0, 2.0, k)
            c = float(rng.uniform(-1.0, 1.0))
            qs = 0.5 * (q + q.T)
            ref = float(np.min(c + mesh @ b + np.einsum("ij,jk,ik->i", mesh, qs, mesh)))
            val, arg, certified = min_quadratic_over_box(q, b, c, ref + 1e-9)
            assert certified
            _assert_witness(q, b, c, ref + 1e-9, val, arg)
            val, _, certified = min_quadratic_over_box(q, b, c, ref - 2e-2)
            assert certified and val >= ref - 2e-2


def test_indefinite_quadratic_min_is_on_boundary():
    # z1*z2 on the square: minimum -1 at two opposite corners
    q = [[0.0, 0.5], [0.5, 0.0]]
    val, arg, certified = min_quadratic_over_box(q, [0.0, 0.0], 0.0, -1.0 + 1e-6)
    assert certified
    _assert_witness(q, [0.0, 0.0], 0.0, -1.0 + 1e-6, val, arg)
    assert abs(arg[0]) == pytest.approx(1.0, abs=1e-5)
    val, _, certified = min_quadratic_over_box(q, [0.0, 0.0], 0.0, -1.0)
    assert certified and val >= -1.0


def test_interior_minimum_found():
    # strictly convex with stationary point inside the box: the clipped
    # Newton step from the centre lands on it
    val, arg, certified = min_quadratic_over_box(np.eye(2), [-0.5, 0.2], 1.0, 1.0)
    assert certified
    assert arg == pytest.approx([0.25, -0.1])
    assert val == pytest.approx(1.0 - 0.25 ** 2 - 0.1 ** 2)
    floor = 1.0 - 0.25 ** 2 - 0.1 ** 2 - 1e-12
    val, _, certified = min_quadratic_over_box(np.eye(2), [-0.5, 0.2], 1.0, floor)
    assert certified and val >= floor


def test_overflowing_row_reads_nan():
    # 1 + 1e308 z - 1e308 z^2 has its minimum 1 - 2e308 at z = -1, past
    # the float max; 1 - 1e308 z + 1e308 z^2 has its minimum 1 - 2.5e307
    # at z = 0.5, within range, and reads it; the third row is untouched
    q = np.array([[[-1e308]], [[1e308]], [[1.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        vals, args, certified = min_quadratic_over_box(
            q, [[1e308], [-1e308], [0.0]], [1.0, 1.0, 0.0], 0.0)
    assert certified
    assert np.isnan(vals[0])
    assert (vals[1], args[1, 0]) == (1.0 - 2.5e307, 0.5)
    assert vals[2] == 0.0


def test_zero_dimension():
    for floor, below in ((3.0, False), (4.0, True)):
        val, arg, certified = min_quadratic_over_box(np.zeros((0, 0)), [], 3.5, floor)
        assert (val, certified, val < floor) == (3.5, True, below)
        assert arg.size == 0


def test_row_far_from_the_centre_is_refused_at_k11():
    # |z - 0.3 1|^2 - 1e-3 dips to -1e-3 at z = 0.3 1; vertices and
    # samples never come near it
    k = 11
    q, b, c = np.eye(k), np.full(k, -0.6), 0.09 * k - 1e-3
    val, arg, certified = min_quadratic_over_box(q, b, c, 0.0)
    assert certified
    _assert_witness(q, b, c, 0.0, val, arg)
    assert val == pytest.approx(-1e-3, rel=1e-9)


# rows whose minimum 0 is attained on a set of positive dimension, which
# a bound that loses |h|^2 on every sub-box never closes at a floor just
# under 0: a rank-one row zero on a plane through the box, and
# (1 + z1)(2 + z2), zero on the face z1 = -1 (z3 unused)
_V = np.array([0.3, -0.7, 0.5])
_FLAT_ROWS = {
    "rank-one": (np.outer(_V, _V), -0.4 * _V, 0.04),
    "bilinear": (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                 np.array([2.0, 1.0, 0.0]), 2.0),
}


@pytest.mark.parametrize("name", sorted(_FLAT_ROWS))
def test_rows_flat_at_their_minimum_certify_at_the_sweep_floor(name):
    q, b, c = _FLAT_ROWS[name]
    for floor in (-1e-2, -1e-6, -1e-8, -1e-12):
        val, arg, certified = min_quadratic_over_box(q, b, c, floor)
        assert certified and val >= floor
        assert np.all(np.abs(arg) <= 1.0)
        assert _value(q, b, c, arg) == pytest.approx(val, abs=1e-15)


def test_budget_ran_out_is_uncertified(monkeypatch):
    # the bilinear row needs dozens of sub-boxes at a floor just under its
    # minimum 0, while the first two rows are decided at the whole box
    qb, bb, cb = _FLAT_ROWS["bilinear"]
    q = np.stack([np.eye(3), np.eye(3), qb])
    b = np.stack([np.zeros(3), np.zeros(3), bb])
    c, floor = np.array([1.0, -1.0, cb]), -1e-8
    _, _, certified = min_quadratic_over_box(q, b, c, floor)
    assert certified
    monkeypatch.setattr(boxopt, "BOX_BUDGET", 10)
    vals, args, certified = min_quadratic_over_box(q, b, c, floor)
    assert certified is False
    assert vals[0] == 1.0 and vals[1] == -1.0  # decided rows keep their verdict
    assert vals[2] >= floor
    assert _value(q[2], b[2], c[2], args[2]) == pytest.approx(vals[2], abs=1e-15)


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
    code = "import sys, aarlcp; print('scipy.stats' in sys.modules)"
    assert _run_fresh(code)[0] == "False"


ENUMERATION_SOLVES = """\
import sys, aarlcp
print('scipy.linalg' in sys.modules)
for text, pathway in {cases}:
    aarlcp.dispatch_solve(aarlcp.parse_instance(text), pathway)
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""


def test_enumeration_solves_leave_scipy_unloaded():
    # the support sweeps of both enumeration pathways and their checks,
    # the box check at k = 11 included, run on numpy alone
    k11 = worked_m_with_row([(-1.0) ** i / 11 for i in range(11)], [0.3] * 11, 0.0, 4.0)
    cases = [(generate_random("uncertain-q", 6, seed=0), "enumeration"),
             (generate_random("uncertain-m", 6, k=3, seed=0), "auto"),
             (serialize_instance(k11), "auto")]
    assert _run_fresh(ENUMERATION_SOLVES.format(cases=cases))[:2] == ["False", "[]"]


SIMPLEX_SOLVES = """\
import sys, aarlcp
from aarlcp import linalg
sizes = []
invert = linalg.invert
linalg.invert = lambda a: sizes.append(len(a)) or invert(a)
for kind, n, seed, regime, pathway in {cases}:
    sizes.clear()
    text = aarlcp.generate_random(kind, n, k=3, seed=seed, regime=regime)
    aarlcp.dispatch_solve(aarlcp.parse_instance(text), pathway)
    print(len(sizes) > 0, 'scipy.linalg' in sys.modules)
"""


def test_psd_lp_solve_leaves_scipy_unloaded():
    # a positive definite instance needs no LP; the market's LP
    # refactorizes its basis, on numpy alone
    cases = [("uncertain-q", 6, 0, "psd", "psd-lp"), ("market", 6, 0, "psd", "psd-lp")]
    out = _run_fresh(SIMPLEX_SOLVES.format(cases=cases))
    assert out[:2] == ["False False", "True False"]


def test_mip_solve_leaves_scipy_unloaded():
    # the nominal rule fails, and some node LP of the big-M search runs
    # past the refactorization interval
    cases = [("uncertain-q", 3, 4, "general", "mip")]
    assert _run_fresh(SIMPLEX_SOLVES.format(cases=cases))[0] == "True False"


def _min_quadratic_oracle(q, b, c):
    """The exact minimum by enumerating the 3^k faces of the box: one
    lstsq per face for the stationary point of its open interior."""
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


@pytest.mark.parametrize("k", range(9))
def test_stacked_rows_equal_per_row_calls(k):
    # floors on both sides of the oracle's minimum, and just under it
    rows = 16 if k <= 6 else 4  # the oracle's 3^k faces get slow
    q, b, c = _quadratic_rows(np.random.default_rng(60 + k), k, rows)
    refs = np.array([_min_quadratic_oracle(q[t], b[t], c[t])[0] for t in range(rows)])
    scale = (1.0 + np.abs(c) + np.max(np.abs(b), axis=1, initial=0.0)
             + np.max(np.abs(q), axis=(1, 2), initial=0.0))
    for floor in (refs + 1e-3 * scale, refs - 1e-3 * scale, refs - 1e-8 * scale):
        vals, args, certified = min_quadratic_over_box(q, b, c, floor)
        assert type(certified) is bool and certified  # perfbench reads a plain bool
        assert vals.shape == (rows,) and args.shape == (rows, k)
        assert np.array_equal(vals < floor, refs < floor)
        for t in range(rows):
            val, arg, one = min_quadratic_over_box(q[t], b[t], c[t], floor[t])
            assert type(val) is float and type(one) is bool and one
            assert (val, arg.tolist()) == (vals[t], args[t].tolist())
            if val < floor[t]:
                _assert_witness(q[t], b[t], c[t], floor[t], val, arg)
            else:
                assert _value(q[t], b[t], c[t], arg) == pytest.approx(val, rel=1e-12, abs=1e-12)
