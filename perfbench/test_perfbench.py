"""The benchmark's own checks. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import aarlcp  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_units_and_bounds():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] and 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"} and m["unit"]
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


@pytest.mark.parametrize("workload", ["enumeration", "psd-lp", "mip"])
def test_seed_fixes_the_instances(workload):
    a = workloads.instances(workload, 3)
    b = workloads.instances(workload, 3)
    c = workloads.instances(workload, 4)
    assert [i.text for i in a] == [i.text for i in b]
    assert len(a) == len(c)
    assert [i.text for i in a] != [i.text for i in c]


@pytest.mark.parametrize("workload", ["enumeration", "psd-lp", "mip"])
def test_seed_fixes_the_verdicts(workload):
    insts = workloads.instances(workload, 3, quick=True)
    names = [i.name for i in insts]
    first = run.run_sweep(aarlcp, insts)
    again = run.run_sweep(aarlcp, workloads.instances(workload, 3, quick=True))
    assert run.digest(names, first.verdicts) == run.digest(names, again.verdicts)


def test_every_pool_class_leaves_the_seed_a_choice():
    pools = workloads.load_reference()["pools"]
    for workload, classes in workloads.POOLS.items():
        for cls, c in classes.items():
            assert len(pools[workload][cls]) == workloads.POOL_SIZE
            assert len(workloads.members(workload, cls, pools[workload][cls])) \
                >= c.count + 3


def test_tail_keeps_ten_values_beyond():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["enumeration", "psd-lp", "mip"])
def test_quick_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "reference.json").write_text(
        (Path(__file__).parent / "reference.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mip", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
