"""Solve every pool candidate and record its verdict, its work and its
solve time in reference.json (see workloads.py for how runs draw from
the pools).

Work is the count of simplex and Lemke iterations, taken from one traced
solve; it repeats exactly. Shapes without LP work (uncertain-m) are
stratified by time instead, so such a candidate that a run may draw is
timed three times and keeps the median. Candidates that raise are kept with
their error: no run draws them, and every traced run of their workload
solves them again and reports how many still fail.

Usage, from the repository root:
    python3 perfbench/record_pool.py [WORKLOAD ...]
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import aarlcp  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORK = ("lp.solve_lp.iterations", "lp.check_feasibility.iterations",
        "lcp.solve_lemke.iterations")


def record(inst, verdict) -> dict:
    tracer = spans.Tracer()
    try:
        with tracer.patched(aarlcp):
            report = aarlcp.reporting.dispatch_solve(
                aarlcp.instances.parse_instance(inst.text))
    except Exception as exc:  # kept as a known failure
        return {"error": f"{type(exc).__name__}: {exc}"}
    counts = spans.layer_metrics(tracer.spans, 1)
    rec = {"status": report.status, "work": sum(counts[k][0] for k in WORK)}
    if report.mip_info:
        rec["nodes"] = report.mip_info["nodes"]
    times = []
    drawable = verdict in (None, report.status)
    for _ in range(3 if drawable and rec["work"] == 0 else 1):
        start = perf_counter()
        aarlcp.dispatch_solve(aarlcp.parse_instance(inst.text))
        times.append(perf_counter() - start)
    rec["seconds"] = round(statistics.median(times), 6)
    return rec


def main(argv) -> int:
    ref = workloads.load_reference()
    pools = ref.setdefault("pools", {})
    for workload in argv or list(workloads.POOLS):
        pools[workload] = {}
        for cls, c in workloads.POOLS[workload].items():
            pools[workload][cls] = []
            for index in range(workloads.POOL_SIZE):
                inst = workloads.candidate(workload, cls, index)
                rec = record(inst, c.verdict)
                pools[workload][cls].append(rec)
                print(inst.name, rec, flush=True)
        workloads.save_reference(ref)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
