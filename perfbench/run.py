"""Benchmark of aarlcp: one workload, one seed, one run.

    python3 perfbench/run.py --workload enumeration --seed 0 --seconds 10 --trace 0

Run it from the repository root. The program is imported from ./src,
as PYTHONPATH=src would, and is called only through its public API and
`python -m aarlcp`; nothing is installed.

Load shape: one client in a closed loop. The workload's instances are
built from the seed (see workloads.py), handed to the program as
instance text, and solved one after another with
dispatch_solve(parse_instance(text)) on the default auto pathway.
Sweeps over the whole set repeat until --seconds have passed (at least
one sweep). Fresh-interpreter measurements run before the sweeps, one
at a time, and the correctness gate runs after them, both outside the
timed region.

--trace 0 prints the end-to-end metrics. --trace 1 times the same
sweeps untraced, then makes one more sweep with spans around the public
functions of every module (spans.py) and prints the per-layer metrics;
the difference of the two sweep times is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status: 0 when every check
passes, 1 when the correctness gate fails, 2 when ./src/aarlcp is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

OUT = Path(__file__).resolve().with_name("out")

# fresh-interpreter repetitions per run; the reported value is the median
FRESH_REPS = 4
# instances beyond the tail percentile
TAIL_BEYOND = 10
# sampled box points per returned rule in the correctness gate
SAMPLES = 1000
# tolerances of the correctness gate; the sampled LCP violation is taken
# relative to (1 + max|q|) (1 + max|z|), like the program's own
# complementarity check, since |z . w| grows with the rule's magnitude
SAMPLE_TOL = 1e-9
PLANTED_TOL = 1e-6
CROSS_TOL = 1e-7

SETUP_CODE = """\
import pathlib, sys
import aarlcp
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.txt")):
    aarlcp.parse_instance(path.read_text())
"""


@dataclass
class Sweep:
    seconds: float
    times: list  # dispatch_solve wall time per instance
    verdicts: list  # per instance: verdict dict, or {"error": ...}
    reports: list  # per instance: SolveReport, or the exception raised


def verdict_of(report_json: dict) -> dict:
    return {"pathway": report_json["pathway"],
            "status": report_json["status"],
            "solutions": len(report_json["solutions"]),
            "caveat": report_json["caveat"]}


def digest(names: list, verdicts: list) -> str:
    text = json.dumps(dict(zip(names, verdicts)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sweep(aarlcp, insts: list, tracer=None) -> Sweep:
    times, verdicts, reports = [], [], []
    start = perf_counter()
    for i, inst in enumerate(insts):
        if tracer is not None:
            tracer.instance = i
        obj = aarlcp.instances.parse_instance(inst.text)
        t0 = perf_counter()
        try:
            report = aarlcp.reporting.dispatch_solve(obj)
        except Exception as exc:  # a failing instance is recorded, the sweep goes on
            times.append(perf_counter() - t0)
            verdicts.append({"error": f"{type(exc).__name__}: {exc}"})
            reports.append(exc)
            continue
        times.append(perf_counter() - t0)
        verdicts.append(verdict_of(report.to_json()))
        reports.append(report)
    return Sweep(perf_counter() - start, times, verdicts, reports)


def fresh(cmd: list, root: Path):
    """Run a fresh interpreter with PYTHONPATH=src; (wall seconds, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=150)
    return perf_counter() - start, proc


def measure(aarlcp, root: Path, insts: list, text_dir: Path, cli_files: list,
            seconds: float, reps: int):
    """Untraced sweeps until `seconds` of sweep time have passed (at least
    one), with `reps` fresh-interpreter pairs spread between them, so that
    both kinds of sample see the same stretch of machine time.

    A pair is one set-up sample (`import aarlcp` and parsing every
    instance text of the workload) and one CLI sample (`python -m aarlcp
    solve --json` on the smallest instances in turn). A CLI run that exits
    with an error code yields an error verdict for its instance.
    Returns (sweeps, set-up seconds, CLI seconds, CLI verdicts, problems).
    """
    sweeps, setup, cli, cli_verdicts, problems = [], [], [], {}, []

    def fresh_pair():
        took, proc = fresh([sys.executable, "-c", SETUP_CODE, str(text_dir)],
                           root)
        if proc.returncode != 0:
            problems.append(f"set-up interpreter failed: {proc.stderr[-500:]}")
        setup.append(took)
        index, path = cli_files[len(cli) % len(cli_files)]
        took, proc = fresh([sys.executable, "-m", "aarlcp", "solve", "--json",
                            str(path)], root)
        cli.append(took)
        if proc.returncode in (0, 1, 2):
            cli_verdicts[index] = verdict_of(json.loads(proc.stdout))
        else:
            cli_verdicts[index] = {"error": f"CLI exit {proc.returncode}: "
                                            f"{proc.stderr[-300:]}"}

    swept = 0.0
    while swept < seconds:
        while len(setup) < min(reps, 1 + int(reps * swept / seconds)):
            fresh_pair()
        sweeps.append(run_sweep(aarlcp, insts))
        swept += sweeps[-1].seconds
    while len(setup) < reps:
        fresh_pair()
    return sweeps, setup, cli, cli_verdicts, problems


def import_breakdown(root: Path, reps: int = 3) -> dict:
    """Cumulative import seconds of aarlcp and scipy.stats from
    `python -X importtime`, median over fresh interpreters (0 when a
    module is not imported at all)."""
    found = {"aarlcp": [], "scipy.stats": []}
    for _ in range(reps):
        _, proc = fresh([sys.executable, "-X", "importtime", "-c",
                         "import aarlcp"], root)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in found and parts[1].strip().isdigit():
                    seen[name] = int(parts[1]) / 1e6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def tail(values: list):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    values above it (the maximum when there are fewer values)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= \
        tol * (1.0 + float(np.max(np.abs(b), initial=0.0)))


def check_instance(aarlcp, workload: str, inst, report) -> list:
    """Independent re-checks of one solved instance; returns the reasons
    it fails (empty when it passes)."""
    reasons = []
    obj = aarlcp.parse_instance(inst.text)
    if isinstance(obj, aarlcp.MarketModel):
        obj, _ = aarlcp.build_lcp(obj)  # rules live in the permuted LCP
    rules = [rec.solution for rec in report.solutions]
    if isinstance(obj, aarlcp.UncertainLcpM):
        verify, sample, q = aarlcp.verify_affine_m, aarlcp.sample_violation_m, obj.q
        half_widths = np.ones(obj.k)
    else:
        verify, sample, q = aarlcp.verify_affine_q, aarlcp.sample_violation_q, obj.qbar
        half_widths = obj.ubar
    for k, rule in enumerate(rules):
        if not verify(obj, rule).overall:
            reasons.append(f"rule {k} fails the analytic verification")
        worst = sample(obj, rule, count=SAMPLES, seed=0)
        zmax = float(np.max(rule.r + np.abs(rule.d) @ half_widths))
        if worst > SAMPLE_TOL * (1.0 + float(np.max(np.abs(q)))) * (1.0 + zmax):
            reasons.append(f"rule {k} violates the LCP by {worst:.3e} on samples")
    if inst.planted is not None:
        d, r = inst.planted
        if not any(_close(rule.d, d, PLANTED_TOL) and _close(rule.r, r, PLANTED_TOL)
                   for rule in rules):
            reasons.append("the planted rule is not among the returned rules")
    if (workload == "psd-lp" and isinstance(obj, aarlcp.UncertainLcpQ)
            and obj.certain_set().size == 0
            and obj.n <= workloads.CROSS_CHECK_MAX_N):
        enum = aarlcp.solve_enumeration(obj)
        if len(enum) != len(rules) or not all(
                _close(a.d, b.d, CROSS_TOL) and _close(a.r, b.r, CROSS_TOL)
                for a, b in zip(enum, rules)):
            reasons.append(f"psd-lp gives {len(rules)} rule(s), enumeration "
                           f"{len(enum)} or different ones")
    return reasons


def expected_verdicts(workload: str, seed: int, insts: list, ref: dict) -> dict:
    """Verdicts recorded at an earlier commit, by instance name: those of
    this seed's earlier --record run and those of the pool records."""
    expected = dict(ref.get("recorded", {}).get(workload, {})
                    .get(str(seed), {}).get("verdicts", {}))
    pools = ref["pools"][workload]
    for inst in insts:
        rec = workloads.recorded(inst.name, pools)
        if rec is not None:
            expected.setdefault(inst.name, {"status": rec["status"]})
    return expected


def gate(aarlcp, workload: str, seed: int, insts: list, sweeps: list,
         cli_verdicts: dict, ref: dict) -> dict:
    """Every failing instance with its reasons."""
    expected = expected_verdicts(workload, seed, insts, ref)
    first = sweeps[0]
    failures = {}
    for i, inst in enumerate(insts):
        reasons = []
        verdict = first.verdicts[i]
        if "error" in verdict:
            reasons.append(f"raised {verdict['error']}")
        else:
            reasons += check_instance(aarlcp, workload, inst, first.reports[i])
        if any(s.verdicts[i] != verdict for s in sweeps[1:]):
            reasons.append("verdict differs between sweeps")
        want = expected.get(inst.name)
        if want is not None and any(verdict.get(k) != v for k, v in want.items()):
            reasons.append(f"verdict {verdict} differs from the recorded {want}")
        if i in cli_verdicts and cli_verdicts[i] != verdict:
            reasons.append(f"CLI verdict {cli_verdicts[i]} differs from {verdict}")
        if reasons:
            failures[i] = reasons
    return failures


def probe_known_failures(aarlcp, workload: str, ref: dict) -> list:
    """Solve the workload's pool candidates recorded as raising; return
    the ones that still raise, with their errors."""
    still = []
    for cls, records in ref["pools"][workload].items():
        for index, rec in enumerate(records):
            if "error" not in rec:
                continue
            inst = workloads.candidate(workload, cls, index)
            try:
                aarlcp.dispatch_solve(aarlcp.parse_instance(inst.text))
            except Exception as exc:  # the defect this probe watches for
                still.append(f"{inst.name}: {type(exc).__name__}: {exc}")
    return still


def end_to_end(sweeps: list, setup: list, cli: list):
    """The end-to-end metrics. Every repeated measurement (an instance's
    solve time over the sweeps, the sweeps, the fresh interpreters) is
    reduced to its median: on a shared host whose speed drifts by tens
    of percent within seconds, the median of many short samples varies
    least from run to run (less than their minimum or their mean)."""
    per_instance = [statistics.median(t) for t in zip(*(s.times for s in sweeps))]
    tail_s, pct = tail(per_instance)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_solve_s": (statistics.median(cli), "s"),
        "solve_s_p50": (statistics.median(per_instance), "s"),
        "solve_s_tail": (tail_s, "s"),
        "sweep_s": (statistics.median(s.seconds for s in sweeps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return metrics, f"solve_s_tail is p{pct:.1f} of {len(per_instance)} instances"


def parse_args(argv):
    p = argparse.ArgumentParser(description="aarlcp benchmark, one run")
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: the three smallest instances, one "
                        "fresh interpreter each")
    p.add_argument("--record", action="store_true",
                   help="store this seed's verdicts (and, traced, its "
                        "count metrics) in reference.json")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "aarlcp" / "__init__.py").is_file():
        print(f"perfbench: {src / 'aarlcp'} not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import aarlcp

    ref = workloads.load_reference()
    insts = workloads.instances(args.workload, args.seed, args.quick)
    names = [inst.name for inst in insts]
    text_dir = OUT / f"{args.workload}-{args.seed}"
    text_dir.mkdir(parents=True, exist_ok=True)
    for old in text_dir.glob("*.txt"):
        old.unlink()
    for i, inst in enumerate(insts):
        (text_dir / f"{i:03d}.txt").write_text(inst.text)

    run_sweep(aarlcp, [insts[workloads.smallest(insts, 1)[0]]])  # warm-up
    reps = 1 if args.quick else FRESH_REPS
    notes, cli_verdicts, problems = [], {}, []
    if args.trace == 0:
        cli_files = [(i, text_dir / f"{i:03d}.txt")
                     for i in workloads.smallest(insts, 3)]
        sweeps, setup, cli, cli_verdicts, problems = measure(
            aarlcp, root, insts, text_dir, cli_files, args.seconds, reps)
        metrics, note = end_to_end(sweeps, setup, cli)
        notes.append(note)
    else:
        imports = import_breakdown(root, reps=min(reps, 3))
        # untraced sweeps on both sides of the traced one, for the overhead
        sweeps = [run_sweep(aarlcp, insts)]
        tracer = spans.Tracer()
        with tracer.patched(aarlcp):
            traced = run_sweep(aarlcp, insts, tracer)
        while sum(s.seconds for s in sweeps) < args.seconds:
            sweeps.append(run_sweep(aarlcp, insts))
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = {"import.aarlcp_s": (imports["aarlcp"], "s"),
                   "import.scipy_stats_s": (imports["scipy.stats"], "s")}
        metrics.update(spans.layer_metrics(tracer.spans, len(insts)))
        untraced = statistics.median(s.seconds for s in sweeps)
        metrics["trace.sweep_s"] = (traced.seconds, "s")
        metrics["trace.overhead_s"] = (traced.seconds - untraced, "s")
        still = probe_known_failures(aarlcp, args.workload, ref)
        metrics["workload.known_failures"] = (len(still), "count")
        notes += [f"known failure still raises: {s}" for s in still]
        sweeps.append(traced)

    failures = gate(aarlcp, args.workload, args.seed, insts, sweeps,
                    cli_verdicts, ref)
    verdicts = sweeps[0].verdicts
    solvable = sum(v.get("status") == "solution" for v in verdicts) / len(insts)
    if args.trace == 1:
        metrics["workload.solvable_ratio"] = (solvable, "1")
        metrics["failed_ratio"] = (len(failures) / len(insts), "1")

    print(f"perfbench {args.workload} seed={args.seed} instances={len(insts)} "
          f"sweeps={len(sweeps)} solvable={solvable:.3f} "
          f"digest={digest(names, verdicts)}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"failed_ratio {len(failures) / len(insts):.4f} "
          f"({len(failures)} of {len(insts)})")
    for problem in problems:
        print(f"FAILED {problem}")
    for i, reasons in failures.items():
        for reason in reasons:
            print(f"FAILED {insts[i].name}: {reason}")
    correct = not failures and not problems

    if args.record and correct:
        rec = ref.setdefault("recorded", {}).setdefault(args.workload, {})
        entry = rec.setdefault(str(args.seed), {})
        entry["digest"] = digest(names, verdicts)
        entry["verdicts"] = dict(zip(names, verdicts))
        if args.trace == 1:
            entry["counts"] = {k: v for k, (v, unit) in metrics.items()
                               if unit == "count"}
        workloads.save_reference(ref)

    print(json.dumps({
        "correct": correct,
        "attempted": len(insts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
