"""Command-line front end.

Subcommands: solve, verify, gen, market-build, report. Exit codes:
0 solution found / verified, 1 no solution (proved) or verification
failed, 2 no solution found but nonexistence not proved (the report's
caveat says why), 3 input error, 4 internal limit hit (a budget, or
numerical trouble).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .instances import (InstanceFormatError, generate_random, parse_instance,
                        serialize_instance)
from .market import MarketModel, build_lcp
from .reporting import DispatchError, SolveOptions, dispatch_solve
from .robust_m import AffineSolutionM, UncertainLcpM, verify_affine_m
from .robust_q import AffineSolutionQ, UncertainLcpQ, verify_affine_q

EXIT_SOLUTION = 0
EXIT_NO_SOLUTION = 1
EXIT_NOT_PROVED = 2
EXIT_INPUT = 3
EXIT_LIMIT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is taken, so raise
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_out(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_solve_flags(p: argparse.ArgumentParser):
    p.add_argument("--pathway", default="auto",
                   choices=["auto", "enumeration", "psd-lp", "mip",
                            "uncertain-m"])
    p.add_argument("--big-m", type=float, default=None,
                   help="starting big-M constant for the mip pathway")
    p.add_argument("--node-limit", type=int, default=None,
                   help="branch-and-bound node budget")


def _options(args) -> SolveOptions:
    return SolveOptions(pathway=args.pathway, big_m=args.big_m,
                        node_limit=args.node_limit)


def _finite(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _print_json(obj) -> None:
    """Strict JSON: a non-finite number (an overflowed worst value, say)
    prints as null, never as the bare NaN or Infinity tokens."""
    print(json.dumps(_finite(obj), indent=2, allow_nan=False))


def _cmd_solve(args, as_json: bool) -> int:
    instance = parse_instance(_read(args.instance))
    if isinstance(instance, (AffineSolutionQ, AffineSolutionM)):
        raise UsageError("expected an instance file, got a solution file")
    report = dispatch_solve(instance, _options(args))
    if as_json:
        _print_json(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code()


def _cmd_verify(args) -> int:
    instance = parse_instance(_read(args.instance))
    solution = parse_instance(_read(args.solution))
    if isinstance(instance, MarketModel):
        # solutions for markets live in the permuted LCP coordinates
        instance, _ = build_lcp(instance)
    if isinstance(instance, UncertainLcpQ) and isinstance(solution,
                                                          AffineSolutionQ):
        report = verify_affine_q(instance, solution)
    elif isinstance(instance, UncertainLcpM) and isinstance(solution,
                                                            AffineSolutionM):
        report = verify_affine_m(instance, solution)
    else:
        raise UsageError(
            f"kind mismatch: {type(instance).__name__} instance with "
            f"{type(solution).__name__} solution")
    if args.json:
        _print_json({
            "schema": 1,
            "kind": "verification",
            "overall": bool(report.overall),
            "certified": bool(report.certified),
            "checks": [
                {"condition": c.condition, "passed": bool(c.passed),
                 "worst_value": float(c.worst_value)}
                for c in report.checks
            ],
        })
    else:
        for c in report.checks:
            print(f"check {c.condition}: {'pass' if c.passed else 'FAIL'} "
                  f"(worst {c.worst_value:.3e})")
        print("verified" if report.overall else "NOT verified")
    return EXIT_SOLUTION if report.overall else EXIT_NO_SOLUTION


def _cmd_gen(args) -> int:
    text = generate_random(args.kind, args.n, k=args.k, h=args.h,
                           seed=args.seed, regime=args.regime)
    _write_out(text, args.output)
    return EXIT_SOLUTION


def _cmd_market_build(args) -> int:
    model = parse_instance(_read(args.instance))
    if not isinstance(model, MarketModel):
        raise UsageError("market-build expects a market instance file")
    inst, bmap = build_lcp(model, artificial_halfwidth=args.artificial_halfwidth)
    _write_out(serialize_instance(inst), args.output)
    if args.output not in (None, "-"):
        perm = [int(i) + 1 for i in bmap.perm]
        print(f"wrote {args.output}: n={inst.n} h={inst.h} "
              f"permutation={perm} (1-based)")
    return EXIT_SOLUTION


def main(argv=None) -> int:
    parser = _Parser(prog="aarlcp",
                     description="Affinely adjustable robust solutions of "
                                 "linear complementarity problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="instance file ('-' for stdin)")
    _add_solve_flags(p_solve)
    p_solve.add_argument("--json", action="store_true",
                         help="machine-readable report")

    p_verify = sub.add_parser("verify",
                              help="check a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("kind", choices=["uncertain-q", "uncertain-m", "market"])
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--k", type=int, default=1,
                       help="perturbation count / market count")
    p_gen.add_argument("--h", type=int, default=0,
                       help="here-and-now coordinate count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--regime", default="general",
                       choices=["general", "psd", "pmatrix"])
    p_gen.add_argument("-o", "--output", default=None)

    p_mb = sub.add_parser("market-build",
                          help="turn a market file into an uncertain-q file")
    p_mb.add_argument("instance")
    p_mb.add_argument("-o", "--output", default=None)
    p_mb.add_argument("--artificial-halfwidth", type=float, default=0.0,
                      help="widen zero half-widths for demonstration runs")

    p_report = sub.add_parser("report",
                              help="solve and print the JSON report")
    p_report.add_argument("instance")
    _add_solve_flags(p_report)
    p_report.add_argument("--json", action="store_true",
                          help="accepted for symmetry; report is always JSON")

    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args, as_json=args.json)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "market-build":
            return _cmd_market_build(args)
        if args.command == "report":
            return _cmd_solve(args, as_json=True)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, InstanceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT if exc.is_limit else EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
