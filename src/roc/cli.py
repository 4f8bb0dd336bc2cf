"""Command-line front door: `roc <command> <input.roc> [options]`.

Exit codes are a stable contract: 0 success, 2 parse error, 3 infeasible or
unbounded or iteration-limited solve, 4 verification failure, 1 anything
else.  Diagnostics go to stderr with source spans; artifacts go to --output
or stdout.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import __version__
from .aro import apply_ldr
from .canonicalize import canonicalize
from .emit import emit_json, emit_lp, to_jsonable
from .errors import RocError, UnsupportedSetError
from .lower import lower_norms
from .model import MAX, Model
from .parser import ParseError, parse_model
from .rc import robustify_model
from .solver import OPTIMAL, Solution, cutting_plane_solve, solve_deterministic
from .verify import verify_solution

log = logging.getLogger("roc")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NOT_OPTIMAL = 3
EXIT_VERIFY = 4


def _configure_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("ROC_LOG", "error"), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level, format="roc: %(levelname)s: %(message)s")


def _write(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Run:
    """Pipeline stages computed lazily from one input file."""

    def __init__(self, args):
        self.args = args
        self.source = _read(args.input)
        self.model: Model = parse_model(self.source)
        self.pre_ldr = canonicalize(self.model)
        self.post_ldr = apply_ldr(self.pre_ldr)

    def robust(self):
        return robustify_model(self.post_ldr)

    def lowered(self):
        return lower_norms(self.robust())

    def solve(self) -> tuple[dict[str, Solution], str | None]:
        """Solutions per requested method; reason if cutplane was skipped."""
        method = self.args.method
        skipped = None
        solutions: dict[str, Solution] = {}
        if method in ("reformulate", "both"):
            solutions["reformulate"] = solve_deterministic(self.lowered())
        if method in ("cutplane", "both"):
            try:
                solutions["cutplane"] = cutting_plane_solve(self.post_ldr)
            except UnsupportedSetError as exc:
                if method == "cutplane":
                    raise RocError("cutting-plane solving does not support intersection sets; "
                                   "use --method reformulate") from exc
                skipped = "intersection sets have no pessimization oracle"
        return solutions, skipped

    def original_objective(self, sol: Solution) -> float | None:
        if sol.status != OPTIMAL:
            return None
        return -sol.objective if self.model.objective_sense == MAX else sol.objective


def _oracle_gap(solutions: dict[str, Solution]) -> float | None:
    if len(solutions) < 2:
        return None
    objs = [s.objective for s in solutions.values() if s.status == OPTIMAL]
    if len(objs) < 2:
        return None
    return abs(objs[0] - objs[1])


def _status_exit(solutions: dict[str, Solution]) -> int:
    if not solutions:
        return EXIT_ERROR
    if all(s.status == OPTIMAL for s in solutions.values()):
        return EXIT_OK
    return EXIT_NOT_OPTIMAL


def run(args) -> int:
    cmd = args.command

    if cmd == "check":
        r = _Run(args)
        summary = {
            "roc_schema": 1,
            "kind": "check",
            "status": "ok",
            "vars": len(r.model.vars),
            "constraints": len(r.model.constraints),
            "uncertain_rows": sum(1 for c in r.model.constraints if not c.is_certain()),
            "adaptive": bool(r.model.wait_and_see()),
        }
        _write(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.output)
        return EXIT_OK

    if cmd == "canonicalize":
        _write(emit_json(_Run(args).pre_ldr), args.output)
        return EXIT_OK

    if cmd == "robustify":
        _write(emit_json(_Run(args).robust()), args.output)
        return EXIT_OK

    if cmd in ("lower", "emit"):
        lowered = _Run(args).lowered()
        fmt = args.format or ("lp" if cmd == "emit" else "json")
        if fmt == "lp":
            _write(emit_lp(lowered, allow_soc_comment=args.allow_soc_comment), args.output)
        else:
            _write(emit_json(lowered), args.output)
        return EXIT_OK

    if cmd == "solve":
        r = _Run(args)
        solutions, skipped = r.solve()
        body = {
            "roc_schema": 1,
            "kind": "solve",
            "method": args.method,
            "solutions": {name: to_jsonable(sol) for name, sol in solutions.items()},
            "oracle_gap": _oracle_gap(solutions),
            "cutplane_skipped": skipped,
        }
        _write(json.dumps(body, sort_keys=True, indent=2) + "\n", args.output)
        return _status_exit(solutions)

    if cmd in ("verify", "pipeline"):
        r = _Run(args)
        solutions, skipped = r.solve()
        gap = _oracle_gap(solutions)
        code = _status_exit(solutions)
        primary = solutions.get("reformulate") or solutions.get("cutplane")
        report = None
        if code == EXIT_OK:
            report = verify_solution(
                r.pre_ldr, primary, n=args.samples, seed=args.seed,
                ldr=r.post_ldr.ldr, oracle_gap=gap, tol=args.tol)
            if report.verdict != "pass":
                code = EXIT_VERIFY
        if cmd == "verify":
            _write(emit_json(report) if report else json.dumps(
                {"roc_schema": 1, "kind": "verification", "verdict": "fail",
                 "reason": "no optimal solution"}, sort_keys=True, indent=2) + "\n",
                args.output)
            return code
        body = {
            "roc_schema": 1,
            "kind": "pipeline",
            "input": args.input,
            "method": args.method,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
            "objective": r.original_objective(primary) if primary else None,
            "solutions": {name: to_jsonable(sol) for name, sol in solutions.items()},
            "oracle_gap": gap,
            "cutplane_skipped": skipped,
            "verification": to_jsonable(report) if report else None,
            "exit_code": code,
        }
        _write(json.dumps(body, sort_keys=True, indent=2) + "\n", args.output)
        return code

    raise RocError(f"unknown command {cmd!r}")


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call of a process."""
    return build_arg_parser()


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="roc",
        description="Robustification compiler: parse, reformulate, solve and verify "
                    "robust/adaptive linear models.")
    ap.add_argument("--version", action="version", version=f"roc {__version__}")
    ap.add_argument("command",
                    choices=["check", "canonicalize", "robustify", "lower", "emit",
                             "solve", "verify", "pipeline"])
    ap.add_argument("input", help="input .roc model file")
    ap.add_argument("--output", "-o", help="write the artifact here instead of stdout")
    ap.add_argument("--format", choices=["lp", "json"], default=None,
                    help="artifact format for lower/emit (default: json for lower, lp for emit)")
    ap.add_argument("--method", choices=["reformulate", "cutplane", "both"], default="both")
    ap.add_argument("--tol", type=float, default=1e-6, help="relative oracle-gap tolerance")
    ap.add_argument("--samples", type=int, default=1000, help="verification samples per row")
    ap.add_argument("--seed", type=int, default=42, help="verification RNG seed")
    ap.add_argument("--allow-soc-comment", action="store_true",
                    help="emit cone rows as LP comments instead of failing")
    return ap


def main(argv=None) -> int:
    _configure_logging()
    args = _arg_parser().parse_args(argv)
    if args.tol <= 0:
        print("roc: error: --tol must be positive", file=sys.stderr)
        return EXIT_ERROR
    if args.samples < 1:
        print("roc: error: --samples must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    try:
        return run(args)
    except ParseError as exc:
        print(f"{args.input}:{exc.span.line}:{exc.span.column}: {exc.kind}: {exc.message}",
              file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"roc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RocError as exc:
        print(f"roc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
