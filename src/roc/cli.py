"""Command-line front door: `roc <command> <input.roc> [options]`.

Exit codes are a stable contract: 0 success, 2 parse error, 3 infeasible or
unbounded or iteration-limited solve, 4 verification failure, 1 anything
else.  Diagnostics go to stderr with source spans; artifacts go to --output
or stdout.
"""
from __future__ import annotations

import argparse
import functools
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

# in pipeline order; run() stops each command at its own stage
COMMANDS = ("check", "canonicalize", "robustify", "lower", "emit", "solve", "verify", "pipeline")


def _configure_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("ROC_LOG", "error"), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level, format="roc: %(levelname)s: %(message)s")


class _Run:
    """Pipeline stages computed lazily from one input file."""

    def __init__(self, args):
        self.args = args
        # a byte that is not UTF-8 is read as a lone surrogate, which the
        # parser reports as a `lex` error where it reaches it
        with open(args.input, encoding="utf-8", errors="surrogateescape") as fh:
            source = fh.read()
        self.model: Model = parse_model(source)
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

    def write(self, artifact, code: int = EXIT_OK) -> int:
        """Write an LP text, or `emit_json` of anything else, to --output or
        stdout; return `code`."""
        text = artifact if isinstance(artifact, str) else emit_json(artifact)
        if self.args.output:
            with open(self.args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code


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
    """Run the pipeline up to the stage `args.command` stops at."""
    cmd = args.command
    if cmd not in COMMANDS:
        raise RocError(f"unknown command {cmd!r}")
    r = _Run(args)
    if cmd == "check":
        model = r.model
        return r.write({
            "kind": "check",
            "status": "ok",
            "vars": len(model.vars),
            "constraints": len(model.constraints),
            "uncertain_rows": sum(1 for c in model.constraints if not c.is_certain()),
            "adaptive": bool(model.wait_and_see()),
        })
    if cmd == "canonicalize":
        return r.write(r.pre_ldr)
    if cmd == "robustify":
        return r.write(r.robust())
    if cmd in ("lower", "emit"):
        lowered = r.lowered()
        if (args.format or ("lp" if cmd == "emit" else "json")) == "lp":
            return r.write(emit_lp(lowered, allow_soc_comment=args.allow_soc_comment))
        return r.write(lowered)

    solutions, skipped = r.solve()
    gap = _oracle_gap(solutions)
    code = _status_exit(solutions)
    solved = {"method": args.method, "oracle_gap": gap, "cutplane_skipped": skipped,
              "solutions": {name: to_jsonable(sol) for name, sol in solutions.items()}}
    if cmd == "solve":
        return r.write({"kind": "solve", **solved}, code)

    primary = solutions.get("reformulate") or solutions.get("cutplane")
    report = None
    if code == EXIT_OK:
        report = verify_solution(
            r.pre_ldr, primary, n=args.samples, seed=args.seed,
            ldr=r.post_ldr.ldr, oracle_gap=gap, tol=args.tol)
        if report.verdict != "pass":
            code = EXIT_VERIFY
    if cmd == "verify":
        return r.write(report or {"kind": "verification", "verdict": "fail",
                                  "reason": "no optimal solution"}, code)
    return r.write({
        "kind": "pipeline",
        **solved,
        "input": args.input,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "objective": r.original_objective(primary) if primary else None,
        "verification": to_jsonable(report) if report else None,
        "exit_code": code,
    }, code)


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
    ap.add_argument("command", choices=COMMANDS)
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
    if not 0 < args.tol < float("inf"):  # nan included
        print("roc: error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_ERROR
    if args.seed < 0:
        print("roc: error: --seed must be non-negative", file=sys.stderr)
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
    except (OSError, RocError) as exc:
        print(f"roc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
