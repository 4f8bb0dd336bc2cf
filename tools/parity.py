"""Byte-for-byte parity of roc's command-line runs between two source trees.

    python3 tools/parity.py TREE OUT        run TREE's roc on every input, write digests to OUT
    python3 tools/parity.py --compare A B   list the runs whose digests differ, and how

The inputs come from this checkout: every `fixtures/*.roc` and two
intersections with Minkowski-sum members, through every CLI command under
each of OPTIONS, and the seed-1 models of every `perfbench/gen.py` family,
each through its benchmark command (`perfbench/run.py` WORKLOADS).  Each
run calls TREE's `roc.cli.main` in this process, so one process tests one
tree, and records the sha256 of its exit code, standard output, standard
error and output file, next to the exit code and, for a JSON report, its
outcome: each method's status, objective and iterations, the oracle gap,
and the verification verdict and max_violation.  For a run whose digest
differs, `--compare` names the exit change, else a status or verdict
change, else how far the objectives and iterations moved.  Every input is
written under WORK first, a directory that does not depend on the tree,
because a pipeline report embeds its input path.  BLAS runs on one thread,
and no bytecode is written, so the tool leaves nothing in TREE or in
perfbench/.  A run takes about ten seconds on a 2-core machine; it is not
part of the test suite.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse
import hashlib
import io
import json
import math
import sys
import tempfile
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(tempfile.gettempdir()) / "roc-parity"
SEED = 1
OPTIONS = {  # name -> extra CLI arguments; "-o" writes the artifact to a file
    "defaults": [],
    "reformulate": ["--method", "reformulate", "--samples", "200", "--seed", "1"],
    "cutplane": ["--method", "cutplane", "--samples", "300", "--tol", "1e-4"],
    "lp-soc": ["--format", "lp", "--allow-soc-comment", "--seed", "7", "-o"],
}
MINKOWSKI = "minkowski(ball(p=2, r=0.3, dim=2), ball(p=inf, r=0.2))"
EXTRA = {  # intersections whose Minkowski member has no membership test
    "intersect-minkowski.roc": f"var x1 >= 0 <= 10; var x2 >= 0 <= 10; max: x1 + x2;\n"
                               f"c: 3*x1 + x2 <= 10 uncertain(Z=intersect({MINKOWSKI}, "
                               f"ball(p=inf, r=0.5)));\n",
    "intersect-two-minkowski.roc": f"var x1 >= 0 <= 10; var x2 >= 0 <= 10; max: x1 + x2;\n"
                                   f"c: 3*x1 + x2 <= 10 uncertain(Z=intersect({MINKOWSKI}, "
                                   f"intersect({MINKOWSKI}, ball(p=1, r=1))));\n",
}


def inputs(commands) -> list[tuple[str, Path, list[str]]]:
    """(run id, input file, CLI arguments) of every run, inputs written under WORK."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    from run import WORKLOADS

    (WORK / "models").mkdir(parents=True, exist_ok=True)
    texts = {p.name: p.read_text() for p in sorted((ROOT / "fixtures").glob("*.roc"))}
    texts.update(EXTRA)
    runs = []
    for name, text in texts.items():
        path = WORK / "models" / name
        path.write_text(text)
        for command in commands:
            for option, extra in OPTIONS.items():
                runs.append((f"{name}/{command}/{option}", path, [command, *extra]))
    for workload, (command, extra) in WORKLOADS.items():
        for spec in gen.FAMILIES[workload](SEED):
            path = WORK / "models" / f"{spec['name']}.roc"
            path.write_text(gen.roc_text(spec))
            runs.append((f"{workload}/{spec['name']}", path, [command, *extra, "-o"]))
    return runs


def outcome(text: str) -> dict | None:
    """The outcome recorded for a report: None unless `text` is a JSON object."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    verification = doc if doc.get("kind") == "verification" else doc.get("verification") or {}
    return {"methods": {name: {key: sol.get(key) for key in ("status", "objective", "iterations")}
                        for name, sol in (doc.get("solutions") or {}).items()},
            "verdict": verification.get("verdict"),
            "max_violation": verification.get("max_violation"),
            "oracle_gap": doc.get("oracle_gap")}


def run_all(tree: Path) -> dict[str, dict]:
    """Digest of every run of `inputs` through the roc of `tree`."""
    sys.path.insert(0, str(tree / "src"))
    import roc.cli as cli

    runs = inputs(cli.COMMANDS)
    out_file = WORK / "out"
    stdout, stderr = sys.stdout, sys.stderr
    # one buffer per stream, emptied before each run: the CLI's log handler
    # keeps the stderr of its first call
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    results = {}
    try:
        for run_id, path, argv in runs:
            out_file.unlink(missing_ok=True)
            if argv[-1] == "-o":
                argv = [*argv, str(out_file)]
            for buf in (sys.stdout, sys.stderr):
                buf.seek(0)
                buf.truncate()
            try:
                code = cli.main([argv[0], str(path), *argv[1:]])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a crash is an outcome to compare
                code = -1
                sys.stderr.write(traceback.format_exc(limit=0))
            digest = hashlib.sha256(f"{code}\n".encode())
            for text in (sys.stdout.getvalue(), sys.stderr.getvalue()):
                digest.update(hashlib.sha256(text.encode("utf-8", "surrogateescape")).digest())
            report = out_file.read_bytes() if out_file.exists() else None
            digest.update(b"no output file" if report is None else report)
            results[run_id] = {"exit": code, "digest": digest.hexdigest(),
                               "outcome": outcome(sys.stdout.getvalue() if report is None
                                                  else report.decode("utf-8", "replace"))}
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return results


def _relative(p, q) -> float:
    if p == q:
        return 0.0
    if p is None or q is None:
        return math.inf
    return abs(p - q) / max(abs(p), abs(q))


def moved(x: dict, y: dict) -> str:
    """What changed between two records of one run whose digests differ."""
    if x["exit"] != y["exit"]:
        return f"exit {x['exit']} -> {y['exit']}"
    p, q = x.get("outcome"), y.get("outcome")
    if not p or not q:
        return f"exit {x['exit']}, output differs"
    changes = [f"{name} status {p['methods'][name]['status']} -> {q['methods'][name]['status']}"
               for name in p["methods"].keys() & q["methods"].keys()
               if p["methods"][name]["status"] != q["methods"][name]["status"]]
    if p["verdict"] != q["verdict"]:
        changes.append(f"verdict {p['verdict']} -> {q['verdict']}")
    if p["methods"].keys() != q["methods"].keys():
        changes.append(f"methods {sorted(p['methods'])} -> {sorted(q['methods'])}")
    if changes:
        return ", ".join(sorted(changes))
    parts = []
    if p["methods"]:
        rel = max(_relative(p["methods"][k]["objective"], q["methods"][k]["objective"])
                  for k in p["methods"])
        parts.append(f"objective within {rel:.1e}, iterations " + ", ".join(
            f"{k} {p['methods'][k]['iterations']}→{q['methods'][k]['iterations']}"
            for k in sorted(p["methods"])))
    for key in ("max_violation", "oracle_gap"):
        if p[key] != q[key]:
            parts.append(f"{key} {p[key]!r} -> {q[key]!r}")
    return ", ".join(parts) or f"exit {x['exit']}, output differs"


def compare(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    """One line per run that differs between the records `a` and `b`."""
    lines = []
    for run_id in sorted(a.keys() | b.keys()):
        x, y = a.get(run_id), b.get(run_id)
        if x is None or y is None:
            lines.append(f"{run_id}: only in {'B' if x is None else 'A'}")
        elif x["digest"] != y["digest"]:
            lines.append(f"{run_id}: {moved(x, y)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", action="store_true",
                    help="compare two digest files instead of running a tree")
    ap.add_argument("first", type=Path, help="source tree to run, or digest file A")
    ap.add_argument("second", type=Path, help="digest file to write, or digest file B")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in (args.first, args.second))
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(a.keys() | b.keys())} runs differ"]))
        return 1 if lines else 0
    results = run_all(args.first.resolve())
    args.second.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} runs, {sum(r['exit'] != 0 for r in results.values())} "
          f"with a nonzero exit, written to {args.second}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
