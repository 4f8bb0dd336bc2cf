"""Result sets: run the benchmark over many seeds, and compare two sets.

    python3 perfbench/runset.py run --out perfbench/results/A --seeds 1-10
            [--workloads signrow,cone] [--trace 0|1]
    python3 perfbench/runset.py compare perfbench/results/A [perfbench/results/B]

`run` calls run.py once per workload and seed, for BENCHMARK.json's
run_seconds, and keeps each run's result line as
<workload>-seed<n>-trace<t>.json.  `compare` prints, per workload and
metric, the median and quartiles of each set, the spread (quartile distance
over the median) and, given two sets, the change of the median from A to B
with its verdict against the bound in BENCHMARK.json.  When either set's
spread exceeds the bound the verdict is "unresolved", since such a set
cannot tell a change of that size from noise, unless every run of B reads
better than every run of A.  For per-layer counts, which repeat
exactly, it says whether the sets agree.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(args, bench) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    status = 0
    for workload in workloads:
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            name = f"{workload}-seed{seed}-trace{args.trace}.json"
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            (out / name).write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)
            if proc.stderr.strip():
                print(proc.stderr.strip(), file=sys.stderr)
    return status


def load(path: Path) -> dict:
    """{(workload, trace): [result, ...]} of one result set."""
    sets: dict = {}
    for f in sorted(path.glob("*-seed*-trace*.json")):
        workload, rest = f.stem.split("-seed")
        trace = int(rest.split("-trace")[1])
        sets.setdefault((workload, trace), []).append(json.loads(f.read_text()))
    return sets


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def compare(args, bench) -> int:
    a = load(Path(args.a))
    b = load(Path(args.b)) if args.b else None
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    for key in sorted(a):
        workload, trace = key
        runs_a, runs_b = a[key], (b or {}).get(key)
        head = f"== {workload} (trace {trace}): A {len(runs_a)} runs, attempted " \
               f"{sum(r['attempted'] for r in runs_a)}, failed {sum(r['failed'] for r in runs_a)}"
        if runs_b:
            head += f"; B {len(runs_b)} runs, attempted {sum(r['attempted'] for r in runs_b)}, " \
                    f"failed {sum(r['failed'] for r in runs_b)}"
        print(head)
        incorrect = sum(not r["correct"] for r in runs_a + (runs_b or []))
        if incorrect:
            print(f"   {incorrect} run(s) reported correct=false")
            worse += 1
        for name in runs_a[0]["metrics"]:
            m = spec.get(name, {"unit": runs_a[0]["metrics"][name]["unit"]})
            va = [r["metrics"][name]["value"] for r in runs_a]
            if any(v is None for v in va):
                print(f"   {name:32s} missing")
                continue
            med, q1, q3, spread = _summary(va)
            line = f"   {name:32s} A {med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:6.3f}"
            bound = m.get("bound")
            if bound is not None and spread > bound:
                line += " UNSTEADY"
            if runs_b:
                vb = [r["metrics"][name]["value"] for r in runs_b]
                if any(v is None for v in vb):
                    print(line + "  B missing")
                    continue
                mb, q1b, q3b, spread_b = _summary(vb)
                line += f" | B {mb:12.6g} [{q1b:.6g}, {q3b:.6g}] spread {spread_b:6.3f}"
                if bound is not None and spread_b > bound:
                    line += " UNSTEADY"
                if m.get("unit") in ("count", "bytes", "ratio") and "bound" not in m:
                    line += " | same" if va == vb else " | DIFFERS"
                elif med:
                    lower = m.get("better") == "lower"
                    change = (mb - med) / abs(med)
                    worse_by = change if lower else -change
                    line += f" | change {change:+.3f}"
                    if bound is not None:
                        if max(spread, spread_b) > bound:
                            every_run_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                            verdict = "every B run better" if every_run_better else "unresolved"
                        else:
                            verdict = "WORSE" if worse_by > bound else "within bound"
                        worse += verdict == "WORSE"
                        line += f" ({verdict}, bound {bound})"
            print(line)
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b", nargs="?")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_set(args, bench) if args.cmd == "run" else compare(args, bench)


if __name__ == "__main__":
    sys.exit(main())
