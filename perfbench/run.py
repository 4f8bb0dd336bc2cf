"""roc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload signrow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark writes the seed's
models under perfbench/work/, byte-compiles roc's sources, times a fresh
interpreter's import of `roc.cli` (set-up), then starts one client process
(client.py) that sends the models to the in-process CLI one at a time, in
whole passes, until the run length is reached.  Afterwards every distinct
output is checked against a reference computed here with scipy's HiGHS,
never by `roc` (ref.py).
BLAS is pinned to one thread in every process.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (tracer.py).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_SPAWNS = 9
CLIENT_TIMEOUT = 150.0
OBJ_RTOL = 1e-6   # roc objective vs the reference, relative
WORKLOADS = {  # name -> (roc command, extra CLI arguments)
    "signrow": ("pipeline", []),
    "cone": ("pipeline", []),
    "twostage": ("pipeline", ["--samples", "10000"]),
    "compile": ("emit", []),
}
END_TO_END_UNITS = {"model_s_p50": "s", "models_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _client_cmd(*args):
    return [sys.executable, str(HERE / "client.py"), *args]


def measure_setup(n: int) -> list[float]:
    """Seconds from spawning an interpreter to `roc.cli` imported, n times.

    roc's sources are byte-compiled first (a no-op when the cache is up to
    date), so no probe compiles them, whether or not tests or an earlier run
    left a bytecode cache behind.
    """
    if not compileall.compile_dir(ROOT / "src" / "roc", quiet=1):
        raise RuntimeError("roc's sources do not compile")
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(_client_cmd("--ready-only"), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.communicate(timeout=30)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not become ready")
    return out


def run_client(plan_path: Path, log_path: Path) -> None:
    with open(log_path, "w") as log, subprocess.Popen(
            _client_cmd("--plan", str(plan_path)), stdout=subprocess.DEVNULL,
            stderr=log) as proc:
        try:
            proc.wait(timeout=CLIENT_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"client did not finish in {CLIENT_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: "
                           + log_path.read_text()[-2000:])


def check_output(workload: str, spec: dict, answer: dict, out_path: Path) -> None:
    """Raise RefError unless the model's output matches the reference."""
    from ref import RefError, check_point, recourse_cost, same, solve_lp_text

    form = answer["form"]
    if workload == "compile":
        objective, values = solve_lp_text(out_path.read_text())
        if not same(form["sign"] * objective, answer["objective"], OBJ_RTOL):
            raise RefError(f"emitted LP optimum {objective!r} != reference "
                           f"{form['sign'] * answer['objective']!r}")
        check_point(form, values, "emitted LP optimum")
        return
    report = json.loads(out_path.read_text())
    verdict = (report.get("verification") or {}).get("verdict")
    if verdict != "pass":
        raise RefError(f"verdict {verdict!r}")
    if not same(report["objective"], answer["objective"], OBJ_RTOL):
        raise RefError(f"objective {report['objective']!r} != reference {answer['objective']!r}")
    for method, sol in report["solutions"].items():
        check_point(form, sol["values"], method)
        if "_tau" in form["index"]:  # two-stage: the rule must achieve the cost
            cost = recourse_cost(form, sol["values"])
            if not same(cost, answer["objective"], OBJ_RTOL):
                raise RefError(f"{method}: worst-case cost of the rule {cost!r} != "
                               f"reference {answer['objective']!r}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one roc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "roc" / "cli.py").is_file():
        print(f"run.py: no roc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    import gen
    from ref import RefError, reference

    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        specs = gen.FAMILIES[args.workload](args.seed)
        answers = {s["name"]: reference(s) for s in specs}
        command, extra = WORKLOADS[args.workload]
        suffix = ".lp" if command == "emit" else ".json"
        models = []
        for spec in specs:
            path = work / f"{spec['name']}.roc"
            path.write_text(gen.roc_text(spec))
            models.append({"name": spec["name"], "path": str(path),
                           "out": str(work / "out" / f"{spec['name']}{suffix}")})
        plan = {"models": models, "command": command, "args": extra,
                "seconds": args.seconds, "trace": bool(args.trace),
                "result": str(work / "client.json")}
        (work / "plan.json").write_text(json.dumps(plan))

        setup = measure_setup(SETUP_SPAWNS)
        run_client(work / "plan.json", work / "client.log")
        result = json.loads((work / "client.json").read_text())

        attempted = failed = 0
        correct = "trace" not in result["errors"]
        problems = [result["errors"]["trace"]] if not correct else []
        per_model = []
        for spec, m in zip(specs, models):
            calls = result["calls"][m["name"]]
            attempted += len(calls)
            bad = [c for _, c in calls if c != 0]
            failed += len(bad)
            per_model.append(statistics.median(s for s, _ in calls))
            if bad:
                problems.append(f"{m['name']}: exit {bad[0]} "
                                f"{result['errors'].get(m['name'], '')}".strip())
                continue
            if len(result["digests"][m["name"]]) != 1:
                correct = False
                problems.append(f"{m['name']}: output differs between passes")
                continue
            try:
                check_output(args.workload, spec, answers[m["name"]], Path(m["out"]))
            except (RefError, KeyError, ValueError) as exc:
                correct = False
                problems.append(f"{m['name']}: {exc!r}")
        for line in problems:
            print(f"run.py: {line}", file=sys.stderr)

        if args.trace:
            from tracer import METRICS
            metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                       for name, (unit, _) in METRICS.items()}
        else:
            values = {
                "model_s_p50": statistics.median(per_model),
                "models_per_s": len(per_model) / sum(per_model),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
