"""The benchmark's one client: sends models to the in-process `roc` CLI.

    python3 perfbench/client.py --ready-only     import roc.cli, say "ready", exit
    python3 perfbench/client.py --plan PLAN      run the plan written by run.py

The client is closed loop: it sends the next model only when the previous
call has returned.  It runs whole passes over the plan's models until the
run length is reached, so every run sees the same mix; pass k visits them in
an order fixed by k.  In traced runs, untraced and traced passes alternate;
their difference is the tracing overhead.  This process imports nothing but `roc` and its dependencies, so
its peak RSS is the program's own.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _call(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1, f"exit {exc.code}"
    except Exception:  # noqa: BLE001 - a crash is a failed operation, recorded
        return -1, traceback.format_exc(limit=3)


def run(plan: dict) -> dict:
    import roc.cli as cli
    from roc import solver, verify

    from tracer import METRICS, Tracer

    tracer = Tracer({"cli": cli, "solver": solver, "verify": verify}) if plan["trace"] else None
    models = plan["models"]
    calls = {m["name"]: [] for m in models}  # name -> [(seconds, code)]
    digests = {m["name"]: set() for m in models}
    errors = {}
    pass_seconds = {"plain": [], "traced": []}
    layers = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        total = 0.0
        try:
            # each pass visits the models in its own fixed order, so that the
            # machine's slow stretches, which last seconds, fall on other
            # models in every pass instead of on the same block of them
            for m in random.Random(k).sample(models, len(models)):
                argv = [plan["command"], m["path"], "-o", m["out"], *plan["args"]]
                t0 = time.perf_counter()
                code, err = _call(cli, argv)
                seconds = time.perf_counter() - t0
                total += seconds
                calls[m["name"]].append((seconds, code))
                if err:
                    errors.setdefault(m["name"], err)
                try:
                    digests[m["name"]].add(hashlib.sha256(Path(m["out"]).read_bytes()).hexdigest())
                except FileNotFoundError:
                    digests[m["name"]].add("missing")
        finally:
            if traced:
                tracer.uninstall()
        pass_seconds["traced" if traced else "plain"].append(total)
        if traced:
            layers.append(tracer.pass_metrics(total))
        k += 1
        # traced runs stop after a traced pass, so both kinds are equally many
        if time.perf_counter() - start >= plan["seconds"] and (tracer is None or k % 2 == 0):
            break
    out = {
        "calls": calls,
        "digests": {name: sorted(d) for name, d in digests.items()},
        "errors": errors,
        "pass_seconds": pass_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        per_layer = {}
        for name in METRICS:
            values = [p.get(name) for p in layers]
            if name == "trace.overhead_s":
                per_layer[name] = (statistics.median(pass_seconds["traced"])
                                   - statistics.median(pass_seconds["plain"]))
            elif any(v is None for v in values):
                per_layer[name] = None
            elif METRICS[name][0] == "s":
                per_layer[name] = statistics.median(values)
            else:  # counts repeat exactly from pass to pass; keep the first, flag drift
                per_layer[name] = values[0]
                if len(set(values)) > 1:
                    errors.setdefault("trace", f"{name} differs between passes: {values}")
        out["per_layer"] = per_layer
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("--plan")
    args = ap.parse_args()
    import roc.cli  # noqa: F401 - set-up ends when the CLI is importable and imported

    print("ready", flush=True)
    if args.ready_only:
        return 0
    plan = json.loads(Path(args.plan).read_text())
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
