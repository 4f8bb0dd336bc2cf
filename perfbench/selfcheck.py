"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. One seed gives byte-identical `.roc` files, in this process and in a
   fresh interpreter with another hash seed.
2. The output check accepts what `roc` returns today, and rejects wrong
   answers: the nominal (non-robust) optimum of a signrow model, an
   objective off by 1e-3 relative, and an emitted LP whose optimum is off
   by 1e-3 relative.
3. The tracer survives a stage result without the fields it counts: the
   call returns, and the counters it feeds read as missing.

Exits 0 when every check holds.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import gen  # noqa: E402
from ref import RefError, reference  # noqa: E402
from run import WORKLOADS, check_output  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7


def family_digest(seed: int) -> str:
    h = hashlib.sha256()
    for name in sorted(gen.FAMILIES):
        for spec in gen.FAMILIES[name](seed):
            h.update(gen.roc_text(spec).encode())
    return h.hexdigest()


def _rejects(workload, spec, answer, path) -> bool:
    try:
        check_output(workload, spec, answer, path)
    except RefError:
        return True
    return False


def nominal(spec):
    """Optimum of a single-stage model with every uncertainty dropped."""
    names = [v for v, _, _ in spec["vars"]]
    c = np.array([-spec["obj"][v] for v in names])  # generated single-stage models maximize
    A = np.array([[row["coef"].get(v, 0.0) for v in names] for row in spec["rows"]])
    b = np.array([row["rhs"] for row in spec["rows"]])
    res = linprog(c, A_ub=A, b_ub=b, bounds=[(lo, hi) for _, lo, hi in spec["vars"]],
                  method="highs")
    return -res.fun, dict(zip(names, res.x.tolist()))


def tracer_survives_missing_fields() -> bool:
    """A lower_norms whose result has no rows or vars: the call still returns."""
    result = types.SimpleNamespace()
    stub = types.SimpleNamespace(lower_norms=lambda model: result)
    tracer = Tracer({"cli": stub, "solver": types.SimpleNamespace(),
                     "verify": types.SimpleNamespace()})
    tracer.install()
    try:
        returned = stub.lower_norms(None)
    finally:
        tracer.uninstall()
    layers = tracer.pass_metrics(0.0)
    return returned is result and all(layers[name] is None for name in
                                      ("lower.vars", "lower.rows", "lower.nnz",
                                       "lower.cone_rows"))


def main() -> int:
    import roc.cli

    checks = []

    def record(name, ok):
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    here = family_digest(SEED)
    record("one seed gives the same .roc bytes twice in one process", here == family_digest(SEED))
    env = dict(os.environ, PYTHONHASHSEED="12345")
    fresh = subprocess.run(
        [sys.executable, "-c", f"import selfcheck; print(selfcheck.family_digest({SEED}))"],
        cwd=HERE, env=env, capture_output=True, text=True, check=True).stdout.strip()
    record("one seed gives the same .roc bytes in a fresh interpreter", here == fresh)
    record("another seed gives other .roc bytes", here != family_digest(SEED + 1))

    work = HERE / "work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload, (command, extra) in WORKLOADS.items():
            spec = gen.FAMILIES[workload](SEED)[0]
            answer = reference(spec)
            src, out = work / f"{workload}.roc", work / f"{workload}.out"
            src.write_text(gen.roc_text(spec))
            code = roc.cli.main([command, str(src), "-o", str(out), *extra])
            record(f"{workload}: roc's answer passes the check",
                   code == 0 and not _rejects(workload, spec, answer, out))
            if command == "emit":
                text = out.read_text()
                head, rest = text.split("Subject To", 1)
                head = re.sub(r"([+-]?)(\d[\d.e+-]*) (x\d+)",
                              lambda m: f"{m.group(1)}{float(m.group(2)) * 1.001!r} {m.group(3)}",
                              head)
                out.write_text(head + "Subject To" + rest)
                record(f"{workload}: an LP optimum off by 1e-3 is rejected",
                       _rejects(workload, spec, answer, out))
                continue
            report = json.loads(out.read_text())
            report["objective"] *= 1.001
            out.write_text(json.dumps(report))
            record(f"{workload}: an objective off by 1e-3 is rejected",
                   _rejects(workload, spec, answer, out))

        spec = gen.FAMILIES["signrow"](SEED)[0]
        answer = reference(spec)
        nom_obj, nom_x = nominal(spec)
        src, out = work / "nominal.roc", work / "nominal.json"
        src.write_text(gen.roc_text(spec))
        roc.cli.main(["pipeline", str(src), "-o", str(out)])
        report = json.loads(out.read_text())
        report["objective"] = nom_obj
        out.write_text(json.dumps(report))
        record(f"signrow: the nominal optimum {nom_obj:.4f} (robust {answer['objective']:.4f}) "
               "is rejected", _rejects("signrow", spec, answer, out))
        report = json.loads(out.read_text())
        report["objective"] = answer["objective"]
        for sol in report["solutions"].values():
            sol["values"].update(nom_x)
        out.write_text(json.dumps(report))
        record("signrow: the nominal point is rejected at its worst case",
               _rejects("signrow", spec, answer, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record("the tracer reports missing counters instead of failing the call",
           tracer_survives_missing_fields())
    print(f"{sum(checks)} of {len(checks)} self-checks hold")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
