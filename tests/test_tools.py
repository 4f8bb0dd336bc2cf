"""tools/parity.py --compare, run as a command on digest files."""
import json
import os
import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def record(exit_code=0, digest="same", status="optimal", objective=4.0, iterations=5):
    return {"exit": exit_code, "digest": digest,
            "outcome": {"methods": {"reformulate": {"status": status, "objective": objective,
                                                    "iterations": iterations}},
                        "verdict": "pass", "max_violation": 0.0, "oracle_gap": None}}


def compare(tmp_path, a, b):
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(records))
    return subprocess.run([sys.executable, str(PARITY), "--compare", *map(str, paths)],
                          capture_output=True, encoding="utf-8", timeout=60,
                          env={**os.environ, "PYTHONIOENCODING": "utf-8"})


def test_identical_digests(tmp_path):
    runs = {f"run{i}": record() for i in range(3)}
    done = compare(tmp_path, runs, runs)
    assert (done.returncode, done.stdout) == (0, "0 of 3 runs differ\n")


def test_moved_runs_are_named(tmp_path):
    a = {"exit": record(), "objective": record(), "same": record(), "status": record()}
    b = {"exit": record(1, "d1"), "objective": record(digest="d2", objective=4.0000000004,
                                                        iterations=6),
         "same": record(), "status": record(digest="d3", status="infeasible")}
    done = compare(tmp_path, a, b)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "exit: exit 0 -> 1",
        "objective: objective within 1.0e-10, iterations reformulate 5→6",
        "status: reformulate status optimal -> infeasible",
        "3 of 4 runs differ",
    ]
