"""Smoke check of the benchmark itself, kept out of the test suite.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at tiny sizes (``--smoke``), untraced
and traced, and checks that each run passes its own output checks and prints
exactly the metric names and units BENCHMARK.json declares, end-to-end ones
non-zero. Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks: correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"declared but not printed: {name}")
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"printed but not declared: {name}")
    for name in sorted(set(declared) & set(printed)):
        if printed[name] != declared[name]:
            problems.append(f"{name}: unit {printed[name]!r}, declared {declared[name]!r}")
        if not trace and result["metrics"][name]["value"] == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, declared[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
