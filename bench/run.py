"""Benchmark entry point.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 0            # every workload in one process
    python3 bench/run.py --workload gather --smoke --seconds 1

Runs one workload (or all of them) on inputs built from ``--seed``, checks
every output, and prints ``#``-prefixed report lines followed by one JSON
object on the last line: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run. Exit status is 0 when every check passed,
1 when one failed or the package sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pinned before numpy loads: one BLAS thread keeps timings steady on a small
# shared machine, and the config seed must come from --seed alone.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ONES_SEED", None)

from harness import pin_allocator  # noqa: E402

MALLOC = pin_allocator()

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "moegather" / "__init__.py").is_file():
    sys.exit(f"error: package sources not found under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

from harness import FULL, SMOKE, environment  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402

TMP = ROOT / ".bench_tmp"


def run_workload(workload: str, args) -> tuple[Bench, dict]:
    tmp = TMP / f"{workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, args.seconds, SMOKE if args.smoke else FULL, tmp, traced=bool(args.trace))
        bench.run()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0, help="time budget of the focus units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the harness itself")
    args = parser.parse_args(argv)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.workload, args.seed, args.smoke)
    env["malloc"] = MALLOC
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        bench, figures = run_workload(workload, args)
        info = bench.info()
        failures = bench.checker.failures
        attempted += bench.checker.attempted
        failed += len(failures)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, (value, unit) in figures.items():
            print(f"# {workload} {name} {value:.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        print(f"# {workload} info " + json.dumps(info, sort_keys=True))
        print(f"# {workload} checks {bench.checker.attempted} attempted, {len(failures)} failed", flush=True)
        for message in failures[:20]:
            print(f"check failed: {workload}: {message}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
