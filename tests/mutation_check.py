"""Mutation check: tier-1 must catch each listed one-line mutant of the package.

Run from anywhere: ``python tests/mutation_check.py``. It takes a few minutes.

Each entry names a file under ``src/moegather``, an exact old text, the text
that replaces it, and either the test files that must catch the mutant or, for
a mutant expected to live, the reason it survives. Every mutant is applied to
a fresh temporary copy of the checkout, never in place, and its test files run
there with ``pytest -x``. The check fails when a mutant expected to be caught
passes its tests, when a surviving mutant is caught, or when an old text no
longer occurs exactly once. An unmutated copy must pass every named test file
first, so that a failure is the mutant's. A change that adds a rule adds the
mutant that breaks it. Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to src/moegather
    old: str
    new: str
    tests: tuple[str, ...] = ("tests",)  # relative to the checkout
    survives: str = ""  # why tier-1 is expected to pass; empty for a mutant it must catch


MUTANTS = [
    Mutant("metrics.py", "signal[lo:hi] += expert.b1", "signal[lo:hi] += b1_avg", ("tests/test_metrics.py",)),
    Mutant("metrics.py", "if mean_signal > 0 else 0.0", 'if mean_signal > 0 else float("nan")', ("tests/test_metrics.py",)),
    Mutant("metrics.py", "flops_per_token(layer.experts[0]) + router_cost", "flops_per_token(layer.experts[0])",
           ("tests/test_metrics.py",)),
    Mutant("numerics.py", 'side="left")) + 1', 'side="right")) + 1', ("tests/test_numerics.py",)),
    Mutant("numerics.py", "_SVD_MEMO_ENTRIES = 16", "_SVD_MEMO_ENTRIES = 8", ("tests/test_numerics.py",)),
    Mutant("numerics.py", "_SVD_MEMO_BYTES = 2 * 2**20", "_SVD_MEMO_BYTES = 1 * 2**20", ("tests/test_numerics.py",)),
    Mutant("numerics.py", "s[0] * max(m, n) * np.finfo", "s[0] * 1 * np.finfo", ("tests/test_numerics.py",)),
    Mutant("numerics.py", 'np.argsort(-s, axis=-1, kind="stable")', "np.argsort(-s, axis=-1)", ("tests/test_numerics.py",)),
    Mutant("gather.py", "/ denom) if denom else 0.0", "/ denom) if denom else 1.0", ("tests/test_gather.py",)),
    Mutant("gather.py", "base + (i < rem) for i", "base + (i >= len(experts) - rem) for i", ("tests/test_gather.py",)),
    Mutant("training.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7", ("tests/test_training.py",)),
    Mutant("workbench/data.py", "_PROBE_RIDGE = 1e-3", "_PROBE_RIDGE = 1e-2", ("tests/test_data.py",)),
    Mutant("workbench/data.py", "for _ in range(29):", "for _ in range(20):", ("tests/test_data.py",)),
    Mutant("workbench/worker.py", "os._exit(0)", "os._exit(3)", ("tests/test_cli.py",)),
    Mutant("workbench/pipeline.py", "steps=cfg.teach.steps + cfg.distill.steps", "steps=cfg.teach.steps",
           ("tests/test_cli.py",)),
    Mutant("workbench/pipeline.py", "_WORKER_EXIT_S = 10.0", "_WORKER_EXIT_S = 0.5",
           survives="an idle worker exits in milliseconds, so only a slow machine waits for this timeout"),
    Mutant("workbench/cli.py", '"--tokens", type=int, default=256', '"--tokens", type=int, default=128',
           ("tests/test_cli.py",)),
    Mutant("workbench/checkpoint.py", "if not np.isfinite(flat).all():", "if False:", ("tests/test_checkpoint.py",)),
    Mutant("workbench/checkpoint.py", "if size > payload_len:", "if size > payload_len + 8:",
           ("tests/test_checkpoint.py",)),
    Mutant("workbench/checkpoint.py", "if payload_len > size:", "if False:", ("tests/test_checkpoint.py",)),
    Mutant("workbench/checkpoint.py", "FORMAT_VERSION = 2", "FORMAT_VERSION = 1", ("tests/test_checkpoint.py",)),
]


def failure(checkout: Path, tests) -> str:
    """The end of pytest's report if ``tests`` fail in ``checkout``, which
    imports its own ``src``, or outlast the timeout; empty if they pass."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "" if run.returncode == 0 else "\n".join((run.stdout + run.stderr).splitlines()[-15:])


def copy_checkout(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "bench"):  # tests/test_bench_sites.py reads bench/
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        base = copy_checkout(Path(tmp) / "base")
        found = subprocess.run([sys.executable, "-c", "import moegather; print(moegather.__file__)"], cwd=base,
                               env={**os.environ, "PYTHONPATH": str(base / "src")}, capture_output=True, text=True)
        if not found.stdout.startswith(str(base)):
            print(f"the copy imports moegather from elsewhere: {found.stdout}{found.stderr}", file=sys.stderr)
            return 1
        report = failure(base, sorted({t for m in MUTANTS for t in m.tests}))
        if report:
            print(f"the unmutated copy fails the named tests:\n{report}", file=sys.stderr)
            return 1
        for i, m in enumerate(MUTANTS):
            checkout = copy_checkout(Path(tmp) / f"mutant{i}")
            target = checkout / "src" / "moegather" / m.file
            text = target.read_text()
            if text.count(m.old) != 1:
                faults.append(f"{m.file}: {m.old!r} occurs {text.count(m.old)} times, not once")
                continue
            target.write_text(text.replace(m.old, m.new))
            caught = bool(failure(checkout, m.tests))
            verdict = "caught" if caught else "survives"
            print(f"{verdict:8}  {m.file}: {m.old!r} -> {m.new!r}", flush=True)
            if caught == bool(m.survives):
                why = f"but is listed to survive: {m.survives}" if m.survives else f"past {', '.join(m.tests)}"
                faults.append(f"{m.file}: {m.old!r} -> {m.new!r} {verdict} {why}")
            shutil.rmtree(checkout)
    for fault in faults:
        print(f"FAIL: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
