"""The tiny run's numbers, pinned with a tolerance.

Every other identity check compares one run with another run of the same
code, so a change that moves every result the same way passes them all.
This test compares ``TINY_CONFIG``'s pipeline, with all four gather methods
on one lane, with the numbers in ``tests/data/reference_run.json``:

* the tiny test split's logits of every checkpoint the run writes;
* each training log's last row;
* each gather report's ranks and residuals;
* the teacher's final balance.

It leaves out the summary's accuracies. The tolerance, rtol 1e-9 and atol
1e-12, admits the last-bit differences between BLAS kernels: a file's bytes
hold for one kernel only, while these numbers hold on any. A change that
moves results on purpose rewrites the file with

    PYTHONPATH=src python tests/test_reference_run.py

which keeps each pinned value that the new run matches within the tolerance,
so that a diff of the file shows only what moved. It rewrites the rest and
prints each rewritten name with its largest relative move, for the change to
report.

The same reader checks the seed-0 default run, which takes tens of seconds
and so runs as a CI step outside the tests. ``tests/data/default_run.json``
pins the same numbers of that run without its logits, at the same
tolerance, and adds the summary's accuracies. An accuracy, there and in the
logs' ``heldout_acc``, may move by ``ACCURACY_ROWS`` test rows. After

    mkdir run && cd run && echo '{"seed": 0}' > config.json
    moegather pipeline --config config.json

from the checkout's root

    PYTHONPATH=src python tests/test_reference_run.py --check-default run/runs/out

compares the run with the file, and ``--rewrite-default`` in place of
``--check-default`` rewrites the file from it, as above.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import moegather  # noqa: F401  # before numpy, so a run as a script gets one BLAS thread too
import numpy as np
import pytest
from test_cli import TINY_CONFIG, _one_lane

from moegather.gather import GATHER_METHODS
from moegather.model import forward_batch
from moegather.workbench.checkpoint import load_checkpoint
from moegather.workbench.config import config_from_dict
from moegather.workbench.data import generate_dataset
from moegather.workbench.pipeline import run_pipeline

REFERENCE = Path(__file__).parent / "data" / "reference_run.json"
REFERENCE_CONFIG = {**TINY_CONFIG, "gather": {"methods": list(GATHER_METHODS)}}
DEFAULT_RUN = Path(__file__).parent / "data" / "default_run.json"
RTOL, ATOL = 1e-9, 1e-12
ACCURACY_ROWS = 2  # how far, in test rows, an accuracy of the default run may move


def run_numbers(out: Path, test_tokens: np.ndarray | None = None) -> dict:
    """A finished run's pinned numbers by name, read from its files in ``out``;
    the checkpoints' logits only when the test split's tokens are given."""
    summary = json.loads((out / "summary.json").read_text())
    numbers = {"teacher final_balance": summary["teacher"]["final_balance"]}
    if test_tokens is not None:
        for path in sorted(out.glob("*.ckpt")):
            numbers[f"{path.name} logits"] = forward_batch(load_checkpoint(path)[0], test_tokens)[0].tolist()
    for path in sorted(out.glob("*.log.csv")):
        *_, last = csv.DictReader(path.read_text().splitlines())
        numbers.update((f"{path.name} last row {key}", float(value)) for key, value in last.items())
    for path in sorted(out.glob("*.report.json")):
        report = json.loads(path.read_text())
        for key in ("ranks_w1", "ranks_w2", "residual_w1", "residual_w2"):
            numbers[f"{path.name} {key}"] = report[key]
    return numbers


def reference_numbers(out: Path) -> dict:
    """Run the reference config into ``out`` on one lane; its pinned numbers by name."""
    cfg = config_from_dict({**REFERENCE_CONFIG, "out_dir": str(out)})
    with pytest.MonkeyPatch.context() as mp:
        _one_lane(mp)
        run_pipeline(cfg)
    [test] = generate_dataset(cfg.task, splits=("test",))
    return run_numbers(out, test.tokens)


def default_numbers(out: Path) -> tuple[dict, dict]:
    """The default run's pinned numbers by name, read from ``out``, and each
    one's ``(rtol, atol)``: ``ACCURACY_ROWS`` test rows for an accuracy."""
    summary = json.loads((out / "summary.json").read_text())
    numbers = {"teacher accuracy": summary["teacher"]["accuracy"]}
    numbers.update((f"{v['variant']} accuracy", v["accuracy"]) for v in summary["variants"])
    numbers.update(run_numbers(out))
    rows = (0.0, ACCURACY_ROWS / summary["config"]["task"]["test_size"])
    return numbers, {name: rows if name.endswith(("accuracy", "heldout_acc")) else (RTOL, ATOL) for name in numbers}


def check(pinned: Path, numbers: dict, tolerances: dict) -> None:
    """Assert that ``numbers`` match the file's within their ``(rtol, atol)``."""
    want = json.loads(pinned.read_text())
    assert sorted(numbers) == sorted(want)
    for name, value in want.items():
        np.testing.assert_allclose(numbers[name], value, *tolerances[name], err_msg=name)


def test_the_tiny_run_reproduces_its_reference_numbers(tmp_path):
    got = reference_numbers(tmp_path)
    check(REFERENCE, got, dict.fromkeys(got, (RTOL, ATOL)))


def rewrite(pinned: Path, numbers: dict, tolerances: dict) -> None:
    """Write ``numbers`` to the file, keeping each pinned value that they match
    within its ``(rtol, atol)``, and print each name that is new or moved."""
    old = json.loads(pinned.read_text()) if pinned.exists() else {}
    for name in old.keys() - numbers.keys():
        print(f"dropped {name}", file=sys.stderr)
    for name, value in numbers.items():
        if name not in old or np.shape(old[name]) != np.shape(value):
            print(f"new {name}", file=sys.stderr)
        elif np.allclose(value, old[name], *tolerances[name]):  # the check's own criterion
            numbers[name] = old[name]
        else:
            move = np.abs(np.subtract(value, old[name])) / np.maximum(np.abs(old[name]), np.finfo(float).tiny)
            print(f"moved {name}: up to {move.max():.2g} relative", file=sys.stderr)
    pinned.parent.mkdir(exist_ok=True)
    # one name per line, so a diff of the file names what moved
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in numbers.items()]
    pinned.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(numbers)} pinned values to {pinned}", file=sys.stderr)


def main(argv: list[str]) -> int:
    if not argv:
        with tempfile.TemporaryDirectory() as tmp:
            numbers = reference_numbers(Path(tmp))
        rewrite(REFERENCE, numbers, dict.fromkeys(numbers, (RTOL, ATOL)))
        return 0
    if len(argv) != 2 or argv[0] not in ("--check-default", "--rewrite-default"):
        print(__doc__, file=sys.stderr)
        return 2
    numbers, tolerances = default_numbers(Path(argv[1]))
    if argv[0] == "--rewrite-default":
        rewrite(DEFAULT_RUN, numbers, tolerances)
        return 0
    check(DEFAULT_RUN, numbers, tolerances)
    print(f"the run in {argv[1]} matches the {len(numbers)} values of {DEFAULT_RUN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
