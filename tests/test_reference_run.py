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

and says which numbers moved, and by how much.
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
RTOL, ATOL = 1e-9, 1e-12


def reference_numbers(out: Path) -> dict:
    """Run the reference config into ``out`` on one lane; its pinned numbers by name."""
    cfg = config_from_dict({**REFERENCE_CONFIG, "out_dir": str(out)})
    with pytest.MonkeyPatch.context() as mp:
        _one_lane(mp)
        summary = run_pipeline(cfg)
    [test] = generate_dataset(cfg.task, splits=("test",))
    numbers = {"teacher final_balance": summary["teacher"]["final_balance"]}
    for path in sorted(out.glob("*.ckpt")):
        numbers[f"{path.name} logits"] = forward_batch(load_checkpoint(path)[0], test.tokens)[0].tolist()
    for path in sorted(out.glob("*.log.csv")):
        *_, last = csv.DictReader(path.read_text().splitlines())
        numbers.update((f"{path.name} last row {key}", float(value)) for key, value in last.items())
    for path in sorted(out.glob("*.report.json")):
        report = json.loads(path.read_text())
        for key in ("ranks_w1", "ranks_w2", "residual_w1", "residual_w2"):
            numbers[f"{path.name} {key}"] = report[key]
    return numbers


def test_the_tiny_run_reproduces_its_reference_numbers(tmp_path):
    want = json.loads(REFERENCE.read_text())
    got = reference_numbers(tmp_path)
    assert sorted(got) == sorted(want)
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=RTOL, atol=ATOL, err_msg=name)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        numbers = reference_numbers(Path(tmp))
    REFERENCE.parent.mkdir(exist_ok=True)
    # one name per line, so a diff of the file names what moved
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in numbers.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(numbers)} pinned values to {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
