"""End-to-end experiment pipeline.

``run_pipeline`` runs its stages as plain statements, each inside a
``with _stage(name):`` block: data, teach (the MoE teacher), dense-scratch
(a dense baseline), reference-inits, gather (a student per requested
method), distill (every student) and evaluate (the summary).

The stages run on one lane per CPU the process may use
(``os.sched_getaffinity``), at most two, each on one BLAS thread: importing
``moegather`` pins it, since a thread per CPU in each lane made a run several
times slower. A caller that imported numpy before ``moegather`` keeps its own
thread count in the main lane; the worker imports ``moegather`` first. The
main lane is the calling process. The second lane is one worker process,
``python -m moegather.workbench.worker``, that it starts and talks to over
the worker's stdin and stdout:

* while the main lane makes the dataset and trains the teacher, the worker
  makes its own copy of the dataset from ``cfg.task`` and trains
  dense-scratch;
* after gather, the main lane distills the first half of the students and
  the worker the second half; its task carries the teacher and those
  students' initial models.

Each lane forwards the teacher once, over the union of its students'
batch schedules; a row's teacher logits have the same bits whichever rows
share its batch, so the split changes no result. The worker writes no file:
it returns each ``TrainResult``, and the main process writes every file in
stage order. With one CPU the same stage functions run inline, in that
order, and every file has the same bytes either way.

A failing stage raises ``PipelineError`` with its name, on either lane; a
worker that dies fails the stage that waits for it. The output directory
then holds what the one-lane run holds when that stage fails: the files of
the earlier stages and, in distill, those of the students before the first
one without a result (a dead worker returns none of its half). The worker
has exited when ``run_pipeline`` returns or raises: it is killed at once on
a failure, and otherwise given ``_WORKER_EXIT_S`` to exit after its stdin
closes. It holds its own dataset, the teacher and its students, about as
much memory as the main process.

The two reference initializations isolate what gathering contributes:

* ``random_init_kd``   - fully random student, distilled (init carries nothing)
* ``matched_copy_kd``  - matched layers copied from the teacher, feed-forward
                         stage left random, then distilled: a random dense
                         model's tensors overlaid with ``matched_tensors``
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, replace
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

import jsonschema
import numpy as np

from ..gather import GatherConfig, build_student, matched_tensors
from ..metrics import NoiseScanRow, UndefinedMetricError, flops_per_token, moe_benefits
from ..model import Architecture, ClassifierModel, build_classifier, count_parameters, model_from_tensors
from ..numerics import Rng
from ..training import TrainConfig, TrainResult, batch_schedule, distill_student, forward_teacher, train_classifier
from .checkpoint import file_sha256, save_checkpoint
from .config import ExperimentConfig, derive_seed
from .data import generate_dataset


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):  # the default would pass only the message to __init__
        return type(self), (self.stage, self.cause)


def _load_schema(name: str) -> dict:
    with resources.files("moegather.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _csv_columns(kind: str) -> list[str]:
    """Header of a CSV artifact ("training_log", "noise_scan" or "summary")."""
    return _load_schema("csv_columns.json")[kind]


def _write_csv(kind: str, rows: list[dict], path) -> None:
    """Write dict rows under the header of a CSV artifact; keys outside the
    header are left out."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_csv_columns(kind), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_noise_scan_csv(rows: list[NoiseScanRow], path) -> None:
    # the header names two columns apart from the row's fields: lambda and ratio
    rows = [{**asdict(r), "lambda": r.svd_ratio, "ratio": r.noise_signal_ratio} for r in rows]
    _write_csv("noise_scan", rows, path)


def validate_summary(summary: dict) -> None:
    jsonschema.validate(summary, _load_schema("summary.schema.json"))


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a PipelineError naming the stage."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def train_stage(arch: Architecture, tc: TrainConfig, data) -> TrainResult:
    """Compute half of teach and dense-scratch: train a freshly initialised model."""
    return train_classifier(build_classifier(arch, Rng(tc.seed).derive("init")), tc, data)


def distill_stage(cfg: ExperimentConfig, teacher: ClassifierModel, students: dict[str, ClassifierModel], data):
    """Compute half of the distill stage: forward the teacher once over the
    union of the batch schedules of ``students`` (name -> initial model),
    then yield the result of refining each, in order, on the settings
    ``cfg.distill_config(name)``."""
    rows = np.concatenate([batch_schedule(cfg.distill_config(name), len(data[0].labels)) for name in students])
    logits = forward_teacher(teacher, data[0].tokens, rows, cfg.distill.batch_size)
    for name, student in students.items():
        yield distill_student(student, teacher, cfg.distill_config(name), data, logits)


def save_trained(result: TrainResult, tc: TrainConfig, meta: dict, path) -> None:
    """Write half of teach, dense-scratch and distill: save the trained
    model's checkpoint at ``path`` with ``meta`` plus the training settings,
    and its log next to it as ``<stem>.log.csv``."""
    save_checkpoint(result.model, {**meta, "training": vars(tc).copy()}, path)
    _write_csv("training_log", result.log, Path(path).with_suffix(".log.csv"))


def gather_stage(teacher: ClassifierModel, gcfg: GatherConfig, meta: dict, path) -> tuple[ClassifierModel, Path]:
    """Gather stage: build a dense student, save it at ``path`` with ``meta``
    plus the gather settings and report, and return it with the path of the
    report's JSON: ``path`` less ``.ckpt``, then ``.init``, plus ``.report.json``."""
    report_path = Path(str(path).removesuffix(".ckpt").removesuffix(".init") + ".report.json")
    student, report = build_student(teacher, gcfg)
    save_checkpoint(student, {**meta, "gather": {**gcfg.to_dict(), "report": report.to_dict()}}, path)
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return student, report_path


def _dense_scratch(cfg: ExperimentConfig) -> tuple[Architecture, TrainConfig]:
    """The dense baseline's architecture and settings: the teacher's shapes
    with one dense stage, and a training budget comparable to teach + distill."""
    tc = replace(cfg.teach, steps=cfg.teach.steps + cfg.distill.steps, seed=derive_seed(cfg.seed, "dense-scratch"))
    return cfg.arch.dense_twin(), tc


# -- the second lane ---------------------------------------------------------

_WORKER_EXIT_S = 10.0  # how long an idle worker may take to exit once its stdin closes


def _lane_count() -> int:
    """Lanes for one run: the CPUs this process may run on, at most two."""
    return min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


@lru_cache(maxsize=1)
def _lane_dataset(task):
    """The worker's copy of the dataset, made once for dense-scratch and distill."""
    return generate_dataset(task)


def _dense_lane(cfg: ExperimentConfig):
    """Dense-scratch on the worker."""
    yield train_stage(*_dense_scratch(cfg), _lane_dataset(cfg.task))


def _distill_lane(cfg: ExperimentConfig, teacher: ClassifierModel, students: dict[str, ClassifierModel]):
    """The worker's half of distill (``students``: name -> initial model)."""
    yield from distill_stage(cfg, teacher, students, _lane_dataset(cfg.task))


class _Worker:
    """The second lane: a ``python -m moegather.workbench.worker`` process,
    started by the first ``submit``, that reads tasks from its stdin and
    writes replies to its stdout. The process has exited when the ``with``
    block ends."""

    def __init__(self):
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """End the process: at once when the block raised, otherwise by closing
        its stdin and killing it if it has not exited ``_WORKER_EXIT_S`` later."""
        if self.proc is None:
            return
        if exc_type is not None:
            self.proc.kill()
        with suppress(OSError):  # bytes a failed send left in the buffer cannot be flushed
            self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=_WORKER_EXIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def submit(self, fn, *args) -> None:
        """Queue ``fn(*args)`` on the worker; ``fn`` is a generator function
        of this module, such as ``_dense_lane``."""
        if self.proc is None:
            self._start()
        pickle.dump((fn, args), self.proc.stdin)
        self.proc.stdin.flush()

    def _start(self) -> None:
        # the worker imports moegather from where this process did (a caller may have put it on sys.path)
        root = str(Path(__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))}
        self.proc = subprocess.Popen([sys.executable, "-m", "moegather.workbench.worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def results(self):
        """Yield what the oldest unread task yielded, then raise the error
        that ended it, if any."""
        try:
            items, error = pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):  # the worker died before or while replying, or garbled it
            self.proc.stdin.close()  # a worker still alive reads the end of its tasks and exits
            raise RuntimeError(f"the worker process ended with exit status {self.proc.wait()}") from None
        yield from items
        if error is not None:
            raise error


def run_pipeline(cfg: ExperimentConfig) -> dict:
    """Execute the full experiment; returns the summary dict and writes
    checkpoints, logs, gather reports, summary.json and summary.csv."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    dense_arch, dense_tc = _dense_scratch(cfg)

    with _Worker() if _lane_count() > 1 else nullcontext() as worker:
        if worker:
            with _stage("dense-scratch"):  # starts on the worker here and ends below
                worker.submit(_dense_lane, cfg)

        with _stage("data"):
            data = generate_dataset(cfg.task)

        with _stage("teach"):
            teacher_result = train_stage(cfg.arch, cfg.teach, data)
            save_trained(teacher_result, cfg.teach, cfg.checkpoint_meta("teacher"), out / "teacher.ckpt")
            teacher_hash = file_sha256(out / "teacher.ckpt")
        teacher = teacher_result.model

        with _stage("dense-scratch"):
            [dense_result] = worker.results() if worker else [train_stage(dense_arch, dense_tc, data)]
            save_trained(dense_result, dense_tc, cfg.checkpoint_meta("dense_scratch"), out / "dense_scratch.ckpt")

        # student name -> (initial model, its init checkpoint, its gather report or None)
        students: dict[str, tuple[ClassifierModel, Path, Path | None]] = {}
        with _stage("reference-inits"):
            random_student = build_classifier(dense_arch, Rng(derive_seed(cfg.seed, "random-init")))
            copy_init = build_classifier(dense_arch, Rng(derive_seed(cfg.seed, "copy-init"))).tensors()
            copy_student = model_from_tensors(dense_arch, {**copy_init, **matched_tensors(teacher)})
            for name, student in (("random_init_kd", random_student), ("matched_copy_kd", copy_student)):
                init = out / f"{name}.init.ckpt"
                save_checkpoint(student, cfg.checkpoint_meta(name), init)
                students[name] = (student, init, None)

        with _stage("gather"):
            for method in cfg.gather_methods:
                name = f"gather_{method}"
                init = out / f"{name}.init.ckpt"
                student, report = gather_stage(teacher, cfg.gather_config(method), cfg.checkpoint_meta(name), init)
                students[name] = (student, init, report)

        results: dict[str, TrainResult] = {}
        with _stage("distill"):
            names = list(students)
            half = (len(names) + 1) // 2 if worker else len(names)
            mine, theirs = names[:half], names[half:]
            if theirs:
                worker.submit(_distill_lane, cfg, teacher, {name: students[name][0] for name in theirs})
            trained = zip(mine, distill_stage(cfg, teacher, {name: students[name][0] for name in mine}, data))
            if theirs:  # read once the main lane's students are written
                trained = chain(trained, zip(theirs, worker.results()))
            for name, result in trained:
                results[name] = result
                meta = {**cfg.checkpoint_meta(name), "initialized_from": students[name][1].name}
                save_trained(result, cfg.distill_config(name), meta, out / f"{name}.ckpt")

    with _stage("evaluate"):
        teacher_acc = teacher_result.final_heldout_acc
        dense_acc = dense_result.final_heldout_acc

        def benefits(result: TrainResult) -> float | None:
            """The variant's MoE benefits, or None where the ratio is undefined."""
            try:  # + 0.0 writes a zero ratio over a negative gap as 0.0, not -0.0
                return moe_benefits(result.final_heldout_acc, dense_acc, teacher_acc) + 0.0
            except UndefinedMetricError:
                return None

        rows = [("dense_scratch", dense_result, None, None)]
        for name, (_, init, report) in students.items():
            rows.append((name, results[name], init.name, report.name if report else None))
        variants = [
            {
                "variant": name,
                "seed": cfg.seed,
                "accuracy": result.final_heldout_acc,
                "benefits": benefits(result),
                "checkpoint": f"{name}.ckpt",
                "init_checkpoint": init,
                "gather_report": report,
                "flops_per_token": flops_per_token(result.model.blocks[0].stage),
                "parameters": count_parameters(result.model),
            }
            for name, result, init, report in rows
        ]
        summary = {
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "teacher": {
                "accuracy": teacher_acc,
                "final_balance": teacher_result.final_balance or 0.0,
                "checkpoint": "teacher.ckpt",
                "flops_per_token": flops_per_token(teacher.blocks[0].stage),
                "parameters": count_parameters(teacher),
            },
            "teacher_sha256": teacher_hash,
            "teacher_sha256_final": file_sha256(out / "teacher.ckpt"),
            "variants": variants,
        }
        validate_summary(summary)
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        _write_csv("summary", variants, out / "summary.csv")
    return summary
