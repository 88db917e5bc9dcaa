"""End-to-end experiment pipeline.

Stages: generate data, train the MoE teacher, train a dense-from-scratch
baseline, gather a student per requested method, distill every student (plus
two reference initializations), evaluate everything, and emit a summary.

The two reference initializations isolate what gathering contributes:

* ``random_init_kd``   - fully random student, distilled (init carries nothing)
* ``matched_copy_kd``  - matched layers copied from the teacher, feed-forward
                         stage left random, then distilled

Every artifact lands in the config's output directory; a stage failure
aborts with the stage name but keeps whatever was already written.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, replace
from importlib import resources
from pathlib import Path

import jsonschema

from ..gather import GatherConfig, GatherReport, build_student, copy_matched
from ..metrics import NoiseScanRow, UndefinedMetricError, flops_per_token, moe_benefits
from ..model import Architecture, ClassifierModel, build_classifier, count_parameters
from ..numerics import Rng
from ..training import DistillConfig, TrainConfig, TrainResult, distill_student, train_classifier
from .checkpoint import file_sha256, save_checkpoint
from .config import ExperimentConfig, derive_seed
from .data import generate_dataset


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _load_schema(name: str) -> dict:
    with resources.files("moegather.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _csv_columns(kind: str) -> list[str]:
    """Header of a CSV artifact ("training_log", "noise_scan" or "summary")."""
    return _load_schema("csv_columns.json")[kind]


def write_training_log(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_csv_columns("training_log"))
        writer.writeheader()
        writer.writerows(rows)


def write_noise_scan_csv(rows: list[NoiseScanRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_columns("noise_scan"))
        writer.writerows(astuple(row) for row in rows)


def validate_summary(summary: dict) -> None:
    jsonschema.validate(summary, _load_schema("summary.schema.json"))


def _run_stage(name: str, fn, *args):
    try:
        return fn(*args)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def train_stage(arch: Architecture, tc: TrainConfig, data, meta: dict, path) -> TrainResult:
    """Teach (or dense-scratch) stage: train a freshly initialised model, save
    its checkpoint at ``path`` with ``meta`` plus the training settings, and
    its log next to it as ``<stem>.log.csv``."""
    model = build_classifier(arch, Rng(tc.seed).derive("init"))
    result = train_classifier(model, tc, data)
    save_checkpoint(result.model, {**meta, "training": vars(tc).copy()}, path)
    write_training_log(result.log, Path(path).with_suffix(".log.csv"))
    return result


def gather_stage(teacher: ClassifierModel, gcfg: GatherConfig, meta: dict, path,
                 report_path) -> tuple[ClassifierModel, GatherReport]:
    """Gather stage: build a dense student, save it at ``path`` with ``meta``
    plus the gather settings and report, and write the report as JSON."""
    student, report = build_student(teacher, gcfg)
    save_checkpoint(student, {**meta, "gather": {**gcfg.to_dict(), "report": report.to_dict()}}, path)
    Path(report_path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return student, report


def distill_stage(student: ClassifierModel, teacher: ClassifierModel, dcfg: DistillConfig,
                  data, meta: dict, path) -> TrainResult:
    """Distill stage: refine the student, save its checkpoint at ``path`` with
    ``meta`` plus the distillation settings, and its log as ``<stem>.log.csv``."""
    result = distill_student(student, teacher, dcfg, data)
    save_checkpoint(result.model, {**meta, "training": vars(dcfg).copy()}, path)
    write_training_log(result.log, Path(path).with_suffix(".log.csv"))
    return result


def run_pipeline(cfg: ExperimentConfig) -> dict:
    """Execute the full experiment; returns the summary dict and writes
    checkpoints, logs, gather reports, summary.json and summary.csv."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")

    data = _run_stage("data", generate_dataset, cfg.task)
    task = cfg.task.to_dict()

    meta = {"task": task, "seed": cfg.seed, "role": "teacher"}
    teacher_result = _run_stage("teach", train_stage, cfg.arch, cfg.teach, data, meta, out / "teacher.ckpt")
    teacher = teacher_result.model
    teacher_hash = file_sha256(out / "teacher.ckpt")

    # the dense baseline gets a training budget comparable to teach + distill
    dense_tc = replace(
        cfg.teach, steps=cfg.teach.steps + cfg.distill.steps, seed=derive_seed(cfg.seed, "dense-scratch")
    )
    meta = {"task": task, "seed": cfg.seed, "role": "dense_scratch"}
    dense_result = _run_stage(
        "dense-scratch", train_stage, cfg.arch.dense_twin(), dense_tc, data, meta, out / "dense_scratch.ckpt"
    )

    students: dict[str, dict] = {}

    def make_reference_inits():
        dense_arch = cfg.arch.dense_twin()
        random_student = build_classifier(dense_arch, Rng(derive_seed(cfg.seed, "random-init")))
        copy_student = build_classifier(dense_arch, Rng(derive_seed(cfg.seed, "copy-init")))
        copy_matched(teacher, copy_student)
        for name, student in (("random_init_kd", random_student), ("matched_copy_kd", copy_student)):
            init_path = out / f"{name}.init.ckpt"
            save_checkpoint(student, {"task": task, "seed": cfg.seed, "role": name}, init_path)
            students[name] = {"model": student, "init": init_path, "report": None}

    _run_stage("reference-inits", make_reference_inits)

    def gather_all():
        for method in cfg.gather_methods:
            name = f"gather_{method}"
            init_path = out / f"{name}.init.ckpt"
            report_path = out / f"{name}.report.json"
            meta = {"task": task, "seed": cfg.seed, "role": name}
            student, _ = gather_stage(teacher, cfg.gather_config(method), meta, init_path, report_path)
            students[name] = {"model": student, "init": init_path, "report": report_path}

    _run_stage("gather", gather_all)

    def distill_all():
        for name, entry in students.items():
            dcfg = replace(cfg.distill, seed=derive_seed(cfg.seed, f"distill-{name}"))
            meta = {"task": task, "seed": cfg.seed, "role": name, "initialized_from": entry["init"].name}
            entry["result"] = distill_stage(entry["model"], teacher, dcfg, data, meta, out / f"{name}.ckpt")

    _run_stage("distill", distill_all)

    def evaluate():
        teacher_acc = teacher_result.final_heldout_acc
        dense_acc = dense_result.final_heldout_acc

        def variant(name: str, result: TrainResult, benefits, init=None, report=None) -> dict:
            return {
                "variant": name,
                "seed": cfg.seed,
                "accuracy": result.final_heldout_acc,
                "benefits": benefits,
                "checkpoint": f"{name}.ckpt",
                "init_checkpoint": init,
                "gather_report": report,
                "flops_per_token": flops_per_token(result.model.blocks[0].stage),
                "parameters": count_parameters(result.model),
            }

        variants = [variant("dense_scratch", dense_result, 0.0)]
        for name, entry in students.items():
            result: TrainResult = entry["result"]
            try:
                benefits = moe_benefits(result.final_heldout_acc, dense_acc, teacher_acc)
            except UndefinedMetricError:
                benefits = None
            report = entry["report"].name if entry["report"] else None
            variants.append(variant(name, result, benefits, entry["init"].name, report))
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
        columns = _csv_columns("summary")
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in variants)
        return summary

    return _run_stage("evaluate", evaluate)
