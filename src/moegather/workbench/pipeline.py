"""End-to-end experiment pipeline.

``run_pipeline`` runs its stages as plain statements, each inside a
``with _stage(name):`` block: data, teach (the MoE teacher), dense-scratch
(a dense baseline), reference-inits, gather (a student per requested
method), distill (every student) and evaluate (the summary).
The distill stage keeps one teacher-logit memo per run, so the frozen
teacher is forwarded once per training row that any student visits, not
once per student step.

The two reference initializations isolate what gathering contributes:

* ``random_init_kd``   - fully random student, distilled (init carries nothing)
* ``matched_copy_kd``  - matched layers copied from the teacher, feed-forward
                         stage left random, then distilled: a random dense
                         model's tensors overlaid with ``matched_tensors``

Every artifact lands in the config's output directory. A failing stage raises
``PipelineError`` with its name; what earlier stages wrote stays on disk.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import jsonschema

from ..gather import GatherConfig, build_student, matched_tensors
from ..metrics import NoiseScanRow, UndefinedMetricError, flops_per_token, moe_benefits
from ..model import Architecture, ClassifierModel, build_classifier, count_parameters, model_from_tensors
from ..numerics import Rng
from ..training import DistillConfig, TeacherLogits, TrainConfig, TrainResult, distill_student, train_classifier
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


def train_stage(arch: Architecture, tc: TrainConfig, data, meta: dict, path) -> TrainResult:
    """Teach (or dense-scratch) stage: train a freshly initialised model, save
    its checkpoint at ``path`` with ``meta`` plus the training settings, and
    its log next to it as ``<stem>.log.csv``."""
    model = build_classifier(arch, Rng(tc.seed).derive("init"))
    result = train_classifier(model, tc, data)
    save_checkpoint(result.model, {**meta, "training": vars(tc).copy()}, path)
    _write_csv("training_log", result.log, Path(path).with_suffix(".log.csv"))
    return result


def gather_stage(teacher: ClassifierModel, gcfg: GatherConfig, meta: dict, path) -> tuple[ClassifierModel, Path]:
    """Gather stage: build a dense student, save it at ``path`` with ``meta``
    plus the gather settings and report, and return it with the path of the
    report's JSON: ``path`` less ``.ckpt``, then ``.init``, plus ``.report.json``."""
    report_path = Path(str(path).removesuffix(".ckpt").removesuffix(".init") + ".report.json")
    student, report = build_student(teacher, gcfg)
    save_checkpoint(student, {**meta, "gather": {**gcfg.to_dict(), "report": report.to_dict()}}, path)
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return student, report_path


def distill_stage(student: ClassifierModel, teacher: ClassifierModel, dcfg: DistillConfig,
                  data, meta: dict, path, memo: TeacherLogits | None = None) -> TrainResult:
    """Distill stage: refine the student, reading the teacher's logits from
    ``memo`` (a fresh one when None), save its checkpoint at ``path`` with
    ``meta`` plus the distillation settings, and its log as ``<stem>.log.csv``."""
    result = distill_student(student, teacher, dcfg, data, memo)
    save_checkpoint(result.model, {**meta, "training": vars(dcfg).copy()}, path)
    _write_csv("training_log", result.log, Path(path).with_suffix(".log.csv"))
    return result


def run_pipeline(cfg: ExperimentConfig) -> dict:
    """Execute the full experiment; returns the summary dict and writes
    checkpoints, logs, gather reports, summary.json and summary.csv."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")

    with _stage("data"):
        data = generate_dataset(cfg.task)

    with _stage("teach"):
        teacher_result = train_stage(cfg.arch, cfg.teach, data, cfg.checkpoint_meta("teacher"), out / "teacher.ckpt")
    teacher = teacher_result.model
    teacher_hash = file_sha256(out / "teacher.ckpt")

    # the dense baseline gets a training budget comparable to teach + distill
    dense_arch = cfg.arch.dense_twin()
    dense_tc = replace(cfg.teach, steps=cfg.teach.steps + cfg.distill.steps,
                       seed=derive_seed(cfg.seed, "dense-scratch"))
    with _stage("dense-scratch"):
        meta = cfg.checkpoint_meta("dense_scratch")
        dense_result = train_stage(dense_arch, dense_tc, data, meta, out / "dense_scratch.ckpt")

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
        memo = TeacherLogits(teacher, data[0], cfg.distill.batch_size)
        for name, (student, init, _) in students.items():
            meta = {**cfg.checkpoint_meta(name), "initialized_from": init.name}
            results[name] = distill_stage(student, teacher, cfg.distill_config(name), data, meta,
                                          out / f"{name}.ckpt", memo)

    with _stage("evaluate"):
        teacher_acc = teacher_result.final_heldout_acc
        dense_acc = dense_result.final_heldout_acc
        rows = [("dense_scratch", dense_result, 0.0, None, None)]
        for name, (_, init, report) in students.items():
            result = results[name]
            try:
                benefits = moe_benefits(result.final_heldout_acc, dense_acc, teacher_acc)
            except UndefinedMetricError:
                benefits = None
            rows.append((name, result, benefits, init.name, report.name if report else None))
        variants = [
            {
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
            for name, result, benefits, init, report in rows
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
