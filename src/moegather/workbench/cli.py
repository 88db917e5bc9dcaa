"""Command-line entry points.

Subcommands mirror the pipeline stages so each can run standalone:

    moegather teach      --config c.json --out t.ckpt
    moegather gather     --config c.json --teacher t.ckpt --method svdkg --out s0.ckpt
    moegather distill    --config c.json --student s0.ckpt --teacher t.ckpt --out s.ckpt
    moegather eval       --model s.ckpt --split test --out scores.json
    moegather benefits   --student 84.63 --dense 84.03 --moe 84.71
    moegather noise-scan --teacher t.ckpt --lambdas 0.1:1.0:0.1 --out scan.csv
    moegather flops      --model s.ckpt
    moegather pipeline   --config c.json

A ``--config`` file need state only what differs from the default experiment
(``workbench.config``): ``{}`` runs it. ``teach``, ``gather`` and ``distill``
each run one stage of the pipeline that ``--config`` describes and write what
``pipeline`` writes for it.
``pipeline`` runs every stage on up to two CPUs, with one worker process
beside the command's own, and writes the same bytes on one CPU. Each process
runs BLAS on one thread, which importing ``moegather`` sets, unless the caller
set a BLAS thread variable such as ``OPENBLAS_NUM_THREADS``. Every
command exits 0 on success and nonzero with an ``error: <kind>: ...``
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from ..gather import GATHER_METHODS, StructureError
from ..metrics import UndefinedMetricError, flops_per_token, moe_benefits, noise_scan
from ..model import ClassifierModel, MoELayer, count_parameters
from ..numerics import NumericalError, ShapeError
from ..training import evaluate_accuracy
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, ExperimentConfig, load_config
from .data import SyntheticTaskSpec, generate_dataset
from .pipeline import (
    PipelineError,
    distill_stage,
    gather_stage,
    run_pipeline,
    save_trained,
    train_stage,
    write_noise_scan_csv,
)

MAX_LAMBDA_GRID = 1000  # ratios one noise-scan grid may hold


def _fail(kind: str, message: str) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return 1


def _task_from_meta(meta: dict, path) -> SyntheticTaskSpec:
    if "task" not in meta:
        raise ConfigError(f"{path}: checkpoint metadata has no task description")
    try:
        return SyntheticTaskSpec(**meta["task"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad task metadata: {exc}") from exc


def _load_for(cfg: ExperimentConfig, path) -> tuple[ClassifierModel, dict]:
    """Load a checkpoint that was made for the config's task."""
    model, meta = load_checkpoint(path)
    if _task_from_meta(meta, path) != cfg.task:
        raise ConfigError(f"{path}: the checkpoint's task differs from the config's")
    return model, meta


def _cmd_teach(args) -> int:
    cfg = load_config(args.config)
    data = generate_dataset(cfg.task)
    result = train_stage(cfg.arch, cfg.teach, data)
    save_trained(result, cfg.teach, cfg.checkpoint_meta("teacher"), args.out)
    print(
        json.dumps(
            {
                "checkpoint": args.out,
                "heldout_accuracy": result.final_heldout_acc,
                "final_balance": result.final_balance,
            }
        )
    )
    return 0


def _cmd_gather(args) -> int:
    cfg = load_config(args.config)
    teacher, _ = _load_for(cfg, args.teacher)
    meta = cfg.checkpoint_meta(f"gather_{args.method}")
    _, report = gather_stage(teacher, cfg.gather_config(args.method), meta, args.out)
    print(json.dumps({"checkpoint": args.out, "report": str(report)}))
    return 0


def _cmd_distill(args) -> int:
    cfg = load_config(args.config)
    student, student_meta = _load_for(cfg, args.student)
    teacher, _ = _load_for(cfg, args.teacher)
    role = student_meta.get("role", "student")
    meta = {**cfg.checkpoint_meta(role), "initialized_from": Path(args.student).name}
    data = generate_dataset(cfg.task)
    [result] = distill_stage(cfg, teacher, {role: student}, data)
    save_trained(result, cfg.distill_config(role), meta, args.out)
    print(json.dumps({"checkpoint": args.out, "heldout_accuracy": result.final_heldout_acc}))
    return 0


def _cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.model)
    task = _task_from_meta(meta, args.model)
    [split] = generate_dataset(task, splits=(args.split,))
    acc = evaluate_accuracy(model, split.tokens, split.labels)
    scores = {"accuracy": acc, "split": args.split, "n": len(split.labels), "model": args.model}
    payload = json.dumps(scores, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    print(payload, end="")
    return 0


def _cmd_benefits(args) -> int:
    value = moe_benefits(args.student, args.dense, args.moe)
    print(json.dumps({"benefits": value, "percent": 100.0 * value}))
    return 0


def _parse_lambda_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid {text!r}; expected start:stop:step") from exc
    bounds = f"lambda grid {text!r} must satisfy 0 < start <= stop <= 1, step > 0"
    if not (0 < start <= stop <= 1 + 1e-12 and 0 < step < math.inf):  # also false for NaN
        raise ConfigError(bounds)
    span = (stop + 1e-9 - start) / step  # the grid holds floor(span) + 1 ratios
    if span >= MAX_LAMBDA_GRID:
        raise ConfigError(f"lambda grid {text!r} must satisfy (stop - start) / step < {MAX_LAMBDA_GRID}, "
                          f"so it holds at most {MAX_LAMBDA_GRID} ratios")
    grid = [round(start + k * step, 10) for k in range(math.floor(span) + 1)]
    if grid[0] == 0:  # a start below 5e-11 rounds to 0
        raise ConfigError(f"{bounds}, but start rounds to 0 at 10 decimals")
    return grid


def _cmd_noise_scan(args) -> int:
    # the arguments are checked before the teacher is loaded and its training split generated
    ratios = _parse_lambda_grid(args.lambdas)
    if args.tokens < 1:
        raise ConfigError(f"--tokens must be at least 1, got {args.tokens}")
    teacher, meta = load_checkpoint(args.teacher)
    [(_, stage)] = teacher.stages()
    if not isinstance(stage, MoELayer):
        raise StructureError("model has no MoE stage")
    task = _task_from_meta(meta, args.teacher)
    if args.tokens > task.train_size * task.seq_len:  # refused before the task is calibrated or drawn
        raise ConfigError(f"task provides only {task.train_size * task.seq_len} tokens, need {args.tokens}")
    [train] = generate_dataset(task, splits=("train",), rows=-(-args.tokens // task.seq_len))
    tokens = train.tokens.reshape(-1, task.d_model)[: args.tokens]
    rows = noise_scan(stage, ratios, tokens)
    write_noise_scan_csv(rows, args.out)
    print(json.dumps({"out": args.out, "rows": len(rows)}))
    return 0


def _cmd_flops(args) -> int:
    model, _ = load_checkpoint(args.model)
    [(name, stage)] = model.stages()
    report = {
        "per_stage": [{"stage": name, "flops_per_token": flops_per_token(stage)}],
        "parameters": count_parameters(model),
    }
    if isinstance(stage, MoELayer):
        dense_equiv = flops_per_token(stage.experts[0])
        report["dense_equivalent_flops"] = dense_equiv
        report["moe_to_dense_ratio"] = flops_per_token(stage) / dense_equiv
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    summary = run_pipeline(cfg)
    print(json.dumps({"out_dir": cfg.out_dir, "variants": len(summary["variants"])}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moegather", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teach", help="train an MoE teacher from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_teach)

    p = sub.add_parser("gather", help="collapse a teacher's experts into a dense student")
    p.add_argument("--config", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--method", required=True, choices=GATHER_METHODS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gather)

    p = sub.add_parser("distill", help="refine a student against a frozen teacher")
    p.add_argument("--config", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_distill)

    p = sub.add_parser("eval", help="measure accuracy on the model's task")
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test",
                   help="which split of the model's task to score")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("benefits", help="benefit ratio from three scores")
    p.add_argument("--student", type=float, required=True)
    p.add_argument("--dense", type=float, required=True)
    p.add_argument("--moe", type=float, required=True)
    p.set_defaults(fn=_cmd_benefits)

    p = sub.add_parser("noise-scan", help="gathering-noise sweep over the SVD ratio")
    p.add_argument("--teacher", required=True)
    p.add_argument("--lambdas", default="0.1:1.0:0.1", help="grid as start:stop:step")
    p.add_argument("--tokens", type=int, default=256,
                   help="token rows from the start of the task's training split")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_noise_scan)

    p = sub.add_parser("flops", help="per-stage FLOPs accounting")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_pipeline)
    return parser


# what main() reports each error as, tried in order: a subclass before its base
_ERROR_KINDS = (
    (ConfigError, "config"), (CheckpointError, "checkpoint"), (StructureError, "structure"),
    (UndefinedMetricError, "metric"), (ShapeError, "shape"), (NumericalError, "numerical"),
    (OSError, "io"), (MemoryError, "memory"), (ValueError, "argument"), (RuntimeError, "runtime"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:  # a RuntimeError that names its stage
        return _fail("pipeline", f"stage={exc.stage}: {exc.cause}")
    except tuple(t for t, _ in _ERROR_KINDS) as exc:
        kind = next(k for t, k in _ERROR_KINDS if isinstance(exc, t))
        return _fail(kind, str(exc) or type(exc).__name__)  # numpy's MemoryError may have no text


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
