"""Command-line entry points.

Subcommands mirror the pipeline stages so each can run standalone:

    moegather teach      --config c.json --out t.ckpt
    moegather gather     --teacher t.ckpt --method svdkg --svd-ratio 0.75 --out s0.ckpt
    moegather distill    --student s0.ckpt --teacher t.ckpt --alpha 0.25 --out s.ckpt
    moegather eval       --model s.ckpt --split test --out scores.json
    moegather benefits   --student 84.63 --dense 84.03 --moe 84.71
    moegather noise-scan --teacher t.ckpt --lambdas 0.1:1.0:0.1 --out scan.csv
    moegather flops      --model s.ckpt
    moegather pipeline   --config c.json

Every command exits 0 on success and nonzero with an ``error: <kind>: ...``
diagnostic on stderr otherwise. ``ONES_SEED`` overrides config seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from ..gather import BIAS_POLICIES, GATHER_METHODS, GatherConfig, StructureError
from ..metrics import UndefinedMetricError, flops_per_token, moe_benefits, noise_scan
from ..model import MoELayer, count_parameters
from ..numerics import NumericalError, ShapeError
from ..training import DISTILL_MODES, DistillConfig, evaluate_accuracy
from .checkpoint import CheckpointError, load_checkpoint
from .config import SEED_ENV_VAR, ConfigError, ExperimentConfig, load_config
from .data import SyntheticTaskSpec, generate_dataset
from .pipeline import PipelineError, distill_stage, gather_stage, run_pipeline, train_stage, write_noise_scan_csv


def _fail(kind: str, message: str) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return 1


def _seed_override(seed: int) -> int:
    return int(os.environ.get(SEED_ENV_VAR, seed))


def _task_from_meta(meta: dict, path: str) -> SyntheticTaskSpec:
    if "task" not in meta:
        raise ConfigError(f"{path}: checkpoint metadata has no task description")
    return SyntheticTaskSpec.from_dict(meta["task"])


def _cmd_teach(args) -> int:
    cfg = load_config(args.config)
    data = generate_dataset(cfg.task)
    meta = {"task": cfg.task.to_dict(), "seed": cfg.seed, "role": "teacher"}
    result = train_stage(cfg.arch, cfg.teach, data, meta, args.out)
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
    teacher, meta = load_checkpoint(args.teacher)
    gcfg = GatherConfig(
        method=args.method,
        svd_ratio=args.svd_ratio if args.method == "svdkg" else None,
        bias_policy=args.bias,
        allow_remainder=args.allow_remainder,
        seed=_seed_override(args.seed),
    )
    out_meta = {"task": meta.get("task"), "seed": gcfg.seed, "role": f"gather_{args.method}"}
    report_path = Path(args.out).with_suffix(".report.json")
    gather_stage(teacher, gcfg, out_meta, args.out, report_path)
    print(json.dumps({"checkpoint": args.out, "report": str(report_path)}))
    return 0


def _cmd_distill(args) -> int:
    student, student_meta = load_checkpoint(args.student)
    teacher, teacher_meta = load_checkpoint(args.teacher)
    task = _task_from_meta(teacher_meta, args.teacher)
    data = generate_dataset(task)
    dcfg = DistillConfig(
        alpha=args.alpha,
        temperature=args.temp,
        mode=args.mode,
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=_seed_override(args.seed),
        eval_every=args.eval_every,
    )
    meta = {
        "task": task.to_dict(),
        "seed": dcfg.seed,
        "role": student_meta.get("role", "student"),
        "initialized_from": args.student,
    }
    result = distill_stage(student, teacher, dcfg, data, meta, args.out)
    print(json.dumps({"checkpoint": args.out, "heldout_accuracy": result.final_heldout_acc}))
    return 0


def _cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.model)
    task = _task_from_meta(meta, args.model)
    train, test = generate_dataset(task)
    split = train if args.task == "train" else test
    acc = evaluate_accuracy(model, split.tokens, split.labels)
    scores = {"accuracy": acc, "split": args.task, "n": len(split.labels), "model": args.model}
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
    if not (0 < start <= stop <= 1 + 1e-12 and 0 < step < math.inf):  # also false for NaN
        raise ConfigError(f"lambda grid {text!r} must satisfy 0 < start <= stop <= 1, step > 0")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        values.append(round(v, 10))
        k += 1
    return values


def _first_moe_stage(model) -> MoELayer:
    for _, stage in model.stages():
        if isinstance(stage, MoELayer):
            return stage
    raise StructureError("model has no MoE stage")


def _cmd_noise_scan(args) -> int:
    teacher, meta = load_checkpoint(args.teacher)
    stage = _first_moe_stage(teacher)
    task = _task_from_meta(meta, args.teacher)
    if args.tokens < 1:
        raise ConfigError(f"--tokens must be at least 1, got {args.tokens}")
    train, _ = generate_dataset(task)
    tokens = train.tokens.reshape(-1, task.d_model)[: args.tokens]
    if len(tokens) < args.tokens:
        raise ConfigError(f"task provides only {len(tokens)} tokens, need {args.tokens}")
    rows = noise_scan(stage, _parse_lambda_grid(args.lambdas), tokens)
    write_noise_scan_csv(rows, args.out)
    print(json.dumps({"out": args.out, "rows": len(rows)}))
    return 0


def _cmd_flops(args) -> int:
    model, _ = load_checkpoint(args.model)
    stages = [(name, flops_per_token(stage)) for name, stage in model.stages()]
    report = {
        "per_stage": [{"stage": name, "flops_per_token": f} for name, f in stages],
        "parameters": count_parameters(model),
    }
    first = model.blocks[0].stage
    if isinstance(first, MoELayer):
        dense_equiv = flops_per_token(first.experts[0])
        report["dense_equivalent_flops"] = dense_equiv
        report["moe_to_dense_ratio"] = flops_per_token(first) / dense_equiv
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
    p.add_argument("--teacher", required=True)
    p.add_argument("--method", required=True, choices=GATHER_METHODS)
    p.add_argument("--lambda", "--svd-ratio", dest="svd_ratio", type=float,
                   default=ExperimentConfig.svd_ratio, help="retained singular-mass fraction (svdkg only)")
    p.add_argument("--bias", choices=BIAS_POLICIES, default=GatherConfig.bias_policy)
    p.add_argument("--allow-remainder", action="store_true",
                   help="topkg: allow d_ff not divisible by the expert count")
    p.add_argument("--seed", type=int, default=GatherConfig.seed,
                   help="recorded in the checkpoint as provenance; the gathered weights do not depend on it")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gather)

    p = sub.add_parser("distill", help="refine a student against a frozen teacher")
    p.add_argument("--student", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--alpha", type=float, default=DistillConfig.alpha)
    p.add_argument("--temp", type=float, default=DistillConfig.temperature)
    p.add_argument("--mode", choices=DISTILL_MODES, default=DistillConfig.mode)
    p.add_argument("--steps", type=int, default=DistillConfig.steps)
    p.add_argument("--batch-size", type=int, default=DistillConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=DistillConfig.learning_rate)
    p.add_argument("--eval-every", type=int, default=DistillConfig.eval_every)
    p.add_argument("--seed", type=int, default=DistillConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_distill)

    p = sub.add_parser("eval", help="measure accuracy on the model's task")
    p.add_argument("--model", required=True)
    p.add_argument("--task", "--split", dest="task", choices=("train", "test"), default="test",
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
    p.add_argument("--tokens", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_noise_scan)

    p = sub.add_parser("flops", help="per-stage FLOPs accounting")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        return _fail("pipeline", f"stage={exc.stage}: {exc.cause}")
    except ConfigError as exc:
        return _fail("config", str(exc))
    except CheckpointError as exc:
        return _fail("checkpoint", str(exc))
    except StructureError as exc:
        return _fail("structure", str(exc))
    except UndefinedMetricError as exc:
        return _fail("metric", str(exc))
    except ShapeError as exc:
        return _fail("shape", str(exc))
    except NumericalError as exc:
        return _fail("numerical", str(exc))
    except FileNotFoundError as exc:
        return _fail("io", str(exc))
    except ValueError as exc:
        return _fail("argument", str(exc))
    except RuntimeError as exc:  # after PipelineError and NumericalError, which subclass it
        return _fail("runtime", str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
