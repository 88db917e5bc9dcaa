"""Experiment configuration: JSON in, validated dataclasses out.

A config bundles the teacher architecture, the synthetic task, training
settings for the teach and distill stages, and the gathering choices. Two
named profiles ship with the package: ``vision`` (alpha 0.25, SVD ratio 0.75)
and ``nlp`` (alpha 0.75, SVD ratio 0.25). The environment variable
``ONES_SEED`` overrides the config seed at load time; it refuses a config
that pins ``task.seed`` or ``teach.seed``, which the override cannot reach.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from ..gather import GATHER_METHODS, GatherConfig
from ..model import Architecture
from ..numerics import Rng, check_number
from ..training import DistillConfig, TrainConfig
from .data import SyntheticTaskSpec

SEED_ENV_VAR = "ONES_SEED"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    arch: Architecture
    task: SyntheticTaskSpec
    teach: TrainConfig
    distill: DistillConfig
    gather_methods: list[str] = field(default_factory=lambda: list(GATHER_METHODS))
    svd_ratio: float = 0.75
    bias_policy: str = "average"
    out_dir: str = "runs/out"
    seed: int = 0

    def __post_init__(self):
        if self.arch.stage != "moe":
            raise ConfigError("the teacher architecture must use an MoE stage")
        for m in self.gather_methods:
            if m not in GATHER_METHODS:
                raise ConfigError(f"unknown gather method {m!r}")
            if self.gather_methods.count(m) > 1:
                raise ConfigError(f"gather method {m!r} is listed more than once")
        if not self.gather_methods:
            raise ConfigError("at least one gather method is required")
        if self.task.d_model != self.arch.d_model:
            raise ConfigError(
                f"task d_model {self.task.d_model} != model d_model {self.arch.d_model}"
            )
        if self.task.seq_len != self.arch.seq_len:
            raise ConfigError(
                f"task seq_len {self.task.seq_len} != model seq_len {self.arch.seq_len}"
            )
        if self.task.num_classes != self.arch.num_classes:
            raise ConfigError(
                f"task num_classes {self.task.num_classes} != model head width {self.arch.num_classes}"
            )
        for name, loop in (("teach", self.teach), ("distill", self.distill)):
            if loop.batch_size > self.task.train_size:
                raise ConfigError(f"{name}.batch_size {loop.batch_size} exceeds task.train_size {self.task.train_size}")
        # fail early on bad gathering settings rather than mid-pipeline, for
        # every method: CLI `gather --method` may run one the config does not list
        for m in GATHER_METHODS:
            self.gather_config(m)

    def gather_config(self, method: str) -> GatherConfig:
        return GatherConfig(
            method=method,
            svd_ratio=self.svd_ratio if method == "svdkg" else None,
            bias_policy=self.bias_policy if method == "topkg" else "average",
            seed=derive_seed(self.seed, f"gather-{method}"),
        )

    def checkpoint_meta(self, role: str) -> dict:
        """Provenance that every stage checkpoint of this experiment records."""
        return {"task": self.task.to_dict(), "seed": self.seed, "role": role}

    def distill_config(self, role: str) -> DistillConfig:
        """Distill settings for the student ``role``, on its own derived seed."""
        return replace(self.distill, seed=derive_seed(self.seed, f"distill-{role}"))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "model": self.arch.to_dict(),
            "task": self.task.to_dict(),
            "teach": vars(self.teach).copy(),
            "distill": {k: v for k, v in vars(self.distill).items() if k != "seed"},
            "gather": {
                "methods": list(self.gather_methods),
                "svd_ratio": self.svd_ratio,
                "bias_policy": self.bias_policy,
            },
        }


# "vision" is the dataclass defaults; a config without a profile gets them too.
_VISION = {"alpha": DistillConfig.alpha, "svd_ratio": ExperimentConfig.svd_ratio}
PROFILES = {"vision": _VISION, "nlp": {**_VISION, "alpha": 0.75, "svd_ratio": 0.25}}


def derive_seed(seed: int, tag: str) -> int:
    return Rng(seed).derive(tag).seed


def default_config(seed: int = 0, out_dir: str | os.PathLike = ExperimentConfig.out_dir,
                   profile: str = "vision") -> ExperimentConfig:
    """Desk-scale defaults: d_model 32, d_ff 128, 4 experts with top-2
    routing, two parameter-shared blocks, ~20k training sequences."""
    cfg = {
        "seed": seed,
        "out_dir": out_dir,
        "profile": profile,
        "model": {
            "d_model": 32,
            "d_ff": 128,
            "seq_len": 8,
            "num_classes": 8,
            "num_blocks": 2,
            "activation": "gelu",
            "stage": "moe",
            "num_experts": 4,
            "top_k": 2,
        },
        "task": {
            "kind": "gaussian_mixture",
            "num_classes": 8,
            "d_model": 32,
            "seq_len": 8,
            "train_size": 20000,
            "test_size": 2000,
            "modes_per_class": 4,
        },
        "teach": {"steps": 1500, "batch_size": 64, "learning_rate": 3e-3},
        "distill": {"steps": 700, "batch_size": 64, "learning_rate": 1e-3},
    }
    return config_from_dict(cfg)


def _top_level_seed(raw: dict) -> int:
    """The config's ``seed``, or ``ONES_SEED`` when that is set and the
    config pins neither ``task.seed`` nor ``teach.seed``."""
    text = os.environ.get(SEED_ENV_VAR)
    for name in ("task", "teach"):
        if text is not None and isinstance(raw.get(name), dict) and "seed" in raw[name]:
            raise ConfigError(f"{SEED_ENV_VAR} is set, but the config pins {name}.seed, "
                              "which the override would not reach")
    # text that is not a non-negative integer stays text for check_number to report
    seed = raw.get("seed", 0) if text is None else int(text) if text.strip().isdecimal() else text
    try:
        check_number("seed", seed, integer=True)
    except ValueError as exc:
        raise ConfigError(str(exc) if text is None else f"{SEED_ENV_VAR}: {exc}") from exc
    return seed


def _block(raw: dict, name: str) -> dict:
    """A copy of the config's ``name`` block, empty when absent."""
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {block!r}")
    return dict(block)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if isinstance(raw.get("out_dir"), os.PathLike):
        raw = {**raw, "out_dir": os.fspath(raw["out_dir"])}
    try:
        raw = json.loads(json.dumps(raw))  # deep copy + reject non-JSON values
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"settings must be JSON values: {exc}") from exc
    seed = _top_level_seed(raw)
    profile_name = "vision" if raw.get("profile") is None else raw["profile"]
    if not isinstance(profile_name, str) or profile_name not in PROFILES:
        raise ConfigError(f"unknown profile {profile_name!r}; available: {sorted(PROFILES)}")
    profile = PROFILES[profile_name]

    model_d = _block(raw, "model")
    model_d.setdefault("stage", "moe")
    try:
        arch = Architecture.from_dict(model_d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model block: {exc}") from exc

    task_d = _block(raw, "task")
    task_d.setdefault("seed", derive_seed(seed, "task"))
    try:
        task = SyntheticTaskSpec.from_dict(task_d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad task block: {exc}") from exc

    teach_d = _block(raw, "teach")
    teach_d.setdefault("seed", derive_seed(seed, "teach"))
    distill_d = _block(raw, "distill")
    if "seed" in distill_d:
        # each student trains on derive_seed(seed, "distill-{role}"); see distill_config
        raise ConfigError("distill.seed is not a setting: student seeds derive from the top-level seed")
    distill_d.setdefault("alpha", profile["alpha"])

    gather_d = _block(raw, "gather")
    methods = gather_d.get("methods", list(GATHER_METHODS))
    if not isinstance(methods, list):
        raise ConfigError(f"gather methods must be a list of method names, got {methods!r}")
    out_dir = raw.get("out_dir", ExperimentConfig.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    svd_ratio = gather_d.get("svd_ratio", profile["svd_ratio"])
    try:
        teach = TrainConfig(**teach_d)
        distill = DistillConfig(**distill_d)
        check_number("svd_ratio", svd_ratio, positive=True)  # GatherConfig reports a ratio above 1
        return ExperimentConfig(
            arch=arch,
            task=task,
            teach=teach,
            distill=distill,
            gather_methods=methods,
            svd_ratio=float(svd_ratio),
            bias_policy=gather_d.get("bias_policy", ExperimentConfig.bias_policy),
            out_dir=out_dir,
            seed=seed,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return config_from_dict(raw)
