"""Experiment configuration: JSON in, validated dataclasses out.

A config bundles the teacher architecture, the synthetic task, training
settings for the teach and distill stages, and the gathering choices. A
config states each value once and need state only what differs from the
default experiment. Each block is built from three layers, later ones
winning: ``DEFAULTS`` (the default experiment's values that no settings class
defaults), then the named profile, then the config's own block. Two profiles
ship with the package: ``vision`` (alpha 0.25, SVD ratio 0.75, the settings
classes' defaults) and ``nlp`` (alpha 0.75, SVD ratio 0.25). Every seed
derives from the top-level ``seed``, the task's shapes come from the
``model`` block, and the teacher is an MoE (see ``DERIVED``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

from ..gather import GATHER_METHODS, GatherConfig
from ..model import Architecture
from ..numerics import Rng, check_number
from ..training import DistillConfig, TrainConfig
from .data import SyntheticTaskSpec

class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# Per block, the fields that config_from_dict fills in and to_dict leaves out.
DERIVED = {"model": ("stage",), "task": ("seed", "d_model", "seq_len", "num_classes"),
           "teach": ("seed",), "distill": ("seed",)}


@dataclass
class ExperimentConfig:
    arch: Architecture
    task: SyntheticTaskSpec
    teach: TrainConfig
    distill: DistillConfig
    gather_methods: list[str] = field(default_factory=lambda: list(GATHER_METHODS))
    svd_ratio: float = 0.75
    out_dir: str = "runs/out"
    seed: int = 0

    def __post_init__(self):
        if self.arch.stage != "moe":
            raise ConfigError("the teacher architecture must use an MoE stage")
        if not self.out_dir:  # "" would write every run file, config.json too, into the working directory
            raise ConfigError("out_dir must name a directory, got ''")
        for m in self.gather_methods:
            if m not in GATHER_METHODS:
                raise ConfigError(f"unknown gather method {m!r}")
            if self.gather_methods.count(m) > 1:
                raise ConfigError(f"gather method {m!r} is listed more than once")
        if not self.gather_methods:
            raise ConfigError("at least one gather method is required")
        for name in ("d_model", "seq_len", "num_classes"):
            if getattr(self.task, name) != getattr(self.arch, name):
                raise ConfigError(f"task {name} {getattr(self.task, name)} != model {name} {getattr(self.arch, name)}")
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
            seed=derive_seed(self.seed, f"gather-{method}"),
        )

    def checkpoint_meta(self, role: str) -> dict:
        """Provenance that every stage checkpoint of this experiment records."""
        return {"task": self.task.to_dict(), "seed": self.seed, "role": role}

    def distill_config(self, role: str) -> DistillConfig:
        """Distill settings for the student ``role``, on its own derived seed."""
        return replace(self.distill, seed=derive_seed(self.seed, f"distill-{role}"))

    def to_dict(self) -> dict:
        """The config as a user writes it, without the ``DERIVED`` values."""
        blocks = {"model": asdict(self.arch), "task": self.task.to_dict(),
                  "teach": asdict(self.teach), "distill": asdict(self.distill)}
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            **{name: {k: v for k, v in block.items() if k not in DERIVED[name]} for name, block in blocks.items()},
            "gather": {
                "methods": list(self.gather_methods),
                "svd_ratio": self.svd_ratio,
            },
        }


# Per block, the default experiment's values that no settings class defaults:
# the teacher's shapes and routing, and the task's kind and split sizes.
DEFAULTS = {
    "model": {"d_model": 32, "d_ff": 128, "seq_len": 8, "num_classes": 8, "num_experts": 4, "top_k": 2},
    "task": {"kind": "gaussian_mixture", "train_size": 20000, "test_size": 2000},
}
# Per profile, what it changes in each block; "vision" is the default experiment.
PROFILES = {"vision": {}, "nlp": {"distill": {"alpha": 0.75}, "gather": {"svd_ratio": 0.25}}}


def derive_seed(seed: int, tag: str) -> int:
    return Rng(seed).derive(tag).seed


def default_config(seed: int = 0, out_dir: str | os.PathLike = ExperimentConfig.out_dir,
                   profile: str = "vision") -> ExperimentConfig:
    """The config that names only its seed, out_dir and profile: d_model 32,
    d_ff 128, 4 experts with top-2 routing, two parameter-shared blocks,
    ~20k training sequences (see ``DEFAULTS`` and the settings classes)."""
    return config_from_dict({"seed": seed, "out_dir": os.fspath(out_dir), "profile": profile})


def _check_known(block: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Reject a key outside ``known``, so that a misspelt setting is no silent default."""
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown setting {prefix + key!r}; expected one of {list(known)}")


def _block(raw: dict, name: str) -> dict:
    """A copy of the config's ``name`` block, empty when absent."""
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {block!r}")
    return dict(block)


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        raw = json.loads(json.dumps(raw))  # deep copy + reject non-JSON values
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"settings must be JSON values: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"settings are nested too deeply: {exc}") from exc
    _check_known(raw, ("seed", "out_dir", "profile", "model", "task", "teach", "distill", "gather"))
    seed = raw.get("seed", 0)
    try:
        check_number("seed", seed, integer=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    profile_name = "vision" if raw.get("profile") is None else raw["profile"]
    if not isinstance(profile_name, str) or profile_name not in PROFILES:
        raise ConfigError(f"unknown profile {profile_name!r}; available: {sorted(PROFILES)}")
    profile = PROFILES[profile_name]

    own = {name: _block(raw, name) for name in (*DERIVED, "gather")}
    derived = [f"{name}.{key}" for name, keys in DERIVED.items() for key in keys if key in own[name]]
    if derived:  # even when set to its derived value: a config states each value once
        raise ConfigError(f"{derived[0]} is not a setting: seeds derive from the top-level seed, "
                          "the task's shapes from the model block, and the teacher is an MoE")
    _check_known(own["gather"], ("methods", "svd_ratio"), "gather.")
    blocks = {name: {**DEFAULTS.get(name, {}), **profile.get(name, {}), **block} for name, block in own.items()}
    try:
        arch = Architecture(**{**blocks["model"], "stage": "moe"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model block: {exc}") from exc

    shapes = {"d_model": arch.d_model, "seq_len": arch.seq_len, "num_classes": arch.num_classes}
    try:
        task = SyntheticTaskSpec(**{**blocks["task"], **shapes, "seed": derive_seed(seed, "task")})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad task block: {exc}") from exc

    gather_d = blocks["gather"]
    methods = gather_d.get("methods", list(GATHER_METHODS))
    if not isinstance(methods, list):
        raise ConfigError(f"gather methods must be a list of method names, got {methods!r}")
    out_dir = raw.get("out_dir", ExperimentConfig.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    svd_ratio = gather_d.get("svd_ratio", ExperimentConfig.svd_ratio)
    try:
        teach = TrainConfig(**blocks["teach"], seed=derive_seed(seed, "teach"))
        distill = DistillConfig(**blocks["distill"])  # each student's seed: see distill_config
        check_number("svd_ratio", svd_ratio, positive=True)  # GatherConfig reports a ratio above 1
        return ExperimentConfig(
            arch=arch,
            task=task,
            teach=teach,
            distill=distill,
            gather_methods=methods,
            svd_ratio=float(svd_ratio),
            out_dir=out_dir,
            seed=seed,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return config_from_dict(raw)
