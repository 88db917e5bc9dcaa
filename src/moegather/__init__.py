"""moegather: train a small sparse mixture-of-experts classifier, gather its
expert knowledge into a dense student, refine the student by distillation,
and quantify how much of the MoE's benefit the student preserves."""

from .gather import GatherConfig, GatherReport, build_student, copy_matched
from .metrics import Scoreboard, flops_per_token, moe_benefits, noise_decompose, noise_scan
from .model import (
    Architecture,
    ClassifierModel,
    FeedForward,
    MoELayer,
    Router,
    build_classifier,
    ffn_forward,
    router_probs,
)
from .numerics import Rng, SvdFactors, svd, top_k_indices, truncate_svd
from .training import (
    DistillConfig,
    TrainConfig,
    distill_student,
    optimizer_step,
    total_loss,
    train_classifier,
    train_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "ClassifierModel",
    "DistillConfig",
    "FeedForward",
    "GatherConfig",
    "GatherReport",
    "MoELayer",
    "Rng",
    "Router",
    "Scoreboard",
    "SvdFactors",
    "TrainConfig",
    "build_classifier",
    "build_student",
    "copy_matched",
    "distill_student",
    "ffn_forward",
    "flops_per_token",
    "moe_benefits",
    "noise_decompose",
    "noise_scan",
    "optimizer_step",
    "router_probs",
    "svd",
    "top_k_indices",
    "total_loss",
    "train_classifier",
    "train_teacher",
    "truncate_svd",
]
