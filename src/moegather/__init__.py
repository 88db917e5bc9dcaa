"""moegather: train a small sparse mixture-of-experts classifier, gather its
expert knowledge into a dense student, refine the student by distillation,
and quantify how much of the MoE's benefit the student preserves.

Importing the package before numpy sets each unset BLAS thread variable to 1:
a thread per CPU in each lane of a run made it several times slower and made
its bytes depend on the CPU count. A program that loaded numpy first keeps its threads."""

import os
import sys

if "numpy" not in sys.modules:  # a loaded OpenBLAS keeps its thread count
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .gather import GatherConfig, GatherReport, build_student
from .metrics import flops_per_token, moe_benefits, noise_scan
from .model import (
    Architecture,
    ClassifierModel,
    FeedForward,
    MoELayer,
    Router,
    build_classifier,
    router_probs,
)
from .numerics import Rng, SvdFactors, svd, top_k_indices, truncate_svd
from .training import (
    DistillConfig,
    TrainConfig,
    distill_student,
    optimizer_step,
    train_classifier,
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
    "SvdFactors",
    "TrainConfig",
    "build_classifier",
    "build_student",
    "distill_student",
    "flops_per_token",
    "moe_benefits",
    "noise_scan",
    "optimizer_step",
    "router_probs",
    "svd",
    "top_k_indices",
    "train_classifier",
    "truncate_svd",
]
