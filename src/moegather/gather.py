"""Build a dense student from a trained mixture-of-experts teacher.

Layers that match the student structurally (embedding, mixers, layer norms,
head) are copied verbatim. Each MoE stage is collapsed into a single dense
feed-forward stage by one of four weight-merging methods:

* ``sum``   - elementwise sum of expert weight matrices
* ``avg``   - elementwise mean
* ``topkg`` - per expert, keep the d_ff/E hidden units with the largest
              paired column/row norm score and concatenate the survivors
* ``svdkg`` - per expert, keep the smallest leading set of singular triplets
              reaching a fraction ``svd_ratio`` of the singular mass, then
              sum the truncated reconstructions

Biases are averaged across experts by default; ``matched`` (top-k only)
instead selects the first-layer bias entries belonging to the kept units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .model import ClassifierModel, FeedForward, MoELayer, build_classifier
from .numerics import Rng, SvdFactors, column_norms, row_norms, svd, top_k_indices, truncate_svd

GATHER_METHODS = ("sum", "avg", "topkg", "svdkg")
BIAS_POLICIES = ("average", "matched")


class StructureError(ValueError):
    """Teacher and student disagree structurally, or a method precondition fails."""


@dataclass
class GatherConfig:
    """How to collapse each MoE stage into a dense one.

    ``seed`` is only recorded as provenance: every tensor of the student comes
    from the teacher (matched layers copied, stages merged), so the gathered
    weights are the same for every seed.
    """

    method: str
    svd_ratio: float | None = None
    bias_policy: str = "average"
    allow_remainder: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.method not in GATHER_METHODS:
            raise ValueError(f"method must be one of {GATHER_METHODS}, got {self.method!r}")
        if self.bias_policy not in BIAS_POLICIES:
            raise ValueError(f"bias_policy must be one of {BIAS_POLICIES}, got {self.bias_policy!r}")
        if self.method == "svdkg":
            if self.svd_ratio is None or not 0.0 < self.svd_ratio <= 1.0:
                raise ValueError(f"svdkg needs svd_ratio in (0, 1], got {self.svd_ratio}")
        elif self.svd_ratio is not None:
            raise ValueError(f"svd_ratio only applies to svdkg, not {self.method!r}")
        if self.bias_policy == "matched" and self.method != "topkg":
            raise ValueError("matched bias selection only makes sense with topkg")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LayerGatherRecord:
    """What happened while merging one MoE stage."""

    layer: str
    method: str
    # svdkg: retained rank per expert and the per-expert singular spectra
    ranks_w1: list[int] = field(default_factory=list)
    ranks_w2: list[int] = field(default_factory=list)
    singular_values_w1: list[list[float]] = field(default_factory=list)
    singular_values_w2: list[list[float]] = field(default_factory=list)
    # topkg: hidden units kept per expert, ascending within each expert
    selected_units: list[list[int]] = field(default_factory=list)
    # relative residual of each expert against the merged/extracted weights
    residual_w1: list[float] = field(default_factory=list)
    residual_w2: list[float] = field(default_factory=list)

    @property
    def rank_total_w1(self) -> int:
        return sum(self.ranks_w1)

    @property
    def rank_total_w2(self) -> int:
        return sum(self.ranks_w2)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rank_total_w1"] = self.rank_total_w1
        d["rank_total_w2"] = self.rank_total_w2
        return d


@dataclass
class GatherReport:
    method: str
    svd_ratio: float | None
    bias_policy: str
    layers: list[LayerGatherRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "layers": [layer.to_dict() for layer in self.layers]}


def _matched_tensors(model: ClassifierModel) -> dict[str, np.ndarray]:
    """The model's tensors outside its feed-forward stages."""
    prefixes = tuple(f"{prefix}." for prefix, _ in model.stages())
    return {name: t for name, t in model.tensors().items() if not name.startswith(prefixes)}


def copy_matched(teacher: ClassifierModel, student: ClassifierModel) -> None:
    """Copy every structurally matched layer from teacher into student.

    Covers every tensor outside the feed-forward stages (embedding, per-block
    layer norms and mixers, head); the stages are left untouched. Raises
    :class:`StructureError` naming the first mismatched layer.
    """
    src, dst = _matched_tensors(teacher), _matched_tensors(student)
    for name in dict.fromkeys([*src, *dst]):
        t_shape, s_shape = (m[name].shape if name in m else "absent" for m in (src, dst))
        if t_shape != s_shape:
            raise StructureError(f"layer {name!r}: teacher shape {t_shape} != student shape {s_shape}")
    for name, tensor in src.items():
        dst[name][...] = tensor


def average_bias(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise mean of each bias vector across the expert bank."""
    b1 = np.mean([e.b1 for e in experts], axis=0)
    b2 = np.mean([e.b2 for e in experts], axis=0)
    return b1, b2


def gather_sum(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    return np.sum([e.w1 for e in experts], axis=0), np.sum([e.w2 for e in experts], axis=0)


def gather_avg(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    return np.mean([e.w1 for e in experts], axis=0), np.mean([e.w2 for e in experts], axis=0)


def unit_scores(expert: FeedForward) -> np.ndarray:
    """Importance of each hidden unit: paired first-layer column norm plus
    second-layer row norm. Both index the same intermediate dimension."""
    return column_norms(expert.w1) + row_norms(expert.w2)


def _unit_quota(d_ff: int, num_experts: int, allow_remainder: bool) -> list[int]:
    base, rem = divmod(d_ff, num_experts)
    if rem and not allow_remainder:
        raise StructureError(
            f"d_ff={d_ff} not divisible by {num_experts} experts; "
            "pass allow_remainder to spread the extra units"
        )
    return [base + (1 if e < rem else 0) for e in range(num_experts)]


def gather_topkg(
    experts: list[FeedForward], allow_remainder: bool = False
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Keep the top-scoring hidden units of each expert and concatenate them.

    Returns (w1, w2, selected) where ``selected[e]`` lists the kept unit
    indices of expert e in ascending order. The concatenation preserves the
    pairing: column j of w1 and row j of w2 always come from the same hidden
    unit of the same expert.
    """
    d_ff = experts[0].d_ff
    quota = _unit_quota(d_ff, len(experts), allow_remainder)
    selected = [top_k_indices(unit_scores(e), quota[i]) for i, e in enumerate(experts)]
    w1 = np.concatenate([e.w1[:, idx] for e, idx in zip(experts, selected)], axis=1)
    w2 = np.concatenate([e.w2[idx, :] for e, idx in zip(experts, selected)], axis=0)
    return w1, w2, selected


def svdkg_merge(
    factors: list[SvdFactors], ratio: float
) -> tuple[np.ndarray, list[SvdFactors], list[np.ndarray]]:
    """Merge one weight-matrix role across experts by truncated SVD.

    Each expert's decomposition is truncated to the smallest rank reaching
    ``ratio`` of its singular mass; the merged matrix is the sum of the
    truncated reconstructions.
    Returns (merged, per-expert truncated factors, their reconstructions).
    """
    truncated = [truncate_svd(f, ratio) for f in factors]
    recons = [f.reconstruct() for f in truncated]
    return np.sum(recons, axis=0), truncated, recons


def gather_svdkg(
    experts: list[FeedForward], ratio: float
) -> tuple[np.ndarray, np.ndarray, LayerGatherRecord]:
    """Merge both weight matrices of an expert bank by truncated SVD."""
    record = LayerGatherRecord(layer="", method="svdkg")
    full1 = [svd(e.w1) for e in experts]
    full2 = [svd(e.w2) for e in experts]
    w1, trunc1, recon1 = svdkg_merge(full1, ratio)
    w2, trunc2, recon2 = svdkg_merge(full2, ratio)
    for e, g1, g2, f1, f2, r1, r2 in zip(experts, full1, full2, trunc1, trunc2, recon1, recon2):
        record.ranks_w1.append(f1.rank)
        record.ranks_w2.append(f2.rank)
        record.singular_values_w1.append([float(x) for x in g1.S])
        record.singular_values_w2.append([float(x) for x in g2.S])
        record.residual_w1.append(_relative_residual(e.w1, r1))
        record.residual_w2.append(_relative_residual(e.w2, r2))
    return w1, w2, record


def _relative_residual(original: np.ndarray, approx: np.ndarray) -> float:
    denom = np.linalg.norm(original)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(original - approx) / denom)


def _gather_stage(moe: MoELayer, cfg: GatherConfig, layer_name: str) -> tuple[FeedForward, LayerGatherRecord]:
    experts = moe.experts
    b1_avg, b2_avg = average_bias(experts)
    if cfg.method == "svdkg":
        w1, w2, record = gather_svdkg(experts, cfg.svd_ratio)
        b1, b2 = b1_avg, b2_avg
    elif cfg.method == "topkg":
        w1, w2, selected = gather_topkg(experts, cfg.allow_remainder)
        record = LayerGatherRecord(layer=layer_name, method="topkg", selected_units=selected)
        for e, idx in zip(experts, selected):
            kept1 = np.zeros_like(e.w1)
            kept1[:, idx] = e.w1[:, idx]
            kept2 = np.zeros_like(e.w2)
            kept2[idx, :] = e.w2[idx, :]
            record.residual_w1.append(_relative_residual(e.w1, kept1))
            record.residual_w2.append(_relative_residual(e.w2, kept2))
        if cfg.bias_policy == "matched":
            b1 = np.concatenate([e.b1[idx] for e, idx in zip(experts, selected)])
            b2 = b2_avg
        else:
            b1, b2 = b1_avg, b2_avg
    else:
        merge = gather_sum if cfg.method == "sum" else gather_avg
        w1, w2 = merge(experts)
        record = LayerGatherRecord(layer=layer_name, method=cfg.method)
        record.residual_w1 = [_relative_residual(e.w1, w1) for e in experts]
        record.residual_w2 = [_relative_residual(e.w2, w2) for e in experts]
        b1, b2 = b1_avg, b2_avg
    record.layer = layer_name
    return FeedForward(w1=w1, b1=b1, w2=w2, b2=b2, activation=experts[0].activation), record


def build_student(teacher: ClassifierModel, cfg: GatherConfig) -> tuple[ClassifierModel, GatherReport]:
    """Gather a dense student from an MoE teacher.

    The student shares every matched layer with the teacher and replaces each
    MoE stage with a dense stage merged per ``cfg``. Parameter sharing in the
    teacher carries over: a shared MoE stage becomes one shared dense stage.
    """
    if teacher.arch.stage != "moe":
        raise StructureError("teacher has no MoE stage to gather from")
    student = build_classifier(teacher.arch.dense_twin(), Rng(cfg.seed))
    copy_matched(teacher, student)
    report = GatherReport(method=cfg.method, svd_ratio=cfg.svd_ratio, bias_policy=cfg.bias_policy)
    gathered: dict[int, FeedForward] = {}
    for name, stage in teacher.stages():
        dense, record = _gather_stage(stage, cfg, name)
        report.layers.append(record)
        gathered[id(stage)] = dense
    for tb, sb in zip(teacher.blocks, student.blocks):
        sb.stage = gathered[id(tb.stage)]
    return student, report
