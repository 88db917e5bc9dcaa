"""Build a dense student from a trained mixture-of-experts teacher.

Layers that match the student structurally (embedding, mixers, layer norms,
head) are copied verbatim. The teacher's MoE stage, which every block shares,
is collapsed into a single dense feed-forward stage by one of four
weight-merging methods, and ``model_from_tensors`` assembles the student from
the copies and the merged stage:

* ``sum``   - elementwise sum of expert weight matrices
* ``avg``   - elementwise mean
* ``topkg`` - per expert, keep the d_ff/E hidden units with the largest
              paired column/row norm score and concatenate the survivors;
              the first d_ff mod E experts each keep one unit more
* ``svdkg`` - per expert, keep the smallest leading set of singular triplets
              reaching a fraction ``svd_ratio`` of the singular mass, then
              sum the truncated reconstructions

The second-layer bias is averaged across experts. So is the first-layer
bias, except in Top-KG, where each kept unit brings its own entry along with
its ``w1`` column and ``w2`` row; the student then does not depend on the
order in which the teacher lists its experts.

``build_student`` also returns a flat :class:`GatherReport` of what the merge
threw away; its docstring says what each field holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .model import ClassifierModel, FeedForward, MoELayer, model_from_tensors
from .numerics import NumericalError, SvdFactors, check_number, svd, top_k_indices, truncation_rank

GATHER_METHODS = ("sum", "avg", "topkg", "svdkg")


class StructureError(ValueError):
    """Teacher and student disagree structurally, or a method precondition fails."""


@dataclass
class GatherConfig:
    """How to collapse the MoE stage into a dense one: the ``method``, and the
    ``svd_ratio`` that only svdkg takes. Which biases each method keeps is
    fixed; the module docstring says how.

    ``seed`` is only recorded as provenance: every tensor of the student comes
    from the teacher (matched layers copied, the stage merged), so the gathered
    weights are the same for every seed.
    """

    method: str
    svd_ratio: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in GATHER_METHODS:
            raise ValueError(f"method must be one of {GATHER_METHODS}, got {self.method!r}")
        check_number("seed", self.seed, integer=True)
        if self.method == "svdkg":
            check_number("svd_ratio", self.svd_ratio, positive=True, at_most=1.0)
        elif self.svd_ratio is not None:
            raise ValueError(f"svd_ratio only applies to svdkg, not {self.method!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GatherReport:
    """What merging the teacher's shared MoE stage threw away: the settings
    (``method``, ``svd_ratio``) and lists of one entry per expert, in the
    teacher's order:

    * ``ranks_w1``/``ranks_w2``: retained SVD rank (empty unless svdkg)
    * ``singular_values_w1``/``_w2``: full spectrum, descending (empty unless svdkg)
    * ``selected_units``: kept hidden units, ascending (empty unless topkg)
    * ``residual_w1``/``residual_w2``: ||W - K|| / ||W|| (0 when W is 0), K being
      what the student keeps of W: the merged W (sum, avg), W with its dropped
      units zeroed (topkg), the truncated reconstruction (svdkg)

    ``to_dict`` adds ``rank_total_w1``/``rank_total_w2``, the rank sums.
    """

    method: str
    svd_ratio: float | None
    ranks_w1: list[int] = field(default_factory=list)
    ranks_w2: list[int] = field(default_factory=list)
    singular_values_w1: list[list[float]] = field(default_factory=list)
    singular_values_w2: list[list[float]] = field(default_factory=list)
    selected_units: list[list[int]] = field(default_factory=list)
    residual_w1: list[float] = field(default_factory=list)
    residual_w2: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "rank_total_w1": sum(self.ranks_w1), "rank_total_w2": sum(self.ranks_w2)}


def matched_tensors(model: ClassifierModel) -> dict[str, np.ndarray]:
    """Copies of the model's tensors outside its feed-forward stage: the
    embedding, per-block layer norms and mixers, and the head."""
    [(prefix, _)] = model.stages()
    return {name: t.copy() for name, t in model.tensors().items() if not name.startswith(f"{prefix}.")}


def average_bias(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise mean of each bias vector across the expert bank."""
    return np.mean([e.b1 for e in experts], axis=0), np.mean([e.b2 for e in experts], axis=0)


def gather_sum(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    return np.sum([e.w1 for e in experts], axis=0), np.sum([e.w2 for e in experts], axis=0)


def gather_avg(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray]:
    return np.mean([e.w1 for e in experts], axis=0), np.mean([e.w2 for e in experts], axis=0)


def unit_scores(expert: FeedForward) -> np.ndarray:
    """Importance of each hidden unit: paired first-layer column norm plus
    second-layer row norm. Both index the same intermediate dimension."""
    return np.linalg.norm(expert.w1, axis=0) + np.linalg.norm(expert.w2, axis=1)


def gather_topkg(experts: list[FeedForward]) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Keep the top-scoring hidden units of each expert and concatenate them.

    Returns (w1, w2, selected) where ``selected[e]`` lists the kept unit
    indices of expert e in ascending order. The concatenation preserves the
    pairing: column j of w1 and row j of w2 always come from the same hidden
    unit of the same expert.
    """
    base, rem = divmod(experts[0].d_ff, len(experts))
    quota = [base + (i < rem) for i in range(len(experts))]
    selected = [top_k_indices(unit_scores(e), k).tolist() if k else [] for e, k in zip(experts, quota)]
    w1 = np.concatenate([e.w1[:, idx] for e, idx in zip(experts, selected)], axis=1)
    w2 = np.concatenate([e.w2[idx, :] for e, idx in zip(experts, selected)], axis=0)
    return w1, w2, selected


def svdkg_merge(factors: list[SvdFactors], ratio: float) -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """Merge one weight-matrix role across experts by truncated SVD.

    Each expert keeps its leading ``truncation_rank(S, ratio)`` triplets, the
    smallest rank reaching ``ratio`` of its singular mass; the merged matrix
    is the sum of the truncated reconstructions, each formed straight from
    the leading columns of the full factors.
    Returns (merged, per-expert retained ranks, their reconstructions).
    """
    ranks = [truncation_rank(f.S, ratio) for f in factors]
    recons = [(f.U[:, :k] * f.S[:k]) @ f.V[:, :k].T for f, k in zip(factors, ranks)]
    merged = recons[0].copy()
    for r in recons[1:]:
        merged += r
    return merged, ranks, recons


def gather_svdkg(experts: list[FeedForward], ratio: float) -> tuple[np.ndarray, np.ndarray, list, list, dict]:
    """Merge both weight matrices of an expert bank by truncated SVD.

    Returns (w1, w2, kept1, kept2, spectra): each expert's truncated
    reconstructions of w1 and w2, and the report's ``ranks_*`` and
    ``singular_values_*`` keyed by field name.

    The factors do not depend on ``ratio``, and :func:`svd` remembers them
    by content, so a sweep over ratios factors each matrix once, unless the
    matrix is too large for the memo (as at default shapes it is not).
    """
    full1, full2 = [svd(e.w1) for e in experts], [svd(e.w2) for e in experts]
    (w1, ranks1, kept1), (w2, ranks2, kept2) = svdkg_merge(full1, ratio), svdkg_merge(full2, ratio)
    spectra = {
        "ranks_w1": ranks1, "ranks_w2": ranks2,
        "singular_values_w1": [f.S.tolist() for f in full1], "singular_values_w2": [f.S.tolist() for f in full2],
    }
    return w1, w2, kept1, kept2, spectra


def _relative_residual(original: np.ndarray, approx: np.ndarray) -> float:
    denom = np.linalg.norm(original)
    return float(np.linalg.norm(original - approx) / denom) if denom else 0.0


def _gather_stage(moe: MoELayer, cfg: GatherConfig) -> tuple[dict[str, np.ndarray], GatherReport]:
    """The merged dense stage's tensors, keyed like ``FeedForward.tensors()``, and the report."""
    experts = moe.experts
    b1, b2 = average_bias(experts)
    if cfg.method == "svdkg":
        w1, w2, kept1, kept2, fields = gather_svdkg(experts, cfg.svd_ratio)
    elif cfg.method == "topkg":
        w1, w2, selected = gather_topkg(experts)
        masks = [np.isin(np.arange(e.d_ff), idx) for e, idx in zip(experts, selected)]
        kept1 = [e.w1 * m for e, m in zip(experts, masks)]
        kept2 = [e.w2 * m[:, None] for e, m in zip(experts, masks)]
        fields = {"selected_units": selected}
        b1 = np.concatenate([e.b1[idx] for e, idx in zip(experts, selected)])
    else:
        w1, w2 = (gather_sum if cfg.method == "sum" else gather_avg)(experts)
        kept1, kept2, fields = [w1] * len(experts), [w2] * len(experts), {}
    report = GatherReport(
        cfg.method, cfg.svd_ratio, **fields,
        residual_w1=[_relative_residual(e.w1, k) for e, k in zip(experts, kept1)],
        residual_w2=[_relative_residual(e.w2, k) for e, k in zip(experts, kept2)],
    )
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}, report


def build_student(teacher: ClassifierModel, cfg: GatherConfig) -> tuple[ClassifierModel, GatherReport]:
    """Gather a dense student from an MoE teacher.

    The student is assembled by ``model_from_tensors`` from copies of the
    teacher's matched tensors plus one dense stage, merged per ``cfg`` from
    the teacher's shared MoE stage, which all its blocks share. The report
    says what that merge threw away. A non-finite entry in any expert
    tensor is a :class:`NumericalError`, whatever the method.
    """
    if teacher.arch.stage != "moe":
        raise StructureError("teacher has no MoE stage to gather from")
    [(prefix, stage)] = teacher.stages()
    if not all(np.isfinite(t).all() for e in stage.experts for t in e.tensors().values()):
        raise NumericalError("teacher's MoE stage has non-finite entries")
    dense, report = _gather_stage(stage, cfg)
    tensors = {**matched_tensors(teacher), **{f"{prefix}.{n}": t for n, t in dense.items()}}
    return model_from_tensors(teacher.arch.dense_twin(), tensors), report
