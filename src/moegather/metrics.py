"""Evaluation metrics: benefit preservation, FLOPs accounting, and an
empirical decomposition of the noise injected by SVD knowledge gathering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gather import average_bias, svdkg_merge
from .model import FeedForward, MoELayer, router_probs
from .numerics import ShapeError, as_array, svd

# Multiply-accumulate counted as two floating point operations.
FLOPS_PER_MAC = 2


class UndefinedMetricError(ValueError):
    """The benefit ratio is undefined when the MoE and dense scores coincide
    or a score is not finite."""


def moe_benefits(score_student: float, score_dense: float, score_moe: float) -> float:
    """Fraction of the MoE's improvement over the plain dense model that the
    student preserves: (student - dense) / (moe - dense), all three scores on
    one common metric (e.g. accuracy)."""
    if not np.isfinite([score_student, score_dense, score_moe]).all():
        raise UndefinedMetricError(
            f"scores must be finite, got student={score_student} dense={score_dense} moe={score_moe}"
        )
    denom = score_moe - score_dense
    if denom == 0.0:
        raise UndefinedMetricError("score_moe equals score_dense; benefit ratio undefined")
    return (score_student - score_dense) / denom


def flops_per_token(layer: FeedForward | MoELayer) -> int:
    """Floating point operations one token spends in a feed-forward or MoE
    stage. Counts the linear maps only (MAC = 2 FLOPs); activations, norms
    and biases are excluded. The MoE cost is k experts plus the router."""
    if isinstance(layer, FeedForward):
        return 2 * FLOPS_PER_MAC * layer.d_model * layer.d_ff
    router_cost = FLOPS_PER_MAC * layer.d_model * layer.num_experts
    return layer.router.top_k * flops_per_token(layer.experts[0]) + router_cost


@dataclass(frozen=True)
class NoiseScanRow:
    svd_ratio: float
    mean_signal_norm: float
    mean_noise_norm: float
    noise_signal_ratio: float
    mean_selected_gate: float


def noise_scan(moe: MoELayer, svd_ratios, tokens: np.ndarray) -> list[NoiseScanRow]:
    """Mean signal/noise norms of the first-layer gathering noise over a token
    sample, one row per ratio, rows sorted by ratio ascending.

    Each token is routed (noise off) to its primary expert. Signal is what
    that expert alone contributes after its own truncation (gate treated as
    1); noise is everything the SVD-gathered first layer adds on top: the
    truncated foreign experts plus the bias-averaging mismatch. Signal plus
    noise is the gathered layer's output.

    The tokens are grouped by primary expert once, by a stable sort, so each
    expert's signal is one product over a contiguous slice. The mean norms
    are summed in that grouped order, not the sample's, and so match a
    per-token mean up to rounding.

    Where the mean signal norm is 0, as for experts whose ``w1`` and ``b1``
    are all zero, the ratio is undefined and the row reports a
    ``noise_signal_ratio`` of 0.0.
    """
    tokens = as_array(tokens, "tokens")
    if tokens.ndim != 2 or tokens.shape[1] != moe.d_model or len(tokens) == 0:
        raise ShapeError(f"tokens must be (n, {moe.d_model}) with n >= 1, got shape {tokens.shape}")
    ratios = sorted(float(r) for r in svd_ratios)
    factors = [svd(e.w1) for e in moe.experts]
    probs = router_probs(tokens, moe.router)
    picks = np.argmax(probs, axis=1)
    gates = probs[np.arange(len(picks)), picks]
    order = np.argsort(picks, kind="stable")
    grouped = tokens[order]
    # grouped[bounds[e]:bounds[e + 1]] are the tokens whose primary expert is e
    bounds = np.searchsorted(picks[order], np.arange(moe.num_experts + 1))
    b1_avg, _ = average_bias(moe.experts)
    signal = np.empty((len(tokens), moe.experts[0].d_ff))
    rows = []
    for ratio in ratios:
        w1_g, _, recon = svdkg_merge(factors, ratio)
        noise = grouped @ w1_g  # the gathered layer's output, less the signal below
        noise += b1_avg
        for e, expert in enumerate(moe.experts):
            lo, hi = bounds[e], bounds[e + 1]
            np.matmul(grouped[lo:hi], recon[e], out=signal[lo:hi])
            signal[lo:hi] += expert.b1
        noise -= signal
        mean_signal = float(np.sqrt(np.einsum("ij,ij->i", signal, signal)).mean())
        mean_noise = float(np.sqrt(np.einsum("ij,ij->i", noise, noise)).mean())
        rows.append(
            NoiseScanRow(
                svd_ratio=ratio,
                mean_signal_norm=mean_signal,
                mean_noise_norm=mean_noise,
                noise_signal_ratio=mean_noise / mean_signal if mean_signal > 0 else 0.0,
                mean_selected_gate=float(gates.mean()),
            )
        )
    return rows
