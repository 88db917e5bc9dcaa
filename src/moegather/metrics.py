"""Evaluation metrics: benefit preservation, FLOPs accounting, and an
empirical decomposition of the noise injected by SVD knowledge gathering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gather import average_bias, svdkg_merge
from .model import FeedForward, MoELayer, router_probs
from .numerics import svd

# Multiply-accumulate counted as two floating point operations.
FLOPS_PER_MAC = 2


class UndefinedMetricError(ValueError):
    """The benefit ratio is undefined when the MoE and dense scores coincide."""


def moe_benefits(score_student: float, score_dense: float, score_moe: float) -> float:
    """Fraction of the MoE's improvement over the plain dense model that the
    student preserves: (student - dense) / (moe - dense), all three scores on
    one common metric (e.g. accuracy)."""
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
    dense_cost = 2 * FLOPS_PER_MAC * layer.d_model * layer.d_ff
    router_cost = FLOPS_PER_MAC * layer.d_model * layer.num_experts
    return layer.router.top_k * dense_cost + router_cost


@dataclass(frozen=True)
class NoiseScanRow:
    # fields in the order of the "noise_scan" columns in schemas/csv_columns.json:
    # the CSV writer writes astuple(row)
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
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != moe.d_model or len(tokens) == 0:
        raise ValueError(f"tokens must be (n, {moe.d_model}) with n >= 1, got shape {tokens.shape}")
    ratios = sorted(float(r) for r in svd_ratios)
    factors = [svd(e.w1) for e in moe.experts]
    probs = router_probs(tokens, moe.router)
    picks = np.argmax(probs, axis=1)
    gates = probs[np.arange(len(picks)), picks]
    b1_avg, _ = average_bias(moe.experts)
    rows = []
    for ratio in ratios:
        w1_g, _, recon = svdkg_merge(factors, ratio)
        merged = tokens @ w1_g + b1_avg
        signal = np.empty_like(merged)
        for e in np.unique(picks):
            mine = picks == e
            signal[mine] = tokens[mine] @ recon[e] + moe.experts[e].b1
        noise = merged - signal
        mean_signal = float(np.linalg.norm(signal, axis=1).mean())
        mean_noise = float(np.linalg.norm(noise, axis=1).mean())
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
