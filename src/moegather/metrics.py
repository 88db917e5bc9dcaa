"""Evaluation metrics: benefit preservation, accuracy, FLOPs accounting, and
an empirical decomposition of the noise injected by SVD knowledge gathering.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass

import numpy as np

from .gather import average_bias, svdkg_merge
from .model import FeedForward, MoELayer, ffn_forward, router_probs
from .numerics import svd

# Multiply-accumulate counted as two floating point operations.
FLOPS_PER_MAC = 2


class UndefinedMetricError(ValueError):
    """The benefit ratio is undefined when the MoE and dense scores coincide."""


@dataclass(frozen=True)
class Scoreboard:
    """Three scores on one common metric (e.g. accuracy in percent)."""

    score_student: float
    score_dense: float
    score_moe: float


def moe_benefits(s: Scoreboard) -> float:
    """Fraction of the MoE's improvement over the plain dense model that the
    student preserves: (student - dense) / (moe - dense)."""
    denom = s.score_moe - s.score_dense
    if denom == 0.0:
        raise UndefinedMetricError("score_moe equals score_dense; benefit ratio undefined")
    return (s.score_student - s.score_dense) / denom


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
    # fields in NOISE_SCAN_COLUMNS order: write_noise_scan_csv writes astuple(row)
    svd_ratio: float
    mean_signal_norm: float
    mean_noise_norm: float
    noise_signal_ratio: float
    mean_selected_gate: float


def _route(moe: MoELayer, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Primary expert and its gate for each (n, d_model) token row, noise off."""
    probs = router_probs(tokens, moe.router)
    picks = np.argmax(probs, axis=1)
    return picks, probs[np.arange(len(picks)), picks]


def _split(picks: np.ndarray, merged: np.ndarray, own) -> tuple[np.ndarray, np.ndarray]:
    """Signal is ``own(e, rows)``, the output of picked expert e's truncated
    weights on its rows; noise is the rest of the merged output."""
    signal = np.empty_like(merged)
    for e in np.unique(picks):
        rows = picks == e
        signal[rows] = own(e, rows)
    return signal, merged - signal


def _first_layer_split(moe: MoELayer, tokens: np.ndarray, picks: np.ndarray,
                       w1_g: np.ndarray, recon: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    b1_avg, _ = average_bias(moe.experts)
    return _split(picks, tokens @ w1_g + b1_avg,
                  lambda e, rows: tokens[rows] @ recon[e] + moe.experts[e].b1)


def noise_decompose(
    moe: MoELayer, svd_ratio: float, x: np.ndarray, *, full_ffn: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Split the SVD-gathered layer's output on a token, or on (n, d_model)
    token rows, into signal + noise.

    Signal is what the routed expert alone would contribute after its own
    truncation (gate treated as 1); noise is everything the merge adds on
    top: the truncated foreign experts plus the bias-averaging mismatch.
    By construction signal + noise equals the gathered layer's output exactly.

    Default analyses the first linear layer only; ``full_ffn`` compares
    end-to-end feed-forward outputs instead.
    """
    x = np.asarray(x, dtype=np.float64)
    tokens = np.atleast_2d(x)
    picks, _ = _route(moe, tokens)
    w1_g, _, recon1 = svdkg_merge([e.w1 for e in moe.experts], svd_ratio)
    if full_ffn:
        w2_g, _, recon2 = svdkg_merge([e.w2 for e in moe.experts], svd_ratio)
        b1_avg, b2_avg = average_bias(moe.experts)
        student = FeedForward(w1_g, b1_avg, w2_g, b2_avg, activation=moe.experts[0].activation)

        def own(e, rows):
            expert = moe.experts[e]
            ffn = FeedForward(recon1[e], expert.b1, recon2[e], expert.b2, activation=expert.activation)
            return ffn_forward(ffn, tokens[rows])

        signal, noise = _split(picks, ffn_forward(student, tokens), own)
    else:
        signal, noise = _first_layer_split(moe, tokens, picks, w1_g, recon1)
    return signal.reshape(*x.shape[:-1], -1), noise.reshape(*x.shape[:-1], -1)


def noise_scan(moe: MoELayer, svd_ratios, tokens: np.ndarray) -> list[NoiseScanRow]:
    """Mean signal/noise norms of the first-layer gathering noise over a token
    sample, one row per ratio, rows sorted by ratio ascending."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != moe.d_model:
        raise ValueError(f"tokens must be (n, {moe.d_model})")
    ratios = sorted(float(r) for r in svd_ratios)
    mats = [e.w1 for e in moe.experts]
    factors = [svd(m) for m in mats]
    picks, gates = _route(moe, tokens)
    rows = []
    for ratio in ratios:
        w1_g, _, recon = svdkg_merge(mats, ratio, factors=factors)
        signal, noise = _first_layer_split(moe, tokens, picks, w1_g, recon)
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


NOISE_SCAN_COLUMNS = ["lambda", "mean_signal_norm", "mean_noise_norm", "ratio", "mean_selected_gate"]


def write_noise_scan_csv(rows: list[NoiseScanRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NOISE_SCAN_COLUMNS)
        writer.writerows(astuple(row) for row in rows)
