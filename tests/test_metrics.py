import warnings

import numpy as np
import pytest

from moegather.gather import average_bias, svdkg_merge
from moegather.metrics import (
    FLOPS_PER_MAC,
    UndefinedMetricError,
    flops_per_token,
    moe_benefits,
    noise_scan,
)
from moegather.model import FeedForward, MoELayer, build_classifier, router_probs
from moegather.numerics import Rng, ShapeError, svd
from moegather.workbench.config import default_config


def make_moe(seed=0, d=8, h=12, num_experts=4, top_k=2):
    rng = Rng(seed)
    experts = [
        FeedForward(rng.normal(size=(d, h)), rng.normal(size=h), rng.normal(size=(h, d)), rng.normal(size=d))
        for _ in range(num_experts)
    ]
    return MoELayer(experts=experts, router=rng.normal(size=(d, num_experts)), top_k=top_k)


class TestMoeBenefits:
    def test_arithmetic(self):
        assert moe_benefits(score_student=3.0, score_dense=1.0, score_moe=5.0) == 0.5
        assert moe_benefits(score_student=5.0, score_dense=1.0, score_moe=5.0) == 1.0
        assert moe_benefits(score_student=0.0, score_dense=1.0, score_moe=5.0) == -0.25
        assert moe_benefits(84.63, 84.03, 84.71) == pytest.approx(0.6 / 0.68)

    def test_equal_moe_and_dense_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            moe_benefits(score_student=0.9, score_dense=0.8, score_moe=0.8)

    @pytest.mark.parametrize("scores", [(np.nan, 0.8, 0.9), (0.85, np.inf, 0.9), (0.85, 0.8, np.inf),
                                        (0.85, 0.8, -np.inf)])
    def test_non_finite_score_is_undefined(self, scores):
        with pytest.raises(UndefinedMetricError, match="scores must be finite"):
            moe_benefits(*scores)


class TestFlopsPerToken:
    def test_dense(self):
        ffn = make_moe().experts[0]
        assert flops_per_token(ffn) == 2 * FLOPS_PER_MAC * 8 * 12

    def test_moe_is_top_k_experts_plus_router(self):
        for top_k in (1, 2, 4):
            moe = make_moe(top_k=top_k)
            assert flops_per_token(moe) == top_k * 2 * FLOPS_PER_MAC * 8 * 12 + FLOPS_PER_MAC * 8 * 4

    def test_default_config_moe_to_dense_ratio(self):
        arch = default_config(0).arch
        teacher = build_classifier(arch, Rng(0)).blocks[0].stage
        dense = build_classifier(arch.dense_twin(), Rng(0)).blocks[0].stage
        assert flops_per_token(teacher) == 33024 and flops_per_token(dense) == 16384
        assert round(flops_per_token(teacher) / flops_per_token(dense), 2) == 2.02


def noise_scan_oracle(moe, ratios, tokens):
    """Per-token reference: route and split one token at a time."""
    factors = [svd(e.w1) for e in moe.experts]
    b1_avg, _ = average_bias(moe.experts)
    gates = []
    picks = []
    for x in tokens:
        probs = router_probs(x, moe)
        picks.append(int(np.argmax(probs)))
        gates.append(float(probs[picks[-1]]))
    rows = []
    for ratio in sorted(ratios):
        w1_g, _, recon = svdkg_merge(factors, ratio)
        signal_norms, noise_norms = [], []
        for x, e in zip(tokens, picks):
            signal = x @ recon[e] + moe.experts[e].b1
            noise = (x @ w1_g + b1_avg) - signal
            signal_norms.append(np.linalg.norm(signal))
            noise_norms.append(np.linalg.norm(noise))
        mean_signal, mean_noise = np.mean(signal_norms), np.mean(noise_norms)
        rows.append((ratio, mean_signal, mean_noise, mean_noise / mean_signal, np.mean(gates)))
    return rows


class TestNoiseScan:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_token_oracle(self, seed):
        moe = make_moe(seed)
        tokens = Rng(seed + 10).normal(size=(64, 8))
        ratios = [1.0, 0.1, 0.5, 0.75, 0.25]
        rows = noise_scan(moe, ratios, tokens)
        want = noise_scan_oracle(moe, ratios, tokens)
        assert [r.svd_ratio for r in rows] == sorted(ratios)
        for row, expected in zip(rows, want):
            got = (row.svd_ratio, row.mean_signal_norm, row.mean_noise_norm,
                   row.noise_signal_ratio, row.mean_selected_gate)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def _assert_matches_oracle(self, moe, ratios, tokens):
        rows = noise_scan(moe, ratios, tokens)
        for row, expected in zip(rows, noise_scan_oracle(moe, ratios, tokens), strict=True):
            got = (row.svd_ratio, row.mean_signal_norm, row.mean_noise_norm,
                   row.noise_signal_ratio, row.mean_selected_gate)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_matches_per_token_oracle_at_default_shapes(self):
        # 4 experts, d_model 32, d_ff 128, and the CLI's default 256 tokens and 10 ratios
        moe = build_classifier(default_config(0).arch, Rng(0)).blocks[0].stage
        assert (moe.num_experts, moe.d_model, moe.experts[0].d_ff) == (4, 32, 128)
        self._assert_matches_oracle(moe, [0.1 * k for k in range(1, 11)], Rng(1).normal(size=(256, 32)))

    @pytest.mark.parametrize("idle, twin", [(1, 0), (3, 1)])
    def test_matches_per_token_oracle_with_an_expert_never_picked(self, idle, twin):
        # router column ``idle`` copies the lower column ``twin``, so every tie goes
        # to ``twin`` and expert ``idle``'s group of tokens is empty
        moe = make_moe(seed=4)
        moe.router[:, idle] = moe.router[:, twin]
        tokens = Rng(14).normal(size=(64, 8))
        picks = np.argmax(router_probs(tokens, moe), axis=1)
        assert idle not in picks and twin in picks
        self._assert_matches_oracle(moe, [1.0, 0.1, 0.5, 0.75, 0.25], tokens)

    def test_noise_shrinks_to_bias_mismatch_only_for_one_expert(self):
        # with a single expert at ratio 1.0 the merge is that expert itself
        moe = make_moe(num_experts=1, top_k=1)
        row, = noise_scan(moe, [1.0], Rng(1).normal(size=(16, 8)))
        assert row.mean_noise_norm < 1e-10 and row.mean_selected_gate == 1.0

    def test_a_zero_signal_reports_a_ratio_of_zero(self):
        # every expert's w1 and b1 are zero, so signal and noise are both 0 and their ratio is undefined
        moe = make_moe(seed=5)
        for expert in moe.experts:
            expert.w1[:] = 0.0
            expert.b1[:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = noise_scan(moe, [1.0, 0.1, 0.5], Rng(15).normal(size=(32, 8)))
        assert [r.svd_ratio for r in rows] == [0.1, 0.5, 1.0]
        for row in rows:
            assert (row.mean_signal_norm, row.mean_noise_norm, row.noise_signal_ratio) == (0.0, 0.0, 0.0)

    def test_rejects_wrong_token_width(self):
        with pytest.raises(ValueError):
            noise_scan(make_moe(), [0.5], np.ones((4, 7)))

    def test_rejects_empty_token_sample(self):
        # an empty sample has no mean norm; it must not come back as NaN rows
        with pytest.raises(ValueError, match="n >= 1"):
            noise_scan(make_moe(), [0.5], np.ones((0, 8)))

    @pytest.mark.parametrize("shape", [(4, 7), (0, 8), (8,), (2, 4, 8)])
    def test_a_malformed_token_array_is_a_shape_error(self, shape):
        with pytest.raises(ShapeError, match=r"tokens must be \(n, 8\)"):
            noise_scan(make_moe(), [0.5], np.ones(shape))
