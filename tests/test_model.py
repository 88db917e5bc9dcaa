import numpy as np
import pytest

from moegather.model import (
    Architecture,
    FeedForward,
    MoELayer,
    Router,
    _gelu_with_grad,
    _relu_with_grad,
    _stage_forward_dense,
    _stage_forward_moe,
    activation_value,
    activation_with_grad,
    build_classifier,
    count_parameters,
    forward_batch,
    router_probs,
    tensor_elements,
)
from moegather.numerics import NumericalError, Rng, ShapeError
from moegather.training import _pooled_balance


def ffn_forward(ffn, x):
    """One feed-forward stage on a vector or a (..., d_model) batch, via the stage kernel."""
    return _stage_forward_dense(ffn, np.asarray(x, dtype=np.float64), need_grad=False)[0]


def make_ffn(rng, d=6, h=10, activation="gelu"):
    return FeedForward(
        w1=rng.normal(size=(d, h)),
        b1=rng.normal(size=h),
        w2=rng.normal(size=(h, d)),
        b2=rng.normal(size=d),
        activation=activation,
    )


class TestRouterProbs:
    def test_zero_weights_uniform(self):
        r = Router(weight=np.zeros((5, 4)), top_k=2)
        p = router_probs(Rng(0).normal(size=5), r)
        assert np.allclose(p, 0.25)

    def test_single_expert(self):
        r = Router(weight=np.zeros((3, 1)), top_k=1)
        assert router_probs(np.ones(3), r)[0] == 1.0

    def test_matches_scalar_softmax_oracle(self):
        rng = Rng(3)
        r = Router(weight=rng.normal(size=(6, 4)), top_k=2)
        x = rng.normal(size=6)
        logits = [sum(x[i] * r.weight[i, j] for i in range(6)) for j in range(4)]
        exps = [np.exp(v) for v in logits]
        expected = np.array([e / sum(exps) for e in exps])
        assert np.abs(router_probs(x, r) - expected).max() < 1e-12

    def test_noise_changes_probs_only_when_enabled(self):
        rng = Rng(3)
        r = Router(weight=rng.normal(size=(6, 4)), top_k=2)
        x = rng.normal(size=6)
        with_noise = router_probs(x, r, Rng(1))
        without = router_probs(x, r, None)
        assert not np.allclose(with_noise, without)
        assert r.noise_std == pytest.approx(0.25)  # defaults to 1/num_experts

    def test_probs_sum_to_one(self):
        rng = Rng(9)
        for _ in range(20):
            r = Router(weight=rng.normal(size=(4, 6)), top_k=1)
            p = router_probs(rng.normal(size=4), r, rng)
            assert abs(p.sum() - 1.0) < 1e-6
            assert (p > 0).all() and (p < 1).all()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_input_rejected(self):
        r = Router(weight=np.zeros((2, 2)), top_k=1)
        with pytest.raises(NumericalError):
            router_probs(np.array([np.inf, 0.0]), r)

    def test_rows_match_one_token_at_a_time(self):
        rng = Rng(4)
        r = Router(weight=rng.normal(size=(6, 4)), top_k=2)
        xs = rng.normal(size=(2, 5, 6))
        batched = router_probs(xs, r)
        assert batched.shape == (2, 5, 4)
        for i, j in np.ndindex(2, 5):
            assert np.abs(batched[i, j] - router_probs(xs[i, j], r)).max() < 1e-15

    def test_noise_is_one_draw_shaped_like_the_logits(self):
        # training draws its router noise through this call; the draw shape
        # fixes the noise stream, so it must stay (rows, num_experts)
        rng = Rng(5)
        r = Router(weight=rng.normal(size=(6, 4)), top_k=2)
        xs = rng.normal(size=(7, 6))
        logits = xs @ r.weight + Rng(8).normal(size=(7, 4), scale=r.noise_std)
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        assert np.array_equal(router_probs(xs, r, Rng(8)), want)

    def test_width_mismatch_rejected(self):
        r = Router(weight=np.zeros((3, 2)), top_k=1)
        with pytest.raises(ShapeError):
            router_probs(np.ones((4, 2)), r)


class TestFfnForward:
    def test_zero_weights_give_bias(self):
        ffn = FeedForward(np.zeros((4, 8)), np.zeros(8), np.zeros((8, 4)), np.full(4, 2.5))
        assert np.array_equal(ffn_forward(ffn, np.ones(4)), np.full(4, 2.5))

    def test_relu_identity_composition(self):
        ffn = FeedForward(np.eye(5), np.zeros(5), np.eye(5), np.zeros(5), activation="relu")
        x = np.abs(Rng(0).normal(size=5))
        assert np.allclose(ffn_forward(ffn, x), x)

    def test_matches_scalar_loop_oracle(self):
        rng = Rng(5)
        ffn = make_ffn(rng, d=4, h=7)
        x = rng.normal(size=4)
        hidden = []
        for j in range(7):
            pre = ffn.b1[j] + sum(x[i] * ffn.w1[i, j] for i in range(4))
            hidden.append(float(activation_value("gelu")(np.array([pre]))[0]))
        expected = [ffn.b2[i] + sum(hidden[j] * ffn.w2[j, i] for j in range(7)) for i in range(4)]
        assert np.abs(ffn_forward(ffn, x) - np.array(expected)).max() < 1e-12


def make_moe(rng, d=6, h=10, num_experts=4, top_k=2):
    experts = [make_ffn(rng, d, h) for _ in range(num_experts)]
    router = Router(weight=rng.normal(size=(d, num_experts)), top_k=top_k)
    return MoELayer(experts=experts, router=router)


def moe_forward(layer, x):
    """One token through an MoE stage via the batched stage kernel: (y, probs, selected)."""
    y, cache = _stage_forward_moe(layer, x[None, :], None, False)
    return y[0], cache["probs"][0], tuple(int(i) for i in cache["sel"][0])


class TestMoeForward:
    def test_single_expert_gate_is_one(self):
        rng = Rng(1)
        layer = make_moe(rng, num_experts=1, top_k=1)
        x = rng.normal(size=6)
        y, probs, selected = moe_forward(layer, x)
        assert np.allclose(y, ffn_forward(layer.experts[0], x), atol=1e-12)
        assert selected == (0,)
        assert probs[0] == 1.0

    def test_identical_experts_top2_gates_sum_to_one(self):
        rng = Rng(2)
        shared = make_ffn(rng)
        layer = MoELayer(
            experts=[shared, shared.copy()],
            router=Router(weight=rng.normal(size=(6, 2)), top_k=2),
        )
        x = rng.normal(size=6)
        y, _, _ = moe_forward(layer, x)
        assert np.abs(y - ffn_forward(shared, x)).max() < 1e-12

    def test_top1_matches_evaluate_all_oracle(self):
        rng = Rng(3)
        layer = make_moe(rng, num_experts=4, top_k=1)
        x = rng.normal(size=6)
        y, _, selected = moe_forward(layer, x)
        probs = router_probs(x, layer.router)
        best = int(np.argmax(probs))
        all_outputs = [ffn_forward(e, x) for e in layer.experts]
        assert selected == (best,)
        assert np.abs(y - probs[best] * all_outputs[best]).max() < 1e-12

    def test_k_equals_e_matches_dense_mixture(self):
        rng = Rng(4)
        layer = make_moe(rng, num_experts=4, top_k=4)
        x = rng.normal(size=6)
        y, _, _ = moe_forward(layer, x)
        probs = router_probs(x, layer.router)
        dense = sum(probs[i] * ffn_forward(e, x) for i, e in enumerate(layer.experts))
        assert np.abs(y - dense).max() < 1e-10

    def test_noise_off_is_bit_deterministic(self):
        rng = Rng(5)
        layer = make_moe(rng)
        x = rng.normal(size=6)
        y1, p1, s1 = moe_forward(layer, x)
        y2, p2, s2 = moe_forward(layer, x)
        assert np.array_equal(y1, y2)
        assert s1 == s2 and np.array_equal(p1, p2)


def balance_loss(probs):
    """Balance loss of a pool of (tokens, num_experts) gate rows, via the training kernel."""
    return _pooled_balance({"blocks": [{"stage": {"kind": "moe", "probs": np.asarray(probs)}}]})[0]


class TestBalanceLoss:
    def test_uniform_is_exactly_one(self):
        for num_experts in (2, 4, 8):
            assert balance_loss([_onehotish(num_experts, i) for i in range(num_experts)]) == 1.0

    def test_all_to_expert_zero(self):
        assert balance_loss([[1.0, 0.0]] * 5) == 2.0

    def test_matches_counting_oracle(self):
        rng = Rng(6)
        num_experts = 5
        pool = []
        for _ in range(64):
            logits = rng.normal(size=num_experts)
            pool.append(np.exp(logits) / np.exp(logits).sum())
        m = np.zeros(num_experts)
        p_bar = np.zeros(num_experts)
        for p in pool:
            m[int(np.argmax(p))] += 1.0 / len(pool)
            p_bar += p / len(pool)
        expected = num_experts * float(sum(m[i] * p_bar[i] for i in range(num_experts)))
        assert abs(balance_loss(pool) - expected) < 1e-12

    def test_permutation_invariance(self):
        rng = Rng(7)
        layer = make_moe(rng, d=5, num_experts=4, top_k=2)
        xs = rng.normal(size=(40, 5))
        perm = [2, 0, 3, 1]
        permuted_layer = MoELayer(
            experts=[layer.experts[i] for i in perm],
            router=Router(weight=layer.router.weight[:, perm], top_k=2),
        )
        pools = [_stage_forward_moe(moe, xs, None, False)[1]["probs"] for moe in (layer, permuted_layer)]
        assert abs(balance_loss(pools[0]) - balance_loss(pools[1])) < 1e-12


def _onehotish(n, i):
    # gate distribution whose mean over all i is uniform
    p = np.full(n, (1.0 - 0.6) / (n - 1)) if n > 1 else np.ones(1)
    if n > 1:
        p[i] = 0.6
    return p


def small_arch(stage="dense", **kw):
    defaults = dict(
        d_model=6, d_ff=8, seq_len=3, num_classes=4, num_blocks=2,
        parameter_sharing=True, stage=stage,
    )
    if stage == "moe":
        defaults.update(num_experts=3, top_k=2)
    defaults.update(kw)
    return Architecture(**defaults)


def classifier_forward(model, tokens):
    """Forward one (seq_len, d_model) sequence as a batch of one."""
    logits, cache = forward_batch(model, tokens[None, :, :])
    return logits[0], cache


class TestClassifierForward:
    def test_zero_network_returns_head_bias(self):
        model = build_classifier(small_arch(), Rng(0))
        for name, p in model.parameters().items():
            p[...] = 0.0
        model.head_b[...] = np.array([1.0, -2.0, 3.0, 0.5])
        logits, cache = classifier_forward(model, Rng(1).normal(size=(3, 6)))
        assert np.allclose(logits, model.head_b, atol=1e-12)
        assert all(blk["stage"] == {"kind": "dense"} for blk in cache["blocks"])  # no routing

    def test_parameter_sharing_aliases_one_stage(self):
        model = build_classifier(small_arch(), Rng(2))
        tokens = Rng(3).normal(size=(3, 6))
        before, _ = classifier_forward(model, tokens)
        model.blocks[0].stage.b1[...] += 0.5  # mutate via block 0
        after, _ = classifier_forward(model, tokens)
        assert model.blocks[1].stage is model.blocks[0].stage
        assert not np.allclose(before, after)
        # the same mutation on an unshared model leaves block 1 untouched
        solo = build_classifier(small_arch(parameter_sharing=False), Rng(2))
        solo.blocks[0].stage.b1[...] += 0.5
        assert not np.allclose(solo.blocks[1].stage.b1, solo.blocks[0].stage.b1)

    def test_unshared_blocks_are_independent(self):
        model = build_classifier(small_arch(parameter_sharing=False), Rng(2))
        assert model.blocks[0].stage is not model.blocks[1].stage

    def test_matches_straight_line_scalar_reimplementation(self):
        model = build_classifier(small_arch(stage="moe"), Rng(4))
        tokens = Rng(5).normal(size=(3, 6))
        logits, _ = classifier_forward(model, tokens)
        assert np.abs(logits - _scalar_forward(model, tokens)).max() < 1e-10

    def test_moe_aux_has_one_outcome_per_token_per_block(self):
        model = build_classifier(small_arch(stage="moe"), Rng(4))
        _, cache = classifier_forward(model, Rng(5).normal(size=(3, 6)))
        assert len(cache["blocks"]) == 2  # two MoE invocations
        for blk in cache["blocks"]:
            probs, sel = blk["stage"]["probs"], blk["stage"]["sel"]
            assert probs.shape == (3, 3) and sel.shape == (3, 2)  # one row per token
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
            assert (np.diff(sel, axis=1) > 0).all()

    def test_forced_gate_equals_dense_twin(self):
        # a one-expert router forces every gate to exactly 1
        teacher = build_classifier(small_arch(stage="moe", num_experts=1, top_k=1), Rng(6))
        student = build_classifier(small_arch(), Rng(7))
        # share the matched layers, then plant expert 1 into the dense stage
        student.embed[...] = teacher.embed
        student.head_w[...] = teacher.head_w
        student.head_b[...] = teacher.head_b
        for tb, sb in zip(teacher.blocks, student.blocks):
            sb.mixer[...] = tb.mixer
            sb.ln1_gain[...] = tb.ln1_gain
            sb.ln1_bias[...] = tb.ln1_bias
            sb.ln2_gain[...] = tb.ln2_gain
            sb.ln2_bias[...] = tb.ln2_bias
        chosen = teacher.blocks[0].stage.experts[0]
        dense = student.blocks[0].stage
        dense.w1[...] = chosen.w1
        dense.b1[...] = chosen.b1
        dense.w2[...] = chosen.w2
        dense.b2[...] = chosen.b2
        tokens = Rng(8).normal(size=(4, 3, 6))
        forced, _ = forward_batch(teacher, tokens)
        plain, _ = forward_batch(student, tokens)
        assert np.abs(forced - plain).max() < 1e-10

    def test_batched_forward_agrees_with_per_sequence(self):
        model = build_classifier(small_arch(stage="moe"), Rng(9))
        tokens = Rng(10).normal(size=(5, 3, 6))
        batched, _ = forward_batch(model, tokens)
        for i in range(5):
            single, _ = classifier_forward(model, tokens[i])
            assert np.abs(batched[i] - single).max() < 1e-10


def _scalar_forward(model, tokens):
    """Straight-line per-scalar reimplementation of the forward pass."""
    import math

    arch = model.arch
    s, d = tokens.shape

    def ln(vec, gain, bias):
        mu = sum(vec) / d
        var = sum((v - mu) ** 2 for v in vec) / d
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [gain[i] * (vec[i] - mu) * inv + bias[i] for i in range(d)]

    def scalar_gelu(v):
        return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * v * (1.0 + 0.044715 * v * v)))

    x = [[sum(tokens[t][i] * model.embed[i, j] for i in range(d)) for j in range(d)] for t in range(s)]
    for blk in model.blocks:
        normed = [ln(x[t], blk.ln1_gain, blk.ln1_bias) for t in range(s)]
        mixed = [
            [sum(blk.mixer[t, u] * normed[u][j] for u in range(s)) for j in range(d)]
            for t in range(s)
        ]
        res1 = [[x[t][j] + mixed[t][j] for j in range(d)] for t in range(s)]
        normed2 = [ln(res1[t], blk.ln2_gain, blk.ln2_bias) for t in range(s)]
        out = []
        for t in range(s):
            tok = normed2[t]
            if arch.stage == "moe":
                logits = [
                    sum(tok[i] * blk.stage.router.weight[i, e] for i in range(d))
                    for e in range(arch.num_experts)
                ]
                mx = max(logits)
                exps = [math.exp(v - mx) for v in logits]
                probs = [e / sum(exps) for e in exps]
                order = sorted(range(arch.num_experts), key=lambda e: (-probs[e], e))
                y = [0.0] * d
                for e in order[: arch.top_k]:
                    expert = blk.stage.experts[e]
                    hidden = [
                        scalar_gelu(expert.b1[h] + sum(tok[i] * expert.w1[i, h] for i in range(d)))
                        for h in range(arch.d_ff)
                    ]
                    for j in range(d):
                        y[j] += probs[e] * (
                            expert.b2[j] + sum(hidden[h] * expert.w2[h, j] for h in range(arch.d_ff))
                        )
            else:
                stage = blk.stage
                hidden = [
                    scalar_gelu(stage.b1[h] + sum(tok[i] * stage.w1[i, h] for i in range(d)))
                    for h in range(arch.d_ff)
                ]
                y = [
                    stage.b2[j] + sum(hidden[h] * stage.w2[h, j] for h in range(arch.d_ff))
                    for j in range(d)
                ]
            out.append(y)
        x = [[res1[t][j] + out[t][j] for j in range(d)] for t in range(s)]
    pooled = [sum(x[t][j] for t in range(s)) / s for j in range(d)]
    return np.array(
        [
            model.head_b[c] + sum(pooled[j] * model.head_w[j, c] for j in range(d))
            for c in range(arch.num_classes)
        ]
    )


class TestModelPlumbing:
    def test_parameter_count_shared_vs_unshared(self):
        shared = build_classifier(small_arch(stage="moe"), Rng(0))
        unshared = build_classifier(small_arch(stage="moe", parameter_sharing=False), Rng(0))
        assert count_parameters(unshared) > count_parameters(shared)

    @pytest.mark.parametrize("stage", ["dense", "moe"])
    @pytest.mark.parametrize("sharing", [True, False])
    def test_tensor_elements_counts_a_built_model(self, stage, sharing):
        arch = small_arch(stage=stage, parameter_sharing=sharing, num_blocks=3)
        model = build_classifier(arch, Rng(0))
        assert tensor_elements(arch) == sum(t.size for t in model.tensors().values())

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            FeedForward(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            Router(weight=np.zeros((3, 2)), top_k=3)
        with pytest.raises(ValueError):
            Architecture(d_model=4, d_ff=4, seq_len=2, num_classes=2, stage="bogus")

    def test_forward_batch_shape_check(self):
        model = build_classifier(small_arch(), Rng(0))
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((2, 5, 6)))


def _gelu_with_grad_oracle(x):
    """The direct, out-of-place expressions the in-place kernel must reproduce."""
    c = np.sqrt(2.0 / np.pi)
    a = 0.044715
    x2 = x * x
    t = np.tanh(c * x * (1.0 + a * x2))
    y = 0.5 * x * (1.0 + t)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x2)
    return y, dy


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestActivations:
    GRID = np.concatenate([np.linspace(-30.0, 30.0, 200_001), [0.0, -0.0], Rng(0).normal(size=1000) * 4])

    def test_gelu_with_grad_bit_identical_to_direct_expressions(self):
        y, dy = _gelu_with_grad(self.GRID.copy())
        want_y, want_dy = _gelu_with_grad_oracle(self.GRID)
        assert np.array_equal(_bits(y), _bits(want_y))
        assert np.array_equal(_bits(dy), _bits(want_dy))

    def test_gelu_with_grad_leaves_input_untouched(self):
        x = self.GRID.copy()
        _gelu_with_grad(x)
        assert np.array_equal(_bits(x), _bits(self.GRID))

    def test_value_only_gelu_bit_identical_to_training_value(self):
        want, _ = _gelu_with_grad_oracle(self.GRID)
        assert np.array_equal(_bits(activation_value("gelu")(self.GRID)), _bits(want))

    def test_value_only_relu_matches_training_value_including_nan(self):
        x = np.array([np.nan, -np.inf, -1.5, -0.0, 0.0, 2.5, np.inf])
        want = np.where(x > 0.0, x, 0.0)
        assert np.array_equal(_bits(_relu_with_grad(x)[0]), _bits(want))
        assert np.array_equal(_bits(activation_value("relu")(x)), _bits(want))

    def test_unknown_activation_rejected_by_both_tables(self):
        for lookup in (activation_value, activation_with_grad):
            with pytest.raises(ValueError, match="unknown activation"):
                lookup("swish")


class TestForwardOnly:
    @pytest.mark.parametrize(
        "stage,activation", [("moe", "gelu"), ("dense", "gelu"), ("dense", "relu")]
    )
    def test_default_logits_bit_identical_to_need_grad(self, stage, activation):
        model = build_classifier(small_arch(stage=stage, activation=activation), Rng(11))
        tokens = Rng(12).normal(size=(7, 3, 6))
        plain, cache = forward_batch(model, tokens)  # rng=None: router noise off
        with_grad, grad_cache = forward_batch(model, tokens, need_grad=True)
        assert np.array_equal(plain, with_grad)
        assert not cache["need_grad"] and grad_cache["need_grad"]
        for blk, grad_blk in zip(cache["blocks"], grad_cache["blocks"]):
            st, grad_st = blk["stage"], grad_blk["stage"]
            assert st["kind"] == grad_st["kind"] == stage
            if stage == "moe":
                assert np.array_equal(st["probs"], grad_st["probs"])
                assert np.array_equal(st["sel"], grad_st["sel"])
                assert all("h_grad" in ec for ec in grad_st["experts"].values())
            else:
                assert "h_grad" in grad_st

    @pytest.mark.parametrize("stage", ["moe", "dense"])
    def test_forward_only_cache_keeps_routing_arrays_only(self, stage):
        model = build_classifier(small_arch(stage=stage), Rng(13))
        _, cache = forward_batch(model, Rng(14).normal(size=(5, 3, 6)))
        _, grad_cache = forward_batch(model, Rng(14).normal(size=(5, 3, 6)), need_grad=True)
        routing = {"kind", "probs", "sel"} if stage == "moe" else {"kind"}
        for blk, grad_blk in zip(cache["blocks"], grad_cache["blocks"]):
            assert set(blk) == {"stage"}  # no layer-norm xhat / inv_std
            assert set(blk["stage"]) == routing  # no x, h_act, y or per-expert records
            assert {"ln1", "ln2"} <= set(grad_blk) and "x" in grad_blk["stage"]
