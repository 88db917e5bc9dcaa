import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegather import model as model_mod
from moegather.model import (
    FORWARD_BLOCK,
    Architecture,
    FeedForward,
    MoELayer,
    _gelu,
    _gelu_with_grad,
    _stage_forward_dense,
    _stage_forward_moe,
    activation_with_grad,
    build_classifier,
    dispatch,
    forward_batch,
    layer_norm,
    log_softmax,
    model_from_tensors,
    router_probs,
    row_blocks,
    state_hash,
    tensor_layout,
)
from moegather.numerics import NumericalError, Rng, ShapeError
from moegather.training import _layer_norm_backward, _pooled_balance
from moegather.workbench.config import default_config


def ffn_forward(ffn, x):
    """One feed-forward stage on a vector or a (..., d_model) batch, via the stage kernel."""
    return _stage_forward_dense(ffn, np.asarray(x, dtype=np.float64), need_grad=False)[0]


def make_ffn(rng, d=6, h=10):
    return FeedForward(
        w1=rng.normal(size=(d, h)),
        b1=rng.normal(size=h),
        w2=rng.normal(size=(h, d)),
        b2=rng.normal(size=d),
    )


def zero_experts(d, num_experts):
    """``num_experts`` experts of width ``d`` whose tensors are all zero."""
    return [FeedForward(np.zeros((d, 1)), np.zeros(1), np.zeros((1, d)), np.zeros(d)) for _ in range(num_experts)]


def gate(weight, top_k=1):
    """An MoE stage of zero experts around a router weight; the gate reads
    the weight and the expert count alone."""
    return MoELayer(zero_experts(*np.shape(weight)), weight, top_k)


class TestRouterProbs:
    def test_zero_weights_uniform(self):
        r = gate(np.zeros((5, 4)), top_k=2)
        p = router_probs(Rng(0).normal(size=5), r)
        assert np.allclose(p, 0.25)

    def test_single_expert(self):
        r = gate(np.zeros((3, 1)), top_k=1)
        assert router_probs(np.ones(3), r)[0] == 1.0

    def test_matches_scalar_softmax_oracle(self):
        rng = Rng(3)
        r = gate(rng.normal(size=(6, 4)), top_k=2)
        x = rng.normal(size=6)
        logits = [sum(x[i] * r.router[i, j] for i in range(6)) for j in range(4)]
        exps = [np.exp(v) for v in logits]
        expected = np.array([e / sum(exps) for e in exps])
        assert np.abs(router_probs(x, r) - expected).max() < 1e-12

    def test_noise_changes_probs_only_when_enabled(self):
        rng = Rng(3)
        r = gate(rng.normal(size=(6, 4)), top_k=2)
        x = rng.normal(size=6)
        with_noise = router_probs(x, r, Rng(1))
        without = router_probs(x, r, None)
        assert not np.allclose(with_noise, without)

    def test_probs_sum_to_one(self):
        rng = Rng(9)
        for _ in range(20):
            r = gate(rng.normal(size=(4, 6)), top_k=1)
            p = router_probs(rng.normal(size=4), r, rng)
            assert abs(p.sum() - 1.0) < 1e-6
            assert (p > 0).all() and (p < 1).all()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_input_rejected(self):
        r = gate(np.zeros((2, 2)), top_k=1)
        with pytest.raises(NumericalError):
            router_probs(np.array([np.inf, 0.0]), r)

    def test_rows_match_one_token_at_a_time(self):
        rng = Rng(4)
        r = gate(rng.normal(size=(6, 4)), top_k=2)
        xs = rng.normal(size=(2, 5, 6))
        batched = router_probs(xs, r)
        assert batched.shape == (2, 5, 4)
        for i, j in np.ndindex(2, 5):
            assert np.abs(batched[i, j] - router_probs(xs[i, j], r)).max() < 1e-15

    def test_noise_is_one_draw_shaped_like_the_logits(self):
        # training draws its router noise through this call; the draw shape
        # fixes the noise stream, so it must stay (rows, num_experts), and
        # its std is 1/num_experts
        rng = Rng(5)
        r = gate(rng.normal(size=(6, 4)), top_k=2)
        xs = rng.normal(size=(7, 6))
        logits = xs @ r.router + Rng(8).normal(size=(7, 4), scale=0.25)
        want = np.exp(log_softmax(logits))
        assert np.array_equal(router_probs(xs, r, Rng(8)), want)

    def test_width_mismatch_rejected(self):
        r = gate(np.zeros((3, 2)), top_k=1)
        with pytest.raises(ShapeError):
            router_probs(np.ones((4, 2)), r)


class TestFfnForward:
    def test_zero_weights_give_bias(self):
        ffn = FeedForward(np.zeros((4, 8)), np.zeros(8), np.zeros((8, 4)), np.full(4, 2.5))
        assert np.array_equal(ffn_forward(ffn, np.ones(4)), np.full(4, 2.5))

    def test_matches_scalar_loop_oracle(self):
        rng = Rng(5)
        ffn = make_ffn(rng, d=4, h=7)
        x = rng.normal(size=4)
        hidden = []
        for j in range(7):
            pre = ffn.b1[j] + sum(x[i] * ffn.w1[i, j] for i in range(4))
            hidden.append(float(_gelu(np.array([pre]))[0]))
        expected = [ffn.b2[i] + sum(hidden[j] * ffn.w2[j, i] for j in range(7)) for i in range(4)]
        assert np.abs(ffn_forward(ffn, x) - np.array(expected)).max() < 1e-12


def make_moe(rng, d=6, h=10, num_experts=4, top_k=2):
    experts = [make_ffn(rng, d, h) for _ in range(num_experts)]
    return MoELayer(experts=experts, router=rng.normal(size=(d, num_experts)), top_k=top_k)


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
            experts=[shared, FeedForward(**{name: t.copy() for name, t in shared.tensors().items()})],
            router=rng.normal(size=(6, 2)),
            top_k=2,
        )
        x = rng.normal(size=6)
        y, _, _ = moe_forward(layer, x)
        assert np.abs(y - ffn_forward(shared, x)).max() < 1e-12

    def test_top1_matches_evaluate_all_oracle(self):
        rng = Rng(3)
        layer = make_moe(rng, num_experts=4, top_k=1)
        x = rng.normal(size=6)
        y, _, selected = moe_forward(layer, x)
        probs = router_probs(x, layer)
        best = int(np.argmax(probs))
        all_outputs = [ffn_forward(e, x) for e in layer.experts]
        assert selected == (best,)
        assert np.abs(y - probs[best] * all_outputs[best]).max() < 1e-12

    def test_k_equals_e_matches_dense_mixture(self):
        rng = Rng(4)
        layer = make_moe(rng, num_experts=4, top_k=4)
        x = rng.normal(size=6)
        y, _, _ = moe_forward(layer, x)
        probs = router_probs(x, layer)
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


def mask_dispatch_forward(stage, x, rng, need_grad):
    """Oracle: the per-expert mask dispatch that the sorted dispatch replaced.
    Each expert finds its tokens with a mask, runs them, and adds its gated
    output into place. Returns (out, cache); with ``need_grad`` the cache holds
    each expert's FFN cache."""
    probs = router_probs(x, stage, rng)
    sel = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, : stage.top_k], axis=1)
    gates = np.take_along_axis(probs, sel, axis=1)
    out = np.zeros_like(x)
    per_expert = {}
    for e, expert in enumerate(stage.experts):
        hits = np.nonzero((sel == e).any(axis=1))[0]
        if hits.size == 0:
            continue
        ye, ffn_cache = _stage_forward_dense(expert, x[hits], need_grad)
        g = gates[hits][sel[hits] == e]
        out[hits] += g[:, None] * ye
        if need_grad:
            per_expert[e] = ffn_cache
    cache = {"probs": probs, "sel": sel}
    if need_grad:
        cache.update(x=x, experts=per_expert)
    return out, cache


class TestSortedDispatch:
    """``_stage_forward_moe`` groups the (token, expert) slots by expert with
    one stable sort; the mask dispatch above is its byte-for-byte oracle."""

    def test_dispatch_on_a_hand_built_table(self):
        # 64 rows over 4 experts in four patterns; expert 2 is never picked,
        # and patterns 0 and 3 tie experts for a place
        patterns = [[0.3, 0.3, 0.1, 0.3], [0.1, 0.2, 0.0, 0.7], [0.6, 0.1, 0.0, 0.3], [0.25, 0.25, 0.0, 0.5]]
        picks = [(0, 1), (1, 3), (0, 3), (0, 3)]  # by hand: ties to the lower expert, ascending
        probs = np.array([patterns[t % 4] for t in range(64)])
        sel, gates, order, bounds = dispatch(probs, 2)
        assert sel.tolist() == [list(picks[t % 4]) for t in range(64)]
        assert (np.diff(sel, axis=1) > 0).all()
        assert gates.tobytes() == np.array([[probs[t, e] for e in picks[t % 4]] for t in range(64)]).tobytes()
        # slot t*2 + j, expert by expert, ascending tokens inside each group
        slots = [2 * t + j for e in range(4) for t in range(64) for j in range(2) if picks[t % 4][j] == e]
        assert order.tolist() == slots
        counts = [sum(e in picks[t % 4] for t in range(64)) for e in range(4)]
        assert bounds.tolist() == [0, *np.cumsum(counts).tolist()] and bounds[2] == bounds[3]
        # k = 1 picks the argmax, whose ties also go to the lower expert
        assert dispatch(probs, 1)[0][:, 0].tolist() == np.argmax(probs, axis=1).tolist()

    @staticmethod
    def assert_same_as_oracle(layer, x, noise_seed=None, need_grad=False):
        rngs = [None, None] if noise_seed is None else [Rng(noise_seed), Rng(noise_seed)]
        out, cache = _stage_forward_moe(layer, x, rngs[0], need_grad)
        want, oracle = mask_dispatch_forward(layer, x, rngs[1], need_grad)
        assert out.tobytes() == want.tobytes()
        for key in ("probs", "sel"):
            assert cache[key].dtype == oracle[key].dtype
            assert cache[key].tobytes() == oracle[key].tobytes()
        if noise_seed is not None:  # both drew the same amount of noise
            assert rngs[0].normal() == rngs[1].normal()
        if need_grad:
            assert cache["experts"].keys() == oracle["experts"].keys()
            for e, ec in cache["experts"].items():
                for key in ("x", "h_act", "h_grad"):
                    assert ec[key].tobytes() == oracle["experts"][e][key].tobytes()
        return cache

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 512])
    @pytest.mark.parametrize("top_k", [1, 2, 3, 4])
    def test_bit_identical_to_mask_dispatch(self, top_k, n):
        rng = Rng(40 + top_k)
        layer = make_moe(rng, d=32, h=128, num_experts=4, top_k=top_k)
        x = rng.normal(size=(n, 32))
        for need_grad in (False, True):
            self.assert_same_as_oracle(layer, x, need_grad=need_grad)
        self.assert_same_as_oracle(layer, x, noise_seed=n, need_grad=True)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_an_expert_without_tokens(self, top_k):
        rng = Rng(50 + top_k)
        layer = make_moe(rng, d=32, h=128, num_experts=4, top_k=top_k)
        layer.router[:, 1] = -10.0  # never picked for positive inputs
        x = np.abs(rng.normal(size=(64, 32)))
        cache = self.assert_same_as_oracle(layer, x, need_grad=True)
        assert not (cache["sel"] == 1).any() and 1 not in cache["experts"]

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_every_token_to_one_expert(self, n):
        # a zero router ties every gate; the stable sort then picks expert 0
        layer = make_moe(Rng(60), d=32, h=128, num_experts=4, top_k=1)
        layer.router[...] = 0.0
        x = Rng(61).normal(size=(n, 32))
        cache = self.assert_same_as_oracle(layer, x, need_grad=True)
        assert (cache["sel"] == 0).all() and list(cache["experts"]) == [0]


def balance_loss(probs):
    """Balance loss of a pool of (tokens, num_experts) gate rows, via the training kernel."""
    return _pooled_balance({"blocks": [{"stage": {"probs": np.asarray(probs)}}]})[0]


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
            router=layer.router[:, perm],
            top_k=2,
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
        d_model=6, d_ff=8, seq_len=3, num_classes=4, num_blocks=2, stage=stage,
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
        assert all(blk["stage"] == {} for blk in cache["blocks"])  # no routing

    def test_parameter_sharing_aliases_one_stage(self):
        model = build_classifier(small_arch(), Rng(2))
        tokens = Rng(3).normal(size=(3, 6))
        before, _ = classifier_forward(model, tokens)
        model.blocks[0].stage.b1[...] += 0.5  # mutate via block 0
        after, _ = classifier_forward(model, tokens)
        assert model.blocks[1].stage is model.blocks[0].stage
        assert not np.allclose(before, after)

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
                    sum(tok[i] * blk.stage.router[i, e] for i in range(d))
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
    @pytest.mark.parametrize("stage", ["dense", "moe"])
    def test_tensor_layout_lists_a_built_model(self, stage):
        arch = small_arch(stage=stage, num_blocks=3)
        model = build_classifier(arch, Rng(0))
        assert list(tensor_layout(arch)) == [(n, t.shape) for n, t in model.tensors().items()]

    @pytest.mark.parametrize("stage", ["dense", "moe"])
    def test_model_from_tensors_inverts_tensors(self, stage):
        model = build_classifier(small_arch(stage=stage, num_blocks=3), Rng(1))
        tensors = model.tensors()
        rebuilt = model_from_tensors(model.arch, dict(reversed(tensors.items())))  # any order
        assert state_hash(rebuilt) == state_hash(model)
        assert all(rebuilt.tensors()[n] is t for n, t in tensors.items())  # taken, not copied
        assert all(blk.stage is rebuilt.blocks[0].stage for blk in rebuilt.blocks)

    @pytest.mark.parametrize("edit,match", [
        (lambda t: t.pop("block1.mixer"), r"'block1.mixer' has shape none, but the architecture implies \(3, 3\)"),
        (lambda t: t.update(extra=np.zeros(2)), r"'extra' has shape \(2,\), but the architecture implies none"),
        (lambda t: t.update({"stage.expert2.b1": np.zeros(7)}), r"'stage.expert2.b1' has shape \(7,\), .* \(8,\)"),
        (lambda t: t.update({"head.w": np.zeros((4, 6))}), r"'head.w' has shape \(4, 6\), .* \(6, 4\)"),
    ], ids=["missing", "extra", "misshaped", "transposed"])
    def test_model_from_tensors_rejects_another_layout(self, edit, match):
        model = build_classifier(small_arch(stage="moe"), Rng(2))
        tensors = model.tensors()
        edit(tensors)
        with pytest.raises(ShapeError, match=match):
            model_from_tensors(model.arch, tensors)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            FeedForward(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            gate(np.zeros((3, 2)), top_k=3)
        with pytest.raises(ValueError):
            Architecture(d_model=4, d_ff=4, seq_len=2, num_classes=2, stage="bogus")

    @pytest.mark.parametrize("experts,router_width,match", [
        ([], 1, "needs at least one expert"),
        ([(6, 10), (6, 8)], 2, r"expert 1 shape \(6, 8\) != expert 0 shape \(6, 10\)"),
        ([(6, 10), (6, 10)], 3, "router width 3 != expert count 2"),
    ], ids=["no-experts", "unequal-experts", "router-width"])
    def test_moe_layer_rejects_a_mismatched_bank(self, experts, router_width, match):
        rng = Rng(0)
        bank = [make_ffn(rng, d, h) for d, h in experts]
        with pytest.raises(ShapeError, match=match):
            MoELayer(bank, np.zeros((6, router_width)), 1)

    def test_moe_architecture_top_k_at_most_num_experts(self):
        with pytest.raises(ValueError, match="top_k=3 out of range for 2 experts"):
            small_arch(stage="moe", num_experts=2, top_k=3)

    @pytest.mark.parametrize("top_k", [1.5, 2.0, "2", True, None, 0, -1])
    def test_router_top_k_must_be_a_positive_integer(self, top_k):
        with pytest.raises(ValueError, match="top_k must be a positive integer"):
            gate(np.zeros((3, 2)), top_k=top_k)

    def test_router_takes_a_nested_list_weight(self):
        weight = Rng(0).normal(size=(3, 2))
        assert gate(weight).router is weight  # a float64 array is used as it is
        from_list = gate(weight.tolist())
        assert from_list.router.dtype == np.float64 and from_list.router.tobytes() == weight.tobytes()
        assert from_list.num_experts == 2
        with pytest.raises(ShapeError, match="2-D"):
            MoELayer(zero_experts(3, 2), [1.0, 2.0], 1)
        for bad in ([[1.0, 2.0], [3.0]], {}):  # ragged, and no numbers at all
            with pytest.raises(ShapeError, match="rectangular array of numbers"):
                MoELayer(zero_experts(3, 2), bad, 1)

    def test_feed_forward_takes_nested_lists(self):
        rng = Rng(0)
        tensors = [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(4, 3)), rng.normal(size=3)]
        ffn = FeedForward(*tensors)
        # float64 arrays are used as they are: gradients are keyed by id and copies write in place
        assert all(got is want for got, want in zip(ffn.tensors().values(), tensors))
        from_lists = FeedForward(*(t.tolist() for t in tensors))
        assert (from_lists.d_model, from_lists.d_ff) == (3, 4)
        for got, want in zip(from_lists.tensors().values(), tensors):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w1,b1", [
        ([[0.0] * 4, [0.0] * 4, [0.0] * 3], [0.0] * 4),
        ([0.0] * 3, [0.0] * 4),
        ([np.zeros((3, 4)).tolist()], [0.0] * 4),
        (np.zeros((3, 4)).tolist(), [[0.0] * 4]),
        ({}, [0.0] * 4),
    ], ids=["ragged-w1", "1-D-w1", "3-D-w1", "2-D-b1", "dict-w1"])
    def test_feed_forward_lists_of_the_wrong_shape_are_shape_errors(self, w1, b1):
        with pytest.raises(ShapeError):
            FeedForward(w1, b1, np.zeros((4, 3)).tolist(), [0.0] * 3)

    def test_forward_batch_shape_check(self):
        model = build_classifier(small_arch(), Rng(0))
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((2, 5, 6)))

    @pytest.mark.parametrize("shape", [(3, 6), (1, 2, 3, 6)])
    def test_forward_batch_needs_3d_tokens(self, shape):
        model = build_classifier(small_arch(), Rng(0))
        with pytest.raises(ShapeError, match="batch, seq_len, d_model"):
            forward_batch(model, np.zeros(shape))
        with pytest.raises(ShapeError, match="batch, seq_len, d_model"):
            forward_batch(model, np.zeros(shape).tolist())

    @pytest.mark.parametrize("stage", ["dense", "moe"])
    def test_forward_batch_accepts_a_nested_list(self, stage):
        model = build_classifier(small_arch(stage=stage), Rng(0))
        tokens = Rng(1).normal(size=(5, 3, 6))
        logits, cache = forward_batch(model, tokens)
        assert cache["tokens"] is tokens  # a float64 array is used as it is
        from_list, _ = forward_batch(model, tokens.tolist())
        assert from_list.tobytes() == logits.tobytes()


def _gelu_with_grad_oracle(x):
    """The direct, out-of-place expressions the in-place kernel must reproduce."""
    c = np.sqrt(2.0 / np.pi)
    a = 0.044715
    k1, k2 = -2.0 * c, -2.0 * c * a
    x2 = x * x
    s = 1.0 / (1.0 + np.exp(np.minimum(x * (k1 + k2 * x2), 700.0)))
    y = x * s
    dy = s + y * (1.0 - s) * (2.0 * c + 6.0 * c * a * x2)
    return y, dy


def _tanh_gelu_oracle(x):
    """The same GELU in tanh form, as Hendrycks and Gimpel write it: an independent check of the logistic form."""
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
        assert np.array_equal(_bits(_gelu(self.GRID)), _bits(want))

    def test_logistic_form_agrees_with_tanh_form(self):
        y, dy = _gelu_with_grad(self.GRID)
        want_y, want_dy = _tanh_gelu_oracle(self.GRID)
        assert np.abs(y - want_y).max() < 1e-13
        assert np.abs(dy - want_dy).max() < 1e-13

    def test_gelu_within_1e_12_relative_of_extended_precision(self):
        # Below x ≈ -6.6 the tanh form's 1 + tanh cancels to exactly 0; the
        # logistic form keeps the tail, down to where y leaves double range.
        x = np.linspace(-30.0, 30.0, 200_001)
        xl = x.astype(np.longdouble)
        c = np.sqrt(np.longdouble(2) / np.arccos(np.longdouble(-1)))
        want = xl / (1 + np.exp(-2 * c * (xl + np.longdouble(0.044715) * xl**3)))
        y = _gelu(x)
        kept = np.abs(want) > 1e-300
        assert kept.sum() > 0.8 * len(x)
        assert (np.abs((y[kept] - want[kept]) / want[kept]) < 1e-12).all()

    def test_gelu_derivative_matches_central_differences(self):
        x, h = np.linspace(-30.0, 30.0, 6001), 1e-5
        _, dy = _gelu_with_grad(x)
        numeric = (_gelu(x + h) - _gelu(x - h)) / (2 * h)
        assert np.allclose(dy, numeric, rtol=1e-8, atol=1e-8)

    def test_gelu_of_extreme_inputs_is_finite_and_warns_nothing(self):
        # tests run with RuntimeWarning as an error, so an overflow in exp fails here
        x = np.linspace(-1e4, 1e4, 20_001)
        y, dy = _gelu_with_grad(x)
        assert np.isfinite(y).all() and np.isfinite(dy).all()
        assert np.array_equal(_bits(_gelu(x)), _bits(y))
        past_clamp = x <= -22.0  # z = -2C(x + A x^3) reaches 797 at -22, past the clamp at 700
        assert (y[past_clamp] <= 0).all() and (np.abs(y[past_clamp]) < 1e-300).all()
        assert np.array_equal(y[x >= 22.0], x[x >= 22.0]) and (dy[x >= 22.0] == 1.0).all()

    def test_unknown_activation_rejected_by_both_tables(self):
        # the one lookup left, which a training pass reads; only the GELU is in it
        assert activation_with_grad("gelu") is _gelu_with_grad
        for name in ("swish", "relu"):
            with pytest.raises(ValueError, match="unknown activation"):
                activation_with_grad(name)


def _layer_norm_oracle(x, gain, bias):
    """The out-of-place expressions the in-place layer norm must reproduce."""
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + model_mod.LAYER_NORM_EPS)
    xhat = centered * inv_std
    return gain * xhat + bias, xhat, inv_std


def _layer_norm_backward_oracle(d_y, xhat, inv_std, gain):
    """The out-of-place expressions the in-place layer-norm backward must reproduce."""
    d_gain = (d_y * xhat).sum(axis=(0, 1))
    d_bias = d_y.sum(axis=(0, 1))
    d_xhat = d_y * gain
    d = d_xhat.shape[-1]
    d_x = inv_std * (
        d_xhat
        - np.add.reduce(d_xhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / d)
    )
    return d_x, d_gain, d_bias


class TestLayerNorm:
    @staticmethod
    def inputs(seed, b=5, s=8, d=32):
        rng = Rng(seed)
        x = rng.normal(size=(b, s, d))
        x[0, 0] = 0.75  # a constant row: variance 0
        x[0, 1, ::2], x[0, 1, 1::2] = 0.0, -0.0
        x[0, 2] *= 1e-8
        x[0, 3] *= 1e8
        x[1, 4, :3] = [0.0, -0.0, 0.0]
        gain = rng.normal(size=d)
        gain[:2] = [0.0, -0.0]
        bias = rng.normal(size=d)
        bias[2] = -0.0
        d_y = rng.normal(size=(b, s, d))
        d_y[0, 5] = 0.0
        d_y[0, 3] *= 1e-8
        d_y[1, 2, ::3] = -0.0
        return x, gain, bias, d_y

    @pytest.mark.parametrize("seed,d", [(0, 32), (1, 32), (2, 7)])
    def test_forward_and_backward_bit_identical_to_direct_expressions(self, seed, d):
        x, gain, bias, d_y = self.inputs(seed, d=d)
        got = layer_norm(x, gain, bias)
        want = _layer_norm_oracle(x, gain, bias)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
        _, xhat, inv_std = want
        got = _layer_norm_backward(d_y, xhat, inv_std, gain)
        want = _layer_norm_backward_oracle(d_y, xhat, inv_std, gain)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))

    def test_constant_row_normalizes_to_zero(self):
        x, gain, bias, _ = self.inputs(0)
        y, xhat, inv_std = layer_norm(x, gain, bias)
        assert not np.any(xhat[0, 0]) and inv_std[0, 0, 0] == 1.0 / np.sqrt(model_mod.LAYER_NORM_EPS)
        assert np.array_equal(_bits(y[0, 0]), _bits(gain * 0.0 + bias))

    def test_no_argument_is_modified(self):
        x, gain, bias, d_y = self.inputs(3)
        args = (x, gain, bias, d_y)
        before = [a.copy() for a in args]
        _, xhat, inv_std = layer_norm(x, gain, bias)
        cached = (xhat.copy(), inv_std.copy())
        _layer_norm_backward(d_y, xhat, inv_std, gain)
        for a, b in zip(args + (xhat, inv_std), before + list(cached), strict=True):
            assert np.array_equal(_bits(a), _bits(b))


class TestForwardOnly:
    @pytest.mark.parametrize("stage", ["moe", "dense"])
    def test_default_logits_bit_identical_to_need_grad(self, stage):
        model = build_classifier(small_arch(stage=stage), Rng(11))
        tokens = Rng(12).normal(size=(7, 3, 6))
        plain, cache = forward_batch(model, tokens)  # rng=None: router noise off
        with_grad, grad_cache = forward_batch(model, tokens, need_grad=True)
        assert np.array_equal(plain, with_grad)
        assert not cache["need_grad"] and grad_cache["need_grad"]
        for blk, grad_blk in zip(cache["blocks"], grad_cache["blocks"]):
            st, grad_st = blk["stage"], grad_blk["stage"]
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
        routing = {"probs", "sel"} if stage == "moe" else set()
        for blk, grad_blk in zip(cache["blocks"], grad_cache["blocks"]):
            assert set(blk) == {"stage"}  # no layer-norm xhat / inv_std
            assert set(blk["stage"]) == routing  # no x, h_act, y or per-expert records
            assert {"ln1", "ln2"} <= set(grad_blk) and "x" in grad_blk["stage"]


@pytest.fixture(scope="module")
def default_models():
    arch = default_config(0).arch
    return {"moe": build_classifier(arch, Rng(21)), "dense": build_classifier(arch.dense_twin(), Rng(21))}


@pytest.fixture(scope="module")
def default_tokens(default_models):
    arch = default_models["moe"].arch
    return Rng(22).normal(size=(512, arch.seq_len, arch.d_model))


@pytest.fixture(scope="module")
def default_logits(default_models, default_tokens):
    """Logits of one unblocked forward of each default model over all of ``default_tokens``."""
    return {stage: forward_batch(model, default_tokens, need_grad=True)[0] for stage, model in default_models.items()}


class TestBlockedForward:
    """A forward-only, noise-free pass runs in blocks of at most FORWARD_BLOCK
    sequences; the ``need_grad=True`` pass is never blocked, so it is the oracle."""

    @pytest.mark.parametrize("n", [63, 64, 65, 100, 129, 257, 512])
    @pytest.mark.parametrize("stage", ["moe", "dense"])
    def test_blocked_pass_bit_identical_to_unblocked(self, default_models, default_tokens, stage, n):
        model, tokens = default_models[stage], default_tokens[:n]
        logits, cache = forward_batch(model, tokens)
        want, oracle = forward_batch(model, tokens, need_grad=True)
        assert np.array_equal(logits, want)
        assert np.array_equal(cache["pooled"], oracle["pooled"])
        assert set(cache) == set(oracle) and cache["tokens"] is tokens
        assert not cache["need_grad"]
        routing = {"probs", "sel"} if stage == "moe" else set()
        for blk, oracle_blk in zip(cache["blocks"], oracle["blocks"], strict=True):
            assert set(blk) == {"stage"} and set(blk["stage"]) == routing
            for key in routing:
                assert np.array_equal(blk["stage"][key], oracle_blk["stage"][key])

    def test_row_blocks_are_near_equal_slices_in_order(self):
        for n in [*range(301), 4095, 4096, 4097, 20000]:
            blocks = row_blocks(n)
            assert [i for block in blocks for i in range(n)[block]] == list(range(n)), n
            assert len(blocks) == -(-n // FORWARD_BLOCK), n
            sizes = [block.stop - block.start for block in blocks]
            assert not sizes or max(sizes) - min(sizes) <= 1, n
            if len(blocks) >= 2:
                # the blocked forward's bit identity needs two or more rows per block
                assert min(sizes) >= FORWARD_BLOCK // 2, n

    def test_blocks_are_near_equal_and_in_row_order(self, monkeypatch):
        model = build_classifier(small_arch(), Rng(23))
        tokens = Rng(24).normal(size=(599, 3, 6))
        real = model_mod._forward
        seen = []

        def recording(model, tokens, rng, need_grad):
            seen.append(tokens)
            return real(model, tokens, rng, need_grad)

        monkeypatch.setattr(model_mod, "_forward", recording)
        for n in range(1, 600):
            seen.clear()
            forward_batch(model, tokens[:n])
            sizes = [len(t) for t in seen]
            assert len(sizes) == -(-n // FORWARD_BLOCK) and sum(sizes) == n
            assert max(sizes) <= FORWARD_BLOCK and max(sizes) - min(sizes) <= 1
            if n > FORWARD_BLOCK:
                # 65 rows split 32 + 33; a short tail block never occurs
                assert min(sizes) >= FORWARD_BLOCK // 2
            assert np.array_equal(np.concatenate(seen), tokens[:n])

    @pytest.mark.parametrize("stage", ["moe", "dense"])
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(rows=st.lists(st.integers(0, 511), min_size=2, max_size=2 * FORWARD_BLOCK + 1, unique=True))
    def test_a_row_has_the_bits_of_one_forward_over_the_whole_set(self, default_models, default_tokens,
                                                                  default_logits, stage, rows):
        """Any two or more sequences of a fixed set, in any order, forwarded
        together give each row the bits of one forward over the whole set:
        the teacher pass and the lanes' byte identity rest on this. A lone
        sequence may differ in the last bit, and whether it does depends on
        the platform, so that case is asserted neither way."""
        logits, _ = forward_batch(default_models[stage], default_tokens[rows])
        assert logits.tobytes() == default_logits[stage][rows].tobytes()

    def test_noisy_pass_stays_unblocked(self, default_models, default_tokens):
        model = default_models["moe"]
        noisy, _ = forward_batch(model, default_tokens[:100], Rng(25))
        want, _ = forward_batch(model, default_tokens[:100], Rng(25), need_grad=True)
        assert np.array_equal(noisy, want)

    def test_one_forward_batch_call_runs_eight_blocks(self, monkeypatch, default_models, default_tokens):
        calls = {"forward_batch": 0, "_forward": 0}
        for name in calls:
            real = getattr(model_mod, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(model_mod, name, counting)
        model_mod.forward_batch(default_models["dense"], default_tokens)
        assert calls == {"forward_batch": 1, "_forward": 8}
