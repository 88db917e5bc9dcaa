from types import SimpleNamespace

import numpy as np
import pytest

from moegather import model as model_mod
from moegather import training
from moegather.model import (
    FORWARD_BLOCK,
    Architecture,
    FeedForward,
    MoELayer,
    _stage_forward_dense,
    _stage_forward_moe,
    build_classifier,
    forward_batch,
    model_from_tensors,
    router_probs,
    state_hash,
)
from moegather.numerics import NumericalError, Rng, ShapeError
from moegather.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BALANCE_COEFF,
    AdamState,
    DistillConfig,
    TrainConfig,
    _objective,
    backward_from_logits,
    batch_schedule,
    distill_student,
    forward_teacher,
    loss_and_grads,
    optimizer_step,
    train_classifier,
)
from moegather.workbench.data import Dataset


def train_teacher(arch, cfg, data):
    """Build and train a model from scratch, as the pipeline's teach stage does."""
    return train_classifier(build_classifier(arch, Rng(cfg.seed).derive("init")), cfg, data)


def tiny_arch(stage="moe", **kw):
    defaults = dict(
        d_model=8, d_ff=10, seq_len=4, num_classes=3, num_blocks=2, stage=stage,
    )
    if stage == "moe":
        defaults.update(num_experts=2, top_k=1)
    defaults.update(kw)
    return Architecture(**defaults)


def tiny_data(seed=0, n=96, arch=None):
    arch = arch or tiny_arch()
    rng = Rng(seed)
    cls_means = rng.normal(size=(arch.num_classes, arch.d_model))
    labels = np.arange(n) % arch.num_classes
    tokens = 1.5 * cls_means[labels][:, None, :] + rng.normal(
        size=(n, arch.seq_len, arch.d_model)
    )
    split = (3 * n) // 4
    return (
        Dataset(tokens=tokens[:split], labels=labels[:split].astype(np.int64)),
        Dataset(tokens=tokens[split:], labels=labels[split:].astype(np.int64)),
    )


def soft_kd_loss(z_s, z_t):
    """Soft KD loss of one logit row, through the batched training kernel:
    the total at alpha 0, which weighs the label loss by nothing."""
    return _objective(np.asarray(z_s)[None, :], np.array([0]), np.asarray(z_t)[None, :], 0.0)[2]


class TestSoftKdLoss:
    def test_identical_logits_zero(self):
        z = Rng(0).normal(size=5)
        assert soft_kd_loss(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_invariance(self):
        z = Rng(1).normal(size=4)
        assert soft_kd_loss(z + 3.7, z) == pytest.approx(0.0, abs=1e-12)
        assert soft_kd_loss(z + 3.7, z - 1.2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_scalar_kl_oracle(self):
        z_t = np.array([1.0, 0.0])
        z_s = np.array([0.0, 1.0])
        pt = np.exp(z_t) / np.exp(z_t).sum()
        ps = np.exp(z_s) / np.exp(z_s).sum()
        expected = sum(pt[i] * (np.log(pt[i]) - np.log(ps[i])) for i in range(2))
        assert soft_kd_loss(z_s, z_t) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = Rng(3)
        for _ in range(25):
            assert soft_kd_loss(rng.normal(size=4), rng.normal(size=4)) >= 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rejects_non_finite(self):
        # non-finite teacher logits make the distillation loss non-finite,
        # which aborts training with the step index
        arch = tiny_arch()
        data = tiny_data()
        teacher = build_classifier(arch, Rng(0))
        teacher.head_b[0] = np.inf
        cfg = DistillConfig(steps=3, batch_size=16, seed=0, eval_every=0)
        with pytest.raises(NumericalError, match="step 0"):
            distill_student(build_classifier(arch.dense_twin(), Rng(1)), teacher, cfg, data)


class TestTotalLoss:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_total_is_alpha_weighted_sum(self, alpha):
        teacher = build_classifier(tiny_arch(), Rng(17))
        student = build_classifier(tiny_arch("dense"), Rng(18))
        tokens = Rng(19).normal(size=(4, 4, 8))
        labels = np.array([0, 2, 1, 0])
        teacher_logits = forward_batch(teacher, tokens)[0]
        loss, _ = loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits, alpha=alpha)
        assert loss.distill > 0.0 and loss.balance == 0.0
        assert loss.total == alpha * loss.main + (1.0 - alpha) * loss.distill

    def test_a_balance_term_on_a_dense_model_is_refused(self):
        model = build_classifier(tiny_arch("dense"), Rng(18))
        tokens = Rng(19).normal(size=(4, 4, 8))
        with pytest.raises(ValueError, match="balance_coeff"):
            loss_and_grads(model, tokens, np.array([0, 2, 1, 0]), balance_coeff=0.01)


def _fd_check(model, grads, loss_fn, h=1e-5, tol=1e-4, stride=1):
    worst = 0.0
    for name, p in model.parameters().items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(0, flat.size, stride):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - g[i]) / max(abs(fd) + abs(g[i]), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, f"{name}[{i}]: analytic {g[i]} vs fd {fd}"
    return worst


class TestBackward:
    def test_cross_entropy_plus_balance_matches_finite_differences(self):
        arch = tiny_arch(num_experts=2, top_k=1)
        model = build_classifier(arch, Rng(0))
        tokens = Rng(1).normal(size=(4, 4, 8))
        labels = np.array([0, 1, 2, 0])
        _, grads = loss_and_grads(model, tokens, labels, balance_coeff=0.01)

        def loss():
            return loss_and_grads(model, tokens, labels, balance_coeff=0.01)[0].total

        _fd_check(model, grads, loss, stride=3)

    def test_distill_gradients_match_finite_differences(self):
        teacher = build_classifier(tiny_arch(num_experts=2, top_k=2), Rng(2))
        student = build_classifier(tiny_arch("dense"), Rng(3))
        tokens = Rng(4).normal(size=(4, 4, 8))
        labels = np.array([1, 2, 0, 1])
        teacher_logits = forward_batch(teacher, tokens)[0]
        _, grads = loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits, alpha=0.25)

        def loss():
            return loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits, alpha=0.25)[0].total

        _fd_check(student, grads, loss, stride=5)

    def test_frozen_teacher_absent_from_gradient_set(self):
        teacher = build_classifier(tiny_arch(), Rng(5))
        student = build_classifier(tiny_arch("dense"), Rng(6))
        tokens = Rng(7).normal(size=(3, 4, 8))
        labels = np.array([0, 1, 2])
        teacher_logits = forward_batch(teacher, tokens)[0]
        _, grads = loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits)
        assert set(grads) == set(student.parameters())

    def test_distill_gradient_vanishes_at_equality(self):
        # student == teacher and alpha == 0: KL is at its stationary point
        teacher = build_classifier(tiny_arch("dense"), Rng(8))
        student = build_classifier(tiny_arch("dense"), Rng(8))
        tokens = Rng(9).normal(size=(4, 4, 8))
        labels = np.array([0, 1, 2, 0])
        teacher_logits = forward_batch(teacher, tokens)[0]
        _, grads = loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits, alpha=0.0)
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert norm < 1e-8

    def test_alpha_one_reduces_to_supervised(self):
        teacher = build_classifier(tiny_arch(), Rng(10))
        student = build_classifier(tiny_arch("dense"), Rng(11))
        tokens = Rng(12).normal(size=(4, 4, 8))
        labels = np.array([2, 1, 0, 2])
        teacher_logits = forward_batch(teacher, tokens)[0]
        with_kd, g1 = loss_and_grads(student, tokens, labels, teacher_logits=teacher_logits, alpha=1.0)
        plain, g2 = loss_and_grads(student, tokens, labels)
        assert with_kd.total == pytest.approx(plain.total, abs=1e-15)
        for name in g1:
            assert np.abs(g1[name] - g2[name]).max() < 1e-15

    def test_aliased_parameters_rejected(self):
        # one expert listed twice would get its gradient, and its Adam step, twice
        model = build_classifier(tiny_arch(), Rng(15))
        stage = model.blocks[0].stage
        stage.experts[1] = stage.experts[0]
        with pytest.raises(ValueError, match="alias"):
            loss_and_grads(model, Rng(16).normal(size=(3, 4, 8)), np.array([0, 1, 2]))

    def test_forward_only_cache_rejected_with_typed_error(self):
        model = build_classifier(tiny_arch(), Rng(13))
        logits, cache = forward_batch(model, Rng(14).normal(size=(3, 4, 8)))
        with pytest.raises(ValueError, match="need_grad"):
            backward_from_logits(model, cache, np.ones_like(logits))


def cache_arrays(obj, path="cache"):
    """Every array a forward cache holds, with its path."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from cache_arrays(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from cache_arrays(value, f"{path}[{i}]")


def array_bytes(arrays):
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays}


class TestCacheUntouched:
    """The kernels write in place only into arrays they allocated; an
    in-place write into a cached ``xhat``, ``h_act`` or ``h_grad`` would
    change a second backward pass over the same cache."""

    @pytest.mark.parametrize("stage", ["dense", "moe"])
    def test_backward_twice_gives_the_same_gradients_and_leaves_the_cache_alone(self, stage):
        arch = tiny_arch(stage, num_experts=3, top_k=2) if stage == "moe" else tiny_arch(stage)
        model = build_classifier(arch, Rng(30))
        tokens = Rng(31).normal(size=(6, 4, 8))
        noise = Rng(32) if stage == "moe" else None
        logits, cache = forward_batch(model, tokens, noise, need_grad=True)
        d_logits = Rng(33).normal(size=logits.shape)
        balance_dp = Rng(34).normal(size=arch.num_experts) if stage == "moe" else None
        before = array_bytes(cache_arrays(cache))
        assert any("'h_grad'" in name for name in before) and any("'ln2'" in name for name in before)
        first = backward_from_logits(model, cache, d_logits, balance_dp)
        assert array_bytes(cache_arrays(cache)) == before
        second = backward_from_logits(model, cache, d_logits, balance_dp)
        assert array_bytes(cache_arrays(cache)) == before
        assert array_bytes(first.items()) == array_bytes(second.items())


def mask_dispatch_forward(stage, x, rng):
    """Oracle: the per-expert mask dispatch that the sorted dispatch replaced,
    with its backward cache (per expert: rows ``idx``, output ``y``, gate and
    FFN cache)."""
    probs = router_probs(x, stage, rng)
    sel = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, : stage.top_k], axis=1)
    gates = np.take_along_axis(probs, sel, axis=1)
    out = np.zeros_like(x)
    per_expert = {}
    for e, expert in enumerate(stage.experts):
        hits = np.nonzero((sel == e).any(axis=1))[0]
        if hits.size == 0:
            continue
        ye, ffn_cache = _stage_forward_dense(expert, x[hits], True)
        g = gates[hits][sel[hits] == e]
        out[hits] += g[:, None] * ye
        per_expert[e] = {**ffn_cache, "idx": hits, "y": ye, "gate": g}
    return out, {"probs": probs, "sel": sel, "x": x, "experts": per_expert}


def mask_dispatch_backward(stage, stage_cache, d_out, grad, balance_dp):
    """Oracle: the MoE branch of ``_stage_backward`` for the mask dispatch,
    one masked gather and scatter per expert."""
    x, probs = stage_cache["x"], stage_cache["probs"]
    d_probs = np.zeros_like(probs)
    if balance_dp is not None:
        d_probs += balance_dp
    d_x = np.zeros_like(x)
    for e, ec in stage_cache["experts"].items():
        idx = ec["idx"]
        d_ye_path = d_out[idx]
        d_probs[idx, e] += np.einsum("nd,nd->n", d_ye_path, ec["y"])
        d_x[idx] += training._ffn_backward(stage.experts[e], ec, d_ye_path * ec["gate"][:, None], grad)
    d_logits = probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True))
    grad[id(stage.router)] += x.T @ d_logits
    d_x += d_logits @ stage.router.T
    return d_x


def default_shape_moe(rng, top_k, num_experts=4, d=32, h=128):
    def ffn():
        return FeedForward(rng.normal(size=(d, h), scale=0.2), rng.normal(size=h), rng.normal(size=(h, d), scale=0.1),
                           rng.normal(size=d))
    return MoELayer([ffn() for _ in range(num_experts)], rng.normal(size=(d, num_experts)), top_k)


def stage_grads(layer, x, d_out, balance_dp, seed, forward, backward):
    """Stage output, input gradient and every stage parameter gradient of one
    forward and backward with router noise from ``Rng(seed)``."""
    grad = {id(layer.router): np.zeros_like(layer.router)}
    for expert in layer.experts:
        grad.update({id(t): np.zeros_like(t) for t in expert.tensors().values()})
    rng = Rng(seed)
    out, cache = forward(layer, x, rng)
    d_x = backward(layer, cache, d_out, grad, balance_dp)
    return out, d_x, grad, rng.normal()


class TestSortedDispatchBackward:
    """The sorted dispatch's forward and backward against the mask dispatch,
    byte for byte, router noise and balance term included."""

    def assert_same_as_oracle(self, layer, x, seed=0):
        rng = Rng(seed + 1)
        d_out = rng.normal(size=x.shape)
        balance_dp = rng.normal(size=(len(x), layer.num_experts))
        got = stage_grads(layer, x, d_out, balance_dp, seed,
                          lambda *a: _stage_forward_moe(*a, True), training._stage_backward)
        want = stage_grads(layer, x, d_out, balance_dp, seed, mask_dispatch_forward, mask_dispatch_backward)
        for a, b in zip(got[:2], want[:2]):
            assert a.tobytes() == b.tobytes()
        assert got[2].keys() == want[2].keys()
        for key in got[2]:
            assert got[2][key].tobytes() == want[2][key].tobytes()
        assert got[3] == want[3]  # the same noise draws

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 512])
    @pytest.mark.parametrize("top_k", [1, 2, 3, 4])
    def test_gradients_bit_identical_to_mask_dispatch(self, top_k, n):
        rng = Rng(70 + top_k)
        self.assert_same_as_oracle(default_shape_moe(rng, top_k), rng.normal(size=(n, 32)), seed=n)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_an_expert_without_tokens(self, top_k):
        rng = Rng(80 + top_k)
        layer = default_shape_moe(rng, top_k)
        layer.router[:, 2] = -10.0  # never picked for positive inputs
        x = np.abs(rng.normal(size=(64, 32)))
        assert not (_stage_forward_moe(layer, x, Rng(0), False)[1]["sel"] == 2).any()
        self.assert_same_as_oracle(layer, x)

    def test_every_token_to_one_expert(self):
        layer = default_shape_moe(Rng(90), top_k=1)
        layer.router[...] = 0.0
        x = Rng(91).normal(size=(64, 32))
        assert (_stage_forward_moe(layer, x, None, False)[1]["sel"] == 0).all()
        self.assert_same_as_oracle(layer, x)

    def test_whole_model_gradients_bit_identical(self, monkeypatch):
        model = build_classifier(tiny_arch(d_model=32, d_ff=128, num_experts=4, top_k=2), Rng(92))
        tokens = Rng(93).normal(size=(64, 4, 32))
        labels = np.arange(64) % 3
        teacher_logits = Rng(94).normal(size=(64, 3))

        def run():
            return loss_and_grads(model, tokens, labels, teacher_logits=teacher_logits,
                                  balance_coeff=training.BALANCE_COEFF, rng=Rng(95))

        got_loss, got = run()
        real_backward = training._stage_backward

        def backward(stage, cache, *args):
            oracle = mask_dispatch_backward if isinstance(stage, MoELayer) else real_backward
            return oracle(stage, cache, *args)

        monkeypatch.setattr(model_mod, "_stage_forward_moe", lambda stage, x, rng, _: mask_dispatch_forward(stage, x, rng))
        monkeypatch.setattr(training, "_stage_backward", backward)
        want_loss, want = run()
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("d", [1, 3, 8, 32, 33, 128])
    def test_slot_dot_products_match_per_expert_rows(self, d):
        # the gate path takes every slot's dot product in one einsum; the mask
        # dispatch took them per expert over gathered rows
        rng = Rng(96)
        a, y = rng.normal(size=(50, d)), rng.normal(size=(50, 3, d))
        slots = np.einsum("nd,nkd->nk", a, y)
        rows = np.array([0, 3, 4, 17, 49])
        for j in range(3):
            assert slots[:, j].tobytes() == np.einsum("nd,nd->n", a, np.ascontiguousarray(y[:, j])).tobytes()
            assert slots[rows, j].tobytes() == np.einsum("nd,nd->n", a[rows], y[rows, j]).tobytes()


def per_tensor_adam_oracle(params, grads, state, lr):
    """Oracle: the per-tensor Adam loop that the flat update replaced;
    ``state`` holds per-name ``m`` and ``v`` arrays and the step count ``t``."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def lr_column(steps, learning_rate):
    """The learning rate of each step of a ``steps``-step supervised run, read from its log."""
    cfg = TrainConfig(steps=steps, batch_size=16, learning_rate=learning_rate, seed=0, eval_every=0)
    result = train_classifier(build_classifier(tiny_arch("dense"), Rng(0)), cfg, tiny_data())
    return [row["lr"] for row in result.log]


class TestOptimizer:
    def test_zero_gradients_fixed_point(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.for_params(params)
        before = params["w"].copy()
        optimizer_step(params, {"w": np.zeros(3)}, state, 0.1)
        assert np.array_equal(params["w"], before)

    def test_matches_hand_computed_adam_trajectory(self):
        # single scalar, constant lr, grads 1.0, -0.5, 2.0
        p = {"x": np.array([0.0])}
        state = AdamState.for_params(p)
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([1.0, -0.5, 2.0], start=1):
            optimizer_step(p, {"x": np.array([g])}, state, 0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            x -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
            assert p["x"][0] == pytest.approx(x, abs=1e-15)

    def test_final_step_of_linear_decay_is_noop(self):
        lrs = lr_column(4, 0.5)
        assert lrs[-1] == 0.0
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        state.t = 3  # at the last step of a 4-step run
        optimizer_step(params, {"w": np.array([10.0])}, state, lrs[-1])
        assert params["w"][0] == 1.0

    def test_linear_decay_endpoints(self):
        lrs = lr_column(5, 1e-2)
        assert lrs[0] == 1e-2 and lrs[-1] == 0.0
        assert [round(lr, 12) for lr in lrs] == [1e-2, 0.75e-2, 0.5e-2, 0.25e-2, 0.0]
        assert lr_column(1, 1e-2) == [1e-2]  # a one-step run keeps its rate

    @pytest.mark.parametrize("role", ["teacher", "dense_student"])
    def test_flat_update_bit_identical_to_per_tensor_loop(self, role):
        steps = 25
        arch = tiny_arch() if role == "teacher" else tiny_arch("dense")
        train = tiny_data()[0]
        model, twin = build_classifier(arch, Rng(20)), build_classifier(arch, Rng(20))
        params, twin_params = model.parameters(), twin.parameters()
        state = AdamState.for_params(params)
        oracle = SimpleNamespace(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )
        lrs = lr_column(steps, 1e-2)
        if role == "teacher":
            noise, balance, teacher_logits = Rng(21), BALANCE_COEFF, None
        else:
            noise, balance = None, 0.0
            teacher_logits = forward_batch(build_classifier(tiny_arch(), Rng(22)), train.tokens)[0]
        batches = batch_schedule(TrainConfig(steps=steps, batch_size=16, seed=23), len(train.labels))
        for idx, lr in zip(batches, lrs, strict=True):
            _, grads = loss_and_grads(
                model, train.tokens[idx], train.labels[idx],
                teacher_logits=None if teacher_logits is None else teacher_logits[idx],
                balance_coeff=balance, rng=noise,
            )
            optimizer_step(params, grads, state, lr)
            per_tensor_adam_oracle(twin_params, grads, oracle, lr)
            assert array_bytes(params.items()) == array_bytes(twin_params.items())
        assert lrs[-1] == 0.0 and state.t == oracle.t == steps
        assert state.names == tuple(params)
        assert state.m.tobytes() == np.concatenate([m.ravel() for m in oracle.m.values()]).tobytes()
        assert state.v.tobytes() == np.concatenate([v.ravel() for v in oracle.v.values()]).tobytes()

    @staticmethod
    def assert_rejected_before_any_change(params, grads, error, match, state=None):
        state = state or AdamState.for_params(params)
        state.m[:] = 0.25
        before = [p.copy() for p in params.values()]
        with pytest.raises(error, match=match):
            optimizer_step(params, grads, state, 0.1)
        assert state.t == 0
        assert (state.m == 0.25).all() and not state.v.any()
        assert array_bytes(zip(params, params.values())) == array_bytes(zip(params, before))

    @pytest.mark.parametrize(
        "param_shape,grad_shape", [((3,), (1,)), ((3, 1), (3,)), ((3,), (3, 1)), ((2, 3), (3, 2))]
    )
    def test_a_mis_shaped_gradient_is_a_shape_error(self, param_shape, grad_shape):
        params = {"b": np.zeros(2), "w": np.arange(6.0)[: int(np.prod(param_shape))].reshape(param_shape)}
        grads = {"b": np.ones(2), "w": np.full(grad_shape, 0.5)}
        self.assert_rejected_before_any_change(params, grads, ShapeError, "'w'")

    @pytest.mark.parametrize("missing,extra", [("w", None), (None, "u"), ("w", "u")])
    def test_a_missing_or_extra_gradient_is_a_value_error_naming_it(self, missing, extra):
        params = {"b": np.zeros(2), "w": np.ones((2, 2))}
        grads = {name: np.ones_like(p) for name, p in params.items() if name != missing}
        if extra:
            grads[extra] = np.ones(2)
        match = "missing \\['w'\\]" if missing else "extra \\['u'\\]"
        self.assert_rejected_before_any_change(params, grads, ValueError, match)

    @pytest.mark.parametrize("sizes", [{"b": 2, "u": 2}, {"w": 2, "b": 2}, {"b": 2}, {"b": 2, "w": 3}])
    def test_a_state_made_for_other_parameters_is_a_value_error(self, sizes):
        params = {"b": np.zeros(2), "w": np.ones(2)}
        grads = {name: np.ones_like(p) for name, p in params.items()}
        state = AdamState.for_params({name: np.zeros(size) for name, size in sizes.items()})
        self.assert_rejected_before_any_change(params, grads, ValueError, "another parameter set", state)


class TestTrainingLoops:
    def test_teacher_training_is_deterministic(self):
        arch = tiny_arch()
        data = tiny_data()
        cfg = TrainConfig(steps=12, batch_size=16, learning_rate=1e-2, seed=5, eval_every=0)
        r1 = train_teacher(arch, cfg, data)
        r2 = train_teacher(arch, cfg, data)
        assert state_hash(r1.model) == state_hash(r2.model)
        assert r1.log == r2.log

    def test_teacher_beats_collapsed_router_balance(self):
        arch = tiny_arch()
        data = tiny_data()
        cfg = TrainConfig(steps=60, batch_size=16, learning_rate=1e-2, seed=1, eval_every=0)
        result = train_teacher(arch, cfg, data)
        # a router collapsed onto expert 0 saturates near num_experts
        from moegather.training import _measure_balance

        collapsed = build_classifier(arch, Rng(3))
        for _, stage in collapsed.stages():
            stage.router[...] = 0.0
        for blk in collapsed.blocks:
            blk.ln2_bias[...] = 1.0  # nonzero stage inputs
        for _, stage in collapsed.stages():
            stage.router[:, 0] = 25.0
        collapsed_balance = _measure_balance(collapsed, data[1].tokens)
        assert collapsed_balance > 0.9 * arch.num_experts
        assert result.final_balance < collapsed_balance

    @pytest.mark.parametrize("test_rows,moved,moves", [
        (300, 255, True), (300, 256, False), (300, 299, False), (40, 39, True),
    ])
    def test_the_final_balance_reads_the_first_256_test_rows(self, test_rows, moved, moves):
        # a split shorter than 256 rows is read whole
        arch = tiny_arch()
        train, test = tiny_data(n=4 * test_rows)
        cfg = TrainConfig(steps=2, batch_size=16, learning_rate=1e-2, seed=1, eval_every=0)
        shifted = test.tokens.copy()
        shifted[moved] += 3.0
        balances = [
            train_teacher(arch, cfg, (train, Dataset(tokens=tokens, labels=test.labels))).final_balance
            for tokens in (test.tokens, shifted)
        ]
        assert len(test.labels) == test_rows
        assert (balances[0] != balances[1]) == moves

    def test_distillation_freezes_teacher_and_is_deterministic(self):
        arch = tiny_arch()
        data = tiny_data()
        teacher = train_teacher(
            arch, TrainConfig(steps=15, batch_size=16, learning_rate=1e-2, seed=2, eval_every=0), data
        ).model
        before = state_hash(teacher)
        cfg = DistillConfig(steps=10, batch_size=16, learning_rate=1e-2, seed=3, eval_every=0)
        s1 = distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data)
        assert state_hash(teacher) == before
        s2 = distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data)
        assert state_hash(s1.model) == state_hash(s2.model)

    @pytest.mark.parametrize("stage", ["moe", "dense"])
    def test_a_student_adds_the_balance_term_iff_it_is_an_moe(self, stage):
        # the model decides, not the objective: an MoE student distils with
        # the balance term, as an MoE teacher trains with it
        arch = tiny_arch()
        data = tiny_data()
        student = build_classifier(arch if stage == "moe" else arch.dense_twin(), Rng(4))
        cfg = DistillConfig(steps=4, batch_size=16, learning_rate=1e-2, seed=3, eval_every=0)
        result = distill_student(student, build_classifier(arch, Rng(2)), cfg, data)
        coeff = BALANCE_COEFF if stage == "moe" else 0.0
        assert len(result.log) == cfg.steps
        for row in result.log:
            assert (row["balance"] > 0.0) == (stage == "moe") and row["distill"] > 0.0
            assert row["total"] == cfg.alpha * row["main"] + (1.0 - cfg.alpha) * row["distill"] + coeff * row["balance"]
        assert (result.final_balance is None) == (stage == "dense")

    def test_a_student_that_shares_a_teacher_array_is_caught(self):
        arch = tiny_arch()
        teacher = build_classifier(arch, Rng(2))
        student = build_classifier(arch.dense_twin(), Rng(4))
        aliased = model_from_tensors(student.arch, {**student.tensors(), "embed": teacher.embed})  # no copy
        cfg = DistillConfig(steps=2, batch_size=16, learning_rate=1e-2, seed=3, eval_every=0)
        with pytest.raises(RuntimeError, match="teacher weights changed during distillation"):
            distill_student(aliased, teacher, cfg, tiny_data())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_aborts_with_step_index(self):
        arch = tiny_arch("dense")
        data = tiny_data()
        model = build_classifier(arch, Rng(0))
        model.embed[...] = 1e308  # forward overflows to non-finite activations
        cfg = TrainConfig(steps=5, batch_size=16, learning_rate=1e-2, seed=0, eval_every=0)
        with pytest.raises(NumericalError, match="step"):
            train_classifier(model, cfg, data)

    def test_log_rows_carry_all_columns(self):
        arch = tiny_arch()
        data = tiny_data()
        cfg = TrainConfig(steps=4, batch_size=16, learning_rate=1e-2, seed=0, eval_every=2)
        result = train_teacher(arch, cfg, data)
        assert len(result.log) == 4
        assert set(result.log[0]) == {"step", "main", "distill", "balance", "total", "lr", "heldout_acc"}
        assert result.log[1]["heldout_acc"] != ""  # eval at step 2
        assert result.log[0]["heldout_acc"] == ""

    @pytest.mark.parametrize("steps,eval_every,calls", [(6, 2, 3), (6, 6, 1), (5, 2, 3), (6, 0, 1)])
    def test_one_evaluation_per_eval_point(self, monkeypatch, steps, eval_every, calls):
        real = training.evaluate_accuracy
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_accuracy", counting)
        data = tiny_data()
        cfg = TrainConfig(steps=steps, batch_size=16, learning_rate=1e-2, seed=0, eval_every=eval_every)
        result = train_teacher(tiny_arch(), cfg, data)
        assert len(seen) == calls
        if eval_every:
            assert result.final_heldout_acc == result.log[-1]["heldout_acc"]
        assert result.final_heldout_acc == real(result.model, data[1].tokens, data[1].labels)

    @pytest.mark.parametrize("n_tokens,labels_shape", [(0, (0,)), (24, (23,)), (23, (24,)), (24, (24, 1))])
    def test_accuracy_needs_one_label_per_sequence(self, n_tokens, labels_shape):
        model = build_classifier(tiny_arch(), Rng(0))
        test = tiny_data()[1]
        labels = np.zeros(labels_shape, dtype=np.int64)
        with pytest.raises(ShapeError, match="labels"):
            training.evaluate_accuracy(model, test.tokens[:n_tokens], labels)


def inline_schedule(cfg, n):
    """Oracle: the per-step permutation/cursor loop that training ran before
    the schedule was drawn up front."""
    order_rng = Rng(cfg.seed).derive("batch-order")
    perm = order_rng.permutation(n)
    cursor = 0
    batches = []
    for _ in range(cfg.steps):
        if cursor + cfg.batch_size > n:
            perm = order_rng.permutation(n)
            cursor = 0
        batches.append(perm[cursor : cursor + cfg.batch_size])
        cursor += cfg.batch_size
    return np.array(batches, dtype=np.int64).reshape(cfg.steps, cfg.batch_size)


def count_teacher_forwards(monkeypatch, teacher):
    """Record the token batches that training forwards through ``teacher``."""
    real = training.forward_batch
    seen = []

    def counting(model, tokens, *args, **kwargs):
        if model is teacher:
            seen.append(tokens)
        return real(model, tokens, *args, **kwargs)

    monkeypatch.setattr(training, "forward_batch", counting)
    return seen


class TestTeacherLogits:
    @pytest.fixture(scope="class")
    def setup(self):
        arch = tiny_arch()
        data = tiny_data()
        teacher = train_teacher(
            arch, TrainConfig(steps=15, batch_size=16, learning_rate=1e-2, seed=2, eval_every=0), data
        ).model
        return arch, data, teacher

    @pytest.mark.parametrize("n,batch_size,steps", [(72, 16, 9), (72, 16, 4), (64, 16, 9), (72, 72, 3), (10, 3, 7),
                                                    (72, 16, 0)])
    def test_schedule_matches_the_inline_loop(self, n, batch_size, steps):
        cfg = TrainConfig(steps=steps, batch_size=batch_size, seed=11)
        batches = batch_schedule(cfg, n)
        assert batches.shape == (steps, batch_size)
        assert np.array_equal(batches, inline_schedule(cfg, n))

    def test_schedule_rejects_a_batch_larger_than_the_split(self):
        with pytest.raises(ValueError, match="exceeds training set size 72"):
            batch_schedule(TrainConfig(batch_size=73), 72)

    def test_rows_equal_a_forward_of_each_batch_bit_for_bit(self, setup, monkeypatch):
        _, data, teacher = setup
        train = data[0]
        forwards = count_teacher_forwards(monkeypatch, teacher)
        # 2 steps make one chunk, 6 steps two, and 20 steps two over every row
        for steps in (2, 6, 20):
            batches = batch_schedule(DistillConfig(steps=steps, batch_size=16, seed=5), len(train.labels))
            rows = np.unique(batches)
            union = forward_batch(teacher, train.tokens[rows])[0]
            forwards.clear()
            logits = forward_teacher(teacher, train.tokens, batches)
            sizes = [len(tokens) for tokens in forwards]
            assert len(sizes) == -(-len(rows) // FORWARD_BLOCK) and sum(sizes) == len(rows)
            assert max(sizes) <= FORWARD_BLOCK and max(sizes) - min(sizes) <= 1
            assert logits[rows].tobytes() == union.tobytes()
            assert np.isnan(np.delete(logits, rows, axis=0)).all()
            for idx in batches:
                assert logits[idx].tobytes() == forward_batch(teacher, train.tokens[idx])[0].tobytes()

    def test_a_zero_step_distill_forwards_the_teacher_not_at_all(self, setup, monkeypatch):
        arch, data, teacher = setup
        forwards = count_teacher_forwards(monkeypatch, teacher)
        cfg = DistillConfig(steps=0, batch_size=16, seed=3, eval_every=0)
        result = distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data)
        assert forwards == [] and result.log == []

    def test_union_logits_train_the_student_its_own_logits_train(self, setup):
        arch, data, teacher = setup
        train = data[0]
        cfg = DistillConfig(steps=8, batch_size=16, learning_rate=1e-2, seed=3, eval_every=4)
        other = DistillConfig(steps=6, batch_size=16, seed=8, eval_every=0)
        union = np.concatenate([batch_schedule(c, len(train.labels)) for c in (other, cfg)])
        logits = forward_teacher(teacher, train.tokens, union)
        own_run = distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data)
        union_run = distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data, logits)
        assert state_hash(union_run.model) == state_hash(own_run.model)
        assert union_run.log == own_run.log

    def test_logits_that_miss_a_scheduled_row_stop_training(self, setup):
        arch, data, teacher = setup
        train = data[0]
        cfg = DistillConfig(steps=4, batch_size=16, seed=3, eval_every=0)
        batches = batch_schedule(cfg, len(train.labels))
        logits = forward_teacher(teacher, train.tokens, batches[:, 1:])  # every step's first row is missed
        with pytest.raises(NumericalError, match="step 0"):
            distill_student(build_classifier(arch.dense_twin(), Rng(4)), teacher, cfg, data, logits)
