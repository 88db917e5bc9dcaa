import numpy as np
import pytest

from moegather import training
from moegather.model import Architecture, build_classifier, forward_batch, state_hash
from moegather.numerics import NumericalError, Rng
from moegather.training import (
    AdamState,
    DistillConfig,
    LinearDecaySchedule,
    TrainConfig,
    _distill_terms,
    backward_from_logits,
    distill_student,
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
        d_model=8, d_ff=10, seq_len=4, num_classes=3, num_blocks=2,
        parameter_sharing=True, stage=stage,
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


def soft_kd_loss(z_s, z_t, temperature):
    """Soft KD loss of one logit row, through the batched training kernel."""
    cfg = DistillConfig(temperature=temperature, mode="soft")
    return _distill_terms(np.asarray(z_s)[None, :], np.asarray(z_t)[None, :], cfg)[0]


def hard_kd_loss(z_s, z_t):
    """Hard KD loss of one logit row, through the batched training kernel."""
    return _distill_terms(np.asarray(z_s)[None, :], np.asarray(z_t)[None, :], DistillConfig(mode="hard"))[0]


def cross_entropy(z, label):
    """Scalar oracle: negative log-likelihood of ``label`` under softmax(z)."""
    p = np.exp(z - z.max())
    return float(-np.log(p[label] / p.sum()))


class TestSoftKdLoss:
    def test_identical_logits_zero(self):
        z = Rng(0).normal(size=5)
        assert soft_kd_loss(z, z, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_invariance(self):
        z = Rng(1).normal(size=4)
        assert soft_kd_loss(z + 3.7, z, 1.5) == pytest.approx(0.0, abs=1e-12)
        assert soft_kd_loss(z + 3.7, z - 1.2, 1.5) == pytest.approx(0.0, abs=1e-10)

    def test_matches_scalar_kl_oracle(self):
        z_t = np.array([1.0, 0.0])
        z_s = np.array([0.0, 1.0])
        pt = np.exp(z_t) / np.exp(z_t).sum()
        ps = np.exp(z_s) / np.exp(z_s).sum()
        expected = sum(pt[i] * (np.log(pt[i]) - np.log(ps[i])) for i in range(2))
        assert soft_kd_loss(z_s, z_t, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_temperature_scaling_against_oracle(self):
        rng = Rng(2)
        z_s, z_t = rng.normal(size=6), rng.normal(size=6)
        for t in (0.5, 2.0, 4.0):
            pt = np.exp(z_t / t) / np.exp(z_t / t).sum()
            ps = np.exp(z_s / t) / np.exp(z_s / t).sum()
            expected = t * t * float((pt * (np.log(pt) - np.log(ps))).sum())
            assert soft_kd_loss(z_s, z_t, t) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = Rng(3)
        for _ in range(25):
            assert soft_kd_loss(rng.normal(size=4), rng.normal(size=4), 1.7) >= 0.0

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


class TestHardKdLoss:
    def test_saturated_correct_prediction(self):
        assert hard_kd_loss(np.array([0.0, 20.0]), np.array([0.2, 0.9])) < 1e-8

    def test_uniform_student_gives_log_c(self):
        for c in (2, 5, 9):
            loss = hard_kd_loss(np.zeros(c), Rng(c).normal(size=c))
            assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_matches_scalar_ce_oracle(self):
        rng = Rng(4)
        z_s, z_t = rng.normal(size=6), rng.normal(size=6)
        target = int(np.argmax(z_t))
        p = np.exp(z_s - z_s.max())
        p /= p.sum()
        assert hard_kd_loss(z_s, z_t) == pytest.approx(-np.log(p[target]), abs=1e-12)

    def test_argmax_tie_takes_lower_index(self):
        z_t = np.array([2.0, 2.0, 0.0])
        z_s = np.array([5.0, -5.0, 0.0])
        assert hard_kd_loss(z_s, z_t) == pytest.approx(cross_entropy(z_s, 0), abs=1e-12)


class TestTotalLoss:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_total_is_alpha_weighted_sum(self, alpha):
        teacher = build_classifier(tiny_arch(), Rng(17))
        student = build_classifier(tiny_arch("dense"), Rng(18))
        tokens = Rng(19).normal(size=(4, 4, 8))
        labels = np.array([0, 2, 1, 0])
        cfg = DistillConfig(alpha=alpha, temperature=2.0, mode="soft")
        loss, _ = loss_and_grads(student, tokens, labels, teacher=teacher, distill=cfg)
        assert loss.distill > 0.0 and loss.balance == 0.0
        assert loss.total == alpha * loss.main + (1.0 - alpha) * loss.distill


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
        arch = tiny_arch(parameter_sharing=False, num_experts=2, top_k=1)
        model = build_classifier(arch, Rng(0))
        tokens = Rng(1).normal(size=(4, 4, 8))
        labels = np.array([0, 1, 2, 0])
        _, grads = loss_and_grads(model, tokens, labels, balance_coeff=0.01)

        def loss():
            return loss_and_grads(model, tokens, labels, balance_coeff=0.01)[0].total

        _fd_check(model, grads, loss, stride=3)

    @pytest.mark.parametrize("mode,kl_direction", [
        ("soft", "teacher_to_student"), ("soft", "student_to_teacher"), ("hard", "teacher_to_student"),
    ], ids=["soft", "soft-reverse_kl", "hard"])
    def test_distill_gradients_match_finite_differences(self, mode, kl_direction):
        teacher = build_classifier(tiny_arch(num_experts=2, top_k=2), Rng(2))
        student = build_classifier(tiny_arch("dense"), Rng(3))
        tokens = Rng(4).normal(size=(4, 4, 8))
        labels = np.array([1, 2, 0, 1])
        cfg = DistillConfig(alpha=0.25, temperature=2.0, mode=mode, kl_direction=kl_direction)
        _, grads = loss_and_grads(student, tokens, labels, teacher=teacher, distill=cfg)

        def loss():
            return loss_and_grads(student, tokens, labels, teacher=teacher, distill=cfg)[0].total

        _fd_check(student, grads, loss, stride=5)

    def test_frozen_teacher_absent_from_gradient_set(self):
        teacher = build_classifier(tiny_arch(), Rng(5))
        student = build_classifier(tiny_arch("dense"), Rng(6))
        tokens = Rng(7).normal(size=(3, 4, 8))
        labels = np.array([0, 1, 2])
        _, grads = loss_and_grads(student, tokens, labels, teacher=teacher, distill=DistillConfig())
        assert set(grads) == set(student.parameters())

    def test_distill_gradient_vanishes_at_equality(self):
        # student == teacher and alpha == 0: KL is at its stationary point
        teacher = build_classifier(tiny_arch("dense"), Rng(8))
        student = build_classifier(tiny_arch("dense"), Rng(8))
        tokens = Rng(9).normal(size=(4, 4, 8))
        labels = np.array([0, 1, 2, 0])
        cfg = DistillConfig(alpha=0.0, temperature=1.0, mode="soft")
        _, grads = loss_and_grads(student, tokens, labels, teacher=teacher, distill=cfg)
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert norm < 1e-8

    def test_alpha_one_reduces_to_supervised(self):
        teacher = build_classifier(tiny_arch(), Rng(10))
        student = build_classifier(tiny_arch("dense"), Rng(11))
        tokens = Rng(12).normal(size=(4, 4, 8))
        labels = np.array([2, 1, 0, 2])
        cfg = DistillConfig(alpha=1.0, mode="soft")
        with_kd, g1 = loss_and_grads(student, tokens, labels, teacher=teacher, distill=cfg)
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


class TestOptimizer:
    def test_zero_gradients_fixed_point(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.for_params(params)
        before = params["w"].copy()
        optimizer_step(params, {"w": np.zeros(3)}, state, LinearDecaySchedule(0.1, 10))
        assert np.array_equal(params["w"], before)

    def test_matches_hand_computed_adam_trajectory(self):
        # single scalar, constant lr, grads 1.0, -0.5, 2.0
        p = {"x": np.array([0.0])}
        state = AdamState.for_params(p)
        sched = LinearDecaySchedule(0.1, 1)  # a one-step schedule keeps its base lr: constant 0.1
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([1.0, -0.5, 2.0], start=1):
            optimizer_step(p, {"x": np.array([g])}, state, sched)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            x -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
            assert p["x"][0] == pytest.approx(x, abs=1e-15)

    def test_final_step_of_linear_decay_is_noop(self):
        sched = LinearDecaySchedule(0.5, 4)
        assert sched.lr_at(3) == 0.0
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        state.t = 3  # at the last step of a 4-step run
        optimizer_step(params, {"w": np.array([10.0])}, state, sched)
        assert params["w"][0] == 1.0

    def test_linear_decay_endpoints(self):
        sched = LinearDecaySchedule(1.0, 5)
        assert sched.lr_at(0) == 1.0
        assert [round(sched.lr_at(i), 10) for i in range(5)] == [1.0, 0.75, 0.5, 0.25, 0.0]


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
            stage.router.weight[...] = 0.0
        for blk in collapsed.blocks:
            blk.ln2_bias[...] = 1.0  # nonzero stage inputs
        for _, stage in collapsed.stages():
            stage.router.weight[:, 0] = 25.0
        collapsed_balance = _measure_balance(collapsed, data[1].tokens)
        assert collapsed_balance > 0.9 * arch.num_experts
        assert result.final_balance < collapsed_balance

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
