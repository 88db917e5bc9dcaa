"""Losses, exact reverse-mode gradients, the optimizer, and training loops.

The backward pass is written by hand for the fixed block architecture in
:mod:`moegather.model`. Top-k routing is treated as piecewise constant: no
gradient flows through the selection indices, only through the gate
probabilities of the selected experts (and, separately, through every gate
probability via the balance loss, which is a direct function of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ClassifierModel, forward_batch, state_hash
from .numerics import NumericalError, Rng, check_number

GradientSet = dict[str, np.ndarray]

KL_DIRECTIONS = ("teacher_to_student", "student_to_teacher")
DISTILL_MODES = ("soft", "hard", "none")
EVAL_BATCH = 512  # sequences per forward pass when scoring accuracy
BALANCE_SAMPLE = 256  # test sequences behind a trained model's final balance loss


@dataclass
class LossBreakdown:
    main: float
    distill: float = 0.0
    balance: float = 0.0
    total: float = 0.0


@dataclass
class DistillConfig:
    """Settings for student refinement against a frozen teacher."""

    alpha: float = 0.25
    temperature: float = 1.0
    mode: str = "soft"
    steps: int = 800
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    eval_every: int = 200
    kl_direction: str = "teacher_to_student"

    def __post_init__(self):
        check_number("alpha", self.alpha, at_most=1.0)
        check_number("temperature", self.temperature, positive=True)
        if self.mode not in DISTILL_MODES:
            raise ValueError(f"mode must be one of {DISTILL_MODES}, got {self.mode!r}")
        if self.kl_direction not in KL_DIRECTIONS:
            raise ValueError(f"kl_direction must be one of {KL_DIRECTIONS}")
        _check_loop_settings(self)


@dataclass
class TrainConfig:
    """Settings for supervised training (teacher or dense baseline)."""

    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 3e-3
    balance_coeff: float = 0.01
    seed: int = 0
    eval_every: int = 200

    def __post_init__(self):
        check_number("balance_coeff", self.balance_coeff)
        _check_loop_settings(self)


def _check_loop_settings(cfg: TrainConfig | DistillConfig) -> None:
    """Reject loop settings that would fail mid-run rather than train."""
    check_number("batch_size", cfg.batch_size, integer=True, positive=True)
    check_number("steps", cfg.steps, integer=True)
    check_number("eval_every", cfg.eval_every, integer=True)
    check_number("learning_rate", cfg.learning_rate, positive=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean negative log-likelihood of integer labels and its gradient
    w.r.t. the logits."""
    rows = np.arange(logits.shape[0])
    ls = _log_softmax(logits)
    dlogits = np.exp(ls)
    dlogits[rows, labels] -= 1.0
    return float(-ls[rows, labels].mean()), dlogits / logits.shape[0]


def _distill_terms(logits: np.ndarray, teacher_logits: np.ndarray, cfg: DistillConfig):
    """Mean distillation loss over the batch and its gradient w.r.t. the
    student logits."""
    b = logits.shape[0]
    t = cfg.temperature
    if cfg.mode == "hard":
        return _cross_entropy(logits, np.argmax(teacher_logits, axis=1))
    ls_s = _log_softmax(logits / t)
    ls_t = _log_softmax(teacher_logits / t)
    p_s, p_t = np.exp(ls_s), np.exp(ls_t)
    if cfg.kl_direction == "teacher_to_student":
        loss = float(t * t * np.sum(p_t * (ls_t - ls_s)) / b)
        dlogits = t * (p_s - p_t) / b
    else:
        log_ratio = ls_s - ls_t
        kl = np.sum(p_s * log_ratio, axis=1, keepdims=True)
        loss = float(t * t * kl.sum() / b)
        dlogits = t * p_s * (log_ratio - kl) / b
    return loss, dlogits


def _pooled_balance(cache: dict) -> tuple[float, np.ndarray, int]:
    """Balance loss over all MoE invocations in the forward cache.

    Returns (loss, pooled dispatch fractions m, number of pooled gate rows);
    a model without an MoE stage gives (0.0, empty m, 0).
    """
    gate_arrays = [
        blk["stage"]["probs"] for blk in cache["blocks"] if blk["stage"]["kind"] == "moe"
    ]
    if not gate_arrays:
        return 0.0, np.zeros(0), 0
    pooled = np.concatenate(gate_arrays, axis=0)
    num_experts = pooled.shape[1]
    primary = np.argmax(pooled, axis=1)
    m = np.bincount(primary, minlength=num_experts) / pooled.shape[0]
    loss = float(num_experts * (m @ pooled.mean(axis=0)))
    return loss, m, pooled.shape[0]


def _ffn_backward(ffn, cache: dict, d_out: np.ndarray, grad: dict[int, np.ndarray]) -> np.ndarray:
    """Backward through one feed-forward stage (dense or one expert) given
    its ``_stage_forward_dense`` cache; returns the input gradient."""
    grad[id(ffn.w2)] += cache["h_act"].T @ d_out
    grad[id(ffn.b2)] += d_out.sum(axis=0)
    dh = (d_out @ ffn.w2.T) * cache["h_grad"]
    grad[id(ffn.w1)] += cache["x"].T @ dh
    grad[id(ffn.b1)] += dh.sum(axis=0)
    return dh @ ffn.w1.T


def _stage_backward(stage, stage_cache: dict, d_out: np.ndarray, grad: dict[int, np.ndarray],
                    balance_dp: np.ndarray | None) -> np.ndarray:
    if stage_cache["kind"] == "dense":
        return _ffn_backward(stage, stage_cache, d_out, grad)

    x, probs = stage_cache["x"], stage_cache["probs"]
    d_probs = np.zeros_like(probs)
    if balance_dp is not None:
        d_probs += balance_dp
    d_x = np.zeros_like(x)
    for e, ec in stage_cache["experts"].items():
        idx = ec["idx"]
        d_ye_path = d_out[idx]
        # gate path: output depends linearly on the selected gate probability
        d_probs[idx, e] += np.einsum("nd,nd->n", d_ye_path, ec["y"])
        # expert path, weighted by the (constant w.r.t. weights) gate value
        d_x[idx] += _ffn_backward(stage.experts[e], ec, d_ye_path * ec["gate"][:, None], grad)
    # softmax backward: additive routing noise is a constant shift
    d_logits = probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True))
    grad[id(stage.router.weight)] += x.T @ d_logits
    d_x += d_logits @ stage.router.weight.T
    return d_x


def _layer_norm_backward(d_y: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                         gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_gain = (d_y * xhat).sum(axis=(0, 1))
    d_bias = d_y.sum(axis=(0, 1))
    d_xhat = d_y * gain
    d_x = inv_std * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    )
    return d_x, d_gain, d_bias


def backward_from_logits(model: ClassifierModel, cache: dict, d_logits: np.ndarray,
                         balance_dp: np.ndarray | None = None) -> GradientSet:
    """Accumulate gradients of (loss from d_logits) plus the balance term
    into a fresh GradientSet keyed like ``model.parameters()``. ``balance_dp``
    is the balance term's gradient w.r.t. each gate probability row of every
    MoE stage; None means no balance term.

    Gradients accumulate per tensor, so a stage shared by several blocks
    collects all of their contributions in one array. ``cache`` must come
    from ``forward_batch(..., need_grad=True)``.
    """
    if not cache.get("need_grad"):
        raise ValueError(
            "backward_from_logits needs a cache from forward_batch(..., need_grad=True); "
            "this one is forward-only"
        )
    params = model.parameters()
    grad = {id(p): np.zeros_like(p) for p in params.values()}
    if len(grad) < len(params):
        raise ValueError("two parameter names alias one array; a shared tensor must be listed once")
    tokens = cache["tokens"]
    b, s, d = tokens.shape

    grad[id(model.head_w)] += cache["pooled"].T @ d_logits
    grad[id(model.head_b)] += d_logits.sum(axis=0)
    d_x = np.broadcast_to((d_logits @ model.head_w.T)[:, None, :] / s, (b, s, d)).copy()

    for blk, blk_cache in zip(reversed(model.blocks), reversed(cache["blocks"])):
        d_stage_in = _stage_backward(
            blk.stage, blk_cache["stage"], d_x.reshape(-1, d), grad, balance_dp
        ).reshape(b, s, d)
        ln2_xhat, ln2_inv = blk_cache["ln2"]
        d_res1, d_g2, d_b2 = _layer_norm_backward(d_stage_in, ln2_xhat, ln2_inv, blk.ln2_gain)
        grad[id(blk.ln2_gain)] += d_g2
        grad[id(blk.ln2_bias)] += d_b2
        d_res1 = d_res1 + d_x  # residual around the stage
        d_ln1_out = blk.mixer.T @ d_res1
        ln1_xhat, ln1_inv = blk_cache["ln1"]
        d_in, d_g1, d_b1 = _layer_norm_backward(d_ln1_out, ln1_xhat, ln1_inv, blk.ln1_gain)
        grad[id(blk.ln1_gain)] += d_g1
        grad[id(blk.ln1_bias)] += d_b1
        d_x = d_res1 + d_in  # residual around the mixer

    grad[id(model.embed)] += tokens.reshape(-1, d).T @ d_x.reshape(-1, d)
    return {name: grad[id(p)] for name, p in params.items()}


def loss_and_grads(
    model: ClassifierModel,
    tokens: np.ndarray,
    labels: np.ndarray,
    *,
    teacher: ClassifierModel | None = None,
    distill: DistillConfig | None = None,
    balance_coeff: float = 0.0,
    rng: Rng | None = None,
) -> tuple[LossBreakdown, GradientSet]:
    """One training objective evaluation: batch-mean loss and its exact
    gradients. Teacher logits (when distilling) are produced noise-free by a
    forward-only pass and the teacher never appears in the gradient set."""
    labels = np.asarray(labels)
    logits, cache = forward_batch(model, tokens, rng=rng, need_grad=True)
    main, d_main = _cross_entropy(logits, labels)

    distilling = distill is not None and distill.mode != "none" and teacher is not None
    if distilling:
        teacher_logits, _ = forward_batch(teacher, tokens, rng=None)
        distill_val, d_distill = _distill_terms(logits, teacher_logits, distill)
        alpha = distill.alpha
        d_logits = alpha * d_main + (1.0 - alpha) * d_distill
        total = alpha * main + (1.0 - alpha) * distill_val
    else:
        distill_val = 0.0
        d_logits = d_main
        total = main

    balance, balance_dp = 0.0, None
    if balance_coeff > 0.0:
        balance, m, rows = _pooled_balance(cache)
        total += balance_coeff * balance
        if rows:
            balance_dp = balance_coeff * m.size * m / rows

    breakdown = LossBreakdown(main=main, distill=distill_val, balance=balance, total=total)
    return breakdown, backward_from_logits(model, cache, d_logits, balance_dp)


@dataclass(frozen=True)
class LinearDecaySchedule:
    """Linear learning-rate decay to zero; the final step lands exactly on
    0. A schedule of one step keeps ``base_lr``."""

    base_lr: float
    total_steps: int

    def lr_at(self, step: int) -> float:
        if self.total_steps <= 1:
            return self.base_lr
        frac = min(max(step / (self.total_steps - 1), 0.0), 1.0)
        return self.base_lr - self.base_lr * frac


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def for_params(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def optimizer_step(params: dict[str, np.ndarray], grads: GradientSet,
                   state: AdamState, schedule: LinearDecaySchedule) -> None:
    """In-place Adam update; the step index lives in the optimizer state."""
    lr = schedule.lr_at(state.t)
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


@dataclass
class TrainResult:
    model: ClassifierModel
    log: list[dict] = field(default_factory=list)
    final_heldout_acc: float = 0.0
    final_balance: float | None = None


def evaluate_accuracy(model: ClassifierModel, tokens: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy with routing noise disabled."""
    hits = 0
    for start in range(0, len(labels), EVAL_BATCH):
        logits, _ = forward_batch(model, tokens[start : start + EVAL_BATCH], rng=None)
        hits += int((np.argmax(logits, axis=1) == labels[start : start + EVAL_BATCH]).sum())
    return hits / len(labels)


def _measure_balance(model: ClassifierModel, tokens: np.ndarray) -> float:
    _, cache = forward_batch(model, tokens[:BALANCE_SAMPLE], rng=None)
    return _pooled_balance(cache)[0]


def _run_training(model: ClassifierModel, cfg: TrainConfig | DistillConfig, data, *,
                  balance_coeff: float = 0.0, teacher: ClassifierModel | None = None) -> TrainResult:
    """The one training loop: minibatch Adam over ``cfg.steps`` steps, with
    distillation against ``teacher`` (and ``cfg`` as its settings) when one
    is given."""
    steps, batch_size = cfg.steps, cfg.batch_size
    train, test = data
    n = len(train.labels)
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds training set size {n}")
    rng = Rng(cfg.seed)
    noise_rng = rng.derive("router-noise") if model.arch.stage == "moe" else None
    order_rng = rng.derive("batch-order")
    schedule = LinearDecaySchedule(cfg.learning_rate, steps)
    distill = cfg if teacher is not None else None
    params = model.parameters()
    state = AdamState.for_params(params)
    log: list[dict] = []
    perm = order_rng.permutation(n)
    cursor = 0
    for step in range(steps):
        if cursor + batch_size > n:
            perm = order_rng.permutation(n)
            cursor = 0
        idx = perm[cursor : cursor + batch_size]
        cursor += batch_size
        lr = schedule.lr_at(state.t)
        breakdown, grads = loss_and_grads(
            model,
            train.tokens[idx],
            train.labels[idx],
            teacher=teacher,
            distill=distill,
            balance_coeff=balance_coeff,
            rng=noise_rng,
        )
        if not np.isfinite(breakdown.total):
            raise NumericalError(f"training diverged (non-finite loss) at step {step}")
        optimizer_step(params, grads, state, schedule)
        row = {
            "step": step,
            "main": breakdown.main,
            "distill": breakdown.distill,
            "balance": breakdown.balance,
            "total": breakdown.total,
            "lr": lr,
            "heldout_acc": "",
        }
        if cfg.eval_every and ((step + 1) % cfg.eval_every == 0 or step == steps - 1):
            row["heldout_acc"] = evaluate_accuracy(model, test.tokens, test.labels)
        log.append(row)
    if log and log[-1]["heldout_acc"] != "":
        final_acc = log[-1]["heldout_acc"]  # the last step was scored; the model has not moved since
    else:
        final_acc = evaluate_accuracy(model, test.tokens, test.labels)
    final_balance = _measure_balance(model, test.tokens) if model.arch.stage == "moe" else None
    return TrainResult(model=model, log=log, final_heldout_acc=final_acc, final_balance=final_balance)


def train_classifier(model: ClassifierModel, cfg: TrainConfig, data) -> TrainResult:
    """Supervised training on the task loss; MoE models add the balance
    penalty and exploration noise, dense models train plain."""
    balance = cfg.balance_coeff if model.arch.stage == "moe" else 0.0
    return _run_training(model, cfg, data, balance_coeff=balance)


def distill_student(student: ClassifierModel, teacher: ClassifierModel,
                    cfg: DistillConfig, data) -> TrainResult:
    """Refine the student against the frozen teacher.

    The teacher is forwarded noise-free for its logits and is verified
    bit-identical before and after training.
    """
    teacher_before = state_hash(teacher)
    result = _run_training(student, cfg, data, teacher=teacher)
    if state_hash(teacher) != teacher_before:
        raise RuntimeError("teacher weights changed during distillation")
    return result
