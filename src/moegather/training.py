"""Losses, exact reverse-mode gradients, the optimizer, and training loops.

The backward pass is written by hand for the fixed block architecture in
:mod:`moegather.model`. Top-k routing is treated as piecewise constant: no
gradient flows through the selection indices, only through the gate
probabilities of the selected experts (and, separately, through every gate
probability via the balance loss, which is a direct function of them).

A training run reads once, from the model's architecture, whether it is an
MoE: an MoE trains with router noise and the balance term whatever its
objective, and a dense model with neither. It draws its whole batch schedule
before the first step.
Distillation reads the frozen teacher's logits from one array that
:func:`forward_teacher` fills before training, so the teacher stays out of
the training loop, and students given one array share the teacher's work.
Its chunks need not match the batches: a row's logits have the same bits in
any forward of two or more sequences (a lone one may differ in the last bit).

Adam keeps each moment of all parameters in one flat buffer
(:class:`AdamState`), laid out in parameter order. A step checks the
gradient set against the parameters, concatenates the gradients once and
runs the update once over the flat buffers, with the per-element operations
and order of the per-tensor update, then subtracts each parameter's slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ClassifierModel, MoELayer, forward_batch, log_softmax, row_blocks, state_hash
from .numerics import NumericalError, Rng, ShapeError, check_number

GradientSet = dict[str, np.ndarray]

BALANCE_SAMPLE = 256  # test sequences behind a trained model's final balance loss
BALANCE_COEFF = 0.01  # weight of the balance loss when training an MoE (Switch Transformer)


@dataclass
class LossBreakdown:
    main: float
    distill: float = 0.0
    balance: float = 0.0
    total: float = 0.0


@dataclass
class TrainConfig:
    """Settings of the training loop; supervised training (teacher or dense
    baseline) uses them as they are."""

    steps: int = 1500
    batch_size: int = 64
    learning_rate: float = 3e-3
    seed: int = 0
    eval_every: int = 200

    def __post_init__(self):
        check_number("batch_size", self.batch_size, integer=True, positive=True)
        check_number("steps", self.steps, integer=True)
        check_number("eval_every", self.eval_every, integer=True)
        check_number("learning_rate", self.learning_rate, positive=True)
        check_number("seed", self.seed, integer=True)


@dataclass
class DistillConfig(TrainConfig):
    """Settings for student refinement against a frozen teacher: the loop
    settings, with their own defaults, plus ``alpha``, the weight of the
    label loss against the soft-target distillation loss.

    The pipeline and CLI ``distill`` set ``seed`` per student, to
    ``derive_seed(seed, "distill-{role}")`` of the experiment seed (see
    ``ExperimentConfig.distill_config``). A config states no seed but its
    top-level ``seed``, from which every other derives (``workbench.config.DERIVED``)."""

    steps: int = 700
    learning_rate: float = 1e-3
    alpha: float = 0.25

    def __post_init__(self):
        check_number("alpha", self.alpha, at_most=1.0)
        super().__post_init__()


def _objective(logits: np.ndarray, labels: np.ndarray, teacher_logits: np.ndarray | None,
               alpha: float) -> tuple[float, float, float, np.ndarray]:
    """(label loss, distillation loss, total, the total's gradient w.r.t.
    ``logits``), weighed as ``loss_and_grads`` says. The label loss is the
    batch-mean negative log-likelihood, the distillation loss KL(teacher ||
    student) of the softmax outputs: Hinton et al.'s soft-target loss on
    unscaled logits."""
    b = len(logits)
    rows = np.arange(b)
    ls = log_softmax(logits)
    p = np.exp(ls)
    main = float(-ls[rows, labels].mean())
    if teacher_logits is None:
        p[rows, labels] -= 1.0
        p /= b
        return main, 0.0, main, p
    ls_t = log_softmax(teacher_logits)
    p_t = np.exp(ls_t)
    distill = float(np.sum(p_t * (ls_t - ls)) / b)
    d_distill = (p - p_t) / b
    p[rows, labels] -= 1.0
    p /= b
    return main, distill, alpha * main + (1.0 - alpha) * distill, alpha * p + (1.0 - alpha) * d_distill


def _pooled_balance(cache: dict) -> tuple[float, np.ndarray, int]:
    """Balance loss over the gate rows of every block in an MoE's forward
    cache, pooled: every block holds the one MoE stage.

    Returns (loss, pooled dispatch fractions m, number of pooled gate rows).
    """
    pooled = np.concatenate([blk["stage"]["probs"] for blk in cache["blocks"]], axis=0)
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
    dh = d_out @ ffn.w2.T
    dh *= cache["h_grad"]
    grad[id(ffn.w1)] += cache["x"].T @ dh
    grad[id(ffn.b1)] += dh.sum(axis=0)
    return dh @ ffn.w1.T


def _stage_backward(stage, stage_cache: dict, d_out: np.ndarray, grad: dict[int, np.ndarray],
                    balance_dp: np.ndarray | None) -> np.ndarray:
    if not isinstance(stage, MoELayer):
        return _ffn_backward(stage, stage_cache, d_out, grad)

    x, probs, sel = stage_cache["x"], stage_cache["probs"], stage_cache["sel"]
    order, bounds, gates = stage_cache["order"], stage_cache["bounds"], stage_cache["gates"]
    n, k = sel.shape
    d_probs = np.zeros_like(probs)
    if balance_dp is not None:
        d_probs += balance_dp
    # gate path: output depends linearly on the selected gate probability
    d_probs[np.arange(n)[:, None], sel] += np.einsum("nd,nkd->nk", d_out, stage_cache["y"])
    # expert path, in the forward's expert order: each slot's output gradient
    # weighted by its gate (a constant w.r.t. the expert's weights), replaced
    # slice by slice with the expert's input gradient
    d_sorted = d_out[order // k]
    d_sorted *= gates.ravel()[order][:, None]
    for e, ec in stage_cache["experts"].items():
        lo, hi = bounds[e], bounds[e + 1]
        d_sorted[lo:hi] = _ffn_backward(stage.experts[e], ec, d_sorted[lo:hi], grad)
    d_slots = np.empty_like(d_sorted)
    d_slots[order] = d_sorted
    d_slots = d_slots.reshape(n, k, x.shape[1])
    d_x = np.zeros_like(x)
    for j in range(k):
        d_x += d_slots[:, j]
    # softmax backward: additive routing noise is a constant shift
    d_logits = probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True))
    grad[id(stage.router)] += x.T @ d_logits
    d_x += d_logits @ stage.router.T
    return d_x


def _layer_norm_backward(d_y: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                         gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``layer_norm`` given its cached ``xhat`` and ``inv_std``.

    The operations per element are those of
    ``inv_std * (d_xhat - r1 - xhat * r2)`` with ``d_xhat = d_y * gain``,
    ``r1 = sum(d_xhat) / d`` and ``r2 = sum(d_xhat * xhat) / d``; one product
    buffer holds ``d_y * xhat``, then ``d_xhat * xhat``, then ``xhat * r2``,
    and ``d_x`` is written into ``d_xhat``.
    """
    prod = d_y * xhat
    d_gain = prod.sum(axis=(0, 1))
    d_bias = d_y.sum(axis=(0, 1))
    d_x = d_y * gain
    d = d_x.shape[-1]
    r1 = np.add.reduce(d_x, axis=-1, keepdims=True)
    r1 /= d
    np.multiply(d_x, xhat, out=prod)
    r2 = np.add.reduce(prod, axis=-1, keepdims=True)
    r2 /= d
    np.multiply(xhat, r2, out=prod)
    d_x -= r1
    d_x -= prod
    d_x *= inv_std
    return d_x, d_gain, d_bias


def backward_from_logits(model: ClassifierModel, cache: dict, d_logits: np.ndarray,
                         balance_dp: np.ndarray | None = None) -> GradientSet:
    """Accumulate gradients of (loss from d_logits) plus the balance term
    into a fresh GradientSet keyed like ``model.parameters()``. ``balance_dp``
    is the balance term's gradient w.r.t. each gate probability row of every
    MoE stage; None means no balance term.

    Gradients accumulate per tensor, so the stage that every block shares
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
        d_res1 += d_x  # residual around the stage
        d_ln1_out = blk.mixer.T @ d_res1
        ln1_xhat, ln1_inv = blk_cache["ln1"]
        d_in, d_g1, d_b1 = _layer_norm_backward(d_ln1_out, ln1_xhat, ln1_inv, blk.ln1_gain)
        grad[id(blk.ln1_gain)] += d_g1
        grad[id(blk.ln1_bias)] += d_b1
        d_in += d_res1  # residual around the mixer
        d_x = d_in

    grad[id(model.embed)] += tokens.reshape(-1, d).T @ d_x.reshape(-1, d)
    return {name: grad[id(p)] for name, p in params.items()}


def loss_and_grads(
    model: ClassifierModel,
    tokens: np.ndarray,
    labels: np.ndarray,
    *,
    teacher_logits: np.ndarray | None = None,
    alpha: float = DistillConfig.alpha,
    balance_coeff: float = 0.0,
    rng: Rng | None = None,
) -> tuple[LossBreakdown, GradientSet]:
    """One training objective evaluation: batch-mean loss and its exact
    gradients. When distilling, ``teacher_logits`` holds the frozen
    teacher's noise-free logits of the same rows (one row per sequence of
    ``tokens``) and ``alpha`` weighs the label loss against the
    distillation loss; the logits are constants, so no teacher tensor
    enters the gradient set. Without them ``alpha`` is unused. A positive
    ``balance_coeff`` adds the balance term, which only an MoE has."""
    if balance_coeff > 0.0 and model.arch.stage != "moe":
        raise ValueError(f"balance_coeff={balance_coeff} needs an MoE stage; this model's stage is dense")
    labels = np.asarray(labels)
    logits, cache = forward_batch(model, tokens, rng=rng, need_grad=True)
    main, distill_val, total, d_logits = _objective(logits, labels, teacher_logits, alpha)
    balance, balance_dp = 0.0, None
    if balance_coeff > 0.0:
        balance, m, rows = _pooled_balance(cache)
        total += balance_coeff * balance
        balance_dp = balance_coeff * m.size * m / rows

    breakdown = LossBreakdown(main=main, distill=distill_val, balance=balance, total=total)
    return breakdown, backward_from_logits(model, cache, d_logits, balance_dp)


@dataclass
class AdamState:
    """Adam's moments of one parameter set, and the step count.

    Each moment is one flat buffer, laid out in the order of ``names``, the
    parameters it was made for, so ``optimizer_step`` updates every tensor at once.
    """

    m: np.ndarray
    v: np.ndarray
    names: tuple[str, ...]
    t: int = 0

    @staticmethod
    def for_params(params: dict[str, np.ndarray]) -> "AdamState":
        size = sum(p.size for p in params.values())
        return AdamState(np.zeros(size), np.zeros(size), tuple(params))


def _flat_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``flat`` shaped like the arrays of ``like``, in its order."""
    views, lo = {}, 0
    for name, p in like.items():
        views[name] = flat[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    return views


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_gradients(params: dict[str, np.ndarray], grads: GradientSet, state: AdamState) -> None:
    if grads.keys() != params.keys():
        missing = [name for name in params if name not in grads]
        extra = [name for name in grads if name not in params]
        raise ValueError(f"gradient set does not match the parameters: missing {missing}, extra {extra}")
    if tuple(params) != state.names or state.m.size != sum(p.size for p in params.values()):
        raise ValueError("optimizer state was made for another parameter set")
    for name, p in params.items():
        shape = np.shape(grads[name])
        if shape != p.shape:
            raise ShapeError(f"gradient of {name!r} is shaped {shape}, the parameter {p.shape}")


def optimizer_step(params: dict[str, np.ndarray], grads: GradientSet, state: AdamState, lr: float) -> None:
    """In-place Adam update at learning rate ``lr``; the step index, which
    drives the bias correction, lives in the optimizer state.

    The gradients are checked against the parameters before any state
    changes. The update then runs once over the flat moments, in the
    operations per element of
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` after
    ``m = B1 * m + (1 - B1) * g`` and ``v = B2 * v + (1 - B2) * g * g``.
    """
    _check_gradients(params, grads, state)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g = np.concatenate([grads[name] for name in params], axis=None)
    m, v = state.m, state.v
    m *= ADAM_BETA1
    tmp = (1.0 - ADAM_BETA1) * g
    m += tmp
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
    tmp *= g
    v += tmp
    step = np.divide(m, bc1, out=tmp)
    step *= lr
    den = np.divide(v, bc2, out=g)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step /= den
    for name, delta in _flat_views(step, params).items():
        params[name] -= delta


@dataclass
class TrainResult:
    model: ClassifierModel
    log: list[dict] = field(default_factory=list)
    final_heldout_acc: float = 0.0
    final_balance: float | None = None


def evaluate_accuracy(model: ClassifierModel, tokens: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy with routing noise disabled."""
    if len(labels) == 0 or np.shape(labels) != (len(tokens),):
        raise ShapeError(f"cannot score {len(tokens)} sequences against labels shaped {np.shape(labels)}")
    logits, _ = forward_batch(model, tokens, rng=None)
    return int((np.argmax(logits, axis=1) == labels).sum()) / len(labels)


def _measure_balance(model: ClassifierModel, tokens: np.ndarray) -> float:
    _, cache = forward_batch(model, tokens[:BALANCE_SAMPLE], rng=None)
    return _pooled_balance(cache)[0]


def batch_schedule(cfg: TrainConfig, n: int) -> np.ndarray:
    """Row indices of every step's batch, shape ``(cfg.steps, cfg.batch_size)``.

    Each pass over the ``n`` training rows is a fresh permutation from the
    run's ``batch-order`` stream; a pass ends when less than a whole batch
    is left, and those rows sit out that pass.
    """
    batch_size = cfg.batch_size
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds training set size {n}")
    per_pass = n // batch_size
    passes = max(1, -(-cfg.steps // per_pass))
    order_rng = Rng(cfg.seed).derive("batch-order")
    rows = np.concatenate([order_rng.permutation(n)[: per_pass * batch_size] for _ in range(passes)])
    return rows.reshape(-1, batch_size)[: cfg.steps]


def forward_teacher(teacher: ClassifierModel, tokens: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The frozen teacher's noise-free logits of ``rows`` of ``tokens``; every
    other row is NaN, so a training step that reads one has a non-finite loss.

    The distinct rows go through the teacher in the chunks of ``row_blocks``,
    as in ``forward_batch``, so at most ``FORWARD_BLOCK`` sequences of
    ``tokens`` are copied at a time. A row's logits have the same bits in any
    forward of two or more sequences, so each equals its value in a forward
    of any batch that holds it; a chunk is one sequence only when one row is
    distinct, and a lone sequence may differ in the last bit.
    """
    logits = np.full((len(tokens), teacher.arch.num_classes), np.nan)
    rows = np.unique(rows)
    for block in row_blocks(len(rows)):
        logits[rows[block]] = forward_batch(teacher, tokens[rows[block]], rng=None)[0]
    return logits


def _run_training(model: ClassifierModel, cfg: TrainConfig, data, *,
                  teacher_logits: np.ndarray | None = None) -> TrainResult:
    """The one training loop: it draws its own ``batch_schedule`` and takes an
    Adam step per batch, distilling against ``teacher_logits`` (one row per
    training sequence, and ``cfg`` as the distillation settings) when they
    are given. An MoE adds router noise, ``BALANCE_COEFF`` and the final balance."""
    train, test = data
    batches = batch_schedule(cfg, len(train.labels))
    steps = len(batches)
    moe = model.arch.stage == "moe"
    noise_rng = Rng(cfg.seed).derive("router-noise") if moe else None
    # a supervised run passes a TrainConfig, which has no alpha; without teacher logits none is read
    alpha = cfg.alpha if teacher_logits is not None else DistillConfig.alpha
    params = model.parameters()
    state = AdamState.for_params(params)
    log: list[dict] = []
    for step, idx in enumerate(batches):
        # linear decay to exactly 0 at the last step; a one-step run keeps the rate
        lr = cfg.learning_rate - cfg.learning_rate * (step / (steps - 1)) if steps > 1 else cfg.learning_rate
        breakdown, grads = loss_and_grads(
            model,
            train.tokens[idx],
            train.labels[idx],
            teacher_logits=None if teacher_logits is None else teacher_logits[idx],
            alpha=alpha,
            balance_coeff=BALANCE_COEFF if moe else 0.0,
            rng=noise_rng,
        )
        if not np.isfinite(breakdown.total):
            raise NumericalError(f"training diverged (non-finite loss) at step {step}")
        optimizer_step(params, grads, state, lr)
        row = {"step": step, **vars(breakdown), "lr": lr, "heldout_acc": ""}
        if cfg.eval_every and ((step + 1) % cfg.eval_every == 0 or step == steps - 1):
            row["heldout_acc"] = evaluate_accuracy(model, test.tokens, test.labels)
        log.append(row)
    if log and log[-1]["heldout_acc"] != "":
        final_acc = log[-1]["heldout_acc"]  # the last step was scored; the model has not moved since
    else:
        final_acc = evaluate_accuracy(model, test.tokens, test.labels)
    final_balance = _measure_balance(model, test.tokens) if moe else None
    return TrainResult(model=model, log=log, final_heldout_acc=final_acc, final_balance=final_balance)


def train_classifier(model: ClassifierModel, cfg: TrainConfig, data) -> TrainResult:
    """Supervised training on the task loss."""
    return _run_training(model, cfg, data)


def distill_student(student: ClassifierModel, teacher: ClassifierModel,
                    cfg: DistillConfig, data, teacher_logits: np.ndarray | None = None) -> TrainResult:
    """Refine the student against the frozen teacher.

    ``teacher_logits`` are ``forward_teacher``'s over at least this run's
    batch schedule; one array serves every student
    whose schedule it covers. Without them the teacher is forwarded over
    this run's schedule. The teacher is verified bit-identical before and
    after training.
    """
    teacher_before = state_hash(teacher)
    if teacher_logits is None:
        teacher_logits = forward_teacher(teacher, data[0].tokens, batch_schedule(cfg, len(data[0].labels)))
    result = _run_training(student, cfg, data, teacher_logits=teacher_logits)
    if state_hash(teacher) != teacher_before:
        raise RuntimeError("teacher weights changed during distillation")
    return result
