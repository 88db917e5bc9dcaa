"""Desk-scale classifier models.

A model is an input projection, a stack of residual blocks, a mean pool, and
a linear head. Each block applies a fixed (non-trainable, seeded) linear token
mixer followed by a per-token feed-forward stage, both behind layer norms.
The feed-forward stage is either a single dense :class:`FeedForward` or an
:class:`MoELayer` that routes every token to its top-k experts.

``forward_batch`` is the one forward implementation and ``router_probs`` the
one router gate, for any number of token rows. The forward pass is
forward-only by default: scoring, the frozen teacher's logits and the balance
measurement compute activation values alone and keep only the routing arrays.
Only a training step asks for ``need_grad=True``, which also computes the
activation derivatives and caches every intermediate the backward pass reads.
Both modes evaluate the values in the same operation order, so their logits
are bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .numerics import NumericalError, Rng, ShapeError, check_number

LAYER_NORM_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray) -> np.ndarray:
    # Tanh-form GELU value, in the operation order of _gelu_with_grad.
    inner = x * x
    inner *= _GELU_A
    inner += 1.0
    t = _GELU_C * x
    t *= inner
    np.tanh(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def _gelu_with_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Tanh-form GELU; value and derivative share one tanh evaluation. Written
    # in place, but every product and sum keeps the order of the expressions
    #   y  = 0.5 * x * (1 + t)
    #   dy = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * A * x * x)
    # so the results are bit-identical to evaluating them directly.
    x2 = x * x
    inner = _GELU_A * x2
    inner += 1.0
    t = _GELU_C * x
    t *= inner
    np.tanh(t, out=t)
    dy = 1.0 + t
    half_x = 0.5 * x
    y = half_x * dy
    dy *= 0.5
    np.multiply(t, t, out=inner)
    np.subtract(1.0, inner, out=inner)
    half_x *= inner
    half_x *= _GELU_C
    x2 *= 3.0 * _GELU_A
    x2 += 1.0
    half_x *= x2
    dy += half_x
    return y, dy


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _relu_with_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask.astype(np.float64)


_ACTIVATIONS = {"gelu": _gelu, "relu": _relu}
_ACTIVATIONS_WITH_GRAD = {"gelu": _gelu_with_grad, "relu": _relu_with_grad}


def _lookup(table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")


def activation_value(name: str):
    """Return f(x) -> value for the named activation."""
    return _lookup(_ACTIVATIONS, name)


def activation_with_grad(name: str):
    """Return f(x) -> (value, derivative) for the named activation."""
    return _lookup(_ACTIVATIONS_WITH_GRAD, name)


@dataclass
class FeedForward:
    """Two linear layers around a nonlinearity.

    Serves both as one expert inside an MoE layer and as the dense stage of a
    student model; the two roles share shapes by construction.
    """

    w1: np.ndarray  # (d_model, d_ff)
    b1: np.ndarray  # (d_ff,)
    w2: np.ndarray  # (d_ff, d_model)
    b2: np.ndarray  # (d_model,)
    activation: str = "gelu"

    def __post_init__(self):
        d, h = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h, d) or self.b2.shape != (d,):
            raise ShapeError(
                f"inconsistent feed-forward shapes: w1={self.w1.shape} b1={self.b1.shape} "
                f"w2={self.w2.shape} b2={self.b2.shape}"
            )
        activation_value(self.activation)

    @property
    def d_model(self) -> int:
        return self.w1.shape[0]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[1]

    def copy(self) -> "FeedForward":
        return FeedForward(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.activation)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class Router:
    """Linear gate over experts with Gaussian exploration noise in training."""

    weight: np.ndarray  # (d_model, num_experts)
    top_k: int
    noise_std: float | None = None  # defaults to 1/num_experts

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeError("router weight must be 2-D")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError(f"top_k={self.top_k} out of range for {self.num_experts} experts")
        if self.noise_std is None:
            self.noise_std = 1.0 / self.num_experts

    @property
    def num_experts(self) -> int:
        return self.weight.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def router_probs(x: np.ndarray, router: Router, rng: Rng | None = None) -> np.ndarray:
    """Gate probabilities for a (..., d_model) array of token rows. Noise is
    drawn iff an rng is supplied (evaluation passes rng=None)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != router.weight.shape[0]:
        raise ShapeError(f"token width {x.shape[-1]} != router input {router.weight.shape[0]}")
    logits = x @ router.weight
    if not np.isfinite(logits).all():
        raise NumericalError("router logits are non-finite: the input holds or overflows to inf/NaN")
    if rng is not None:
        logits = logits + rng.normal(size=logits.shape, scale=router.noise_std)
    return _softmax(logits)


@dataclass
class MoELayer:
    experts: list[FeedForward]
    router: Router

    def __post_init__(self):
        if not self.experts:
            raise ShapeError("MoE layer needs at least one expert")
        d, h = self.experts[0].d_model, self.experts[0].d_ff
        for i, e in enumerate(self.experts):
            if (e.d_model, e.d_ff) != (d, h):
                raise ShapeError(f"expert {i} shape {(e.d_model, e.d_ff)} != expert 0 shape {(d, h)}")
        if self.router.num_experts != len(self.experts):
            raise ShapeError(
                f"router width {self.router.num_experts} != expert count {len(self.experts)}"
            )

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def d_model(self) -> int:
        return self.experts[0].d_model

    @property
    def d_ff(self) -> int:
        return self.experts[0].d_ff


@dataclass(frozen=True)
class Architecture:
    """Shape description of a classifier; serializable for checkpoints."""

    d_model: int
    d_ff: int
    seq_len: int
    num_classes: int
    num_blocks: int = 2
    parameter_sharing: bool = True
    activation: str = "gelu"
    stage: str = "dense"  # "dense" | "moe"
    num_experts: int = 1
    top_k: int = 1
    router_noise_std: float | None = None

    def __post_init__(self):
        for name in ("d_model", "d_ff", "seq_len", "num_classes", "num_blocks", "num_experts", "top_k"):
            check_number(name, getattr(self, name), integer=True, positive=True)
        if self.router_noise_std is not None:
            check_number("router_noise_std", self.router_noise_std)
        if self.stage not in ("dense", "moe"):
            raise ValueError(f"stage must be 'dense' or 'moe', got {self.stage!r}")
        if self.stage == "moe" and not 1 <= self.top_k <= self.num_experts:
            raise ValueError(f"top_k={self.top_k} out of range for {self.num_experts} experts")
        activation_value(self.activation)

    def dense_twin(self) -> "Architecture":
        """Same shapes with the MoE stage collapsed to a single dense stage."""
        return replace(self, stage="dense", num_experts=1, top_k=1, router_noise_std=None)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Architecture":
        return Architecture(**d)


@dataclass
class Block:
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    mixer: np.ndarray  # (seq_len, seq_len), fixed at build time
    stage: FeedForward | MoELayer


@dataclass
class ClassifierModel:
    arch: Architecture
    embed: np.ndarray  # (d_model, d_model) input projection
    blocks: list[Block]
    head_w: np.ndarray  # (d_model, num_classes)
    head_b: np.ndarray  # (num_classes,)

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable tensors, in canonical order; a shared stage appears once."""
        params: dict[str, np.ndarray] = {"embed": self.embed}
        for i, blk in enumerate(self.blocks):
            params[f"block{i}.ln1.gain"] = blk.ln1_gain
            params[f"block{i}.ln1.bias"] = blk.ln1_bias
            params[f"block{i}.ln2.gain"] = blk.ln2_gain
            params[f"block{i}.ln2.bias"] = blk.ln2_bias
        for prefix, stage in self.stages():
            if isinstance(stage, MoELayer):
                params[f"{prefix}.router"] = stage.router.weight
                for e, expert in enumerate(stage.experts):
                    for name, tensor in expert.tensors().items():
                        params[f"{prefix}.expert{e}.{name}"] = tensor
            else:
                for name, tensor in stage.tensors().items():
                    params[f"{prefix}.{name}"] = tensor
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def constants(self) -> dict[str, np.ndarray]:
        """Fixed (non-trainable) tensors that still belong in a checkpoint."""
        return {f"block{i}.mixer": blk.mixer for i, blk in enumerate(self.blocks)}

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor of the model: the parameters, then the constants."""
        return {**self.parameters(), **self.constants()}

    def stages(self) -> list[tuple[str, FeedForward | MoELayer]]:
        """Unique feed-forward stages with their parameter-name prefixes."""
        if self.arch.parameter_sharing:
            return [("stage", self.blocks[0].stage)]
        return [(f"block{i}.stage", blk.stage) for i, blk in enumerate(self.blocks)]


def _init_linear(rng: Rng, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(size=(d_in, d_out), scale=np.sqrt(2.0 / (d_in + d_out)))


def _build_stage(arch: Architecture, rng: Rng) -> FeedForward | MoELayer:
    d, h = arch.d_model, arch.d_ff

    def make_ffn() -> FeedForward:
        return FeedForward(
            w1=_init_linear(rng, d, h),
            b1=np.zeros(h),
            w2=_init_linear(rng, h, d),
            b2=np.zeros(d),
            activation=arch.activation,
        )

    if arch.stage == "dense":
        return make_ffn()
    experts = [make_ffn() for _ in range(arch.num_experts)]
    router = Router(
        weight=rng.normal(size=(d, arch.num_experts), scale=0.02),
        top_k=arch.top_k,
        noise_std=arch.router_noise_std,
    )
    return MoELayer(experts=experts, router=router)


def build_classifier(arch: Architecture, rng: Rng) -> ClassifierModel:
    """Construct and initialize a model; deterministic given the rng seed."""
    d = arch.d_model
    embed = _init_linear(rng, d, d)
    shared = _build_stage(arch, rng) if arch.parameter_sharing else None
    blocks = []
    for _ in range(arch.num_blocks):
        blocks.append(
            Block(
                ln1_gain=np.ones(d),
                ln1_bias=np.zeros(d),
                ln2_gain=np.ones(d),
                ln2_bias=np.zeros(d),
                mixer=rng.normal(size=(arch.seq_len, arch.seq_len), scale=1.0 / np.sqrt(arch.seq_len)),
                stage=shared if shared is not None else _build_stage(arch, rng),
            )
        )
    head_w = _init_linear(rng, d, arch.num_classes)
    head_b = np.zeros(arch.num_classes)
    return ClassifierModel(arch=arch, embed=embed, blocks=blocks, head_w=head_w, head_b=head_b)


def count_parameters(model: ClassifierModel) -> int:
    return sum(t.size for t in model.parameters().values())


def tensor_elements(arch: Architecture) -> int:
    """Values in the parameters and constants of a model built from ``arch``,
    counted from the shapes alone, without building it."""
    d, h, c = arch.d_model, arch.d_ff, arch.num_classes
    ffn = 2 * d * h + h + d
    stage = ffn if arch.stage == "dense" else arch.num_experts * (ffn + d)
    stages = 1 if arch.parameter_sharing else arch.num_blocks
    return d * d + arch.num_blocks * (4 * d + arch.seq_len**2) + stages * stage + d * c + c


def state_hash(model: ClassifierModel) -> str:
    """SHA-256 over all tensors (trainable and fixed) in canonical order."""
    h = hashlib.sha256()
    for name, tensor in model.tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    return h.hexdigest()


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-token layer norm over the last axis; returns (y, xhat, inv_std)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    return gain * xhat + bias, xhat, inv_std


def _activate(name: str, pre: np.ndarray, need_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Activation values, and their derivative when a backward pass will need it."""
    if need_grad:
        return activation_with_grad(name)(pre)
    return activation_value(name)(pre), None


def _stage_forward_dense(stage: FeedForward, x: np.ndarray, need_grad: bool) -> tuple[np.ndarray, dict]:
    h_act, h_grad = _activate(stage.activation, x @ stage.w1 + stage.b1, need_grad)
    cache = {"kind": "dense"}
    if need_grad:
        cache.update(x=x, h_act=h_act, h_grad=h_grad)
    return h_act @ stage.w2 + stage.b2, cache


def _stage_forward_moe(
    stage: MoELayer, x: np.ndarray, rng: Rng | None, need_grad: bool
) -> tuple[np.ndarray, dict]:
    probs = router_probs(x, stage.router, rng)
    sel = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, : stage.router.top_k], axis=1)
    gates = np.take_along_axis(probs, sel, axis=1)
    out = np.zeros_like(x)
    per_expert: dict[int, dict] = {}
    for e, expert in enumerate(stage.experts):
        hits = np.nonzero((sel == e).any(axis=1))[0]
        if hits.size == 0:
            continue
        ye, ffn_cache = _stage_forward_dense(expert, x[hits], need_grad)
        g = gates[hits][sel[hits] == e]
        out[hits] += g[:, None] * ye
        if need_grad:
            per_expert[e] = {**ffn_cache, "idx": hits, "y": ye, "gate": g}
    cache = {"kind": "moe", "probs": probs, "sel": sel}
    if need_grad:
        cache.update(x=x, experts=per_expert)
    return out, cache


def forward_batch(
    model: ClassifierModel,
    tokens: np.ndarray,
    rng: Rng | None = None,
    *,
    need_grad: bool = False,
) -> tuple[np.ndarray, dict]:
    """Run a (batch, seq_len, d_model) token array through the model.

    Returns (logits, cache). The cache always carries each block's routing
    arrays under ``stage`` (``kind``, plus ``probs`` and ``sel`` for an MoE
    stage) for the balance loss and load statistics. With ``need_grad=True``
    it also holds the layer-norm statistics, the stage inputs, activations
    and their derivatives, so it can feed ``backward_from_logits``; the
    default, forward-only pass keeps none of them and is what scoring should
    use. The logits are bit-identical either way. Router noise is drawn only
    when an rng is supplied.
    """
    b, s, d = tokens.shape
    if s != model.arch.seq_len or d != model.arch.d_model:
        raise ShapeError(
            f"tokens shaped {(s, d)} but model expects ({model.arch.seq_len}, {model.arch.d_model})"
        )
    x = tokens.reshape(-1, d) @ model.embed
    x = x.reshape(b, s, d)
    cache: dict = {"tokens": tokens, "need_grad": need_grad, "blocks": []}
    for blk in model.blocks:
        ln1_out, ln1_xhat, ln1_inv = layer_norm(x, blk.ln1_gain, blk.ln1_bias)
        mixed = blk.mixer @ ln1_out
        res1 = x + mixed
        ln2_out, ln2_xhat, ln2_inv = layer_norm(res1, blk.ln2_gain, blk.ln2_bias)
        flat = ln2_out.reshape(-1, d)
        if isinstance(blk.stage, MoELayer):
            out, stage_cache = _stage_forward_moe(blk.stage, flat, rng, need_grad)
        else:
            out, stage_cache = _stage_forward_dense(blk.stage, flat, need_grad)
        x = res1 + out.reshape(b, s, d)
        blk_cache = {"stage": stage_cache}
        if need_grad:
            blk_cache.update(ln1=(ln1_xhat, ln1_inv), ln2=(ln2_xhat, ln2_inv))
        cache["blocks"].append(blk_cache)
    pooled = x.mean(axis=1)
    logits = pooled @ model.head_w + model.head_b
    cache["pooled"] = pooled
    return logits, cache
